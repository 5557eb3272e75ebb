"""Columnar corpus, CSV ingestion and (category, year) grouping.

The analysis unit is one publication-to-category *assignment*: a publication
indexed under k subject categories contributes k records, one per category,
each carrying the same citation count.  All normalization downstream is
computed per (category, year) group.  A :class:`Corpus` holds the records as
four columns sorted once into (category, year, pub_id) order, so each group
is one slice of them and grouping, scoring and emission read one order.

CSV wire format (canonical form):
    header ``pub_id,year,category,citations``, comma separated, LF line
    endings, no quoting; emission sorts rows by (category, year, pub_id).
    Since nothing is quoted and ingestion strips cells, ``pub_id`` and
    ``category`` may not be empty, hold a comma, a double quote or a line
    break, or start or end with whitespace; the file is UTF-8, so no text
    may hold a lone surrogate.
"""

from __future__ import annotations

import csv
import io
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CorpusFormatError,
    CorpusValueError,
    DuplicateRecordError,
    EmptyCorpusError,
)

CSV_HEADER = ("pub_id", "year", "category", "citations")
# A comma, double quote or line break breaks an unquoted cell; a lone
# surrogate cannot be written as UTF-8.
_UNREADABLE = re.compile('[,"\r\n\ud800-\udfff]')


@dataclass(frozen=True, order=True)
class GroupKey:
    """Reference-distribution key; orders by category, then year."""

    category: str
    year: int

    def __str__(self) -> str:
        return f"{self.category}/{self.year}"


def _integers(values):
    """``values`` as they are when they are all integers (an int64 array
    passes untouched), else :class:`CorpusValueError`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    items = values.tolist() if isinstance(values, np.ndarray) else values
    try:
        return list(map(operator.index, items))
    except TypeError:
        raise CorpusValueError("years and citations must be integers") from None


def _check_text(column: np.ndarray, name: str) -> None:
    """:class:`CorpusValueError` unless every value of an object column is
    CSV text; whole-column checks, then one value at a time to name it."""
    values = column.tolist()
    try:
        if all(values) and list(map(str.strip, values)) == values:
            if not _UNREADABLE.search("".join(values)):
                return
    except TypeError:  # a value that is not a str
        pass
    for value in values:
        readable = isinstance(value, str) and value and value == value.strip()
        if not readable or _UNREADABLE.search(value):
            raise CorpusValueError(
                f"{name} {value!r} would not read back from CSV: it must be a "
                "non-empty, unpadded str with no comma, double quote, line "
                "break or lone surrogate"
            )


def _ranks(column: np.ndarray) -> np.ndarray:
    """Dense ranks of an object column of str, in Python's string order."""
    order = np.argsort(column, kind="stable")
    new = np.ones(len(column), dtype=bool)
    new[1:] = column[order[1:]] != column[order[:-1]]
    ranks = np.empty(len(column), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


@dataclass(frozen=True, eq=False)
class Corpus:
    """Read-only record columns, built in any row order and kept sorted by
    (category, year, pub_id): ``pub_id`` and ``category`` as object arrays
    of ``str``, ``year`` as int64, ``citations`` as int64 or, when a count
    is beyond int64, as Python ints.  ``group_slices`` maps each group key,
    in key order, to its slice of the columns.  A (pub_id, category) pair
    may occur once, whatever its years, and no count may be negative.  Each
    ``pub_id`` and ``category`` is a non-empty ``str`` with no comma, double
    quote, line break, lone surrogate or leading or trailing whitespace, so
    that its CSV cell reads back the same, and every count fits in float64,
    the type every score is computed in.
    """

    pub_id: np.ndarray
    year: np.ndarray
    category: np.ndarray
    citations: np.ndarray
    group_slices: dict[GroupKey, slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pub = np.array(self.pub_id, dtype=object)
        cat = np.array(self.category, dtype=object)
        try:
            year = np.array(_integers(self.year), dtype=np.int64)
        except OverflowError:
            raise CorpusValueError("years must fit in int64") from None
        cites = _integers(self.citations)
        try:
            cites = np.array(cites, dtype=np.int64)
        except OverflowError:  # exact Python ints beyond int64
            cites = np.array(cites, dtype=object)
        n = len(pub)
        if not len(year) == len(cat) == len(cites) == n:
            raise ValueError("corpus columns must have equal lengths")
        if n and cites.min() < 0:
            raise CorpusValueError(f"citations must be >= 0, got {cites.min()}")
        if cites.dtype == object:
            try:
                float(cites.max())
            except OverflowError:
                raise CorpusValueError("citations exceed the float64 range") from None

        _check_text(cat, "category")
        _check_text(pub, "pub_id")
        cat_rank, pub_rank = _ranks(cat), _ranks(pub)
        pairs = cat_rank * n + pub_rank
        ordered = np.sort(pairs)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            i = int(np.argmax(pairs == repeated[0]))
            raise CorpusValueError(f"duplicate (pub_id, category) {(pub[i], cat[i])!r}")

        order = np.lexsort((pub_rank, year, cat_rank))
        for name, column in zip(CSV_HEADER, (pub, year, cat, cites)):
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        starts = np.flatnonzero(np.diff(cat_rank[order]) | np.diff(self.year)) + 1
        bounds = [0, *starts.tolist(), n] if n else []
        keys = zip(self.category[bounds[:-1]], self.year[bounds[:-1]].tolist())
        object.__setattr__(self, "group_slices", {
            GroupKey(*key): slice(a, b) for key, a, b in zip(keys, bounds, bounds[1:])
        })

    def __len__(self) -> int:
        return len(self.pub_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        same = (np.array_equal(getattr(self, c), getattr(other, c)) for c in CSV_HEADER)
        return all(same)


@dataclass(frozen=True)
class IngestResult:
    """Corpus plus the ingestion accounting the caller must be able to report."""

    corpus: Corpus
    n_rows: int
    n_warnings: int


def _parse_int(raw: str, column: str, line_no: int) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise CorpusValueError(
            f"line {line_no}: column {column!r} must be an integer, got {raw!r}"
        ) from None


def _raise_first_bad_row(path: Path, text: str, strict: bool) -> None:
    """Raise the error of the first bad line, reading the rows one by one:
    the slow path, taken only once a whole-column check failed."""
    reader = csv.reader(io.StringIO(text, newline=""))
    seen: set[tuple[str, str]] = set()
    try:
        next(reader)  # the header, checked already
        for line_no, row in enumerate(reader, start=2):
            where = f"{path}, line {line_no}"
            if not row:  # tolerate blank lines
                continue
            if len(row) != len(CSV_HEADER):
                raise CorpusFormatError(
                    f"{where}: expected {len(CSV_HEADER)} columns, got {len(row)}"
                )
            pub_id, category = row[0].strip(), row[2].strip()
            if not pub_id:
                raise CorpusValueError(f"{where}: empty pub_id")
            if _UNREADABLE.search(row[0]) or _UNREADABLE.search(row[2]):
                raise CorpusValueError(
                    f"{where}: pub_id and category must not contain commas, "
                    "double quotes or line breaks"
                )
            if not -(2**63) <= _parse_int(row[1], "year", line_no) < 2**63:
                raise CorpusValueError(f"{where}: year is beyond the int64 range")
            if not category:
                raise CorpusValueError(f"{where}: empty category")
            citations = _parse_int(row[3], "citations", line_no)
            if citations < 0:
                raise CorpusValueError(
                    f"{where}: citations must be >= 0, got {citations}"
                )
            try:
                float(citations)  # every score is computed in float64
            except OverflowError:
                raise CorpusValueError(
                    f"{where}: citations exceed the float64 range"
                ) from None
            if strict and (pub_id, category) in seen:
                raise DuplicateRecordError(
                    f"{where}: duplicate (pub_id, category) {(pub_id, category)!r}"
                )
            seen.add((pub_id, category))
    except csv.Error as exc:
        raise CorpusFormatError(f"{path}, line {reader.line_num}: {exc}") from None
    raise AssertionError("a column check failed but every row is good")


def ingest_csv(path: str | Path, strict: bool = False) -> IngestResult:
    """Read a corpus CSV.

    Duplicate (pub_id, category) rows raise :class:`DuplicateRecordError` in
    strict mode; otherwise the last row wins and each replacement is counted
    as a warning.

    Raises :class:`CorpusFormatError` for a bad header, ragged rows or a
    line the csv module cannot split, :class:`CorpusValueError` for bad cell
    values, a year beyond int64 or a count float64 cannot hold included
    (both name the first offending line; text that is not UTF-8 is a format
    error), and :class:`EmptyCorpusError` for a file with no data rows.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}, line {line_no}: not valid UTF-8") from None

    # Stream the rows into four columns and check whole columns; when a
    # check fails, _raise_first_bad_row reads the rows again to name the line.
    raw: list[list[str]] = [[], [], [], []]
    add_pub, add_year, add_cat, add_cites = (col.append for col in raw)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyCorpusError(f"{path}: file is empty")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise CorpusFormatError(
                f"{path}, line 1: expected header {','.join(CSV_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        for pub_id, year, category, citations in filter(None, reader):  # no blanks
            add_pub(pub_id)
            add_year(year)
            add_cat(category)
            add_cites(citations)
        pub = list(map(str.strip, raw[0]))
        cat = list(map(str.strip, raw[2]))
        years = np.fromiter(map(int, map(str.strip, raw[1])), np.int64, len(pub))
        cites = list(map(int, map(str.strip, raw[3])))
        float(max(cites, default=0))  # every score is computed in float64
        # The Corpus sees stripped text of kept rows only: check every count,
        # and a line break that stripping hides at a quoted cell's edge, here.
        cells = "".join(raw[0] + raw[2]) if '"' in text else ""
        ok = min(cites, default=0) >= 0 and "\r" not in cells and "\n" not in cells
    except (csv.Error, ValueError, OverflowError):  # a ragged row fails to unpack
        ok = False
    n = len(raw[0])
    # "pub_id,category" keys an assignment: two rows collide otherwise only
    # when both hold a comma, which the Corpus rejects in the row kept.
    last = dict(zip([p + "," + c for p, c in zip(pub, cat)], range(n))) if ok else {}
    n_warnings = n - len(last)  # the last row wins
    if not ok or (strict and n_warnings):
        _raise_first_bad_row(path, text, strict)
    if not n:
        raise EmptyCorpusError(f"{path}: no data rows")
    columns = [pub, years, cat, cites]
    if n_warnings:
        keep = list(last.values())
        columns = [[col[i] for i in keep] for col in columns]
    try:
        corpus = Corpus(*columns)
    except CorpusValueError:
        _raise_first_bad_row(path, text, strict)
    return IngestResult(corpus=corpus, n_rows=n, n_warnings=n_warnings)


def write_csv(path: str | Path, header, template: str, rows) -> None:
    """Write the comma-joined header, then ``template % row`` for each row
    (``%.10g`` formats a float as ``format(x, '.10g')`` does)."""
    body = "".join(map(template.__mod__, rows))
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + body)


def emit_csv(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical CSV form: sorted rows, LF endings, no quoting."""
    columns = (getattr(corpus, name).tolist() for name in CSV_HEADER)
    write_csv(path, CSV_HEADER, "%s,%d,%s,%d\n", zip(*columns))


def group_records(corpus: Corpus) -> dict[GroupKey, np.ndarray]:
    """Each (category, year) group's citation counts as read-only float64,
    the input of every score.

    Exact counts round once to float64, so counts beyond 2**63 still score;
    a group's exact counts are ``corpus.citations[corpus.group_slices[key]]``.
    Groups come in key order and records by pub_id within each group: the
    order every per-group vector downstream follows.
    """
    if not len(corpus):
        raise EmptyCorpusError("cannot group an empty corpus")
    counts = corpus.citations.astype(np.float64)
    counts.flags.writeable = False
    return {key: counts[s] for key, s in corpus.group_slices.items()}
