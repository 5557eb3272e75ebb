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
    Ingestion reads what the csv module reads (quoted cells, CRLF, blank
    lines) but rejects a cell beyond ``csv.field_size_limit()``.  Since
    emission quotes nothing and ingestion strips cells, ``pub_id`` and
    ``category`` may not be empty, hold a comma, a double quote or a line
    break, or start or end with whitespace; the file is UTF-8, so no text
    may hold a lone surrogate.
"""

from __future__ import annotations

import csv
import io
import operator
import re
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import repeat
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
# What ingestion strips from a text cell: every str.isspace() character but
# CR and LF, so that a line break at a quoted cell's edge reaches the Corpus.
_PAD = ("\t\x0b\x0c\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
        "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


@dataclass(frozen=True, order=True)
class GroupKey:
    """Reference-distribution key; orders by category, then year."""

    category: str
    year: int

    def __str__(self) -> str:
        return f"{self.category}/{self.year}"


def _int64(values, name: str) -> np.ndarray:
    """``values`` as an int64 array, else :class:`CorpusValueError` naming
    the first row that is not an integer or is beyond the int64 range."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values.astype(np.int64, copy=False)
    items = values.tolist() if isinstance(values, np.ndarray) else values
    try:
        return np.array(list(map(operator.index, items)), dtype=np.int64)
    except TypeError:
        row = next(i for i, x in enumerate(items) if not hasattr(type(x), "__index__"))
        message = f"column {name!r} must hold integers, got {items[row]!r}"
    except OverflowError:
        beyond = [not -(2**63) <= operator.index(x) < 2**63 for x in items]
        row, message = beyond.index(True), f"{name} is beyond the int64 range"
    raise CorpusValueError(message, row=row)


def _check_text(column: np.ndarray, name: str) -> None:
    """:class:`CorpusValueError` unless every value of an object column is
    CSV text; whole-column checks, then one value at a time to name its row."""
    values = column.tolist()
    try:
        if all(values) and list(map(str.strip, values)) == values:
            if not _UNREADABLE.search("".join(values)):
                return
    except TypeError:  # a value that is not a str
        pass
    for row, value in enumerate(values):
        if isinstance(value, str) and not value:
            raise CorpusValueError(f"empty {name}", row=row)
        readable = isinstance(value, str) and value and value == value.strip()
        if not readable or _UNREADABLE.search(value):
            raise CorpusValueError(
                f"{name} {value!r} would not read back from CSV: it must be a "
                "non-empty, unpadded str with no comma, double quote, line "
                "break or lone surrogate",
                row=row,
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
    of ``str``, ``year`` and ``citations`` as int64.  ``group_slices`` maps
    each group key, in key order, to its slice of the columns.  A (pub_id,
    category) pair may occur once, whatever its years, and no count may be
    negative.  Each ``pub_id`` and ``category`` is a non-empty ``str`` with
    no comma, double quote, line break, lone surrogate or leading or
    trailing whitespace, so that its CSV cell reads back the same; a value
    error's ``row`` is the row at fault.
    """

    pub_id: np.ndarray
    year: np.ndarray
    category: np.ndarray
    citations: np.ndarray
    group_slices: dict[GroupKey, slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        pub = np.array(self.pub_id, dtype=object)
        cat = np.array(self.category, dtype=object)
        year, cites = _int64(self.year, "year"), _int64(self.citations, "citations")
        n = len(pub)
        if not len(year) == len(cat) == len(cites) == n:
            raise ValueError("corpus columns must have equal lengths")
        if n and cites.min() < 0:
            row = int(np.argmax(cites < 0))
            raise CorpusValueError(f"citations must be >= 0, got {cites[row]}", row=row)

        _check_text(cat, "category")
        _check_text(pub, "pub_id")
        cat_rank, pub_rank = _ranks(cat), _ranks(pub)
        pairs = cat_rank * n + pub_rank
        ordered = np.sort(pairs)
        if (ordered[1:] == ordered[:-1]).any():
            by_pair = np.argsort(pairs, kind="stable")  # equal pairs in row order
            i = int(by_pair[1:][ordered[1:] == ordered[:-1]].min())  # first repeat
            raise DuplicateRecordError(
                f"duplicate (pub_id, category) {(pub[i], cat[i])!r}", row=i
            )

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


def _split(path: Path, text: str) -> tuple:
    """Split corpus text into the header's cells, the data rows' cells in
    one flat list, each row's file line and the error of the line that ended
    the split early (or None).  Only text with a double quote, CR, blank or
    ragged line, or a line beyond the csv field limit goes through csv."""
    lines = text.rstrip("\n").split("\n")  # blank lines at the end hold no rows
    plain = '"' not in text and "\r" not in text
    if plain and max(map(len, lines)) <= csv.field_size_limit():
        if set(map(str.count, lines, repeat(","))) == {len(CSV_HEADER) - 1}:
            cells = ",".join(lines).split(",")
            return cells[:4], cells[4:], range(2, len(lines) + 1), None
    reader = csv.reader(io.StringIO(text, newline=""))
    header, cells, line_nos, stop = None, [], [], None
    try:
        header = next(reader, [])
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if row and len(row) != len(CSV_HEADER):
                stop = CorpusFormatError(
                    f"{path}, line {line}: expected {len(CSV_HEADER)} columns, "
                    f"got {len(row)}"
                )
                break
            if row:  # not a blank line
                cells += row
                line_nos.append(line)
    except csv.Error as exc:
        stop = CorpusFormatError(f"{path}, line {reader.line_num}: {exc}")
        if header is None:
            raise stop from None
    return header, cells, line_nos, stop


def _parse_ints(cells: list[str]) -> list:
    """``int(cell.strip())`` of each cell, each distinct string parsed once;
    a cell that is no integer stays a str, for the Corpus to reject."""
    values = {}
    for cell in set(cells):
        with suppress(ValueError):
            values[cell] = int(cell.strip())
    return list(map(values.get, cells, cells))


def ingest_csv(path: str | Path, strict: bool = False) -> IngestResult:
    """Read a corpus CSV.

    Duplicate (pub_id, category) rows raise :class:`DuplicateRecordError` in
    strict mode; otherwise the last row wins and each replacement is counted
    as a warning.

    Raises :class:`CorpusFormatError` for a bad header, ragged rows or a
    line the csv module cannot split, :class:`CorpusValueError` for bad cell
    values, a year or count beyond int64 included (both name the first
    offending line; text that is not UTF-8 is a format error), and
    :class:`EmptyCorpusError` for a file with no data rows.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}, line {line_no}: not valid UTF-8") from None
    if not text:
        raise EmptyCorpusError(f"{path}: file is empty")
    header, cells, line_nos, error = _split(path, text)
    if tuple(map(str.strip, header)) != CSV_HEADER:
        raise CorpusFormatError(
            f"{path}, line 1: expected header {','.join(CSV_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    pub, year, cat, cites = (cells[i::4] for i in range(4))
    pub, cat = (list(map(str.strip, column, repeat(_PAD))) for column in (pub, cat))
    columns = [pub, _parse_ints(year), cat, _parse_ints(cites)]
    del data, text, cells, year, cites  # raw text: not held while the Corpus builds

    # `error` belongs to row `end`, and the Corpus checks the rows before
    # it; each error it finds there moves `end` back, until none is left.
    end = len(line_nos)
    while True:
        columns = [column[:end] for column in columns]
        try:
            corpus = Corpus(*columns)
        except CorpusValueError as exc:
            if strict or not isinstance(exc, DuplicateRecordError):
                end = exc.row
                error = type(exc)(f"{path}, line {line_nos[end]}: {exc}")
                continue
            if error is None:  # values are checked before duplicates: last row wins
                keep = dict(zip(zip(columns[0], columns[2]), range(end))).values()
                corpus = Corpus(*(list(map(col.__getitem__, keep)) for col in columns))
        break
    if error is not None:
        raise error
    if not end:
        raise EmptyCorpusError(f"{path}: no data rows")
    return IngestResult(corpus=corpus, n_rows=end, n_warnings=end - len(corpus))


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

    The int64 counts are non-negative and below 2**63, so no score computed
    from them leaves float64; a count above 2**53 rounds once, and a group's
    exact counts are ``corpus.citations[corpus.group_slices[key]]``.
    Groups come in key order and records by pub_id within each group: the
    order every per-group vector downstream follows.
    """
    if not len(corpus):
        raise EmptyCorpusError("cannot group an empty corpus")
    counts = corpus.citations.astype(np.float64)
    counts.flags.writeable = False
    return {key: counts[s] for key, s in corpus.group_slices.items()}
