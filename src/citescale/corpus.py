"""Columnar corpus, CSV ingestion and (category, year) grouping.

The analysis unit is one publication-to-category *assignment*: a publication
indexed under k subject categories contributes k records, one per category,
each carrying the same citation count.  All normalization downstream is
computed per (category, year) group.  A :class:`Corpus` holds the records as
four columns sorted once into (category, year, pub_id) order, so each group
is one slice of them and grouping, scoring and emission read one order.
Categories are few and repeat on every row, so the Corpus checks and ranks
each distinct category once; each ``pub_id`` is checked and ranked per row.

CSV wire format (canonical form):
    header ``pub_id,year,category,citations``, comma separated, LF line
    endings, no quoting; emission sorts rows by (category, year, pub_id).
    Ingestion reads what the csv module reads (quoted cells, CRLF, blank
    lines) but rejects a cell beyond ``csv.field_size_limit()``.  Since
    emission quotes nothing and ingestion strips cells, ``pub_id`` and
    ``category`` may not be empty, hold a comma, a double quote or a line
    break, or start or end with whitespace; the file is UTF-8, so no text
    may hold a lone surrogate.  A file in this form that is ASCII, holds
    no NUL, has no text cell that starts or ends with whitespace, has no
    line wider than the field limit, has only 1 to 19 digit years and
    counts within int64, and whose rows times widest category take no
    more bytes than the file, is parsed from its bytes: one numpy scan
    finds its line breaks and commas, the integer cells are read by digit
    arithmetic, and only ``pub_id`` becomes one ``str`` per row.  Any other
    file is decoded and goes through ``csv.reader``; both read a file alike.

Every CSV the package writes, this form and the report tables, goes
through ``_write_table``: columns of texts that carry their own comma or
line end, each either one text per row or the texts of its distinct values
with each row's index into them, joined and written in blocks of rows.
``_format_once`` formats each distinct value of a column once, telling
floats apart by their bits, and ``_per_group`` gives a group's text to
each of its rows.
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
from typing import Mapping

import numpy as np

from .errors import (
    CorpusFormatError,
    CorpusValueError,
    DuplicateRecordError,
    EmptyCorpusError,
)
from .stats import _Family, _Segments

CSV_HEADER = ("pub_id", "year", "category", "citations")
_CSV_BLOCK_ROWS = 1 << 15  # rows formatted, joined and written at a time
# A comma, double quote or line break breaks an unquoted cell; a lone
# surrogate cannot be written as UTF-8.
_UNREADABLE = re.compile('[,"\r\n\ud800-\udfff]')
# What ingestion strips from a text cell: every str.isspace() character but
# CR and LF, so that a line break at a quoted cell's edge reaches the Corpus.
_PAD = ("\t\x0b\x0c\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
        "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
_ASCII_PAD = "".join(c for c in _PAD if c.isascii())
# Bytes that send a file to csv.reader: a double quote or CR (quoting and
# CRLF are the csv module's to read) and a NUL (numpy's fixed-width bytes
# drop a trailing NUL).  An ASCII pad byte does so only at a text cell's edge.
_NOT_PLAIN = b'"\r\x00'
_IS_PAD = np.zeros(256, dtype=bool)  # by byte value
_IS_PAD[list(_ASCII_PAD.encode("ascii"))] = True


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


def _check_text(values: list, name: str) -> None:
    """:class:`CorpusValueError` unless every value is CSV text, its ``row``
    the value's index.  Whole-list checks come first: the joined text is
    searched for an unreadable character, by four substring tests when it
    is ASCII (which holds no surrogate); only a list that fails them is
    checked one value at a time, to name the row at fault."""
    try:
        if all(values) and list(map(str.strip, values)) == values:
            text = "".join(values)
            if text.isascii():
                if not any(c in text for c in ',"\r\n'):
                    return
            elif not _UNREADABLE.search(text):
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


def _codes(values: list, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of a column of CSV text, as an object
    array, and each row's index into them: its dense rank in Python's
    string order.  Each distinct value is checked once; if one fails, or a
    value cannot be hashed or ordered, every row is checked, so that the
    :class:`CorpusValueError` names the first row at fault."""
    try:
        labels = sorted(set(values))
        _check_text(labels, name)
    except (TypeError, CorpusValueError) as exc:
        error = exc
    else:
        index = dict(zip(labels, range(len(labels))))
        codes = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
        return np.array(labels, dtype=object), codes
    _check_text(values, name)
    raise error  # every value is text, but they cannot be ordered


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
    error's ``row`` is the row at fault.  ``category`` is checked and ranked
    once per distinct label, and its column holds one ``str`` object per
    label; ``pub_id`` is checked and ranked row by row.
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

        labels, cat_rank = _codes(cat.tolist(), "category")
        _check_text(pub.tolist(), "pub_id")
        pub_rank = _ranks(pub)
        pairs = cat_rank * n + pub_rank
        ordered = np.sort(pairs)
        if (ordered[1:] == ordered[:-1]).any():
            by_pair = np.argsort(pairs, kind="stable")  # equal pairs in row order
            i = int(by_pair[1:][ordered[1:] == ordered[:-1]].min())  # first repeat
            raise DuplicateRecordError(
                f"duplicate (pub_id, category) {(pub[i], cat[i])!r}", row=i
            )

        order = np.lexsort((pub_rank, year, cat_rank))
        cat_rank = cat_rank[order]
        for name, column in zip(CSV_HEADER, (pub[order], year[order],
                                             labels[cat_rank], cites[order])):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        starts = np.flatnonzero(np.diff(cat_rank) | np.diff(self.year)) + 1
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


def _int_cells(raw: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The cells ``raw[start:end]`` as int64, by digit arithmetic, or None
    unless each is 1 to 19 ASCII digits and within the int64 range."""
    width = end - start
    if len(width) and not 1 <= width.min() <= width.max() <= 19:
        return None
    value = np.zeros(len(width), dtype=np.uint64)  # 19 digits stay below 2**64
    for k in range(int(width.max(initial=0))):  # the digit worth 10**k
        digit = raw.take(end - 1 - k, mode="clip").astype(np.uint64) - ord("0")
        digit[width <= k] = 0
        if digit.max() > 9:  # a byte below "0" wraps around to a large value
            return None
        value += digit * 10**k
    return value.astype(np.int64) if value.max(initial=0) < np.uint64(2**63) else None


def _label_cells(raw: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The ASCII cells ``raw[start:end]`` as an object array of str, with
    one str object per distinct cell.  The cells are laid out as fixed-width
    bytes, NUL-padded (so no cell may hold a NUL); each run of equal cells
    is made distinct and decoded once, and repeated over its rows.  Emitted
    files are sorted by category, so the runs are few and ``np.unique``
    sorts only their heads, not every row."""
    width = end - start
    padded = np.zeros((len(width), max(int(width.max(initial=0)), 1)), dtype=np.uint8)
    for k in range(padded.shape[1]):
        padded[:, k] = np.where(k < width, raw.take(start + k, mode="clip"), 0)
    cells = padded.view(f"S{padded.shape[1]}").ravel()
    new = np.ones(len(cells), dtype=bool)
    new[1:] = cells[1:] != cells[:-1]
    heads = np.flatnonzero(new)
    distinct, codes = np.unique(cells[heads], return_inverse=True)
    labels = np.array([label.decode("ascii") for label in distinct.tolist()], dtype=object)
    return np.repeat(labels[codes], np.diff(heads, append=len(cells)))


def _text_cells(raw: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The ASCII cells ``raw[start:end]``, each followed by a comma, as an
    object array of str: the bytes of every cell and its comma are taken
    in one mask, decoded once and split on the commas."""
    bounds = np.empty(2 * len(start) + 2, dtype=np.intp)
    bounds[0], bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = 0, start, end + 1, len(raw)
    inside = np.zeros(len(bounds) - 1, dtype=bool)
    inside[1::2] = True  # the runs [start, end + 1), between runs outside every cell
    cells = raw[np.repeat(inside, np.diff(bounds))].tobytes().decode("ascii").split(",")
    cells.pop()  # the empty text after the last comma
    return np.fromiter(cells, dtype=object, count=len(cells))


def _read_plain(data: bytes) -> tuple | None:
    """The header's cells and the data rows' four columns, parsed from the
    bytes of a file in canonical form, or None for any other file.

    The file must be ASCII with no double quote, CR or NUL, and every line
    (but blank lines at the end) must hold three commas and be at most
    ``csv.field_size_limit()`` bytes wide: then csv.reader would split it
    on its line breaks and commas.  No ``pub_id`` or ``category`` cell may
    start or end with an ASCII pad byte, so that ingestion's strip would
    leave it as it is.  Every year and citation cell must also be 1 to 19
    ASCII digits within int64, a cell that ``int`` reads as its digits'
    value.  One numpy scan finds the line breaks and commas, whose
    positions bound every cell; ``category`` gets one str per distinct
    label and ``pub_id`` one per row.  The category cells are laid out as
    a rows x widest matrix, so a file whose matrix would take more bytes
    than the file itself is left to csv.reader, which reads it in time
    and memory linear in its size.
    """
    if not data.isascii() or any(byte in data for byte in _NOT_PLAIN):
        return None
    size = len(data.rstrip(b"\n"))  # blank lines at the end hold no rows
    raw = np.frombuffer(data, dtype=np.uint8, count=size)
    breaks = np.flatnonzero(raw == ord("\n"))
    commas = np.flatnonzero(raw == ord(","))
    n_lines, width = len(breaks) + 1, len(CSV_HEADER) - 1
    if len(commas) != width * n_lines:
        return None
    commas = commas.reshape(n_lines, width)  # line i's commas, if each has three
    if (commas[:-1, -1] > breaks).any() or (commas[1:, 0] < breaks).any():
        return None
    ends = np.append(breaks, size)
    if int(np.diff(ends, prepend=-1).max()) - 1 > csv.field_size_limit():
        return None
    # a data row's cell j lies between its edges j and j + 1: the line break
    # before the row, its three commas and its end
    edges = (breaks, *commas[1:].T, ends[1:])
    for j in (0, 2):  # a text cell's first and last byte (for an empty cell, its delimiters)
        if _IS_PAD[raw[edges[j] + 1]].any() or _IS_PAD[raw[edges[j + 1] - 1]].any():
            return None
    # the category cells, laid out rows x widest, may take no more bytes than the file
    if len(breaks) * int((edges[3] - edges[2] - 1).max(initial=0)) > len(data):
        return None
    year, cites = (_int_cells(raw, edges[j] + 1, edges[j + 1]) for j in (1, 3))
    if year is None or cites is None:
        return None
    header = data[: ends[0]].decode("ascii").split(",")
    pub = _text_cells(raw, edges[0] + 1, edges[1])
    return header, [pub, year, _label_cells(raw, edges[2] + 1, edges[3]), cites]


def _split(path: Path, data: bytes) -> tuple:
    """The header's cells, the data rows' four columns, each row's file
    line and the error of the line that ended the split early (or None).

    A file in canonical form is parsed from its bytes by ``_read_plain``.
    Any other file is decoded as UTF-8 (else :class:`CorpusFormatError`
    naming the line) and split by csv.reader; its text cells are stripped
    and its integer cells parsed by ``_parse_ints``.
    """
    plain = _read_plain(data)
    if plain is not None:
        header, columns = plain
        return header, columns, range(2, len(columns[0]) + 2), None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}, line {line_no}: not valid UTF-8") from None
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
    pub, year, cat, cites = (cells[i::4] for i in range(4))
    if not text.isascii() or any(c in text for c in _ASCII_PAD):
        pub, cat = (list(map(str.strip, column, repeat(_PAD))) for column in (pub, cat))
    # object arrays, which the last-wins rebuild of ingest_csv indexes with an array
    pub, cat = (np.array(column, dtype=object) for column in (pub, cat))
    return header, [pub, _parse_ints(year), cat, _parse_ints(cites)], line_nos, stop


def _parse_ints(cells: list[str]) -> np.ndarray | list:
    """``int(cell.strip())`` of each cell, each distinct string parsed once:
    an int64 array when every cell parses within int64, else a list in which
    a cell that is no integer stays a str, for the Corpus to reject and to
    name its row."""
    values = {}
    for cell in set(cells):
        with suppress(ValueError):
            values[cell] = int(cell.strip())
    try:
        return np.fromiter(map(values.__getitem__, cells), np.int64, len(cells))
    except (KeyError, OverflowError):  # a cell that is no integer, or beyond int64
        return list(map(values.get, cells, cells))


def ingest_csv(path: str | Path, strict: bool = False) -> IngestResult:
    """Read a corpus CSV: from its bytes if it is in canonical form, else
    through csv.reader (see ``_split``); both read a file alike.

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
    if not data:
        raise EmptyCorpusError(f"{path}: file is empty")
    header, columns, line_nos, error = _split(path, data)
    del data  # raw bytes: not held while the Corpus builds
    if tuple(map(str.strip, header)) != CSV_HEADER:
        raise CorpusFormatError(
            f"{path}, line 1: expected header {','.join(CSV_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

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
                pairs = zip(columns[0].tolist(), columns[2].tolist())
                keep = np.fromiter(dict(zip(pairs, range(end))).values(), np.int64)
                corpus = Corpus(*(col[keep] for col in columns))
        break
    if error is not None:
        raise error
    if not end:
        raise EmptyCorpusError(f"{path}: no data rows")
    return IngestResult(corpus=corpus, n_rows=end, n_warnings=end - len(corpus))


def _format_once(fmt: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A table column of a 1-D float64 or int64 array: ``fmt % value`` of
    each distinct value, formatted once, as an object array, and each
    element's index into it.  Values are told apart by their bits, not by
    ``==``: ``-0.0`` and ``0.0`` compare equal but ``"%.10g"`` writes them
    as ``-0`` and ``0``."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map(fmt.__mod__, bits.view(values.dtype).tolist()))
    return np.array(texts, dtype=object), index


def _per_group(texts: list[str], sizes) -> tuple[np.ndarray, np.ndarray]:
    """A table column of one text per group, repeated over its ``sizes``
    rows: the texts as an object array, and each row's group."""
    return np.array(texts, dtype=object), np.repeat(np.arange(len(texts)), sizes)


def _write_table(path: str | Path, header, columns) -> None:
    """Write a CSV table: the comma-joined header, then its rows.

    Each column is a pair: its texts, and each row's index into them (as
    from ``_format_once`` or ``_per_group``), or None when the texts are
    one per row.  Every text ends with its own comma or line end, so a row
    is its columns' texts joined.  Rows are gathered, joined and written
    ``_CSV_BLOCK_ROWS`` at a time, so the text of the whole table is never
    held at once.
    """
    texts, index = columns[0]
    n = len(texts if index is None else index)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, n, _CSV_BLOCK_ROWS):
            b = min(a + _CSV_BLOCK_ROWS, n)
            rows = np.empty((b - a, len(columns)), dtype=object)
            for j, (texts, index) in enumerate(columns):
                rows[:, j] = texts[a:b] if index is None else texts[index[a:b]]
            fh.write("".join(rows.ravel().tolist()))


def emit_csv(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical CSV form: sorted rows, LF endings, no quoting.

    Each row is its ``pub_id``, its group's ``,<year>,<category>,`` and
    its count's text, formatted once per distinct count, written by
    ``_write_table``.
    """
    slices = corpus.group_slices
    _write_table(path, CSV_HEADER, [
        (corpus.pub_id, None),
        _per_group([f",{key.year},{key.category}," for key in slices],
                   [s.stop - s.start for s in slices.values()]),
        _format_once("%d\n", corpus.citations),
    ])


def group_records(corpus: Corpus) -> Mapping[GroupKey, np.ndarray]:
    """Each (category, year) group's citation counts as read-only float64,
    the input of every score: a read-only mapping, in key order, of views
    into one float64 copy of the corpus's citation column, laid out with the
    sizes of ``corpus.group_slices``.  ``scale_corpus`` and every diagnostic
    read that one layout as it is, without laying it out or checking it
    again, and sort it at most once.

    The int64 counts are non-negative and below 2**63, so no score computed
    from them leaves float64; a count above 2**53 rounds once, and a group's
    exact counts are ``corpus.citations[corpus.group_slices[key]]``.
    Records come by pub_id within each group: the order every per-group
    vector downstream follows.
    """
    if not len(corpus):
        raise EmptyCorpusError("cannot group an empty corpus")
    size = np.array([s.stop - s.start for s in corpus.group_slices.values()], dtype=np.intp)
    return _Family(corpus.group_slices, _Segments(corpus.citations.astype(np.float64), size))
