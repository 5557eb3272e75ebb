"""Columnar corpus, CSV ingestion and (category, year) grouping.

The analysis unit is one publication-to-category *assignment*: a publication
indexed under k subject categories contributes k records, one per category,
each carrying the same citation count.  All normalization downstream is
computed per (category, year) group.  A :class:`Corpus` holds the records as
four columns sorted once into (category, year, pub_id) order, so each group
is one slice of them and grouping, scoring and emission read one order.
``pub_id`` is a numpy ``StringDType`` column (NEP 55: UTF-8 text, ids of
up to 15 bytes stored inline), so a corpus holds no Python object per
record.  Categories are few and repeat on every row, so each distinct
category is checked and ranked once.  The constructor checks and ranks
each ``pub_id`` as a ``str``; the CSV byte parse codes its rows, ranks
included, without a ``str`` per row, and so does ``_generated``, which
owns the generated ``pub_id`` format ``<category>-<year>-<index>`` and
builds the rows ``synth.generate`` draws.

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
    line wider than the field limit, has no empty text cell, has only 1 to
    19 digit years and counts within int64, and whose rows times widest
    ``pub_id`` and category take no more bytes than the file, is parsed
    from its bytes: one numpy scan finds its line breaks and commas, the
    integer cells are read by digit arithmetic, and the text cells are
    ranked as bytes and never become one ``str`` per row.  Any other file
    is decoded and goes through ``csv.reader``; both read a file alike.

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
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    CorpusFormatError,
    CorpusValueError,
    DuplicateRecordError,
    EmptyCorpusError,
)
from .stats import _Family, _Segments

CSV_HEADER = ("pub_id", "year", "category", "citations")
_CSV_BLOCK_ROWS = 1 << 13  # rows formatted, joined and written at a time
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
_IS_SEP = np.zeros(256, dtype=bool)  # by byte value: a comma or a line break
_IS_SEP[[ord(","), ord("\n")]] = True
_LINE_SEPS = np.frombuffer(b",,,\n", dtype=np.uint8)  # a line's separators, in order
_IS_PAD = np.zeros(256, dtype=bool)  # by byte value
_IS_PAD[list(_ASCII_PAD.encode("ascii"))] = True
_TEXT = np.dtypes.StringDType()  # numpy's UTF-8 text of any length (NEP 55)
_INDEX_DIGITS = 6  # a generated pub_id's index is zero-padded to this many digits


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
    """Dense ranks of a column in Python's string order: an object column
    of str, NUL-free ASCII cells as fixed-width bytes, whose NUL padding
    sorts a prefix first as ``str`` does, or a ``StringDType`` column that
    holds no NUL, since its comparisons end at a NUL: numpy 2.4 finds
    ``"a\\x000"`` equal to ``"a\\x001"``."""
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    new = np.ones(len(column), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    del ordered
    ranks = np.empty(len(column), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


class _Coded(NamedTuple):
    """Checked rows in any row order, coded by ``_checked``, ``_generated``
    or ``_split``'s byte parse: the sorted distinct category labels (an
    object array of str), and per row the index of its label, its
    ``pub_id``, its ``pub_id``'s rank, its year and its count (int64).
    The ``pub_id`` column stays as its producer made it, an object array of
    str, NUL-free ASCII cells as fixed-width bytes or ``StringDType``, until
    the Corpus has sorted it: gathering ``StringDType`` rows costs 20 to 30
    times what gathering either of the others does.  The ranks need not
    order ids across groups or categories: they order the ids of a
    (category, year) group as ``str``, and two rows of a category share a
    rank exactly when they share a ``pub_id``.  ``_checked`` and the byte
    parse rank every id of the column as ``str``; ``_generated`` ranks
    each spec's ids by their index text alone.  Every check of a Corpus
    but the duplicate check has passed."""

    labels: np.ndarray
    code: np.ndarray
    pub_id: np.ndarray
    pub_rank: np.ndarray
    year: np.ndarray
    citations: np.ndarray

    def take(self, rows: np.ndarray) -> _Coded:
        """The rows at the indexes ``rows``, in new arrays."""
        return _Coded(self.labels, *(column[rows] for column in self[1:]))

    def pairs(self) -> np.ndarray:
        """Each row's (pub_id, category) as one integer, equal for equal pairs."""
        return self.code * (int(self.pub_rank.max(initial=-1)) + 1) + self.pub_rank

    def first_repeat(self) -> int | None:
        """The first row whose (pub_id, category) an earlier row holds, or None."""
        pairs = self.pairs()
        ordered = np.sort(pairs)
        repeats = ordered[1:] == ordered[:-1]
        if not repeats.any():
            return None
        by_pair = np.argsort(pairs, kind="stable")  # equal pairs in row order
        return int(by_pair[1:][repeats].min())


def _checked(pub_id, year, category, citations) -> _Coded:
    """The columns of a Corpus built in code or read by csv.reader, each
    value checked, then coded.  Each distinct category is checked and
    ranked once (``_codes``); each ``pub_id`` is checked and ranked as a
    ``str``, before the column becomes ``StringDType``, which would take an
    int as its text and cannot hold a lone surrogate."""
    pub = np.array(pub_id, dtype=object)
    cat = np.array(category, dtype=object)
    year, cites = _int64(year, "year"), _int64(citations, "citations")
    n = len(pub)
    if not len(year) == len(cat) == len(cites) == n:
        raise ValueError("corpus columns must have equal lengths")
    if n and cites.min() < 0:
        row = int(np.argmax(cites < 0))
        raise CorpusValueError(f"citations must be >= 0, got {cites[row]}", row=row)
    labels, code = _codes(cat.tolist(), "category")
    _check_text(pub.tolist(), "pub_id")
    return _Coded(labels, code, pub, _ranks(pub), year, cites)


def _generated(categories: list, years: list, sizes: list, counts: list) -> _Coded:
    """The rows of specs, coded: spec s gives ``sizes[s]`` rows of category
    ``categories[s]`` and year ``years[s]``, whose counts are the int64
    ``counts[s]`` and whose ``pub_id`` values are ``<category>-<year>-<index>``
    for the indexes 0 to ``sizes[s] - 1``, zero-padded to ``_INDEX_DIGITS``
    digits.  Each spec's category and year is checked once, an error
    naming the spec's first row.  No two specs may share a (category,
    year), as ``synth.Scenario`` ensures.

    A row's rank is ``spec * len(index)`` plus its index text's rank, so no
    ``pub_id`` becomes a ``str``.  This meets ``_Coded``'s rules.  A spec
    is one (category, year) group, whose ids share their prefix and so
    order as their index texts.  No two rows share a rank, and no two rows
    of a category share an id: within a spec the index texts differ, and
    an id's year and index are read back after its category, since the
    all-digit index holds no ``-``, so two specs of one category never
    share an id."""
    first = np.cumsum([0, *sizes])  # each spec's first row
    try:
        year = _int64(years, "year")
        labels, code = _codes(categories, "category")
    except CorpusValueError as exc:
        raise CorpusValueError(str(exc), row=int(first[exc.row])) from None
    index = np.strings.zfill(np.arange(max(sizes)).astype(_TEXT), _INDEX_DIGITS)
    rank = _ranks(index)
    pub = np.concatenate([np.strings.add(f"{c}-{y}-", index[:n])
                          for c, y, n in zip(categories, year.tolist(), sizes)])
    rank = np.concatenate([s * len(index) + rank[:n] for s, n in enumerate(sizes)])
    return _Coded(labels, np.repeat(code, sizes), pub, rank, np.repeat(year, sizes),
                  np.concatenate(counts))


@dataclass(frozen=True, eq=False)
class Corpus:
    """Read-only record columns, built in any row order and kept sorted by
    (category, year, pub_id): ``pub_id`` as numpy's UTF-8 ``StringDType``,
    whose elements read as ``str``, ``category`` as an object array of
    ``str``, ``year`` and ``citations`` as int64.  ``group_slices`` maps
    each group key, in key order, to its slice of the columns.  A (pub_id,
    category) pair may occur once, whatever its years, and no count may be
    negative.  Each ``pub_id`` and ``category`` is a non-empty ``str`` with
    no comma, double quote, line break, lone surrogate or leading or
    trailing whitespace, so that its CSV cell reads back the same; a value
    error's ``row`` is the row at fault.  The constructor checks and ranks
    ``category`` once per distinct label, and its column holds one ``str``
    object per label; it checks and ranks ``pub_id`` row by row.  The
    package's own producers hand over coded rows (``_Coded``) to
    ``Corpus._of``, which runs only the duplicate check and the sort:
    ``ingest_csv``'s byte parse, and ``_generated``, which builds the rows
    of ``synth.generate`` with their ``<category>-<year>-<index>`` ids.
    """

    pub_id: np.ndarray
    year: np.ndarray
    category: np.ndarray
    citations: np.ndarray
    group_slices: dict[GroupKey, slice] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._build(_checked(self.pub_id, self.year, self.category, self.citations))

    @classmethod
    def _of(cls, coded: _Coded) -> Corpus:
        """The Corpus of rows that their producer has checked and coded."""
        corpus = object.__new__(cls)
        corpus._build(coded)
        return corpus

    def _build(self, coded: _Coded) -> None:
        """Reject a repeated (pub_id, category), naming the first row that
        repeats an earlier one, then sort the rows, make ``pub_id`` a
        ``StringDType`` column and find the groups."""
        labels, code, pub, rank, year, cites = coded
        i = coded.first_repeat()
        if i is not None:
            pair = pub[i:i + 1].astype(_TEXT).item(), labels[code[i]]
            raise DuplicateRecordError(f"duplicate (pub_id, category) {pair!r}", row=i)

        order = np.lexsort((rank, year, code))
        code = code[order]
        columns = pub[order].astype(_TEXT, copy=False), year[order], labels[code], cites[order]
        for name, column in zip(CSV_HEADER, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        n = len(code)
        starts = np.flatnonzero(np.diff(code) | np.diff(self.year)) + 1
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
        same = (np.array_equal(getattr(self, c), getattr(other, c)) for c in CSV_HEADER[1:])
        # numpy's StringDType comparisons end at a NUL, so the ids compare as str
        return all(same) and self.pub_id.tolist() == other.pub_id.tolist()


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


def _cells(raw: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The ASCII cells ``raw[start:end]`` as fixed-width bytes, NUL-padded
    (so no cell may hold a NUL), laid out by one ``take`` per byte position."""
    width = end - start
    padded = np.zeros((len(width), max(int(width.max(initial=0)), 1)), dtype=np.uint8)
    for k in range(padded.shape[1]):
        padded[:, k] = np.where(k < width, raw.take(start + k, mode="clip"), 0)
    return padded.view(f"S{padded.shape[1]}").ravel()


def _labels(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct texts of ``_cells``, as an object array of str,
    and each row's index into them.  Each run of equal cells is made
    distinct and decoded once: emitted files are sorted by category, so the
    runs are few and ``np.unique`` sorts only their heads, not every row."""
    new = np.ones(len(cells), dtype=bool)
    new[1:] = cells[1:] != cells[:-1]
    heads = np.flatnonzero(new)
    distinct, codes = np.unique(cells[heads], return_inverse=True)
    labels = np.array([label.decode("ascii") for label in distinct.tolist()], dtype=object)
    return labels, np.repeat(codes, np.diff(heads, append=len(cells)))


def _read_plain(data: bytes) -> tuple | None:
    """The header's cells, the ``pub_id`` and category cells (``_cells``)
    and the year and citation columns, parsed from the bytes of a file in
    canonical form, or None for any other file.

    The file must be ASCII with no double quote, CR or NUL, and every line
    (but blank lines at the end) must hold three commas and be at most
    ``csv.field_size_limit()`` bytes wide: then csv.reader would split it
    on its line breaks and commas.  No ``pub_id`` or ``category`` cell may
    be empty or start or end with an ASCII pad byte, so that each is text
    a Corpus accepts, as ingestion's strip would leave it.  Every year and
    citation cell must also be 1 to 19 ASCII digits within int64, a cell
    that ``int`` reads as its digits' value.  One numpy scan finds the
    commas and line breaks, whose positions bound every cell.  The text
    cells are laid out as rows x widest bytes (``_cells``), so a file whose
    cells would take more bytes than the file itself is left to
    csv.reader, which reads it in time and memory linear in its size.
    """
    if not data.isascii() or any(byte in data for byte in _NOT_PLAIN):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"  # the last line, too, ends with its line break
    size = len(data.rstrip(b"\n")) + 1  # blank lines at the end hold no rows
    raw = np.frombuffer(data, dtype=np.uint8, count=size)
    seps = np.flatnonzero(_IS_SEP[raw])  # line i's are seps[4 * i: 4 * i + 4]
    if len(seps) % 4 or (raw[seps].reshape(-1, 4) != _LINE_SEPS).any():
        return None
    if int(np.diff(seps[3::4], prepend=-1).max()) - 1 > csv.field_size_limit():
        return None

    def cell(j: int) -> tuple[np.ndarray, np.ndarray]:
        """Each data row's cell j, as its start and end: row i's lies
        between its separators 4 * i + 3 + j and 4 * i + 4 + j."""
        return seps[3 + j:-1:4] + 1, seps[4 + j::4]

    widest = 0
    for j in (0, 2):  # the text cells
        start, end = cell(j)
        if (start == end).any() or _IS_PAD[raw[start]].any() or _IS_PAD[raw[end - 1]].any():
            return None
        widest += int((end - start).max(initial=0))
    # the text cells, laid out rows x widest, may take no more bytes than the file
    if len(start) * widest > len(data):
        return None
    year, cites = (_int_cells(raw, *cell(j)) for j in (1, 3))
    if year is None or cites is None:
        return None
    header = data[: seps[3]].decode("ascii").split(",")
    return header, _cells(raw, *cell(0)), _cells(raw, *cell(2)), year, cites


def _split(path: Path) -> tuple:
    """The header's cells, the data rows before the first bad row, checked
    and coded, each row's file line and the error of the first bad row (or
    None).

    A file in canonical form is parsed from its bytes by ``_read_plain``,
    and has no bad row but a repeated (pub_id, category).  Its category
    gets one str per distinct label (``_labels``) and its ``pub_id`` none:
    the cells are ranked as bytes, whose order is ``str`` order for ASCII
    with no NUL, and stay bytes until the Corpus has sorted them.  Any
    other file is decoded as UTF-8 (else :class:`CorpusFormatError` naming
    the line) and split by csv.reader, up to a line it cannot split; its
    text cells are stripped, its integer cells parsed by ``_parse_ints``,
    and its rows checked as a Corpus checks them.  Either way the file's
    bytes are dropped before the rows are coded.
    """
    data = path.read_bytes()
    if not data:
        raise EmptyCorpusError(f"{path}: file is empty")
    plain = _read_plain(data)
    if plain is not None:
        del data
        header, pub, cat, year, cites = plain
        coded = _Coded(*_labels(cat), pub, _ranks(pub), year, cites)
        return header, coded, range(2, len(pub) + 2), None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}, line {line_no}: not valid UTF-8") from None
    del data
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
    columns = [pub, _parse_ints(year), cat, _parse_ints(cites)]
    # each bad row the checks find ends the rows before it, which are checked
    # again, until none is left
    end = len(line_nos)
    while True:
        try:
            return header, _checked(*(column[:end] for column in columns)), line_nos, stop
        except CorpusValueError as exc:
            end = exc.row
            stop = type(exc)(f"{path}, line {line_nos[end]}: {exc}")


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
    header, coded, line_nos, error = _split(path)
    if tuple(map(str.strip, header)) != CSV_HEADER:
        raise CorpusFormatError(
            f"{path}, line 1: expected header {','.join(CSV_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

    # `error` belongs to the row after the coded ones, which hold no other
    # bad value: a repeated (pub_id, category) among them is the first error
    # when strict, and otherwise the last of its rows wins
    n_rows = len(coded.code)
    try:
        corpus = Corpus._of(coded)
    except DuplicateRecordError as exc:
        if strict:
            error = type(exc)(f"{path}, line {line_nos[exc.row]}: {exc}")
        elif error is None:
            pairs = coded.pairs()
            order = np.argsort(pairs, kind="stable")  # equal pairs in row order
            last = np.append(pairs[order[1:]] != pairs[order[:-1]], True)
            corpus = Corpus._of(coded.take(order[last]))
    if error is not None:
        raise error
    if not n_rows:
        raise EmptyCorpusError(f"{path}: no data rows")
    return IngestResult(corpus=corpus, n_rows=n_rows, n_warnings=n_rows - len(corpus))


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
    held at once, nor a ``str`` per row of a ``StringDType`` column: a
    block's texts become ``str`` as they are gathered.
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
