"""Publication records, CSV ingestion and (category, year) grouping.

The analysis unit is one publication-to-category *assignment*: a publication
indexed under k subject categories contributes k records, one per category,
each carrying the same citation count.  All normalization downstream is
computed per (category, year) group.

CSV wire format (canonical form):
    header ``pub_id,year,category,citations``, comma separated, LF line
    endings, no quoting; emission sorts rows by (category, year, pub_id).
    Since nothing is quoted, ``pub_id`` and ``category`` may not hold a
    comma, a double quote or a line break.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorpusFormatError,
    CorpusValueError,
    DuplicateRecordError,
    EmptyCorpusError,
)

CSV_HEADER = ("pub_id", "year", "category", "citations")
_UNQUOTABLE = re.compile(r'[,"\r\n]')


@dataclass(frozen=True, order=True)
class GroupKey:
    """Reference-distribution key; orders by category, then year."""

    category: str
    year: int

    def __str__(self) -> str:
        return f"{self.category}/{self.year}"


@dataclass(frozen=True)
class PubRecord:
    """One publication-to-category assignment with its citation count."""

    pub_id: str
    year: int
    category: str
    citations: int

    def __post_init__(self) -> None:
        if self.citations < 0:
            raise CorpusValueError(
                f"record {self.pub_id!r}: citations must be >= 0, got {self.citations}"
            )

    @property
    def key(self) -> GroupKey:
        return GroupKey(self.category, self.year)


@dataclass(frozen=True)
class Corpus:
    """Immutable bag of records; all downstream operations are pure reads.

    ``census_date`` is descriptive metadata only (ISO-8601 date at which the
    citation counts were taken); it takes no part in any computation.
    """

    records: tuple[PubRecord, ...]
    census_date: str | None = None

    def __post_init__(self) -> None:
        seen: set[tuple[str, str]] = set()
        for rec in self.records:
            key = (rec.pub_id, rec.category)
            if key in seen:
                raise CorpusValueError(
                    f"duplicate (pub_id, category) pair {key!r} in corpus"
                )
            seen.add(key)

    def __len__(self) -> int:
        return len(self.records)


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


def _csv_rows(reader, path: Path):
    """The reader's rows, with a line the csv module cannot split (such as a
    cell beyond its field size limit) raised as a format error naming it."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise CorpusFormatError(
                f"{path}, line {reader.line_num}: {exc}"
            ) from None
        yield row


def ingest_csv(
    path: str | Path,
    strict: bool = False,
    census_date: str | None = None,
) -> IngestResult:
    """Read a corpus CSV.

    Duplicate (pub_id, category) rows raise :class:`DuplicateRecordError` in
    strict mode; otherwise the last row wins (keeping the first occurrence's
    position) and each replacement is counted as a warning.

    Raises :class:`CorpusFormatError` for a bad header, ragged rows or a
    line the csv module cannot split, :class:`CorpusValueError` for bad cell
    values, a count float64 cannot hold included (both name the offending
    line; text that is not UTF-8 is a format error), and
    :class:`EmptyCorpusError` for a file with no data rows.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(f"{path}, line {line_no}: not valid UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = _csv_rows(reader, path)
    try:
        header = next(rows)
    except StopIteration:
        raise EmptyCorpusError(f"{path}: file is empty") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise CorpusFormatError(
            f"{path}, line 1: expected header {','.join(CSV_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

    by_assignment: dict[tuple[str, str], PubRecord] = {}
    n_rows = 0
    n_warnings = 0
    for line_no, row in enumerate(rows, start=2):
        if not row:  # tolerate blank trailing lines
            continue
        if len(row) != len(CSV_HEADER):
            raise CorpusFormatError(
                f"{path}, line {line_no}: expected {len(CSV_HEADER)} columns, "
                f"got {len(row)}"
            )
        pub_id = row[0].strip()
        if not pub_id:
            raise CorpusValueError(f"{path}, line {line_no}: empty pub_id")
        if _UNQUOTABLE.search(row[0]) or _UNQUOTABLE.search(row[2]):
            raise CorpusValueError(
                f"{path}, line {line_no}: pub_id and category must not contain "
                "commas, double quotes or line breaks"
            )
        year = _parse_int(row[1], "year", line_no)
        category = row[2].strip()
        if not category:
            raise CorpusValueError(f"{path}, line {line_no}: empty category")
        citations = _parse_int(row[3], "citations", line_no)
        if citations < 0:
            raise CorpusValueError(
                f"{path}, line {line_no}: citations must be >= 0, got {citations}"
            )
        try:
            float(citations)  # every score is computed in float64
        except OverflowError:
            raise CorpusValueError(
                f"{path}, line {line_no}: citations exceed the float64 range"
            ) from None
        n_rows += 1
        rec = PubRecord(pub_id, year, category, citations)
        dup_key = (pub_id, category)
        if dup_key in by_assignment:
            if strict:
                raise DuplicateRecordError(
                    f"{path}, line {line_no}: duplicate (pub_id, category) "
                    f"{dup_key!r}"
                )
            n_warnings += 1
        by_assignment[dup_key] = rec

    if not by_assignment:
        raise EmptyCorpusError(f"{path}: no data rows")
    corpus = Corpus(records=tuple(by_assignment.values()), census_date=census_date)
    return IngestResult(corpus=corpus, n_rows=n_rows, n_warnings=n_warnings)


def emit_csv(corpus: Corpus, path: str | Path) -> None:
    """Write the canonical CSV form: sorted rows, LF endings, no quoting."""
    path = Path(path)
    rows = sorted(corpus.records, key=lambda r: (r.category, r.year, r.pub_id))
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for rec in rows:
            fh.write(f"{rec.pub_id},{rec.year},{rec.category},{rec.citations}\n")


def group_records(corpus: Corpus) -> dict[GroupKey, list[PubRecord]]:
    """Partition records by (category, year).

    Groups come in key order and records by pub_id within each group: the
    order every per-group vector downstream follows.
    """
    if not corpus.records:
        raise EmptyCorpusError("cannot group an empty corpus")
    groups: dict[GroupKey, list[PubRecord]] = {}
    for rec in sorted(corpus.records, key=lambda r: (r.category, r.year, r.pub_id)):
        groups.setdefault(rec.key, []).append(rec)
    return groups


def citation_vectors(
    groups: dict[GroupKey, list[PubRecord]],
) -> dict[GroupKey, np.ndarray]:
    """Each group's citation counts as float64, the input of every score.

    Counts go straight to float64, never through int64, so counts beyond
    2**63 still score.
    """
    return {
        key: np.array([rec.citations for rec in recs], dtype=np.float64)
        for key, recs in groups.items()
    }
