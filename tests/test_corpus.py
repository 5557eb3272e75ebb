import csv
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescale.corpus import (
    _PAD,
    CSV_HEADER,
    Corpus,
    GroupKey,
    emit_csv,
    group_records,
    ingest_csv,
)
from citescale.errors import (
    CitescaleError,
    CorpusFormatError,
    CorpusValueError,
    DuplicateRecordError,
    EmptyCorpusError,
)

from conftest import write_corpus_csv


def corpus_of(rows):
    """A corpus from (pub_id, year, category, citations) rows."""
    return Corpus(*(list(col) for col in zip(*rows))) if rows else Corpus([], [], [], [])


class TestIngest:
    def test_four_valid_rows(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "c.csv",
            [("p1", 2003, "A", 5), ("p2", 2003, "A", 0),
             ("p3", 2007, "B", 12), ("p4", 2007, "B", 1)],
        )
        result = ingest_csv(path)
        assert len(result.corpus) == 4
        assert result.n_rows == 4
        assert result.n_warnings == 0

    def test_negative_citations_names_line(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "c.csv", [("p1", 2003, "A", 5), ("p2", 2003, "A", -1)]
        )
        with pytest.raises(CorpusValueError, match="line 3"):
            ingest_csv(path)

    def test_non_integer_citations(self, tmp_path):
        path = write_corpus_csv(tmp_path / "c.csv", [("p1", 2003, "A", "1.5")])
        with pytest.raises(CorpusValueError, match="line 2"):
            ingest_csv(path)

    def test_non_integer_year(self, tmp_path):
        path = write_corpus_csv(tmp_path / "c.csv", [("p1", "03x", "A", 2)])
        with pytest.raises(CorpusValueError, match="year"):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "c.csv", [("p1", 2003, "A", 5)], header="id,year,cat,cites"
        )
        with pytest.raises(CorpusFormatError, match="line 1"):
            ingest_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("pub_id,year,category,citations\np1,2003,A,5,extra\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            ingest_csv(path)

    def test_missing_column_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("pub_id,year,category,citations\np1,2003,A\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            ingest_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("")
        with pytest.raises(EmptyCorpusError):
            ingest_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("pub_id,year,category,citations\n")
        with pytest.raises(EmptyCorpusError):
            ingest_csv(path)

    def test_duplicate_strict_raises(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "c.csv", [("p1", 2003, "A", 5), ("p1", 2003, "A", 7)]
        )
        with pytest.raises(DuplicateRecordError, match="line 3"):
            ingest_csv(path, strict=True)

    def test_duplicate_lenient_last_wins(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "c.csv",
            [("p1", 2003, "A", 5), ("p2", 2003, "A", 1), ("p1", 2004, "A", 7)],
        )
        result = ingest_csv(path)
        assert result.n_warnings == 1
        assert result.n_rows == 3
        assert len(result.corpus) == 2
        corpus = result.corpus
        winner = corpus.pub_id.tolist().index("p1")
        assert corpus.citations[winner] == 7 and corpus.year[winner] == 2004

    def test_same_pub_crossing_categories_is_not_duplicate(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "c.csv", [("p1", 2003, "A", 5), ("p1", 2003, "B", 5)]
        )
        assert len(ingest_csv(path).corpus) == 2

    def test_comma_in_pub_id_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('pub_id,year,category,citations\n"a,b",2003,A,5\n')
        with pytest.raises(CorpusValueError, match="comma"):
            ingest_csv(path)

    @pytest.mark.parametrize(
        "cell", ['"a\nb"', '"a\rb"', '"a""b"', 'a"b', '"a\n"', '"\rb"']
    )
    def test_unquotable_characters_rejected(self, tmp_path, cell):
        # emission writes cells unquoted, so these could not read back
        path = tmp_path / "c.csv"
        path.write_text(f"pub_id,year,category,citations\n{cell},2003,A,5\n")
        with pytest.raises(CorpusValueError, match="line 2"):
            ingest_csv(path)
        path.write_text(f"pub_id,year,category,citations\np1,2003,{cell},5\n")
        with pytest.raises(CorpusValueError, match="line 2"):
            ingest_csv(path)
        # text a Corpus built in code may hold but no UTF-8 CSV cell can
        with pytest.raises(CorpusValueError, match="category None"):
            Corpus(["a", "b"], [2003, 2003], [None, None], [1, 2])
        with pytest.raises(CorpusValueError, match="lone surrogate"):
            corpus_of([("a\ud800", 2003, "A", 1)])

    def test_non_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(
            b"pub_id,year,category,citations\np1,2003,A,5\np\xe9,2003,A,1\n"
        )
        with pytest.raises(CorpusFormatError, match="line 3.*UTF-8"):
            ingest_csv(path)

    def test_aggregate_totals_fixture(self, tmp_path):
        # three category blocks constructed to total 6,970 records holding
        # 100,209 citations: the aggregate mean rounds to 14.38
        rows = []
        i = 0
        for cat, size in (("BIO-A", 2500), ("BIO-B", 2500), ("BIO-C", 1970)):
            for _ in range(size):
                cites = 15 if i < 2629 else 14
                rows.append((f"p{i}", 2003, cat, cites))
                i += 1
        path = write_corpus_csv(tmp_path / "bio.csv", rows)
        corpus = ingest_csv(path).corpus
        assert len(corpus) == 6970
        total = sum(corpus.citations.tolist())
        assert total == 100209
        assert round(total / len(corpus), 2) == 14.38


class TestRecords:
    def test_negative_citations_rejected(self):
        with pytest.raises(CorpusValueError):
            corpus_of([("p1", 2003, "A", -3)])

    def test_counts_beyond_float64_rejected(self):
        # counts are int64, so a count beyond float64 is beyond int64 too
        with pytest.raises(CorpusValueError, match="citations is beyond the int64 range"):
            Corpus(["a", "b", "c"], [2000] * 3, ["X"] * 3, [10**400, 1, 2])

    def test_corpus_rejects_duplicate_assignment(self):
        # the duplicate spans two years: ("p2", 2003) sits between its rows
        rows = [("p1", 2003, "A", 1), ("p2", 2003, "A", 1), ("p1", 2004, "A", 2)]
        with pytest.raises(CorpusValueError, match="'p1', 'A'"):
            corpus_of(rows)

    @pytest.mark.parametrize("rows, row, message", [
        ([("a", 2003, "A", 1), ("b", 2003, "A", -2), ("c", 2003, "A", -1)],
         1, "citations must be >= 0, got -2"),
        ([("a", 2003, "A", 1), ("b", 2**63, "A", 1)], 1, "year is beyond the int64 range"),
        ([("a", 2003, "A", 1), ("b", 2003, "A", 10**400)], 1, "is beyond the int64 range"),
        ([("a", 2003, "A", 1), ("b", 2003, "", 1)], 1, "empty category"),
        ([("a", 2003, "A", 1), ("a ", 2003, "A", 1)], 1, "pub_id 'a '"),
        # the row that repeats an earlier one is named, not the first of them
        ([("b", 2003, "A", 1), ("a", 2004, "A", 1), ("b", 2007, "A", 2)],
         2, "duplicate (pub_id, category) ('b', 'A')"),
    ])
    def test_value_error_names_its_row(self, rows, row, message):
        with pytest.raises(CorpusValueError) as exc:
            corpus_of(rows)
        assert exc.value.row == row and message in str(exc.value)

    def test_group_key_ordering(self):
        keys = [GroupKey("B", 2003), GroupKey("A", 2007), GroupKey("A", 2003)]
        assert sorted(keys) == [
            GroupKey("A", 2003), GroupKey("A", 2007), GroupKey("B", 2003)
        ]


class TestGrouping:
    def test_partition_sizes(self):
        corpus = corpus_of(
            [("p3", 2007, "B", 3), ("p2", 2003, "A", 2), ("p1", 2003, "A", 1)]
        )
        groups = group_records(corpus)
        # groups in key order, records by pub_id within a group
        assert list(groups) == [GroupKey("A", 2003), GroupKey("B", 2007)]
        a2003 = corpus.group_slices[GroupKey("A", 2003)]
        assert corpus.pub_id[a2003].tolist() == ["p1", "p2"]
        assert corpus.citations[a2003].tolist() == [1, 2]
        assert {k: v.tolist() for k, v in groups.items()} == {
            GroupKey("A", 2003): [1.0, 2.0], GroupKey("B", 2007): [3.0]
        }
        assert all(v.dtype == np.float64 for v in groups.values())

    def test_multi_category_pub_in_both_groups(self):
        corpus = corpus_of([("p1", 2003, "A", 9), ("p1", 2003, "B", 9)])
        vectors = group_records(corpus)
        assert vectors[GroupKey("A", 2003)].tolist() == [9]
        assert vectors[GroupKey("B", 2003)].tolist() == [9]

    def test_single_key_degenerate(self):
        corpus = corpus_of([(f"p{i}", 2003, "A", i) for i in range(17)])
        groups = group_records(corpus)
        assert list(groups) == [GroupKey("A", 2003)]
        assert len(groups[GroupKey("A", 2003)]) == 17

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            group_records(corpus_of([]))

    @given(st.lists(
        st.tuples(st.sampled_from("ABC"), st.sampled_from([2003, 2007]),
                  st.integers(0, 50)),
        min_size=1, max_size=60,
    ))
    def test_partition_property(self, raw):
        rows = [(f"p{i}", year, cat, cites) for i, (cat, year, cites) in enumerate(raw)]
        corpus = corpus_of(rows)
        groups = group_records(corpus)
        assert sum(len(counts) for counts in groups.values()) == len(rows)
        for key, part in corpus.group_slices.items():
            assert set(corpus.category[part].tolist()) == {key.category}
            assert set(corpus.year[part].tolist()) == {key.year}
        # the grouping does not depend on record order
        reversed_groups = group_records(corpus_of(rows[::-1]))
        assert {k: v.tolist() for k, v in reversed_groups.items()} == {
            k: v.tolist() for k, v in groups.items()
        }


_ALPHABET = 'ab9 "\r\n\t\x1c\u00e9'
_CELL = st.text(alphabet=st.sampled_from(_ALPHABET), min_size=1, max_size=5)
# text the Corpus must accept, and any text from the cell alphabet plus a
# comma, empty included, which it must accept exactly when it reads back
_READABLE = st.from_regex(
    "[ab9\u00e9]([ab9\u00e9 \t\x1c]{0,3}[ab9\u00e9])?", fullmatch=True
)
_ANY_TEXT = st.text(alphabet=st.sampled_from(_ALPHABET + ","), max_size=5)


def _reads_back(text):
    return text != "" and text == text.strip() and not set(text) & set(',"\r\n')


class TestRoundTrip:
    @given(st.lists(
        st.tuples(_CELL, st.integers(1990, 2020), _CELL, st.integers(0, 2**63 - 1)),
        min_size=1, max_size=4,
    ))
    def test_ingest_emit_ingest_identity(self, rows):
        # any file ingest accepts must read back the same after emission
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
            with src.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["pub_id", "year", "category", "citations"])
                writer.writerows(rows)
            try:
                corpus = ingest_csv(src).corpus
            except CitescaleError:
                return
            emit_csv(corpus, out)
            assert ingest_csv(out).corpus == corpus

    @given(
        st.lists(
            st.tuples(_READABLE, st.integers(1990, 2020), _READABLE,
                      st.integers(0, 2**63 - 1)),
            min_size=1, max_size=4, unique_by=lambda r: (r[0], r[2]),
        ),
        st.none() | st.tuples(st.integers(0, 3), st.sampled_from([0, 2]), _ANY_TEXT),
    )
    def test_constructed_corpus_emit_ingest_identity(self, rows, edit):
        # any Corpus the constructor accepts must read back the same after
        # emission; ``edit`` puts arbitrary text into one cell
        if edit is not None:
            i, column, text = edit
            row = list(rows[i % len(rows)])
            row[column] = text
            rows[i % len(rows)] = tuple(row)
        if len({(r[0], r[2]) for r in rows}) < len(rows) or not all(
            _reads_back(r[0]) and _reads_back(r[2]) for r in rows
        ):
            with pytest.raises(CorpusValueError):
                corpus_of(rows)
            return
        corpus = corpus_of(rows)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            emit_csv(corpus, out)
            assert ingest_csv(out).corpus == corpus

    def test_emit_ingest_emit_bit_exact(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "in.csv",
            [("z9", 2007, "B", 3), ("a1", 2003, "B", 0),
             ("m5", 2003, "A", 12), ("a1", 2003, "A", 7)],
        )
        corpus = ingest_csv(path).corpus
        out1 = tmp_path / "out1.csv"
        emit_csv(corpus, out1)
        corpus2 = ingest_csv(out1).corpus
        out2 = tmp_path / "out2.csv"
        emit_csv(corpus2, out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert corpus == corpus2

    def test_canonical_ordering(self, tmp_path):
        corpus = corpus_of(
            [("p2", 2007, "A", 1), ("p1", 2003, "B", 2), ("p1", 2003, "A", 3)]
        )
        out = tmp_path / "out.csv"
        emit_csv(corpus, out)
        lines = out.read_text().splitlines()
        assert lines == [
            "pub_id,year,category,citations",
            "p1,2003,A,3",
            "p2,2007,A,1",
            "p1,2003,B,2",
        ]


def _emitted(corpus, path):
    emit_csv(corpus, path)
    return path.read_bytes()


class TestColumns:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["p1", "p2", "p3", "a\x00", "a"]),
                      st.sampled_from([2003, 2007]), st.sampled_from("AB\u00e9"),
                      st.integers(0, 2**63 - 1)),
            min_size=1, max_size=12, unique_by=lambda r: (r[0], r[2]),
        ).flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows)))
    )
    def test_row_order_does_not_change_groups_vectors_or_emission(self, pair):
        rows, shuffled = pair
        a, b = corpus_of(rows), corpus_of(shuffled)
        assert a == b
        ga, gb = group_records(a), group_records(b)
        assert [(k, len(v)) for k, v in ga.items()] == [
            (k, len(v)) for k, v in gb.items()
        ]
        assert all(ga[k].tobytes() == gb[k].tobytes() for k in ga)
        with tempfile.TemporaryDirectory() as tmp:
            assert _emitted(a, Path(tmp) / "a.csv") == _emitted(b, Path(tmp) / "b.csv")

    def test_nul_suffix_stays_a_distinct_record(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("pub_id,year,category,citations\na\x00,2003,A,1\na,2003,A,2\n")
        result = ingest_csv(path, strict=True)
        assert len(result.corpus) == 2 and result.n_warnings == 0
        groups = group_records(result.corpus)
        assert groups[GroupKey("A", 2003)].tolist() == [2, 1]
        out = tmp_path / "out.csv"
        emit_csv(result.corpus, out)
        assert out.read_text().splitlines()[1:] == ["a,2003,A,2", "a\x00,2003,A,1"]
        assert ingest_csv(out).corpus == result.corpus

    def test_counts_up_to_int64_max_stay_exact(self, tmp_path):
        corpus = corpus_of([("p1", 2003, "A", 2**63 - 1), ("p2", 2003, "A", 3)])
        assert corpus.citations.dtype == np.int64
        a2003 = corpus.group_slices[GroupKey("A", 2003)]
        assert corpus.citations[a2003].tolist() == [2**63 - 1, 3]
        assert group_records(corpus)[GroupKey("A", 2003)].tolist() == [2.0**63, 3.0]
        out = tmp_path / "out.csv"
        emit_csv(corpus, out)
        assert out.read_text().splitlines()[1] == "p1,2003,A,9223372036854775807"
        assert ingest_csv(out).corpus == corpus

    def test_counts_beyond_int64_rejected_naming_row(self):
        with pytest.raises(CorpusValueError, match="citations is beyond the int64 range") as exc:
            corpus_of([("p1", 2003, "A", 2**63 - 1), ("p2", 2003, "A", 2**63)])
        assert exc.value.row == 1

    @pytest.mark.parametrize("year, citations", [(2003.7, 1), (2003, 1.5), (2003, "7")])
    def test_non_integer_cells_rejected(self, year, citations):
        with pytest.raises(CorpusValueError, match="integers"):
            corpus_of([("p1", year, "A", citations)])
        with pytest.raises(CorpusValueError, match="int64 range"):
            corpus_of([("p1", np.int64(2003), "A", np.uint64(2**63))])

    def test_columns_are_read_only(self):
        corpus = corpus_of([("p1", 2003, "A", 1)])
        with pytest.raises(ValueError):
            corpus.citations[0] = 5


class TestFirstBadLine:
    """Whole-column checks must still name the first bad line in file order."""

    @pytest.mark.parametrize("body, message", [
        # a bad count on line 3 comes before a bad year on line 4
        ("p1,2003,A,1\np2,2003,A,-1\np3,x,A,1\n", "line 3: citations must be >= 0"),
        ("p1,2003,A,1\np2,x,A,1\np3,2003,A,-1\n", "line 3: column 'year'"),
        # a blank line still counts
        ("p1,2003,A,1\n\np2,2003,,1\n", "line 4: empty category"),
        # a value error comes before a later ragged row
        ("p1,2003,A,-1\np2,2003,A\n", "line 2: citations"),
        ("p1,2003,A,1\n\np2,2003,A\n", "line 4: expected 4 columns"),
        ("p1,99999999999999999999,A,1\n", "line 2: year is beyond the int64 range"),
        ("p1,2003,A,9223372036854775808\n", "line 2: citations is beyond the int64 range"),
        # a bad row is named even when a later duplicate replaces it
        ("p1,2003,A,-1\np1,2003,A,5\n", "line 2: citations must be >= 0"),
    ])
    def test_first_bad_line_named(self, tmp_path, body, message):
        path = tmp_path / "c.csv"
        path.write_text("pub_id,year,category,citations\n" + body)
        with pytest.raises(CitescaleError, match=message):
            ingest_csv(path)

    @pytest.mark.parametrize("body, message", [
        # a value error comes before a later cell beyond the csv field limit
        (f"p1,2003,A,-1\np2,2003,{'A' * 200_000},5\n", "line 2: citations"),
        (f"p1,2003,A,1\n\np2,2003,{'A' * 200_000},5\n", "line 4: field larger"),
        # a quoted cell's line break moves the lines of the rows after it
        ('p1,2003,A,"5\n"\np2,2003,A,-1\n', "line 4: citations"),
        ('p1,2003,"A\n\nB",1\r\np2,2003,A,-1\r\n', "line 2: category 'A\\n\\nB'"),
        ('p1,2003,A,1\r\n\r\np2,2003,A,-1\r\n', "line 4: citations"),
        ('p1,2003,A,1\n"p2\n",2003,A,1\np3,2003,A,x\n', "line 3: pub_id 'p2\\n'"),
    ])
    def test_first_bad_line_of_quoted_or_long_text(self, tmp_path, body, message):
        path = tmp_path / "c.csv"
        path.write_text("pub_id,year,category,citations\n" + body, newline="")
        with pytest.raises(CitescaleError, match=re.escape(message)):
            ingest_csv(path)

    def test_strict_duplicate_before_later_bad_value(self, tmp_path):
        path = write_corpus_csv(
            tmp_path / "c.csv", [("p1", 2003, "A", 1), ("p1", 2003, "A", 2),
                                 ("p2", 2003, "A", -1)]
        )
        with pytest.raises(DuplicateRecordError, match="line 3"):
            ingest_csv(path, strict=True)
        with pytest.raises(CorpusValueError, match="line 4"):
            ingest_csv(path)


def _reference_ingest(text, strict):
    """What ingest_csv must return for ``text``, read one row at a time with
    csv.reader, stripped, checked row by row, kept in a last-wins dict and
    built into a Corpus: ``(corpus, n_rows, n_warnings)``, or the kind of
    error and the line it names."""
    reader = csv.reader(io.StringIO(text, newline=""))
    last, n_rows = {}, 0
    try:
        header = next(reader, None)
        if header is None:
            return "empty", None
        if tuple(cell.strip() for cell in header) != CSV_HEADER:
            return "format", 1
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                return "format", line
            pub, year, cat, cites = row
            if set(pub + cat) & set("\r\n"):  # stripping must not hide a line break
                return "value", line
            try:
                record = (pub.strip(), int(year.strip()), cat.strip(), int(cites.strip()))
                Corpus(*([value] for value in record))
            except (ValueError, CorpusValueError):
                return "value", line
            if strict and (record[0], record[2]) in last:
                return "value", line
            last[record[0], record[2]] = record
            n_rows += 1
    except csv.Error:
        return "format", reader.line_num
    if not n_rows:
        return "empty", None
    return corpus_of(list(last.values())), n_rows, n_rows - len(last)


def _ingested(path, strict):
    try:
        result = ingest_csv(path, strict=strict)
    except CitescaleError as exc:
        kind = {CorpusFormatError: "format", EmptyCorpusError: "empty"}.get(
            type(exc), "value"
        )
        line = re.search(r", line (\d+): ", str(exc))
        return kind, line and int(line.group(1))
    return result.corpus, result.n_rows, result.n_warnings


# per column, cells that read (padded, NUL-holding, non-ASCII digits) and
# cells that do not, or that read only when quoted
_GOOD = (
    ["p1", "p2", " p1 ", "p1\x00", "é"],
    ["2003", "2007", " 2007\t", "2_003", "\x1c2003", "٢٠"],
    ["A", "B", " B\x0c", "A\x00"],
    ["0", "5", " 7 ", "1" + "0" * 25],
)
_BAD = (
    ["", "a,b", 'a"b', "p\nq", "p2\n"],
    ["x", "99999999999999999999"],
    ["", "A\r"],
    ["-1", "1.5", "1" + "0" * 400, "5\n"],
)


@st.composite
def _corpus_texts(draw):
    """CSV text mixing blank lines, CRLF endings, quoted, padded and
    NUL-holding cells, duplicate rows, ragged rows and bad values."""
    header = draw(st.sampled_from(["pub_id,year,category,citations"] * 4 + [
        '"pub_id",year, category ,citations', "pub_id,year,category",
    ]))
    quoting, crlf = draw(st.booleans()), draw(st.booleans())
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 6)) == 0:
            lines.append("")
            continue
        cells = [
            draw(st.sampled_from(bad if draw(st.integers(0, 24)) == 0 else good))
            for good, bad in zip(_GOOD, _BAD)
        ]
        cells = (cells + ["1"])[: draw(st.sampled_from([4] * 12 + [3, 5]))]
        lines.append(",".join(
            '"' + c.replace('"', '""') + '"' if quoting and draw(st.booleans()) else c
            for c in cells
        ))
    endings = [draw(st.sampled_from(["\n", "\r\n"])) if crlf else "\n" for _ in lines]
    text = "".join(map(str.__add__, lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestSplitters:
    """The split on line breaks and commas and the csv-module split must
    read every file as csv.reader and a row-by-row check would."""

    @settings(max_examples=400)
    @given(_corpus_texts(), st.booleans())
    def test_both_splitters_agree_with_a_row_by_row_reader(self, text, strict):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            path.write_text(text, encoding="utf-8", newline="")
            assert _ingested(path, strict) == _reference_ingest(text, strict)

    @pytest.mark.parametrize("rewrite", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: "".join(
            ",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
            for line in text.splitlines()
        ),
    ], ids=["crlf", "all-quoted"])
    def test_crlf_and_quoted_copies_read_as_the_plain_file(self, tmp_path, rewrite):
        rows = [("z9", 2007, "B", 3), ("a1", 2003, "B", 0), ("m5", 2003, "A", 12),
                ("a1", 2003, "A", 7), ("a\x00", 2003, "A", 2**63 - 1)]
        plain = write_corpus_csv(tmp_path / "plain.csv", rows)
        copy = tmp_path / "copy.csv"
        copy.write_text(rewrite(plain.read_text()), newline="")
        assert copy.read_bytes() != plain.read_bytes()
        expected = ingest_csv(plain)
        result = ingest_csv(copy)
        assert result.corpus == expected.corpus == corpus_of(rows)
        assert (result.n_rows, result.n_warnings) == (5, 0)

    def test_pad_is_all_whitespace_but_line_breaks(self):
        spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
        assert set(_PAD) == spaces - {"\r", "\n"} and len(_PAD) == len(set(_PAD))
