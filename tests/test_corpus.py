import csv
import gc
import io
import random
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citescale import corpus as corpus_module
from citescale.corpus import (
    _CSV_BLOCK_ROWS,
    _NOT_PLAIN,
    _PAD,
    CSV_HEADER,
    Corpus,
    GroupKey,
    _format_once,
    _checked,
    _codes,
    _generated,
    _per_group,
    _read_plain,
    _split,
    _write_table,
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
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.synth import CategorySpec, Scenario, benchmark_scenario, generate

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
        # a category that cannot be hashed, is no str, cannot be ordered
        # against str, or is padded where earlier labels are good
        ([("a", 2003, "A", 1), ("b", 2003, ["B"], 1)], 1, "category ['B']"),
        ([("a", 2003, "A", 1), ("b", 2003, 5, 1)], 1, "category 5"),
        ([("a", 2003, "A", 1), ("b", 2003, float("nan"), 1)], 1, "category nan"),
        ([("a", 2003, "A", 1), ("b", 2003, "B", 1), ("c", 2003, "A", 1),
          ("d", 2003, " B", 1)], 3, "category ' B'"),
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
                  st.integers(0, 50) | st.integers(0, 2**63 - 1)),
        min_size=1, max_size=60,
    ))
    def test_partition_property(self, raw):
        rows = [(f"p{i}", year, cat, cites) for i, (cat, year, cites) in enumerate(raw)]
        corpus = corpus_of(rows)
        groups = group_records(corpus)
        assert sum(len(counts) for counts in groups.values()) == len(rows)
        assert list(groups) == list(corpus.group_slices)
        for key, part in corpus.group_slices.items():
            assert set(corpus.category[part].tolist()) == {key.category}
            assert set(corpus.year[part].tolist()) == {key.year}
            # a read-only float64 view of the group's exact counts
            counts = groups[key]
            assert counts.dtype == np.float64 and not counts.flags.writeable
            assert counts.tolist() == corpus.citations[part].astype(np.float64).tolist()
            with pytest.raises(ValueError):
                counts[0] = 1.0
        with pytest.raises(TypeError):
            groups[next(iter(groups))] = np.zeros(1)
        # scoring the laid-out counts equals scoring a plain dict of them
        for method in ScalingMethod:
            (family, skip_f), (plain, skip_p) = (
                scale_corpus(g, method) for g in (groups, dict(groups))
            )
            assert skip_f == skip_p
            assert list(family) == list(plain)
            assert [v.tobytes() for v in family.values()] == [
                v.tobytes() for v in plain.values()
            ]
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


# readable text holding format characters, non-ASCII, inner spaces and a NUL
_FORMAT_TEXT = st.from_regex(
    "[a%{}é中\x00]([a%{}é中\x00 ]{0,3}[a%{}é中\x00])?",
    fullmatch=True,
)


def _per_row_text(rows):
    """The bytes of the canonical CSV of ``rows``, formatted row by row."""
    ordered = sorted(rows, key=lambda r: (r[2], r[1], r[0]))
    text = ",".join(CSV_HEADER) + "\n" + "".join("%s,%d,%s,%d\n" % r for r in ordered)
    return text.encode("utf-8")


class TestRoundTrip:
    @pytest.mark.parametrize("n_rows", [
        0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
        2 * _CSV_BLOCK_ROWS + 7,
        # whole multiples of the block, one either side, and past eight blocks
        32767, 32768, 32769, 65543,
    ])
    def test_write_csv_in_blocks_is_the_whole_text(self, n_rows, tmp_path):
        # a per-row, a per-group and a format-once column of the table
        # writer, against per-row `%` formatting; groups of 7,001 rows span
        # block edges, and -0.0 sits beside 0.0
        starts = range(0, n_rows, 7001)
        scores = np.arange(n_rows) % 97 * 0.37
        scores[::13] *= -1.0
        _write_table(tmp_path / "out.csv", CSV_HEADER, [
            ([f"p{i}" for i in range(n_rows)], None),
            _per_group([f",{2000 + g % 9},C{g}," for g in range(len(starts))],
                       [min(7001, n_rows - a) for a in starts]),
            _format_once("%.10g\n", scores),
        ])
        rows = (
            "p%d,%d,C%d,%.10g\n" % (i, 2000 + i // 7001 % 9, i // 7001, x)
            for i, x in enumerate(scores.tolist())
        )
        want = ",".join(CSV_HEADER) + "\n" + "".join(rows)
        assert (tmp_path / "out.csv").read_bytes() == want.encode("utf-8")

    @given(st.one_of(
        st.lists(st.floats() | st.sampled_from(
            [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-308, 2.0**53 - 1, 2.0**53,
             2.0**53 + 2, -(2.0**53)]
        )).map(lambda xs: ("%.10g,", np.array(xs, dtype=np.float64))),
        st.lists(st.integers(-(2**63), 2**63 - 1) | st.sampled_from([0, 2**63 - 1]))
        .map(lambda xs: ("%d\n", np.array(xs, dtype=np.int64))),
    ))
    def test_format_once_is_per_value_formatting(self, case):
        fmt, values = case
        texts, index = _format_once(fmt, values)
        assert texts[index].tolist() == [fmt % v for v in values.tolist()]
        assert len(texts) == len(set(values.view(np.int64).tolist()))

    def test_format_once_keeps_negative_zero(self):
        texts, index = _format_once("%.10g,", np.array([-0.0, 0.0, -0.0]))
        assert texts[index].tolist() == ["-0,", "0,", "-0,"]
        for dtype in (np.float64, np.int64):
            texts, index = _format_once("%r", np.array([], dtype=dtype))
            assert texts.tolist() == index.tolist() == []

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

    @given(st.lists(
        st.tuples(_FORMAT_TEXT,
                  st.sampled_from([-5, 0, 2003]) | st.integers(-(2**63), 2**63 - 1),
                  st.sampled_from(["%s", "{}", "é 中"]) | _FORMAT_TEXT,
                  st.sampled_from([0, 2**63 - 1]) | st.integers(0, 2**63 - 1)),
        min_size=1, max_size=40, unique_by=lambda r: (r[0], r[2]),
    ))
    @settings(max_examples=200)
    def test_emit_writes_the_per_row_text(self, rows):
        # groups of one row and of several, text that is a format string
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            emit_csv(corpus_of(rows), out)
            assert out.read_bytes() == _per_row_text(rows)

    @pytest.mark.parametrize("sizes", [
        [2 * _CSV_BLOCK_ROWS + 7],
        [_CSV_BLOCK_ROWS - 1, 1, _CSV_BLOCK_ROWS, 3],
        [1] * (_CSV_BLOCK_ROWS + 5),
    ], ids=["one-group-over-two-blocks", "groups-ending-at-block-edges",
            "one-row-groups-over-a-block"])
    def test_emit_writes_the_per_row_text_across_blocks(self, sizes, tmp_path):
        rows = [
            (f"p%{i}", 1990 + g % 7, f"C{{{g}}} é", i * 7919 % 10**6)
            for g, size in enumerate(sizes) for i in range(size)
        ]
        emit_csv(corpus_of(rows), tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == _per_row_text(rows)

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

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Corpus(["a", "b"], [2003], ["A", "A"], [1, 2])

    def test_equality_with_another_type_is_not_implemented(self):
        corpus = corpus_of([("p1", 2003, "A", 1)])
        assert corpus.__eq__(5) is NotImplemented
        assert (corpus == 5) is False

    def test_labels_that_cannot_be_ordered_raise_their_type_error(self):
        # every label is CSV text, so no row is named: the ordering's error stands
        class Unordered(str):
            def __lt__(self, other):
                raise TypeError("unordered label")

        labels = [Unordered("A"), Unordered("B")]
        with pytest.raises(TypeError, match="unordered label"):
            _codes(labels, "category")
        with pytest.raises(TypeError, match="unordered label"):
            Corpus(["p1", "p2"], [2003, 2003], labels, [1, 2])


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

    def test_header_cell_beyond_the_field_limit_names_line_one(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(f"pub_id,year,{'c' * 200_000},citations\np1,2003,A,1\n")
        message = "line 1: field larger than field limit (131072)"
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
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


# integer cells at the edges of the digit parse: leading zeros, a sign, 18
# digits, and 19 digits at and beyond the int64 bound
_INT_EDGES = ["007", "+5", "123456789012345678", "9223372036854775807"]
_INT_BEYOND = "9223372036854775808"
# per column, cells that read (padded, spaced within, NUL-holding, non-ASCII
# digits) and cells that do not, or that read only when quoted
_GOOD = (
    ["p1", "p2", " p1 ", "p 1", "p1\x00", "é", "\xa0p3\u3000"],
    ["2003", "2007", " 2007\t", "2_003", "\x1c2003", "٢٠", *_INT_EDGES],
    ["A", "B", " B\x0c", "A B", "A\t\x1fB", "A\x00", "\u2003B"],
    ["0", "5", " 7 ", "1" + "0" * 25, *_INT_EDGES],
)
_BAD = (
    ["", "a,b", 'a"b', "p\nq", "p2\n"],
    ["x", "99999999999999999999", _INT_BEYOND],
    ["", "A\r"],
    ["-1", "1.5", "1" + "0" * 400, "5\n", _INT_BEYOND],
)


@st.composite
def _corpus_texts(draw):
    """CSV text mixing blank lines, CRLF endings, quoted, padded and
    NUL-holding cells, duplicate rows, ragged rows and bad values.  Half
    the texts are plain: the canonical header, LF endings, no quoting, no
    blank line, four cells to a line, and only ASCII cells with no byte
    that sends the whole file to csv.reader, so that many are parsed from
    their bytes; half of these pad no cell at its edges."""
    plain = draw(st.booleans())
    padded = not plain or draw(st.booleans())
    header = ",".join(CSV_HEADER) if plain else draw(st.sampled_from(
        [",".join(CSV_HEADER)] * 4
        + ['"pub_id",year, category ,citations', "pub_id,year,category"]
    ))
    quoting, crlf = (False, False) if plain else (draw(st.booleans()), draw(st.booleans()))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if not plain and draw(st.integers(0, 6)) == 0:
            lines.append("")
            continue
        cells = [
            draw(st.sampled_from([
                c for c in (bad if draw(st.integers(0, 24)) == 0 else good)
                if not plain or c.isascii() and not set(c) & set(_NOT_PLAIN.decode())
                and (padded or c == c.strip())
            ]))
            for good, bad in zip(_GOOD, _BAD)
        ]
        if not plain:
            cells = (cells + ["1"])[: draw(st.sampled_from([4] * 12 + [3, 5]))]
        lines.append(",".join(
            '"' + c.replace('"', '""') + '"' if quoting and draw(st.booleans()) else c
            for c in cells
        ))
    endings = [draw(st.sampled_from(["\n", "\r\n"])) if crlf else "\n" for _ in lines]
    text = "".join(map(str.__add__, lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@pytest.fixture(scope="class")
def canonical(tmp_path_factory):
    """The benchmark corpus, its emitted file and a copy of that file with
    its rows shuffled."""
    corpus = generate(benchmark_scenario())
    tmp = tmp_path_factory.mktemp("canonical")
    emitted, shuffled = tmp / "emitted.csv", tmp / "shuffled.csv"
    emit_csv(corpus, emitted)
    head, *rows = emitted.read_text().splitlines(keepends=True)
    random.Random(1).shuffle(rows)
    shuffled.write_text(head + "".join(rows))
    return corpus, emitted, shuffled


class TestSplitters:
    """The split on line breaks and commas and the csv-module split must
    read every file as csv.reader and a row-by-row check would."""

    @settings(max_examples=800)
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

    @pytest.mark.parametrize("n_bytes", [
        # within the field limit in characters, beyond it in UTF-8 bytes: the
        # line goes to csv.reader, which reads it
        100_000,
        # as many extra bytes as the last line and the digit before it: a
        # scan bounded by the character count would miss the last row
        13,
    ])
    def test_two_byte_characters(self, tmp_path, n_bytes):
        assert 100_000 < csv.field_size_limit() < 200_000
        pub = "é" * n_bytes
        text = f"pub_id,year,category,citations\n{pub},2003,A,55\np2,2003,A,1\n"
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8", newline="")
        result = _ingested(path, False)
        assert result == _reference_ingest(text, False)
        assert sorted(result[0].pub_id.tolist()) == ["p2", pub]

    def test_canonical_files_take_the_one_pass_split(self, canonical, tmp_path, monkeypatch):
        # emitted text, sorted or not, never reaches csv.reader; its
        # all-quoted copy does
        corpus, emitted, shuffled = canonical
        quoted = tmp_path / "quoted.csv"
        quoted.write_text("".join(
            ",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
            for line in emitted.read_text().splitlines()
        ))

        class ReaderCalled(Exception):
            pass

        def reader(*args, **kwargs):
            raise ReaderCalled

        monkeypatch.setattr(csv, "reader", reader)
        assert ingest_csv(emitted).corpus == ingest_csv(shuffled).corpus == corpus
        with pytest.raises(ReaderCalled):
            ingest_csv(quoted)

    def test_only_canonical_files_are_parsed_from_their_bytes(self, canonical, tmp_path,
                                                               monkeypatch):
        # emitted text, sorted or not, parses no integer cell from a str;
        # plain copies with a padded cell, a non-ASCII pub_id or a pub_id
        # holding a NUL go through csv.reader and read the corpus they hold
        corpus, emitted, shuffled = canonical
        parse_ints = corpus_module._parse_ints
        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "_parse_ints", None)  # calling it raises
            assert ingest_csv(emitted).corpus == ingest_csv(shuffled).corpus == corpus
        calls = []
        monkeypatch.setattr(corpus_module, "_parse_ints",
                            lambda cells: calls.append(len(cells)) or parse_ints(cells))
        text = emitted.read_text()
        start = text.index("\n") + 1  # the first row's pub_id, the corpus's first
        first = corpus.pub_id[0]
        assert text[start:].startswith(first + ",")
        for edited, cell in [(first, f" {first}\t"), (first + "é", first + "é"),
                             (first + "\x00", first + "\x00")]:
            copy = tmp_path / "copy.csv"
            copy.write_text(text[:start] + cell + text[start + len(first):], encoding="utf-8")
            calls.clear()
            result = ingest_csv(copy).corpus
            assert calls == [len(corpus)] * 2
            pub = corpus.pub_id.copy()
            pub[0] = edited
            assert result == Corpus(pub, corpus.year, corpus.category, corpus.citations)
        # whitespace within a cell, as in a real subject name, is no pad
        spaced = Corpus(corpus.pub_id, corpus.year,
                        [f"Cell {label}\tBiology" for label in corpus.category.tolist()],
                        corpus.citations)
        emit_csv(spaced, copy)
        calls.clear()
        assert ingest_csv(copy).corpus == spaced and calls == []

    def test_one_long_category_among_many_rows(self, tmp_path):
        # laid out rows x widest, the category cells would take 200 MB: the
        # file goes to csv.reader, which reads it in memory near its size
        rows = [(f"p{i}", 2003, "A", i % 7) for i in range(2_000)]
        rows.append(("p0", 2004, "C" * 100_000, 1))
        text = "pub_id,year,category,citations\n" + "".join(
            f"{pub},{year},{cat},{cites}\n" for pub, year, cat, cites in rows
        )
        path = tmp_path / "c.csv"
        path.write_text(text, newline="")
        tracemalloc.start()
        try:
            result = _ingested(path, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == _reference_ingest(text, False)
        assert result[0] == corpus_of(rows)
        assert peak < 40 * len(text)

    @pytest.mark.parametrize("rows, message", [
        (["p1,2003,A,1,9", "p2,2003,1"], "line 2: expected 4 columns, got 5"),
        (["p1,2003,A,1", "p2,2003,1", "p3,2003,A,1,9"], "line 3: expected 4 columns, got 3"),
    ], ids=["four-then-two", "two-then-four"])
    def test_commas_spread_unevenly_go_to_csv_reader(self, tmp_path, rows, message):
        # three commas to a line on average, but not on every line
        text = "".join(line + "\n" for line in [",".join(CSV_HEADER), *rows])
        assert text.count(",") == 3 * (len(rows) + 1)
        assert _read_plain(text.encode()) is None
        path = tmp_path / "c.csv"
        path.write_text(text, newline="")
        for strict in (False, True):
            assert _ingested(path, strict) == _reference_ingest(text, strict)
        with pytest.raises(CorpusFormatError, match=re.escape(message)):
            ingest_csv(path)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["p1", "p2", "p3"]), st.sampled_from([2003, 2007]),
                      st.sampled_from("AB"), st.integers(0, 99)),
            min_size=1, max_size=5,
        ),
        st.data(),
    )
    def test_commas_moved_between_lines_read_as_csv_reader_reads_them(self, rows, data):
        lines = [",".join(CSV_HEADER), *(",".join(map(str, row)) for row in rows)]
        source, target = data.draw(st.lists(
            st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True
        ))
        k = data.draw(st.integers(1, 3))
        commas = [i for i, c in enumerate(lines[source]) if c == ","]
        dropped = data.draw(st.lists(st.sampled_from(commas), min_size=k, max_size=k,
                                     unique=True))
        lines[source] = "".join(
            c for i, c in enumerate(lines[source]) if i not in dropped
        )
        for _ in range(k):
            at = data.draw(st.integers(0, len(lines[target])))
            lines[target] = lines[target][:at] + "," + lines[target][at:]
        text = "".join(line + "\n" for line in lines)
        assert _read_plain(text.encode()) is None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            path.write_text(text, newline="")
            for strict in (False, True):
                assert _ingested(path, strict) == _reference_ingest(text, strict)

    def test_pad_is_all_whitespace_but_line_breaks(self):
        spaces = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
        assert set(_PAD) == spaces - {"\r", "\n"} and len(_PAD) == len(set(_PAD))


# pub_id texts whose str order the byte order of their UTF-8 would not give
# as fixed-width cells: prefixes of one another, an embedded or trailing NUL,
# non-ASCII and astral characters; half the lists are plain ASCII, which a
# canonical file carries to the byte parse
_PLAIN_ID = st.text(st.sampled_from("ab0~!"), min_size=1, max_size=3)
_ANY_ID = st.text(st.sampled_from(["a", "b", "0", "~", "\x00", "é", "中", "\U0001f600"]),
                  min_size=1, max_size=3).filter(lambda text: text == text.strip())


class TestPubIdOrder:
    """Every path into a Corpus ranks ``pub_id`` in Python's ``str`` order,
    names the first repeated (pub_id, category) and keeps the last of its
    rows, and still rejects the values it rejected as ``str``."""

    @settings(max_examples=300)
    @given(st.lists(_PLAIN_ID, min_size=1, max_size=8) | st.lists(_ANY_ID, min_size=1,
                                                                   max_size=8))
    def test_ranks_duplicates_and_order_are_those_of_str(self, ids):
        distinct = sorted(set(ids))
        ranks = [distinct.index(x) for x in ids]
        repeat = next((i for i, x in enumerate(ids) if x in ids[:i]), None)
        n = len(ids)
        columns = (ids, [2003] * n, ["A"] * n, list(range(n)))
        coded = _checked(*columns)
        assert coded.pub_rank.tolist() == ranks
        assert coded.pub_id.astype(np.dtypes.StringDType()).tolist() == ids
        if repeat is None:
            assert Corpus(*columns).pub_id.tolist() == distinct
        else:
            with pytest.raises(DuplicateRecordError) as exc:
                Corpus(*columns)
            assert exc.value.row == repeat
        plain = all(x.isascii() and "\x00" not in x for x in ids)
        rows = "".join(f"{x},2003,A,{i}\n" for i, x in enumerate(ids))
        last = {x: i for i, x in enumerate(ids)}
        with tempfile.TemporaryDirectory() as tmp:
            for ending in ("\n", "\r\n"):  # a CR sends the file to csv.reader
                data = (",".join(CSV_HEADER) + "\n" + rows).replace("\n", ending).encode()
                path = Path(tmp) / "c.csv"
                path.write_bytes(data)
                assert (_read_plain(data) is not None) == (plain and ending == "\n")
                coded = _split(path)[1]
                assert coded.pub_rank.tolist() == ranks
                assert coded.pub_id.astype(np.dtypes.StringDType()).tolist() == ids
                if repeat is None:
                    assert ingest_csv(path, strict=True).corpus == Corpus(*columns)
                else:
                    with pytest.raises(DuplicateRecordError, match=f"line {repeat + 2}:"):
                        ingest_csv(path, strict=True)
                result = ingest_csv(path)
                assert result.corpus.pub_id.tolist() == distinct
                assert result.corpus.citations.tolist() == [last[x] for x in distinct]
                assert result.n_warnings == n - len(distinct)

    @given(st.lists(_ANY_ID, min_size=1, max_size=6, unique=True), st.data())
    def test_bad_pub_id_names_its_row(self, ids, data):
        row = data.draw(st.integers(0, len(ids)))
        bad = data.draw(st.sampled_from([5, None, b"a", "", " a", "a\t", "a\ud800"]))
        n = len(ids) + 1
        with pytest.raises(CorpusValueError) as exc:
            Corpus(ids[:row] + [bad] + ids[row:], [2003] * n, ["A"] * n, [1] * n)
        assert exc.value.row == row and "pub_id" in str(exc.value)
        assert not isinstance(exc.value, DuplicateRecordError)
        if bad == "":  # the one bad text a UTF-8 file can hold after the strip
            cells = [f"{x},2003,A,1\n" for x in ids]
            cells.insert(row, ",2003,A,1\n")
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "c.csv"
                path.write_text(",".join(CSV_HEADER) + "\n" + "".join(cells),
                                encoding="utf-8", newline="")
                with pytest.raises(CorpusValueError, match=f"line {row + 2}: empty pub_id"):
                    ingest_csv(path)

    def test_pub_id_is_a_string_dtype_column(self, tmp_path):
        corpus = corpus_of([("p2", 2003, "A", 1), ("p1\U0001f600", 2003, "A", 2)])
        assert isinstance(corpus.pub_id.dtype, np.dtypes.StringDType)
        assert corpus.pub_id.tolist() == ["p1\U0001f600", "p2"]
        assert not corpus.pub_id.flags.writeable
        # numpy finds these two StringDType ids equal; the corpora are not
        assert corpus_of([("a\x000", 2003, "A", 1)]) != corpus_of([("a\x001", 2003, "A", 1)])
        emit_csv(corpus, tmp_path / "c.csv")
        for path in (tmp_path / "c.csv", write_corpus_csv(tmp_path / "plain.csv",
                                                          [("p2", 2003, "A", 1)])):
            assert isinstance(ingest_csv(path).corpus.pub_id.dtype, np.dtypes.StringDType)

    def test_last_wins_takes_the_coded_rows(self, tmp_path, monkeypatch):
        # the rows kept after a repeat are not checked or ranked again
        calls = []
        for name in ("_checked", "_ranks"):
            real = getattr(corpus_module, name)
            monkeypatch.setattr(corpus_module, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        rows = [("p1", 2003, "A", 5), ("p2", 2003, "A", 1), ("p1", 2004, "A", 7)]
        plain = write_corpus_csv(tmp_path / "plain.csv", rows)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
        for path, once in ((plain, ["_ranks"]), (crlf, ["_checked", "_ranks"])):
            calls.clear()
            result = ingest_csv(path)
            assert calls == once and result.n_warnings == 1
            assert result.corpus == corpus_of(rows[1:])

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.text(st.sampled_from("x-01中\x00,"), max_size=3),
                              st.integers(-10, 2003), st.integers(1, 4)),
                    min_size=1, max_size=5, unique_by=lambda spec: spec[:2]))
    # "x-1-" begins "x-1-0-", and "x--10-000000" is an id of both categories
    @example([("x", 1, 2), ("x-1", 0, 2)])
    @example([("x-", 10, 1), ("x", -10, 1)])
    def test_generated_rows_are_those_of_the_constructor(self, specs):
        # specs of (category, year, n): negative years, categories that
        # begin one another or that a Corpus rejects, ids shared across
        # categories; the columns are built as lists, since np.repeat of
        # str drops a trailing NUL
        categories, years, sizes = map(list, zip(*specs))
        rows = [(f"{c}-{y}-{i:06d}", y, c) for c, y, n in specs for i in range(n)]
        counts = np.split(np.arange(len(rows)), np.cumsum(sizes)[:-1])
        columns = (*map(list, zip(*rows)), list(range(len(rows))))
        coded = lambda: _generated(categories, years, sizes, counts)  # noqa: E731
        try:
            expected = Corpus(*columns)
        except CorpusValueError as exc:
            with pytest.raises(CorpusValueError) as got:
                Corpus._of(coded())
            assert type(got.value) is type(exc) and got.value.row == exc.row
        else:
            assert Corpus._of(coded()) == expected


class TestHeldMemory:
    """A held corpus costs a few array cells per record and no Python
    object: a ``str`` per ``pub_id`` would cost one allocated block and about
    64 bytes per record."""

    @pytest.mark.parametrize("source", ["ingest_csv", "generate"])
    def test_no_python_object_per_record(self, tmp_path, source):
        scenario = Scenario(seed=3, specs=(
            CategorySpec("A", 2003, 2500, "negative-binomial", (1.0, 0.5)),
            CategorySpec("B", 2007, 1500, "negative-binomial", (2.0, 0.3)),
        ))
        path = tmp_path / "corpus.csv"
        emit_csv(generate(scenario), path)
        build = {"ingest_csv": lambda: ingest_csv(path).corpus,
                 "generate": lambda: generate(scenario)}[source]
        build()  # caches filled on a first call are not the corpus's
        gc.collect()
        blocks = sys.getallocatedblocks()
        corpus = build()
        gc.collect()
        grown = sys.getallocatedblocks() - blocks
        del corpus
        gc.collect()
        tracemalloc.start()
        try:
            corpus = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(corpus) == 4000
        assert grown < len(corpus) / 20
        # three 8-byte cells and a 16-byte pub_id per record
        assert held / len(corpus) < 48
