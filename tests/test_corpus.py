import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citescale.corpus import (
    Corpus,
    GroupKey,
    PubRecord,
    citation_vectors,
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
        winner = [r for r in result.corpus.records if r.pub_id == "p1"]
        assert winner[0].citations == 7 and winner[0].year == 2004

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

    @pytest.mark.parametrize("cell", ['"a\nb"', '"a\rb"', '"a""b"', 'a"b'])
    def test_unquotable_characters_rejected(self, tmp_path, cell):
        # emission writes cells unquoted, so these could not read back
        path = tmp_path / "c.csv"
        path.write_text(f"pub_id,year,category,citations\n{cell},2003,A,5\n")
        with pytest.raises(CorpusValueError, match="line 2"):
            ingest_csv(path)
        path.write_text(f"pub_id,year,category,citations\np1,2003,{cell},5\n")
        with pytest.raises(CorpusValueError, match="line 2"):
            ingest_csv(path)

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
        total = sum(r.citations for r in corpus.records)
        assert total == 100209
        assert round(total / len(corpus), 2) == 14.38


class TestRecords:
    def test_negative_citations_rejected(self):
        with pytest.raises(CorpusValueError):
            PubRecord("p1", 2003, "A", -3)

    def test_corpus_rejects_duplicate_assignment(self):
        recs = (PubRecord("p1", 2003, "A", 1), PubRecord("p1", 2004, "A", 2))
        with pytest.raises(CorpusValueError):
            Corpus(records=recs)

    def test_group_key_ordering(self):
        keys = [GroupKey("B", 2003), GroupKey("A", 2007), GroupKey("A", 2003)]
        assert sorted(keys) == [
            GroupKey("A", 2003), GroupKey("A", 2007), GroupKey("B", 2003)
        ]


class TestGrouping:
    def test_partition_sizes(self):
        corpus = Corpus(records=(
            PubRecord("p3", 2007, "B", 3),
            PubRecord("p2", 2003, "A", 2),
            PubRecord("p1", 2003, "A", 1),
        ))
        groups = group_records(corpus)
        # groups in key order, records by pub_id within a group
        assert list(groups) == [GroupKey("A", 2003), GroupKey("B", 2007)]
        assert [r.pub_id for r in groups[GroupKey("A", 2003)]] == ["p1", "p2"]
        vectors = citation_vectors(groups)
        assert {k: v.tolist() for k, v in vectors.items()} == {
            GroupKey("A", 2003): [1.0, 2.0], GroupKey("B", 2007): [3.0]
        }

    def test_multi_category_pub_in_both_groups(self):
        corpus = Corpus(records=(
            PubRecord("p1", 2003, "A", 9),
            PubRecord("p1", 2003, "B", 9),
        ))
        vectors = citation_vectors(group_records(corpus))
        assert vectors[GroupKey("A", 2003)].tolist() == [9]
        assert vectors[GroupKey("B", 2003)].tolist() == [9]

    def test_single_key_degenerate(self):
        corpus = Corpus(records=tuple(
            PubRecord(f"p{i}", 2003, "A", i) for i in range(17)
        ))
        groups = group_records(corpus)
        assert list(groups) == [GroupKey("A", 2003)]
        assert len(groups[GroupKey("A", 2003)]) == 17

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            group_records(Corpus(records=()))

    @given(st.lists(
        st.tuples(st.sampled_from("ABC"), st.sampled_from([2003, 2007]),
                  st.integers(0, 50)),
        min_size=1, max_size=60,
    ))
    def test_partition_property(self, raw):
        records = tuple(
            PubRecord(f"p{i}", year, cat, cites)
            for i, (cat, year, cites) in enumerate(raw)
        )
        corpus = Corpus(records=records)
        groups = group_records(corpus)
        assert sum(len(recs) for recs in groups.values()) == len(records)
        for key, recs in groups.items():
            assert all(r.key == key for r in recs)
        # the grouping does not depend on record order
        assert group_records(Corpus(records=records[::-1])) == groups


_CELL = st.text(
    alphabet=st.sampled_from('ab9 "\r\n\t\x1c\u00e9'), min_size=1, max_size=5
)


class TestRoundTrip:
    @given(st.lists(
        st.tuples(_CELL, st.integers(1990, 2020), _CELL, st.integers(0, 10**20)),
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
            assert set(ingest_csv(out).corpus.records) == set(corpus.records)
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
        assert set(corpus.records) == set(corpus2.records)

    def test_canonical_ordering(self, tmp_path):
        corpus = Corpus(records=(
            PubRecord("p2", 2007, "A", 1),
            PubRecord("p1", 2003, "B", 2),
            PubRecord("p1", 2003, "A", 3),
        ))
        out = tmp_path / "out.csv"
        emit_csv(corpus, out)
        lines = out.read_text().splitlines()
        assert lines == [
            "pub_id,year,category,citations",
            "p1,2003,A,3",
            "p2,2007,A,1",
            "p1,2003,B,2",
        ]
