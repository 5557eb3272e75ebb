import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from citescale import corpus as corpus_module
from citescale.corpus import Corpus, GroupKey, group_records
from citescale.errors import CorpusValueError, ScenarioError
from citescale.scaling import ScalingMethod, scale_corpus
from citescale.synth import (
    BENCHMARK_SEED,
    BENCHMARK_SUMMARY,
    FAMILIES,
    CategorySpec,
    Scenario,
    generate,
    benchmark_scenario,
    scaled_copy_scenario,
    scenario_from_dict,
    scenario_to_dict,
    load_scenario,
    save_scenario,
    prng_metadata,
)


def lognormal_spec(**overrides):
    base = dict(
        category="A", year=2003, n=100,
        family="discretized-lognormal", family_params=(1.2, 1.0),
        zero_inflation=0.1,
    )
    base.update(overrides)
    return CategorySpec(**base)


class TestGenerate:
    def test_bit_identical_reruns(self):
        scenario = Scenario(seed=42, specs=(
            lognormal_spec(),
            lognormal_spec(category="B", family="negative-binomial",
                           family_params=(2.0, 0.3)),
            lognormal_spec(category="C", family="zipf-with-cutoff",
                           family_params=(1.7, 200), zero_inflation=0.0),
        ))
        assert generate(scenario) == generate(scenario)

    def test_seed_changes_output(self):
        spec = (lognormal_spec(),)
        a = generate(Scenario(seed=1, specs=spec))
        b = generate(Scenario(seed=2, specs=spec))
        assert a != b

    def test_point_mass(self):
        # sigma ~ 0 concentrates the draw; mu = ln 7.5 floors to 7 everywhere
        scenario = Scenario(seed=3, specs=(
            lognormal_spec(n=5, family_params=(math.log(7.5), 1e-9),
                           zero_inflation=0.0),
        ))
        corpus = generate(scenario)
        assert corpus.citations.tolist() == [7] * 5

    def test_zero_inflation_share(self):
        scenario = Scenario(seed=9, specs=(
            lognormal_spec(n=10_000, family_params=(3.0, 1.0),
                           zero_inflation=0.5),
        ))
        corpus = generate(scenario)
        zero_share = np.mean(corpus.citations == 0)
        assert 0.48 <= zero_share <= 0.52

    def test_pub_id_format_and_grouping(self):
        corpus = generate(Scenario(seed=5, specs=(lognormal_spec(n=3),)))
        assert corpus.pub_id.tolist() == [
            "A-2003-000000", "A-2003-000001", "A-2003-000002"
        ]
        assert set(group_records(corpus)) == {GroupKey("A", 2003)}

    @pytest.mark.parametrize("scenario", [
        # n grows, shrinks and grows: the index texts are extended and reused
        Scenario(seed=5, specs=tuple(
            lognormal_spec(category=category, year=year, n=n)
            for category, year, n in (("A", 2003, 4), ("B%d", 2003, 9),
                                      ("{0}", 2007, 2), ("A", 2007, 1),
                                      ("C %s{}", 1999, 13))
        )),
        # two categories that share one salt, so one stream of draws
        scaled_copy_scenario(lognormal_spec(category="%{é", n=6), k=3, seed=4),
    ], ids=["n-grows-shrinks-grows", "scaled-copy"])
    def test_pub_ids_and_year_column_per_spec(self, scenario):
        corpus = generate(scenario)
        assert corpus.year.dtype == np.int64
        for spec in scenario.specs:
            rows = corpus.group_slices[GroupKey(spec.category, spec.year)]
            assert corpus.pub_id[rows].tolist() == [
                f"{spec.category}-{spec.year}-{i:06d}" for i in range(spec.n)
            ]
            assert corpus.year[rows].tolist() == [spec.year] * spec.n
        assert len(corpus) == sum(spec.n for spec in scenario.specs)

    def test_year_beyond_int64_names_the_specs_first_row(self):
        scenario = Scenario(seed=5, specs=(
            lognormal_spec(n=3), lognormal_spec(category="B", year=2**63, n=4),
        ))
        with pytest.raises(CorpusValueError, match="year is beyond the int64 range") as exc:
            generate(scenario)
        assert exc.value.row == 3

    @pytest.mark.parametrize("category, message", [
        ("", "empty category"), ("a,b", "category 'a,b' would not read back"),
        (" A", "category ' A' would not read back"),
    ])
    def test_bad_category_names_the_specs_first_row(self, category, message):
        # checked once per spec, with the row the constructor would name
        scenario = Scenario(seed=5, specs=(
            lognormal_spec(n=3), lognormal_spec(category=category, n=4),
        ))
        with pytest.raises(CorpusValueError, match=re.escape(message)) as exc:
            generate(scenario)
        assert exc.value.row == 3

    def test_indexes_beyond_the_padding_are_ranked_as_str(self, monkeypatch):
        # with two-digit padding, "100" sorts between "10" and "11": specs
        # above 10**2 rows take their ids' str order, not their index order
        monkeypatch.setattr(corpus_module, "_INDEX_DIGITS", 2)
        scenario = Scenario(seed=5, specs=(
            lognormal_spec(n=120), lognormal_spec(category="B", n=7),
            lognormal_spec(year=2007, n=101),
        ))
        corpus = generate(scenario)
        ids = corpus.pub_id.tolist()
        assert ids[:3] == ["A-2003-00", "A-2003-01", "A-2003-02"]
        assert ids[10:14] == ["A-2003-10", "A-2003-100", "A-2003-101", "A-2003-102"]
        assert ids == sorted(ids) and len(set(ids)) == len(ids) == 228
        assert corpus == Corpus(corpus.pub_id, corpus.year, corpus.category,
                                corpus.citations)

    def test_pub_id_is_a_string_dtype_column(self):
        corpus = generate(Scenario(seed=5, specs=(lognormal_spec(category="中", n=3),)))
        assert isinstance(corpus.pub_id.dtype, np.dtypes.StringDType)
        assert corpus.pub_id.tolist() == ["中-2003-000000", "中-2003-000001", "中-2003-000002"]

    def test_counts_always_non_negative_integers(self):
        scenario = Scenario(seed=11, specs=(
            lognormal_spec(n=500, family_params=(0.2, 1.5), zero_inflation=0.3),
            lognormal_spec(category="B", n=500, family="negative-binomial",
                           family_params=(0.7, 0.8)),
            lognormal_spec(category="Z", n=500, family="zipf-with-cutoff",
                           family_params=(2.5, 50), zero_inflation=0.2),
        ))
        citations = generate(scenario).citations
        assert citations.dtype == np.int64
        assert all(c >= 0 and isinstance(c, int) for c in citations.tolist())

    def test_zipf_respects_cutoff(self):
        scenario = Scenario(seed=13, specs=(
            lognormal_spec(family="zipf-with-cutoff", family_params=(1.1, 9),
                           zero_inflation=0.0, n=2000),
        ))
        values = set(generate(scenario).citations.tolist())
        assert values <= set(range(1, 10))
        assert 1 in values


class TestValidation:
    def test_bad_n(self):
        with pytest.raises(ScenarioError, match="A/2003"):
            lognormal_spec(n=0)

    def test_bad_zero_inflation(self):
        with pytest.raises(ScenarioError):
            lognormal_spec(zero_inflation=1.0)

    def test_unknown_family(self):
        with pytest.raises(ScenarioError, match="family"):
            lognormal_spec(family="pareto")

    def test_three_family_params(self):
        with pytest.raises(ScenarioError, match="A/2003: family 'discretized-lognormal' "
                                                "takes 2 parameters"):
            lognormal_spec(family_params=(1.2, 1.0, 0.5))

    def test_bad_sigma(self):
        with pytest.raises(ScenarioError, match="sigma"):
            lognormal_spec(family_params=(1.0, 0.0))

    def test_bad_negative_binomial(self):
        with pytest.raises(ScenarioError):
            lognormal_spec(family="negative-binomial", family_params=(2.0, 1.5))

    def test_bad_zipf_cutoff(self):
        with pytest.raises(ScenarioError):
            lognormal_spec(family="zipf-with-cutoff", family_params=(1.0, 0))

    def test_duplicate_keys(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            Scenario(seed=1, specs=(lognormal_spec(), lognormal_spec()))

    def test_fields_are_stored_as_int_and_float(self):
        spec = lognormal_spec(year=np.int64(2003), n=np.uint16(7), zero_inflation=0,
                              family_params=[np.float32(1.5), 1], count_scale=np.int8(2))
        assert spec == lognormal_spec(n=7, zero_inflation=0.0,
                                      family_params=(1.5, 1.0), count_scale=2)
        assert [type(getattr(spec, f)) for f in ("year", "n", "count_scale")] == [int] * 3
        assert {type(x) for x in (spec.zero_inflation, *spec.family_params)} == {float}
        scenario = Scenario(seed=np.int64(3), specs=[spec])
        assert type(scenario.seed) is int and scenario.specs == (spec,)

    @pytest.mark.parametrize("overrides, message", [
        ({"n": True}, "n must be a JSON integer, got True"),
        ({"year": "2003"}, "year must be a JSON integer, got '2003'"),
        ({"zero_inflation": False}, "zero_inflation must be a JSON number, got False"),
        ({"family_params": (1.0, "1")}, "family_params must be a JSON number, got '1'"),
        ({"family_params": "1, 1"}, "family_params must be a JSON list, got '1, 1'"),
    ])
    def test_bools_and_strings_are_no_numbers(self, overrides, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            lognormal_spec(**overrides)

    def test_specs_must_be_specs(self):
        for specs in (lognormal_spec(), [{"category": "A"}], ()):
            with pytest.raises(ScenarioError):
                Scenario(seed=1, specs=specs)

    def test_undrawable_parameters_are_scenario_errors(self):
        spec = lognormal_spec(family="negative-binomial", family_params=(1e-300, 1e-300))
        with pytest.raises(ScenarioError, match="A/2003"):
            generate(Scenario(seed=1, specs=(spec,)))

    def test_generate_validates(self):
        # generate is only ever given built scenarios, and replace() builds anew
        with pytest.raises(ScenarioError):
            generate(Scenario(seed=1, specs=(replace(lognormal_spec(), n=-1),)))


class TestScaledCopy:
    def test_identity_copy(self):
        scenario = scaled_copy_scenario(lognormal_spec(n=50), k=1, seed=4)
        corpus = generate(scenario)
        vectors = group_records(corpus)
        a, b = vectors.values()
        assert a.tolist() == b.tolist()

    def test_threefold_copy_elementwise(self):
        scenario = scaled_copy_scenario(lognormal_spec(n=200), k=3, seed=4)
        corpus = generate(scenario)
        vectors = group_records(corpus)
        a, b = vectors.values()
        assert b.tolist() == (3 * a).tolist()
        assert b.max() == 3 * a.max()

    def test_mean_scaling_collapses_copy(self):
        scenario = scaled_copy_scenario(lognormal_spec(n=300), k=3, seed=4)
        raw = group_records(generate(scenario))
        scored, _ = scale_corpus(raw, ScalingMethod.MEAN)
        a, b = scored.values()
        assert np.sort(a).tolist() == np.sort(b).tolist()

    def test_bad_factor(self):
        with pytest.raises(ScenarioError):
            scaled_copy_scenario(lognormal_spec(), k=0)


_REAL = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FAMILY_PARAMS = {
    "discretized-lognormal": st.tuples(_REAL, _POSITIVE),
    "negative-binomial": st.tuples(_POSITIVE, st.floats(0.0, 1.0, exclude_min=True)),
    "zipf-with-cutoff": st.tuples(_POSITIVE, st.integers(1, 10**6)),
}
_BIG = 2**80  # beyond int64, well within what json reads back
_SPECS = st.sampled_from(FAMILIES).flatmap(lambda family: st.builds(
    CategorySpec,
    category=st.text(max_size=6),
    year=st.integers(-_BIG, _BIG),
    n=st.integers(1, _BIG),
    family=st.just(family),
    family_params=_FAMILY_PARAMS[family],
    zero_inflation=st.floats(0.0, 1.0, exclude_max=True),
    count_scale=st.integers(1, _BIG),
    seed_salt=st.none() | st.text(max_size=6),
))
_SCENARIOS = st.builds(
    Scenario,
    seed=st.integers(-_BIG, _BIG),
    specs=st.lists(
        _SPECS, min_size=1, max_size=4, unique_by=lambda s: (s.category, s.year)
    ),
)


class TestScenarioJson:
    @given(_SCENARIOS)
    def test_json_round_trip_gives_back_the_scenario(self, scenario):
        text = json.dumps(scenario_to_dict(scenario))
        assert scenario_from_dict(json.loads(text)) == scenario

    def test_round_trip_dict(self):
        scenario = scaled_copy_scenario(lognormal_spec(n=20), k=3, seed=77)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_round_trip_file(self, tmp_path):
        scenario = Scenario(seed=123, specs=(
            lognormal_spec(),
            lognormal_spec(category="B", family="zipf-with-cutoff",
                           family_params=(1.5, 30), zero_inflation=0.0),
        ))
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_plain_scenario_json_has_no_optional_fields(self):
        data = scenario_to_dict(Scenario(seed=1, specs=(lognormal_spec(),)))
        assert set(data["specs"][0]) == {
            "category", "year", "n", "family", "family_params", "zero_inflation"
        }

    def test_malformed(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"specs": [{}]})

    def test_prng_metadata_names_generator(self):
        meta = prng_metadata()
        assert meta["prng"] == "numpy.random.PCG64"
        assert meta["numpy_version"] == np.__version__


class TestFrozenScenario:
    def test_summary_statistics_frozen(self):
        corpus = generate(benchmark_scenario())
        vectors = group_records(corpus)
        means = [float(np.mean(v)) for v in vectors.values()]
        assert len(corpus) == BENCHMARK_SUMMARY["n_records"]
        assert len(vectors) == BENCHMARK_SUMMARY["n_groups"]
        total = sum(corpus.citations.tolist())
        assert total == BENCHMARK_SUMMARY["total_citations"]
        assert min(means) == pytest.approx(BENCHMARK_SUMMARY["group_mean_min"])
        assert max(means) == pytest.approx(BENCHMARK_SUMMARY["group_mean_max"])

    def test_group_means_span_field_like_range(self):
        corpus = generate(benchmark_scenario())
        means = [
            float(np.mean(v)) for v in group_records(corpus).values()
        ]
        assert 0.8 <= min(means) <= 2.6
        assert 20.0 <= max(means) <= 31.0

    def test_parameters_within_documented_ranges(self):
        scenario = benchmark_scenario()
        assert scenario.seed == BENCHMARK_SEED
        assert len({s.category for s in scenario.specs}) == 20
        mus = [s.family_params[0] for s in scenario.specs]
        sigmas = [s.family_params[1] for s in scenario.specs]
        pis = [s.zero_inflation for s in scenario.specs]
        ns = [s.n for s in scenario.specs]
        assert min(mus) == 0.5 and max(mus) == 3.0
        assert all(1.0 <= s <= 1.5 for s in sigmas)
        assert min(pis) == 0.05 and max(pis) == 0.55
        assert all(100 <= n <= 2000 for n in ns)
