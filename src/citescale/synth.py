"""Deterministic synthetic corpora with field-like citation heterogeneity.

Each category-year gets its own count distribution (a heavy-tailed family
plus an explicit zero-inflation mass that mimics short citation windows) and
its own PRNG stream, derived from the scenario seed and a per-spec salt: the
same scenario reproduces the corpus bit for bit, and two categories that
share a salt share draws (``scaled_copy_scenario``).  The frozen dataclasses
:class:`CategorySpec` and :class:`Scenario` are the scenario JSON schema:
each checks its fields when built, and the JSON keys are their field names.

Continuous draws are discretized by flooring, which preserves both the zero
class and the heavy tail.  The PRNG is numpy's PCG64; name and version are
reported in :func:`prng_metadata` so corpora can be regenerated elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
import re
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .errors import ScenarioError

FAMILIES = ("discretized-lognormal", "negative-binomial", "zipf-with-cutoff")

_SEED_MASK = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1
_SURROGATE = re.compile("[\ud800-\udfff]")  # the one thing UTF-8 cannot encode


def _integer(value, name: str) -> int:
    """``value`` if it is an integer, numpy's too: never truncated or a bool."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise ScenarioError(f"{name} must be a JSON integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float if it is a real number: never a bool or a str."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float64
        raise ScenarioError(f"{name} is beyond the float64 range") from None


@dataclass(frozen=True)
class CategorySpec:
    """Recipe for one (category, year) group of synthetic records.

    ``family_params`` are (mu, sigma) for discretized-lognormal, (r, p) for
    negative-binomial, (alpha, c_max) for zipf-with-cutoff.  ``count_scale``
    multiplies every drawn count (after discretization), and ``seed_salt``
    overrides the PRNG stream identity; both default to neutral values and
    exist so rescaled-copy scenarios stay expressible as plain data.  Counts
    are int64: :func:`generate` checks that each product stays below 2**63.
    ``category`` and ``seed_salt`` are str that encode as UTF-8, the form
    in which the PRNG salt is hashed and the corpus is written.

    A bad spec raises :class:`~citescale.errors.ScenarioError` when built;
    integer fields are stored as int and real ones as float.
    """

    category: str
    year: int
    n: int
    family: str
    family_params: tuple[float, ...]
    zero_inflation: float = 0.0
    count_scale: int = 1
    seed_salt: str | None = None

    def __post_init__(self) -> None:
        for name, number in (("year", _integer), ("n", _integer),
                             ("count_scale", _integer), ("zero_inflation", _real)):
            object.__setattr__(self, name, number(getattr(self, name), name))
        p = self.family_params
        if not isinstance(p, (list, tuple)):
            raise ScenarioError(f"family_params must be a JSON list, got {p!r}")
        p = tuple(_real(x, "family_params") for x in p)
        object.__setattr__(self, "family_params", p)
        for name, text in (("category", self.category), ("seed_salt", self.salt)):
            if not isinstance(text, str) or _SURROGATE.search(text):
                raise ScenarioError(
                    f"spec {self.category!r}/{self.year}: {name} must be a str "
                    f"that encodes as UTF-8, got {text!r}"
                )
        where = f"spec {self.category}/{self.year}"
        if self.n < 1:
            raise ScenarioError(f"{where}: n must be >= 1, got {self.n}")
        if not 0.0 <= self.zero_inflation < 1.0:
            raise ScenarioError(
                f"{where}: zero_inflation must be in [0, 1), got {self.zero_inflation}"
            )
        if self.count_scale < 1:
            raise ScenarioError(
                f"{where}: count_scale must be >= 1, got {self.count_scale}"
            )
        if self.family not in FAMILIES:
            raise ScenarioError(f"{where}: unknown family {self.family!r}")
        if len(p) != 2:
            raise ScenarioError(f"{where}: family {self.family!r} takes 2 parameters")
        if not all(math.isfinite(x) for x in p):
            raise ScenarioError(f"{where}: family_params must be finite, got {p}")
        if self.family == "discretized-lognormal":
            if p[1] <= 0:
                raise ScenarioError(f"{where}: sigma must be > 0, got {p[1]}")
        elif self.family == "negative-binomial":
            if p[0] <= 0 or not 0.0 < p[1] <= 1.0:
                raise ScenarioError(
                    f"{where}: need r > 0 and 0 < p <= 1, got r={p[0]}, p={p[1]}"
                )
        else:  # zipf-with-cutoff
            if p[0] <= 0 or p[1] < 1 or p[1] != int(p[1]):
                raise ScenarioError(
                    f"{where}: need alpha > 0 and integer c_max >= 1, "
                    f"got alpha={p[0]}, c_max={p[1]}"
                )

    @property
    def salt(self) -> str:
        """The PRNG stream identity: ``seed_salt``, by default ``category|year``."""
        default = f"{self.category}|{self.year}"
        return default if self.seed_salt is None else self.seed_salt


@dataclass(frozen=True)
class Scenario:
    """Seed plus at least one spec, one per (category, year), checked when built."""

    seed: int
    specs: tuple[CategorySpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        specs = self.specs
        if not isinstance(specs, (list, tuple)) or not all(
            isinstance(s, CategorySpec) for s in specs
        ):
            raise ScenarioError(f"specs must be a list of specs, got {specs!r}")
        object.__setattr__(self, "specs", tuple(specs))
        if not specs:
            raise ScenarioError("scenario has no specs")
        keys = [(s.category, s.year) for s in specs]
        if len(set(keys)) != len(keys):
            raise ScenarioError("scenario has duplicate (category, year) specs")


def _spec_rng(seed: int, spec: CategorySpec) -> np.random.Generator:
    digest = hashlib.sha256(spec.salt.encode("utf-8")).digest()
    salt_int = int.from_bytes(digest[:8], "big")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed & _SEED_MASK, salt_int]))
    )


def _draw_family(rng: np.random.Generator, spec: CategorySpec) -> np.ndarray:
    a, b = spec.family_params
    if spec.family == "discretized-lognormal":
        draws = np.floor(rng.lognormal(mean=a, sigma=b, size=spec.n))
        if not np.all(draws < 2.0**63):  # int64 conversion is undefined there
            raise ValueError(
                f"lognormal draws must stay below 2**63, got {np.max(draws):.6g}"
            )
        return draws.astype(np.int64)
    if spec.family == "negative-binomial":
        return rng.negative_binomial(a, b, size=spec.n).astype(np.int64)
    # zipf-with-cutoff: support 1..c_max with weights k**-alpha
    c_max = int(b)
    support = np.arange(1, c_max + 1, dtype=np.int64)
    weights = support.astype(np.float64) ** (-a)
    weights /= weights.sum()
    return rng.choice(support, size=spec.n, p=weights)


def generate(scenario: Scenario) -> Corpus:
    """Draw the corpus a scenario describes; pure function of its arguments.

    Per record: with probability ``zero_inflation`` the count is 0, otherwise
    it is drawn from the spec's family (floored to an integer for continuous
    families) and multiplied by ``count_scale``.
    pub_ids are ``<category>-<year>-<index>`` with a zero-padded index.

    Raises :class:`~citescale.errors.ScenarioError` naming the spec when its
    ``n`` values or its family cannot be drawn or held in memory, or when a
    lognormal draw, a scaled count or ``count_scale`` reaches 2**63.
    """
    pub_ids, years, categories, counts = [], [], [], []  # columns, counts per spec
    for spec in scenario.specs:
        where = f"spec {spec.category}/{spec.year}"
        rng = _spec_rng(scenario.seed, spec)
        try:
            u = rng.random(spec.n)
            fam = _draw_family(rng, spec)
        except (ValueError, MemoryError) as exc:  # undrawable, or beyond memory
            raise ScenarioError(f"{where}: {exc}") from None
        drawn = np.where(u < spec.zero_inflation, 0, fam)
        if max(int(drawn.max()) * spec.count_scale, spec.count_scale) > _INT64_MAX:
            raise ScenarioError(
                f"{where}: a count times count_scale is beyond the int64 range"
            )
        counts.append(drawn * spec.count_scale)
        prefix = f"{spec.category}-{spec.year}-"
        pub_ids += [f"{prefix}{i:06d}" for i in range(spec.n)]
        years += [spec.year] * spec.n
        categories += [spec.category] * spec.n
    return Corpus(pub_ids, years, categories, np.concatenate(counts))


def scaled_copy_scenario(base: CategorySpec, k: int, seed: int = 0) -> Scenario:
    """Two-category scenario: the base spec plus an exact k-fold copy.

    Both categories share one PRNG stream, so the copy's citation counts are
    element-wise k times the base's on the same draws.  A k below 1 makes
    the copy's ``count_scale`` a :class:`~citescale.errors.ScenarioError`.
    """
    copy = replace(
        base,
        category=f"{base.category}-x{k}",
        count_scale=base.count_scale * k,
        seed_salt=base.salt,
    )
    return Scenario(seed=seed, specs=(base, copy))


def prng_metadata() -> dict:
    """Generator identity to record alongside any emitted corpus."""
    return {"prng": "numpy.random.PCG64", "numpy_version": np.__version__}


# --- scenario JSON ---------------------------------------------------------

_NEUTRAL = {("count_scale", 1), ("seed_salt", None)}


def scenario_to_dict(scenario: Scenario) -> dict:
    """The fields of a scenario and of its specs, leaving out a neutral
    ``count_scale`` or ``seed_salt``."""
    data = asdict(scenario)
    data["specs"] = [
        {k: v for k, v in spec.items() if (k, v) not in _NEUTRAL}
        for spec in data["specs"]
    ]
    return data


def _from_json(cls, data, where: str):
    """``cls(**data)`` with the JSON object ``data``; errors start with ``where``."""
    try:
        return cls(**data)
    except (TypeError, ScenarioError) as exc:  # TypeError: a missing or unknown key,
        raise ScenarioError(f"{where}{exc}") from None  # as __post_init__ raises none


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario a JSON object holds: its keys, and each spec's, are field names."""
    if isinstance(data, dict) and isinstance(data.get("specs"), list):
        specs = data["specs"]
        data = {**data, "specs": [
            _from_json(CategorySpec, d, f"specs[{i}]: ") for i, d in enumerate(specs)
        ]}
    return _from_json(Scenario, data, "")


def load_scenario(path: str | Path) -> Scenario:
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of > 4300 digits
        raise ScenarioError(f"{path}: not a JSON scenario: {exc}") from None
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- frozen validation scenario --------------------------------------------

# Twenty categories, each observed in two publication-year cohorts: an early
# cohort with a long citation window (continuum-like counts, few zeros) and a
# late cohort with a short window (small lattice counts, heavy zero class).
# Location ramps over [0.5, 3.0], tail widths sit in [1.0, 1.31], zero
# inflation spans [0.05, 0.55], cohort sizes 270..2000; group means span
# roughly 1..29.  Tuned once, against the acceptance suite's method-quality
# orderings, then frozen together with the expected summary statistics below;
# do not edit the constants without re-running that calibration.
BENCHMARK_SEED = 880803

_N_BENCHMARK_CATEGORIES = 20
BENCHMARK_YEARS = (2003, 2007)


def benchmark_scenario(seed: int = BENCHMARK_SEED) -> Scenario:
    """The frozen 20-category, two-cohort benchmark scenario."""
    k = _N_BENCHMARK_CATEGORIES
    specs = []
    for i in range(k):
        cat = f"C{i + 1:02d}"
        f = i / (k - 1)
        mu_old = round(1.85 + (3.00 - 1.85) * f, 3)
        sig_old = round(1.21 - (1.21 - 1.00) * f, 3)
        pi_old = round(0.05 + (0.135 - 0.05) * f, 3)
        mu_new = round(0.50 + (0.92 - 0.50) * ((i * 9) % k) / (k - 1), 3)
        pi_new = round(0.42 + (0.55 - 0.42) * ((i * 13) % k) / (k - 1), 3)
        n_old = int(270 + (1080 - 270) * ((i * 11) % k) / (k - 1))
        n_new = min(
            2000,
            max(100, int(n_old * 1.03 * (1 + 0.24 * (((i * 3) % k) / (k - 1) - 0.5)))),
        )
        specs.append(
            CategorySpec(
                category=cat,
                year=BENCHMARK_YEARS[0],
                n=n_old,
                family="discretized-lognormal",
                family_params=(mu_old, sig_old),
                zero_inflation=pi_old,
            )
        )
        specs.append(
            CategorySpec(
                category=cat,
                year=BENCHMARK_YEARS[1],
                n=n_new,
                family="discretized-lognormal",
                family_params=(mu_new, 1.31),
                zero_inflation=pi_new,
            )
        )
    return Scenario(seed=seed, specs=tuple(specs))


# Expected summary of generate(benchmark_scenario()); verified by the test
# suite so PRNG or platform drift is caught loudly instead of silently
# shifting every downstream report.
BENCHMARK_SUMMARY = {
    "n_records": 27345,
    "n_groups": 40,
    "total_citations": 290631,
    "group_mean_min": 1.467213114754098,
    "group_mean_max": 29.462481301792418,
}
