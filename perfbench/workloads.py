"""Seeded inputs of the `report` benchmark, one builder per workload.

Every builder returns a :class:`citescale.synth.Scenario`; the benchmark
writes it out as the scenario JSON (``frozen``, ``wide``, ``smoke``) or the
corpus CSV (``deep``) a user would hand to ``citescale report``.  The seed
only moves the random draws and which (category, year) slot gets which group
recipe: the multiset of group sizes and distribution parameters is fixed per
workload, so report cost stays put across seeds while the data does not.
"""

from __future__ import annotations

import random
from dataclasses import replace

from citescale.synth import BENCHMARK_SEED, CategorySpec, Scenario, benchmark_scenario

# content_hash of `report` on benchmark_scenario(BENCHMARK_SEED), numpy 2.4.6.
GOLDEN_FROZEN_HASH = "338a715dede445cde755feeec6a9791f8d105f6e0081e18fe7a2e0bbb6f640ff"

WIDE_CATEGORIES = 40
WIDE_YEARS = (2001, 2005, 2009)
DEEP_FACTOR = 3


def frozen(seed: int) -> Scenario:
    """The paper's 20-category x 2-cohort scenario (27,345 records)."""
    return benchmark_scenario(seed)


def wide(seed: int) -> Scenario:
    """Many small groups: 40 categories x 3 cohorts, 40-99 records each.

    Per-group fixed costs (the 601-point lambda grid, O(G^2) pairwise KS)
    dominate here.  Group j of the 120 recipes has size 40 + j // 2 and
    location, width and zero mass spread over the same ranges as the frozen
    scenario by coprime strides, so sizes and shapes are not correlated.
    """
    n_groups = WIDE_CATEGORIES * len(WIDE_YEARS)
    recipes = [
        (
            40 + j // 2,
            round(0.5 + 2.5 * ((j * 37) % n_groups) / (n_groups - 1), 3),
            round(1.0 + 0.31 * ((j * 53) % n_groups) / (n_groups - 1), 3),
            round(0.05 + 0.5 * ((j * 71) % n_groups) / (n_groups - 1), 3),
        )
        for j in range(n_groups)
    ]
    random.Random(seed).shuffle(recipes)
    slots = [
        (f"W{c + 1:02d}", year)
        for c in range(WIDE_CATEGORIES)
        for year in WIDE_YEARS
    ]
    specs = tuple(
        CategorySpec(
            category=cat,
            year=year,
            n=n,
            family="discretized-lognormal",
            family_params=(mu, sigma),
            zero_inflation=pi,
        )
        for (cat, year), (n, mu, sigma, pi) in zip(slots, recipes)
    )
    return Scenario(seed=seed, specs=specs)


def deep(seed: int) -> Scenario:
    """The frozen specs with every group's size tripled (82,035 records)."""
    base = benchmark_scenario(seed)
    return replace(
        base, specs=tuple(replace(s, n=s.n * DEEP_FACTOR) for s in base.specs)
    )


def smoke(seed: int) -> Scenario:
    """Three categories x two cohorts of 30 records, for the smoke mode."""
    specs = tuple(
        CategorySpec(
            category=f"S{c + 1}",
            year=year,
            n=30,
            family="discretized-lognormal",
            family_params=(1.0 + 0.5 * c, 1.1),
            zero_inflation=0.2,
        )
        for c in range(3)
        for year in (2010, 2014)
    )
    return Scenario(seed=seed, specs=specs)


def golden_hash(name: str, seed: int) -> str | None:
    """The content_hash a workload's report must reproduce, where one is pinned."""
    if name == "frozen" and seed == BENCHMARK_SEED:
        return GOLDEN_FROZEN_HASH
    return None


BUILDERS = {"frozen": frozen, "wide": wide, "deep": deep, "smoke": smoke}

# Workloads whose input is a corpus CSV (the ingest path); the others are
# handed over as scenario JSON (the generate + emit path).
CSV_INPUT = frozenset({"deep"})
