"""Shared fixtures: the expensive cycles and scans are run once per session."""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from szilard import (
    SCAN_FAMILIES,
    SizeError,
    evaluate_features,
    impossibility_scan,
    run_cycle,
    scenario_library,
)
import szilard.engine as engine_mod

SCAN_SEED = 20260814
SCAN_COUNT = 500
THERMAL_SEED = 7151
THERMAL_COUNT = 100
GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_document(name: str) -> dict:
    """The scenario document ``golden/library.json`` lists under ``name``."""
    library = json.loads((GOLDEN / "library.json").read_text(encoding="utf-8"))
    (doc,) = [e["document"] for e in library if e["document"]["name"] == name]
    return doc


def assert_refused_before_allocating(build) -> None:
    """``build()`` raises the joint-dimension ``SizeError`` within 0.5 s
    with a traced peak under 10 MB: nothing of the refused size was made."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(SizeError, match="joint dimension .* exceeds limit"):
            build()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5, elapsed
    assert peak < 10 * 2**20, peak


def clear_memos() -> None:
    """Empty the model and certified-structure memos."""
    engine_mod._ENGINES.clear()
    engine_mod._MODELS.clear()


@pytest.fixture
def cleared_memos():
    """Start from empty memos, so no engine the test builds shares a
    structure, or a cache an earlier test formed on one, with an engine
    built before it; and leave them empty, so no later test shares one
    this test formed or altered."""
    clear_memos()
    yield
    clear_memos()


def _cycle(name: str, **params):
    config = scenario_library(name, **params)
    result = run_cycle(config)
    report = evaluate_features(result, config)
    return config, result, report


@pytest.fixture(scope="session")
def example_i_cycles():
    """q -> (config, result, features) for the record-write engine."""
    return {q: _cycle("example_I", q=q) for q in (0.3, 0.5)}


@pytest.fixture(scope="session")
def example_ii_sweep():
    """N -> (config, result, features) for the superposed-post engine."""
    return {n: _cycle("example_II", N=n) for n in (5, 50, 500)}


@pytest.fixture(scope="session")
def degenerate_cycle():
    return _cycle("degenerate_circumvention")


@pytest.fixture(scope="session")
def reservoir_cycle():
    return _cycle("reservoir_circumvention")


@pytest.fixture(scope="session")
def null_cycle():
    return _cycle("null_engine")


@pytest.fixture(scope="session")
def scan500():
    return impossibility_scan(SCAN_COUNT, seed=SCAN_SEED)


@pytest.fixture(scope="session")
def scan500_configs():
    """The exact engine configs behind ``scan500``, rebuilt without running.

    ``impossibility_scan`` draws one config per step from a generator seeded
    once, so replaying the same loop reproduces the identical sequence.
    """
    names = tuple(SCAN_FAMILIES)
    rng = np.random.default_rng(SCAN_SEED)
    return tuple(
        SCAN_FAMILIES[names[i % len(names)]](rng, False)
        for i in range(SCAN_COUNT)
    )


@pytest.fixture(scope="session")
def thermal100():
    return impossibility_scan(
        THERMAL_COUNT, seed=THERMAL_SEED, thermal_system=True
    )
