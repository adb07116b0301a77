"""The benchmark's workloads, each driven through the package's public API.

Every workload is a closed loop: one caller, and the next engine is built
only after the previous one has been run and checked.  ``step(i)`` builds
engine ``i``, runs one cycle plus feature scoring, checks the outputs
against an oracle, and returns ``(build_s, cycle_s, ok)``.  ``verify(n)``
runs the end-of-run check over the ``n`` steps taken.  Inputs come only
from the seed.
"""

from __future__ import annotations

import collections
import importlib.util
import math
import time
from pathlib import Path

import numpy as np

import szilard

ORACLES_PATH = Path(__file__).resolve().parent.parent / "tests" / "_oracles.py"
WORK_TOL = 1e-9


def load_oracles():
    """``tests/_oracles.py``, loaded by path since ``tests`` is no package."""
    spec = importlib.util.spec_from_file_location("_oracles", ORACLES_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Scan:
    """The ``impossibility_scan`` loop, replayed draw by draw.

    All four families rotate round-robin off one generator seeded once, so
    ``impossibility_scan(n, seed)`` must report the same pattern tally as
    the first ``n`` draws here.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.names = tuple(szilard.SCAN_FAMILIES)
        self.tally: collections.Counter = collections.Counter()

    def step(self, i: int) -> tuple[float, float, bool]:
        family = szilard.SCAN_FAMILIES[self.names[i % len(self.names)]]
        t0 = time.perf_counter()
        config = family(self.rng, False)
        t1 = time.perf_counter()
        result = szilard.run_cycle(config)
        report = szilard.evaluate_features(result, config)
        t2 = time.perf_counter()
        self.tally[report.triple] += 1
        return t1 - t0, t2 - t1, not all(report.triple)

    def warm_up(self) -> None:
        """Nothing to do: thousands of draws dwarf any first-call cost."""

    def verify(self, count: int) -> bool:
        ref = szilard.impossibility_scan(count, seed=self.seed)
        return dict(ref.pattern_counts) == dict(self.tally)


class Scenario:
    """One library scenario rebuilt per step with a fresh ``q`` from the
    seed; ``q`` changes no dimension.  Every branch must extract
    ``expected_work``."""

    def __init__(self, seed: int, name: str, expected_work: float,
                 **params) -> None:
        self.rng = np.random.default_rng(seed)
        self.name = name
        self.params = params
        self.expected_work = expected_work

    def step(self, i: int) -> tuple[float, float, bool]:
        q = float(self.rng.uniform(0.1, 0.9))
        t0 = time.perf_counter()
        config = szilard.scenario_library(self.name, q=q, **self.params)
        t1 = time.perf_counter()
        result = szilard.run_cycle(config)
        szilard.evaluate_features(result, config)
        t2 = time.perf_counter()
        ok = len(result.branches) == 2 and all(
            abs(b.work - self.expected_work) <= WORK_TOL
            for b in result.branches
        )
        return t1 - t0, t2 - t1, ok

    def warm_up(self) -> None:
        """Build one engine untimed, so the first timed build does not pay
        for growing the heap to the size the build needs."""
        szilard.scenario_library(self.name, **self.params)

    def verify(self, count: int) -> bool:
        return True


def window(seed: int, N: int = 120) -> Scenario:
    """``example_II`` at window size N; branch work is q-independent.

    N = 120 gives joint dim 496, at about 0.35 s per engine on one core.
    """
    oracles = load_oracles()
    return Scenario(seed, "example_II",
                    oracles.superposed_post_work(N, 1.0, 1.0), N=N)


def swap_work(dim_R: int) -> float:
    """Branch work of ``reservoir_circumvention`` at swap angle pi/2, at the
    scenario's defaults (N = 30, omega = 0.25, temperature 1) but ``dim_R``.

    The full swap moves one reservoir quantum into the weight unless the
    thermal reservoir sits in its ground level (population p0), so each
    branch leaves the weight in the two-state window mixture that
    ``record_write_coarse_work`` prices, with ``q = 1 - p0``.  At the
    library's default dim_R = 16 it equals ``RESERVOIR_FROZEN[pi/2]``.
    """
    omega = 0.25
    p0 = 1.0 / sum(math.exp(-omega * k) for k in range(dim_R))
    return load_oracles().record_write_coarse_work(1.0 - p0, 30, omega, 1.0)


def reservoir(seed: int, dim_R: int = 4) -> Scenario:
    """``reservoir_circumvention`` at its defaults but ``dim_R``.

    dim_R = 4 gives joint dim 544, at about 0.3 s per engine on one core;
    every branch must extract :func:`swap_work` for that reservoir.
    """
    return Scenario(seed, "reservoir_circumvention", swap_work(dim_R),
                    dim_R=dim_R)


WORKLOADS = {
    "scan": Scan,
    "window": window,
    "reservoir": reservoir,
}
