"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import szilard  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ERRORS = (szilard.SzilardError, ValueError)
SEED = 5


TINY = {
    "scan": (lambda: workloads.Scan(SEED), 8),
    "window": (lambda: workloads.window(SEED, N=20), 2),
    "reservoir": (lambda: workloads.reservoir(SEED, dim_R=3), 2),
}


def traced_counts(name: str) -> dict:
    make, steps = TINY[name]
    loop = run.Loop(make(), ERRORS)
    tracer = Tracer()
    tracer.install()
    try:
        loop.run(steps=steps, tracer=tracer)
    finally:
        tracer.uninstall()
    assert loop.failed == 0 and loop.verify()
    summary = tracer.summary()
    return {n: (r["calls"], r["failures"]) for n, r in summary.items()}


def test_swap_work_matches_frozen_oracle():
    frozen = workloads.load_oracles().RESERVOIR_FROZEN[math.pi / 2]["work"]
    assert abs(workloads.swap_work(16) - frozen) <= 1e-12


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_passes_its_oracle(name):
    make, steps = TINY[name]
    loop = run.Loop(make(), ERRORS)
    loop.run(steps=steps)
    assert (loop.attempted, loop.failed) == (steps, 0)
    assert loop.verify()
    values = run.end_to_end(loop, [0.1, 0.2, 0.3])
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", ["window", "reservoir"])
def test_wrong_oracle_counts_as_failed(name):
    make, steps = TINY[name]
    wl = make()
    wl.expected_work += 1e-6
    loop = run.Loop(wl, ERRORS)
    loop.run(steps=steps)
    assert loop.failed == steps


def test_timings_come_from_the_fastest_window(monkeypatch):
    monkeypatch.setattr(run, "WINDOW_S", 0.5)
    loop = run.Loop(None, ERRORS)
    # latencies 0.6 | 0.2, 0.4 | 0.5 | 0.3, 0.3 | 0.7, with a short tail
    loop.builds = [0.5, 0.1, 0.3, 0.4, 0.2, 0.2, 0.6, 0.05]
    loop.cycles = [0.1] * 7 + [0.05]
    assert [len(w) for w in run.windows(loop)] == [1, 2, 1, 2, 2]
    values = run.end_to_end(loop, [0.3, 0.1, 0.2])
    # window medians 0.6, 0.3, 0.5, 0.3, 0.4
    assert math.isclose(values["draw_p50_ms"], 300.0)
    assert math.isclose(values["draw_p90_ms"], 300.0)
    assert math.isclose(values["build_s"], 0.2)
    assert math.isclose(values["cycle_s"], 0.075)
    # window rates 1/0.6, 2/0.6, 1/0.5, 2/0.6, 2/0.8
    assert math.isclose(values["engines_per_s"], 2 / 0.6)
    assert values["setup_s"] == 0.1


def test_a_slow_stretch_does_not_move_the_reading():
    quiet = run.Loop(None, ERRORS)
    quiet.builds = [0.4] * 20
    quiet.cycles = [0.8] * 20
    busy = run.Loop(None, ERRORS)
    busy.builds = [0.4] * 10 + [0.6] * 10
    busy.cycles = [0.8] * 10 + [1.2] * 10
    readings = [run.end_to_end(loop, [0.1]) for loop in (quiet, busy)]
    for values in readings:
        del values["peak_rss_mb"]
    assert readings[0] == readings[1]


def test_scan_tally_mismatch_is_caught():
    loop = run.Loop(workloads.Scan(SEED), ERRORS)
    loop.run(steps=8)
    assert not loop.workload.verify(9)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(name):
    first = traced_counts(name)
    assert first == traced_counts(name)
    assert first["engine.run_cycle"][0] == TINY[name][1]
    assert first["qop.DensityMatrix"][0] > 0
    assert sum(f for _, f in first.values()) == 0


def test_tracer_restores_every_original():
    originals = (szilard.run_cycle, szilard.engine.check_feedback_form,
                 szilard.qop.DensityMatrix.__init__,
                 dict(szilard.SCAN_FAMILIES))
    tracer = Tracer()
    tracer.install()
    assert szilard.engine.check_feedback_form is not originals[1]
    tracer.uninstall()
    assert (szilard.run_cycle, szilard.engine.check_feedback_form,
            szilard.qop.DensityMatrix.__init__,
            dict(szilard.SCAN_FAMILIES)) == originals


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.names.update({"engine.a", "qop.b"})
    # a: 0..100 ns, containing b: 10..40 and b: 50..60
    tracer.spans.extend([
        ("engine.a", -1, 0, 0, 100, True),
        ("qop.b", 0, 0, 10, 40, True),
        ("qop.b", 0, 0, 50, 60, False),
    ])
    summary = tracer.summary()
    assert summary["engine.a"]["calls"] == 1
    assert summary["engine.a"]["failures"] == 0
    assert math.isclose(summary["engine.a"]["self_s"], 60e-9)
    assert summary["qop.b"]["calls"] == 2
    assert summary["qop.b"]["failures"] == 1
    assert math.isclose(summary["qop.b"]["self_s"], 40e-9)
    layers = layer_metrics(summary)
    assert layers["qop.calls"] == 2 and layers["engine.failures"] == 0


def test_pinned_scan_tally():
    scan = workloads.Scan(20260814)
    loop = run.Loop(scan, ERRORS)
    loop.run(steps=500)
    tally = {"".join("TF"[not f] for f in t): n for t, n in scan.tally.items()}
    assert tally == {"TTF": 125, "TFT": 125, "FTT": 125, "FFT": 103, "FFF": 22}
    assert loop.verify()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
