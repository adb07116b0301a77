"""Benchmark entry point.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json`` untraced for ``--seconds``; ``--trace 1`` runs
a fixed unit of work untraced and then traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, and a full record with machine information
(plus the spans, when traced) goes to ``perfbench/out/``.  Without the
package sources next to this directory it exits with code 2 and prints no
result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is measured in fresh interpreters: import the package, then run one
# warm-up cycle of the smallest engine.  It is measured SETUP_REPEATS times
# before the timed loop and as many times after it, and the fastest is
# reported, as ``timeit`` does: interference only ever slows a set-up down,
# and on a shared machine it comes and goes in stretches of tens of seconds.
SETUP_REPEATS = 10
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import szilard
c = szilard.scenario_library("null_engine")
szilard.evaluate_features(szilard.run_cycle(c), c)
print(time.perf_counter() - t0)
"""

# Traced runs do a fixed number of steps, so call counts repeat exactly for
# a seed.
TRACE_STEPS = {"scan": 500, "window": 10, "reservoir": 10}


def machine_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                break
    return info


PICK_EVERY_S = 1.0


class CpuPicker:
    """Keeps the process on the usable CPU that runs a probe fastest.

    On a shared VM each vCPU is slowed by up to 2x, for a second to tens of
    seconds while another tenant loads it, and often one vCPU at a time.  So every PICK_EVERY_S
    seconds the probe (a pure-Python loop and a 400 x 400 complex matmul,
    about 15 ms) runs twice on each usable CPU, and the process moves to the
    one with the fastest run.  The probe time is kept out of every
    measurement.  With one usable CPU it does nothing.
    """

    def __init__(self) -> None:
        import numpy as np

        # Probing costs about 30 ms per CPU, so at most four are probed.
        self.cpus = sorted(os.sched_getaffinity(0))[:4]
        self.last = -math.inf
        self.spent = 0.0
        self.picks: collections.Counter = collections.Counter()
        rng = np.random.default_rng(0)
        self._a = (rng.standard_normal((400, 400))
                   + 1j * rng.standard_normal((400, 400)))

    def _probe(self) -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            s = 0
            for k in range(20000):
                s += k * k
            self._a @ self._a
            best = min(best, time.perf_counter() - t0)
        return best

    def pick(self) -> None:
        t0 = time.perf_counter()
        if len(self.cpus) > 1:
            speed = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speed[cpu] = self._probe()
            best = min(speed, key=speed.get)
            os.sched_setaffinity(0, {best})
            self.picks[best] += 1
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def maybe_pick(self) -> None:
        if time.perf_counter() - self.last >= PICK_EVERY_S:
            self.pick()


def measure_setup(picker: CpuPicker) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        picker.pick()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


class Loop:
    """Steps of one workload with their timings and failures."""

    def __init__(self, workload, errors) -> None:
        self.workload = workload
        self.errors = errors
        self.builds: list[float] = []
        self.cycles: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def run(self, until=None, steps=None, tracer=None,
            picker: CpuPicker | None = None) -> None:
        """Step until ``until`` seconds have passed (at least once) or for
        exactly ``steps`` steps, letting ``picker`` move the process between
        steps; its probes do not count towards ``until`` or ``wall``."""
        t_start = time.perf_counter()
        spent0 = picker.spent if picker is not None else 0.0

        def elapsed() -> float:
            spent = picker.spent - spent0 if picker is not None else 0.0
            return time.perf_counter() - t_start - spent

        while True:
            if picker is not None:
                picker.maybe_pick()
            i = self.attempted
            if steps is not None and i >= steps:
                break
            if until is not None and i and elapsed() >= until:
                break
            if tracer is not None:
                tracer.request = i
            self.attempted += 1
            try:
                b, c, ok = self.workload.step(i)
            except self.errors as exc:
                print(f"step {i} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                self.failed += 1
                continue
            self.builds.append(b)
            self.cycles.append(c)
            self.failed += 0 if ok else 1
        self.wall = elapsed()

    def verify(self) -> bool:
        try:
            return self.workload.verify(self.attempted)
        except self.errors as exc:
            print(f"verify raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return False


# Timings are read per window of consecutive steps lasting at least WINDOW_S
# of step time: about 40 draws on ``scan``, one or two engines on ``window``
# and ``reservoir``.  Each metric is computed per window, and the run reports its
# fastest window.  Other tenants of a shared machine slow a vCPU down by up
# to 2x, for a second to tens of seconds at a time, and that only ever
# makes a window slower; ``CpuPicker`` dodges most of it, and the fastest
# window discards the rest, as ``timeit`` does.  A cost that grows during
# the run shows only once it reaches the fastest window, so the record also
# keeps every window and the whole-run figures.
WINDOW_S = 0.25
HIGHER_IS_BETTER = {"engines_per_s"}


def _p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def windows(loop: Loop) -> list[list[tuple[float, float]]]:
    """``(build, cycle)`` pairs of the completed steps, grouped in order into
    windows of at least ``WINDOW_S``; a shorter tail joins the last one."""
    out: list[list[tuple[float, float]]] = []
    cur: list[tuple[float, float]] = []
    busy = 0.0
    for b, c in zip(loop.builds, loop.cycles):
        cur.append((b, c))
        busy += b + c
        if busy >= WINDOW_S:
            out.append(cur)
            cur, busy = [], 0.0
    if cur and out:
        out[-1].extend(cur)
    elif cur:
        out.append(cur)
    return out


def step_stats(steps: list[tuple[float, float]]) -> dict[str, float]:
    lat = [b + c for b, c in steps]
    return {
        "engines_per_s": len(lat) / sum(lat),
        "draw_p50_ms": statistics.median(lat) * 1e3,
        "draw_p90_ms": _p90(lat) * 1e3,
        "build_s": statistics.median(b for b, _ in steps),
        "cycle_s": statistics.median(c for _, c in steps),
    }


def end_to_end(loop: Loop, setups: list[float]) -> dict[str, float]:
    per_window = [step_stats(w) for w in windows(loop)]
    out = {k: (max if k in HIGHER_IS_BETTER else min)(row[k]
                                                      for row in per_window)
           for k in per_window[0]}
    out["setup_s"] = min(setups)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return out


def per_layer(tracer: Tracer, traced: Loop, plain: Loop) -> dict[str, float]:
    summary = tracer.summary()
    out = {f"{name}.{key}": v for name, row in summary.items()
           for key, v in row.items()}
    out.update(layer_metrics(summary))
    configs = summary["engine.EngineConfig"]["calls"]
    out["engine.configs_built"] = configs
    out["engine.draws_per_certification"] = traced.attempted / configs
    out["trace_overhead_ratio"] = traced.wall / plain.wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "window", "reservoir"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "szilard" / "__init__.py").is_file():
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One BLAS thread, set before numpy loads here or in a set-up child.  On
    # a shared 2-vCPU VM, two-thread BLAS spread the dense cycle times about
    # four times wider between runs than one thread did.  The thread count
    # the library reports is recorded with every result.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        picker = CpuPicker()
        setups = [] if ns.trace else measure_setup(picker)
        import szilard
        import workloads
    except (ImportError, OSError, RuntimeError,
            subprocess.SubprocessError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    errors = (szilard.SzilardError, ValueError)
    warm = szilard.scenario_library("null_engine")
    szilard.evaluate_features(szilard.run_cycle(warm), warm)
    make = workloads.WORKLOADS[ns.workload]

    if ns.trace:
        steps = TRACE_STEPS[ns.workload]
        plain = Loop(make(ns.seed), errors)
        plain.workload.warm_up()
        plain.run(steps=steps, picker=picker)
        tracer = Tracer()
        traced = Loop(make(ns.seed), errors)
        tracer.install()
        try:
            traced.run(steps=steps, tracer=tracer, picker=picker)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
        values = per_layer(tracer, traced, plain)
        wanted = spec["per_layer"]
    else:
        loop = Loop(make(ns.seed), errors)
        loop.workload.warm_up()
        loop.run(until=ns.seconds, picker=picker)
        try:
            setups += measure_setup(picker)
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 2
        loops = [loop]
        values = end_to_end(loop, setups)
        wanted = spec["end_to_end"]

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    correct = failed == 0 and all(lp.verify() for lp in loops)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    info = machine_info()
    OUT.mkdir(exist_ok=True)
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    record = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
        "trace": ns.trace, "machine": info, "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "samples": len(loops[-1].builds), "setup_samples_s": setups,
        "build_samples_s": loops[-1].builds, "cycle_samples_s": loops[-1].cycles,
        "metrics": metrics, "all_values": values,
        "whole_run": step_stats(list(zip(loops[-1].builds, loops[-1].cycles))),
        "per_window": [step_stats(w) for w in windows(loops[-1])],
        "cpu_picks": dict(picker.picks), "cpu_probe_s": picker.spent,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                      encoding="utf-8")
    if ns.trace:
        tracer.write(OUT / f"{stem}-spans.json.gz")

    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{ns.workload}: {attempted} attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:g}), "
          f"{len(loops[-1].builds)} samples, correct={correct}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
