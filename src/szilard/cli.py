"""Command-line front end: run scenario files, sweep parameters, scan.

A scenario file (YAML) names either a library scenario with parameters or a
fully explicit engine given by matrices, optionally sweeps one parameter
over a list of values, and chooses the output format.  Matrices and vectors
are written entrywise as ``[re, im]`` pairs.

Exit status: 0 on success, 1 on validation, parsing, or I/O errors, 2 when
a hard internal assertion fires (which indicates a bug, not bad input).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np
import yaml

from .engine import (
    EngineConfig,
    FeatureReport,
    CycleResult,
    ScanReport,
    evaluate_features,
    impossibility_scan,
    run_cycle,
    scenario_library,
)
from .feedback import FeedbackScheme, build_oscillator_weight, build_shift_unitary
from .measurement import Observable, Transition, build_transition_model
from .qop import (
    REQUIRED,
    DensityMatrix,
    HardAssertionError,
    Operator,
    PureState,
    SzilardError,
    _check_joint_dim,
    _non_negative,
    _positive,
    _read,
)
from .thermo import ThermoContext, build_swap_erasure

__all__ = ["main", "parse_scenario", "run_records", "ScenarioRun"]


# ---------------------------------------------------------------------------
# scenario file parsing: value kinds, then one table per block


def _fail(field: str, message: str) -> ValueError:
    return ValueError(f"field {field!r}: {message}")


def _complex(entry: Any, path: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ValueError(f"expected an [re, im] pair, got {entry!r}")
    re, im = (_read(v, float, path) for v in entry)
    return complex(re, im)


def _vector(obj: Any, path: str) -> np.ndarray:
    return np.array(_read(obj, [_complex], path), dtype=complex)


def _matrix(obj: Any, path: str) -> np.ndarray:
    rows = _read(obj, [_vector], path)
    if len({len(r) for r in rows}) != 1:
        raise ValueError("rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def _operator(obj: Any, path: str) -> Operator:
    return Operator(_matrix(obj, path))


def _hamiltonian(obj: Any, path: str) -> Operator:
    h = _operator(obj, path)
    if not h.is_hermitian:
        raise ValueError("expected a Hermitian matrix")
    return h


def _levels(obj: Any, path: str) -> int:
    n = _read(obj, int, path)
    if n < 1:
        raise ValueError(f"expected at least one window level, got {obj!r}")
    return n


def _state(obj: Any, path: str) -> PureState:
    return PureState(_vector(obj, path))


def _density(obj: Any, path: str) -> DensityMatrix:
    return DensityMatrix(_matrix(obj, path))


_OUTCOME = {
    "label": (str, REQUIRED),
    "value": (float, REQUIRED),
    "projector": (_operator, REQUIRED),
}
_TRANSITION = {
    "outcome": (str, REQUIRED),
    "sys_in": (_state, REQUIRED),
    "sys_out": (_state, REQUIRED),
    "pointer_out": (_state, REQUIRED),
}
_BRANCH = {"label": (str, REQUIRED), "unitary": (_operator, REQUIRED)}


def _observable(obj: Any, path: str) -> Observable:
    return Observable(tuple(
        (r["label"], r["value"], r["projector"])
        for r in _read(obj, [_OUTCOME], path)
    ))


def _transitions(obj: Any, path: str) -> tuple[Transition, ...]:
    return tuple(Transition(**r) for r in _read(obj, [_TRANSITION], path))


def _feedback(obj: Any, path: str) -> FeedbackScheme:
    return FeedbackScheme(tuple(
        (r["label"], r["unitary"]) for r in _read(obj, [_BRANCH], path)
    ))


_CONFIG = {
    "temperature": (_positive, 1.0),
    "kb": (_positive, 1.0),
    "omega": (_positive, 1.0),
    "levels": (_levels, 20),
    "dim": (int, None),
    "h_s": (_hamiltonian, REQUIRED),
    "h_d": (_hamiltonian, REQUIRED),
    "rho_s": (_density, REQUIRED),
    "demon_initial": (_state, REQUIRED),
    "target": (_observable, REQUIRED),
    "pointer": (_observable, REQUIRED),
    "transitions": (_transitions, REQUIRED),
    "feedback": (_feedback, None),
    "erasure": (("landauer_optimal", "swap"), "landauer_optimal"),
    "tol_s": (_non_negative, None),
}
_SWEEP = {"parameter": (str, REQUIRED), "values": ([object], REQUIRED)}
_OUTPUT = {"format": (("json", "csv"), None), "path": (str, None)}
_DOCUMENT = {
    "name": (str, "scenario"),
    "scenario": (str, None),
    "params": (Mapping, None),
    "config": (Mapping, None),
    "sweep": (_SWEEP, None),
    "output": (_OUTPUT, None),
    "non_conforming": (bool, False),
}


def _parse_explicit_config(
    block: Mapping[str, Any], non_conforming: bool
) -> EngineConfig:
    """Build an engine from a fully explicit scenario-file config block."""
    c = _read(block, _CONFIG, "config")
    ctx = ThermoContext(c["temperature"], c["kb"])
    try:
        weight = build_oscillator_weight(c["omega"], c["levels"], dim=c["dim"])
    except ValueError as exc:  # omega and levels are read valid: dim is short
        raise _fail("config.dim", str(exc)) from exc
    _check_joint_dim(weight.dim, c["h_s"].dim, c["pointer"].dim)
    model = build_transition_model(
        c["target"],
        c["pointer"],
        c["demon_initial"],
        c["transitions"],
        hamiltonians=(c["h_s"], c["h_d"]),
    )
    scheme = c["feedback"]
    if scheme is None:
        posts = model.post_states
        if posts is None or set(posts) != set(c["pointer"].labels):
            raise _fail(
                "config.feedback",
                "required unless each pointer outcome has exactly one transition row",
            )
        if c["h_s"].dim != 2:
            raise _fail(
                "config.feedback",
                "required for non-qubit systems; only qubit ladder strokes "
                "are built automatically",
            )
        scheme = FeedbackScheme(
            tuple(
                (label, build_shift_unitary(weight, posts[label]))
                for label in c["pointer"].labels
            )
        )
    erasure = None
    if c["erasure"] == "swap":
        erasure = build_swap_erasure(c["demon_initial"], ctx)
    return EngineConfig(
        rho_s=c["rho_s"],
        h_s=c["h_s"],
        measurement=model,
        feedback=scheme,
        weight=weight,
        thermo=ctx,
        h_d=c["h_d"],
        erasure=erasure,
        degenerate_target=not c["target"].is_nondegenerate,
        non_conforming=non_conforming,
        tol_s=c["tol_s"],
        label="explicit",
    )


@dataclasses.dataclass(frozen=True)
class ScenarioRun:
    """One engine to execute: a sweep point of a scenario file."""

    name: str
    scenario: str
    sweep_parameter: str | None
    sweep_value: Any
    config: EngineConfig


def parse_scenario(
    doc: Mapping[str, Any],
    overrides: Mapping[str, Any] | None = None,
) -> tuple[ScenarioRun, ...]:
    """Expand a scenario document into one engine per sweep point.

    ``overrides`` may carry ``kb`` and ``tol_s`` (command line or
    environment); they take precedence over file values.  Validation
    failures raise ``ValueError`` naming the offending field.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("scenario document must be a mapping")
    overrides = dict(overrides or {})
    d = _read(doc, _DOCUMENT, "")
    has_ref = d["scenario"] is not None
    if has_ref == (d["config"] is not None):
        raise ValueError(
            "scenario document needs exactly one of 'scenario' (library "
            "reference) or 'config' (explicit matrices)"
        )
    if not has_ref and d["params"] is not None:
        raise _fail("params", "not allowed with an explicit 'config'")
    sweep = d["sweep"]
    points: list[tuple[str | None, Any]] = [(None, None)]
    if sweep is not None:
        points = [(sweep["parameter"], v) for v in sweep["values"]]

    runs = []
    for parameter, value in points:
        block = dict((d["params"] or {}) if has_ref else d["config"])
        if parameter is not None:
            block[parameter] = value
        for key in ("kb", "tol_s"):
            if overrides.get(key) is not None:
                block[key] = overrides[key]
        if has_ref:
            config = scenario_library(d["scenario"], **block)
            if d["non_conforming"]:
                config = dataclasses.replace(config, non_conforming=True)
        else:
            config = _parse_explicit_config(block, d["non_conforming"])
        runs.append(
            ScenarioRun(
                name=d["name"],
                scenario=d["scenario"] if has_ref else "explicit",
                sweep_parameter=parameter,
                sweep_value=value,
                config=config,
            )
        )
    return tuple(runs)


# ---------------------------------------------------------------------------
# execution and serialization


def _certification_record(config: EngineConfig, result: CycleResult) -> dict:
    cert = config.certification
    rec: dict[str, Any] = {
        "conforming": config.conforming,
        "feedback_form": {
            "passed": cert.feedback_form.passed,
            "block_residual": cert.feedback_form.block_residual,
            "probe_residual": cert.feedback_form.probe_residual,
        },
        "feedback_energy": {
            "passed": cert.feedback_energy.passed,
            "worst_branch_commutator": max(
                (c for _, c in cert.feedback_energy.branch_commutators),
                default=0.0,
            ),
            "worst_pointer_group_commutator": max(
                (c for _, c in cert.feedback_energy.pointer_group_commutators),
                default=0.0,
            ),
        },
        "objectification_order_gap": result.objectification_order_gap,
        "marginal_deviation": result.marginal_deviation,
    }
    way = cert.way
    if way is not None:
        rec["measurement_energy"] = {
            "passed": way.energy.passed,
            "premeasurement_commutator": way.energy.premeasurement_commutator,
            "pointer_commutator": way.energy.pointer_commutator,
        }
        rec["way"] = {
            "energy_ok": way.energy.passed,
            "repeatable_or_pointer_commuting": way.repeatable_or_pointer_commuting,
            "observable_commutes": way.observable_commutes,
            "target_commutator": way.target_commutator,
        }
    return rec


def _run_record(run: ScenarioRun, result: CycleResult, report: FeatureReport) -> dict:
    led, erasure, config = result.ledger, result.erasure, run.config
    rec: dict[str, Any] = {
        "name": run.name,
        "scenario": run.scenario,
    }
    if run.sweep_parameter is not None:
        rec["sweep"] = {"parameter": run.sweep_parameter, "value": run.sweep_value}
    rec["branches"] = [
        {
            "outcome": str(b.outcome),
            "probability": b.probability,
            "work": b.work,
            "weight_entropy_change": b.weight_entropy_change,
        }
        for b in result.branches
    ]
    rec["ledger"] = {
        "w_coarse": led.w_coarse,
        "w_avg": led.w_avg,
        "q": erasure.q,
        "w_r": erasure.w_r,
        "w_net_coarse": led.w_net_coarse,
        "w_net_avg": led.w_net_avg,
        "bound_rhs_coarse": led.bound_rhs_coarse,
        "slack_second_law": led.slack_second_law,
        "concavity_gap": led.concavity_gap,
        "entropy_chain_slack": led.entropy_chain_slack,
    }
    rec["features"] = {
        "f1_repeatable": report.f1_repeatable,
        "f2_entropy_invariant": report.f2_entropy_invariant,
        "f3_positive_work": report.f3_positive_work,
        "min_work": report.min_work,
        "work_floor": config.work_floor,
        "degenerate_target": config.degenerate_target,
        "reservoir_in_feedback": config.reservoir_in_feedback,
    }
    rec["erasure"] = {
        "q": erasure.q,
        "w_r": erasure.w_r,
        "landauer_optimal": erasure.landauer_optimal,
        "reset_fidelity": erasure.reset_fidelity,
    }
    rec["certification"] = _certification_record(config, result)
    return rec


def run_records(runs: Sequence[ScenarioRun]) -> list[dict]:
    """Execute every sweep point in order and collect its record."""
    records = []
    for run in runs:
        result = run_cycle(run.config)
        report = evaluate_features(result, run.config)
        records.append(_run_record(run, result, report))
    return records


def _format_float(x: Any) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _records_to_csv(records: Sequence[dict], plot_data: bool) -> str:
    """One row per branch.  Plot data leaves out the probability and always
    leads with the sweep value; the plain table leads with it only when a
    record was swept."""
    columns = ["outcome", "work", "weight_entropy_change"]
    if not plot_data:
        columns.insert(1, "probability")
    sweeping = plot_data or any("sweep" in r for r in records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow((["sweep_value"] if sweeping else []) + columns)
    for r in records:
        lead = [r.get("sweep", {}).get("value", "")] if sweeping else []
        for b in r["branches"]:
            writer.writerow([_format_float(x) for x in lead + [b[k] for k in columns]])
    return buf.getvalue()


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands


def _env(name: str, kind: type) -> float | int | None:
    """The environment variable ``name`` read as ``kind`` (``float`` or
    ``int``), or ``None`` when it is unset or empty."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return kind(raw)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ValueError(f"environment variable {name} is not {noun}: {raw!r}") from exc


def _cmd_run(ns: argparse.Namespace) -> int:
    with open(ns.file, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    overrides = {
        "kb": ns.kb if ns.kb is not None else _env("SZILARD_KB", float),
        "tol_s": ns.tol_s if ns.tol_s is not None else _env("SZILARD_TOL_S", float),
    }
    seed = ns.seed if ns.seed is not None else _env("SZILARD_SEED", int)
    runs = parse_scenario(doc, overrides)
    output = _read(doc.get("output") or {}, _OUTPUT, "output")
    records = run_records(runs)
    fmt = ns.format or output["format"] or "json"
    path = ns.out or output["path"]
    if fmt == "json":
        payload = {"name": runs[0].name, "records": records}
        if seed is not None:
            payload["seed"] = seed
        _emit(json.dumps(payload, indent=2, allow_nan=False), path)
    else:
        _emit(_records_to_csv(records, ns.plot_data), path)
    return 0


def _cmd_scan(ns: argparse.Namespace) -> int:
    seed = ns.seed if ns.seed is not None else _env("SZILARD_SEED", int)
    if seed is None:
        seed = 0
    report = impossibility_scan(ns.count, seed, thermal_system=ns.thermal)
    if ns.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["family", "f1", "f2", "f3", "min_work", "w_net_coarse", "w_net_avg"]
        )
        for r in report.records:
            writer.writerow(
                [
                    r.family,
                    int(r.triple[0]),
                    int(r.triple[1]),
                    int(r.triple[2]),
                    repr(r.min_work),
                    repr(r.w_net_coarse),
                    repr(r.w_net_avg),
                ]
            )
        _emit(buf.getvalue(), ns.out)
        return 0
    payload = _scan_payload(report, ns.thermal)
    _emit(json.dumps(payload, indent=2, allow_nan=False), ns.out)
    return 0


def _scan_payload(report: ScanReport, thermal_system: bool) -> dict:
    """The JSON document ``szilard scan`` writes for one report."""
    return {
        "count": report.count,
        "seed": report.seed,
        "thermal_system": thermal_system,
        "all_three_count": report.all_three_count,
        "pattern_counts": [
            {"triple": list(triple), "count": count}
            for triple, count in report.pattern_counts
        ],
        "records": [
            {
                "family": r.family,
                "triple": list(r.triple),
                "min_work": r.min_work,
                "w_net_coarse": r.w_net_coarse,
                "w_net_avg": r.w_net_avg,
                "bound_rhs_coarse": r.bound_rhs_coarse,
                "objectification_order_gap": r.order_gap,
            }
            for r in report.records
        ],
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szilard",
        description="measurement-powered engine cycles: run scenarios and scans",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a scenario file (one cycle per sweep point)")
    run_p.add_argument("file", help="YAML scenario file")
    run_p.add_argument("--format", choices=["json", "csv"], default=None)
    run_p.add_argument("--out", default=None, help="output path (default stdout)")
    run_p.add_argument("--seed", type=int, default=None, help="recorded in the output")
    run_p.add_argument("--tol-s", dest="tol_s", type=float, default=None,
                       help="override the weight-entropy feature tolerance")
    run_p.add_argument("--kb", type=float, default=None,
                       help="override the Boltzmann constant")
    run_p.add_argument("--plot-data", action="store_true",
                       help="CSV rows of (sweep value, outcome, work, entropy change)")

    scan_p = sub.add_parser("scan", help="run randomized conforming engines")
    scan_p.add_argument("--count", type=int, required=True)
    scan_p.add_argument("--seed", type=int, default=None)
    scan_p.add_argument("--thermal", action="store_true",
                        help="draw system states thermal at the context temperature")
    scan_p.add_argument("--format", choices=["json", "csv"], default="json")
    scan_p.add_argument("--out", default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        return 1
    try:
        if ns.command == "run":
            return _cmd_run(ns)
        return _cmd_scan(ns)
    except HardAssertionError as exc:
        print(f"hard assertion failed: {exc}", file=sys.stderr)
        return 2
    except (SzilardError, ValueError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
