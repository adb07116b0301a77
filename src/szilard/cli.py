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
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from .engine import (
    EngineConfig,
    FeatureReport,
    CycleResult,
    SCENARIO_NAMES,
    ScanReport,
    evaluate_features,
    impossibility_scan,
    run_cycle,
    scenario_library,
)
from .feedback import FeedbackScheme, build_oscillator_weight, build_shift_unitary
from .measurement import Observable, Transition, build_transition_model
from .qop import (
    DensityMatrix,
    HardAssertionError,
    Operator,
    PureState,
    SzilardError,
    _number,
)
from .thermo import ThermoContext, build_swap_erasure

__all__ = ["main", "parse_scenario", "run_records", "ScenarioRun"]


# ---------------------------------------------------------------------------
# scenario file parsing


def _fail(field: str, message: str) -> ValueError:
    return ValueError(f"field {field!r}: {message}")


def _read(doc: Mapping[str, Any], key: str, kind: type, default: Any = None,
          prefix: str = "") -> Any:
    """``doc[key]`` as ``kind``: a ``Mapping``, a ``str``, a ``bool``, a
    real number (``float``) or an integral one (``int``, which takes
    ``5.0``).  An absent or null entry gives ``default``; any other value
    fails naming the field."""
    value = doc.get(key)
    if value is None:
        return default
    field = prefix + key
    if kind in (int, float):
        return _number(value, kind, f"field {field!r}")
    if not isinstance(value, kind):
        expected = {Mapping: "a mapping", str: "a string", bool: "true or false"}
        raise _fail(field, f"expected {expected[kind]}, got {value!r}")
    return value


def _parse_complex(entry: Any, field: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise _fail(field, f"expected an [re, im] pair, got {entry!r}")
    re, im = (_number(v, float, f"field {field!r}") for v in entry)
    return complex(re, im)


def _parse_vector(obj: Any, field: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise _fail(field, "expected a non-empty list of [re, im] pairs")
    return np.array(
        [_parse_complex(e, f"{field}[{i}]") for i, e in enumerate(obj)],
        dtype=complex,
    )


def _parse_matrix(obj: Any, field: str) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise _fail(field, "expected a non-empty list of rows")
    rows = [_parse_vector(r, f"{field}[{i}]") for i, r in enumerate(obj)]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise _fail(field, "rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


def _parse_hamiltonian(obj: Any, field: str) -> Operator:
    h = Operator(_parse_matrix(obj, field))
    if not h.is_hermitian:
        raise _fail(field, "expected a Hermitian matrix")
    return h


def _parse_observable(obj: Any, field: str) -> Observable:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise _fail(field, "expected a list of {label, value, projector} rows")
    rows = []
    for i, item in enumerate(obj):
        here = f"{field}[{i}]"
        if not isinstance(item, Mapping):
            raise _fail(here, "expected a mapping")
        for key in ("label", "value", "projector"):
            if key not in item:
                raise _fail(f"{here}.{key}", "missing")
        rows.append(
            (
                str(item["label"]),
                _number(item["value"], float, f"field {here + '.value'!r}"),
                Operator(_parse_matrix(item["projector"], f"{here}.projector")),
            )
        )
    return Observable(tuple(rows))


def _parse_explicit_config(doc: Mapping[str, Any]) -> EngineConfig:
    """Build an engine from a fully explicit scenario-file config block."""
    known = {
        "temperature", "kb", "omega", "levels", "dim", "h_s", "h_d",
        "rho_s", "demon_initial", "target", "pointer", "transitions",
        "feedback", "erasure", "degenerate_target", "non_conforming",
        "tol_s",
    }
    for key in doc:
        if key not in known:
            raise _fail(f"config.{key}", "unknown key")
    for key in ("h_s", "h_d", "rho_s", "demon_initial", "target", "pointer",
                "transitions"):
        if key not in doc:
            raise _fail(f"config.{key}", "missing")
    ctx = ThermoContext(
        _read(doc, "temperature", float, 1.0, "config."),
        _read(doc, "kb", float, 1.0, "config."),
    )
    omega = _read(doc, "omega", float, 1.0, "config.")
    levels = _read(doc, "levels", int, 20, "config.")
    dim = _read(doc, "dim", int, None, "config.")
    h_s = _parse_hamiltonian(doc["h_s"], "config.h_s")
    h_d = _parse_hamiltonian(doc["h_d"], "config.h_d")
    rho_s = DensityMatrix(_parse_matrix(doc["rho_s"], "config.rho_s"))
    demon_initial = PureState(
        _parse_vector(doc["demon_initial"], "config.demon_initial")
    )
    target = _parse_observable(doc["target"], "config.target")
    pointer = _parse_observable(doc["pointer"], "config.pointer")
    if not isinstance(doc["transitions"], (list, tuple)) or not doc["transitions"]:
        raise _fail("config.transitions", "expected a non-empty list")
    transitions = []
    for i, item in enumerate(doc["transitions"]):
        here = f"config.transitions[{i}]"
        if not isinstance(item, Mapping):
            raise _fail(here, "expected a mapping")
        for key in ("outcome", "sys_in", "sys_out", "pointer_out"):
            if key not in item:
                raise _fail(f"{here}.{key}", "missing")
        transitions.append(
            Transition(
                str(item["outcome"]),
                PureState(_parse_vector(item["sys_in"], f"{here}.sys_in")),
                PureState(_parse_vector(item["sys_out"], f"{here}.sys_out")),
                PureState(
                    _parse_vector(item["pointer_out"], f"{here}.pointer_out")
                ),
            )
        )
    model = build_transition_model(
        target,
        pointer,
        demon_initial,
        tuple(transitions),
        hamiltonians=(h_s, h_d),
    )
    weight = build_oscillator_weight(omega, levels, dim=dim)
    if "feedback" in doc and doc["feedback"] is not None:
        if not isinstance(doc["feedback"], (list, tuple)) or not doc["feedback"]:
            raise _fail("config.feedback", "expected a list of {label, unitary}")
        unitaries = []
        for i, item in enumerate(doc["feedback"]):
            here = f"config.feedback[{i}]"
            if not isinstance(item, Mapping) or "label" not in item or "unitary" not in item:
                raise _fail(here, "expected a mapping with label and unitary")
            unitaries.append(
                (
                    str(item["label"]),
                    Operator(_parse_matrix(item["unitary"], f"{here}.unitary")),
                )
            )
        scheme = FeedbackScheme(tuple(unitaries))
    else:
        posts = model.post_states
        if posts is None:
            raise _fail(
                "config.feedback",
                "required when outcomes have several transition rows",
            )
        if h_s.dim != 2:
            raise _fail(
                "config.feedback",
                "required for non-qubit systems; only qubit ladder strokes "
                "are built automatically",
            )
        scheme = FeedbackScheme(
            tuple(
                (label, build_shift_unitary(weight, posts[label]))
                for label in pointer.labels
            )
        )
    erasure_key = doc.get("erasure", "landauer_optimal")
    if erasure_key == "landauer_optimal":
        erasure = None
    elif erasure_key == "swap":
        erasure = build_swap_erasure(demon_initial, ctx)
    else:
        raise _fail(
            "config.erasure",
            f"unknown mode {erasure_key!r}; use landauer_optimal or swap",
        )
    return EngineConfig(
        rho_s=rho_s,
        h_s=h_s,
        measurement=model,
        feedback=scheme,
        weight=weight,
        thermo=ctx,
        h_d=h_d,
        erasure=erasure,
        degenerate_target=_read(doc, "degenerate_target", bool, False, "config."),
        non_conforming=_read(doc, "non_conforming", bool, False, "config."),
        tol_s=_read(doc, "tol_s", float, None, "config."),
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
    known = {"name", "scenario", "params", "config", "sweep", "output",
             "non_conforming"}
    for key in doc:
        if key not in known:
            raise _fail(key, "unknown key")
    name = str(doc.get("name", "scenario"))
    has_ref = "scenario" in doc
    has_explicit = "config" in doc
    if has_ref == has_explicit:
        raise ValueError(
            "scenario document needs exactly one of 'scenario' (library "
            "reference) or 'config' (explicit matrices)"
        )
    if has_explicit and doc.get("params") is not None:
        raise _fail("params", "not allowed with an explicit 'config'")
    params = dict(_read(doc, "params", Mapping, {}))
    non_conforming = _read(doc, "non_conforming", bool, False)

    sweep = doc.get("sweep")
    points: list[tuple[str | None, Any]] = [(None, None)]
    if sweep is not None:
        if not isinstance(sweep, Mapping):
            raise _fail("sweep", "expected a mapping")
        if "parameter" not in sweep or "values" not in sweep:
            raise _fail("sweep", "needs 'parameter' and 'values'")
        values = sweep["values"]
        if not isinstance(values, (list, tuple)) or not values:
            raise _fail("sweep.values", "expected a non-empty list")
        points = [(str(sweep["parameter"]), v) for v in values]

    runs = []
    for parameter, value in points:
        if has_ref:
            scenario_name = str(doc["scenario"])
            p = dict(params)
            if parameter is not None:
                p[parameter] = value
            for key in ("kb", "tol_s"):
                if overrides.get(key) is not None:
                    p[key] = overrides[key]
            config = scenario_library(scenario_name, **p)
            if non_conforming:
                config = config._as_non_conforming()
        else:
            scenario_name = "explicit"
            block = dict(_read(doc, "config", Mapping, {}))
            if parameter is not None:
                block[parameter] = value
            for key in ("kb", "tol_s"):
                if overrides.get(key) is not None:
                    block[key] = overrides[key]
            if non_conforming:
                block["non_conforming"] = True
            config = _parse_explicit_config(block)
        runs.append(
            ScenarioRun(
                name=name,
                scenario=scenario_name,
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
    if cert.measurement_energy is not None:
        rec["measurement_energy"] = {
            "passed": cert.measurement_energy.passed,
            "premeasurement_commutator": cert.measurement_energy.premeasurement_commutator,
            "pointer_commutator": cert.measurement_energy.pointer_commutator,
        }
    if cert.way is not None:
        rec["way"] = {
            "energy_ok": cert.way.energy_ok,
            "repeatable_or_pointer_commuting": cert.way.repeatable_or_pointer_commuting,
            "observable_commutes": cert.way.observable_commutes,
            "target_commutator": cert.way.target_commutator,
        }
    return rec


def _run_record(run: ScenarioRun, result: CycleResult, report: FeatureReport) -> dict:
    led = result.ledger
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
        "q": led.q,
        "w_r": led.w_r,
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
        "work_floor": report.work_floor,
        "degenerate_target": report.degenerate_target,
        "reservoir_in_feedback": report.reservoir_in_feedback,
    }
    rec["erasure"] = {
        "q": result.erasure.q,
        "w_r": result.erasure.w_r,
        "landauer_optimal": result.erasure.landauer_optimal,
        "reset_fidelity": result.erasure.reset_fidelity,
    }
    rec["certification"] = _certification_record(run.config, result)
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    sweeping = any("sweep" in r for r in records)
    if plot_data:
        writer.writerow(["sweep_value", "outcome", "work", "weight_entropy_change"])
        for r in records:
            value = r.get("sweep", {}).get("value", "")
            for b in r["branches"]:
                writer.writerow(
                    [
                        _format_float(value),
                        b["outcome"],
                        _format_float(b["work"]),
                        _format_float(b["weight_entropy_change"]),
                    ]
                )
        return buf.getvalue()
    header = ["outcome", "probability", "work", "weight_entropy_change"]
    if sweeping:
        header = ["sweep_value"] + header
    writer.writerow(header)
    for r in records:
        for b in r["branches"]:
            row = [
                b["outcome"],
                _format_float(b["probability"]),
                _format_float(b["work"]),
                _format_float(b["weight_entropy_change"]),
            ]
            if sweeping:
                row = [_format_float(r.get("sweep", {}).get("value", ""))] + row
            writer.writerow(row)
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


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name} is not a number: {raw!r}") from exc


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name} is not an integer: {raw!r}") from exc


def _cmd_run(ns: argparse.Namespace) -> int:
    with open(ns.file, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    overrides = {
        "kb": ns.kb if ns.kb is not None else _env_float("SZILARD_KB"),
        "tol_s": ns.tol_s if ns.tol_s is not None else _env_float("SZILARD_TOL_S"),
    }
    seed = ns.seed if ns.seed is not None else _env_int("SZILARD_SEED")
    runs = parse_scenario(doc, overrides)
    out_opts = _read(doc, "output", Mapping, {})
    for key in out_opts:
        if key not in ("format", "path"):
            raise _fail(f"output.{key}", "unknown key")
    file_format = _read(out_opts, "format", str, None, "output.")
    file_path = _read(out_opts, "path", str, None, "output.")
    records = run_records(runs)
    fmt = ns.format or file_format or "json"
    path = ns.out or file_path
    if fmt == "json":
        payload = {"name": runs[0].name if runs else "scenario", "records": records}
        if seed is not None:
            payload["seed"] = seed
        _emit(json.dumps(payload, indent=2, allow_nan=False), path)
    elif fmt == "csv":
        _emit(_records_to_csv(records, ns.plot_data), path)
    else:
        raise ValueError(f"unknown output format {fmt!r}; use json or csv")
    return 0


def _cmd_scan(ns: argparse.Namespace) -> int:
    seed = ns.seed if ns.seed is not None else _env_int("SZILARD_SEED")
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
