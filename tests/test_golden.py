"""The committed scan outputs as a tolerance gate.

``golden/scan500.json`` and ``golden/thermal100.json`` are the documents
``szilard scan`` wrote for the session scans (``--count 500 --seed
20260814`` and ``--count 100 --seed 7151 --thermal``) before the cycle
carried its states as low-rank factors.  Reordered floating-point sums may
move a value in its last bits, nothing more: every float must stay within
1e-12 * max(1, |x|) of its committed value, and every key, boolean, triple,
family label and count must be identical.

``golden/library.json`` holds, for each scenario document it lists, the
document ``szilard run --format json`` wrote for it: the five library
scenarios at their defaults, ``example_II`` at N = 5, 20 and 120,
``reservoir_circumvention`` at dim_R = 4, the explicit qubit block of
``test_cli._explicit_block`` with Landauer-optimal and with swap erasure,
and an explicit block whose pointer records are ``|+>`` and ``|->`` (a
demon starting in ``|+>``).  That last register is the only one off
the demon basis, so its nonzero ``block_residual`` pins the register
bounds of a rotated register.  The same gate applies to every record,
so neither the scenario builders nor the explicit-config parser can move a
number unnoticed.
"""

from __future__ import annotations

import json

import pytest

from conftest import (
    GOLDEN, SCAN_COUNT, SCAN_SEED, THERMAL_COUNT, THERMAL_SEED,
)
from szilard.cli import _scan_payload, parse_scenario, run_records

REL = 1e-12


def _assert_close(want, got, path: str = "$") -> None:
    assert type(got) is type(want), f"{path}: {got!r} is not like {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            _assert_close(want[key], got[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (w, g) in enumerate(zip(want, got)):
            _assert_close(w, g, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= REL * max(1.0, abs(want)), (
            f"{path}: {got!r} drifted from {want!r}"
        )
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize(
    "fixture, golden, count, seed, thermal",
    [
        ("scan500", "scan500.json", SCAN_COUNT, SCAN_SEED, False),
        ("thermal100", "thermal100.json", THERMAL_COUNT, THERMAL_SEED, True),
    ],
)
def test_scan_matches_golden(request, fixture, golden, count, seed, thermal):
    report = request.getfixturevalue(fixture)
    assert (report.count, report.seed) == (count, seed)
    # round-trip through JSON, exactly as the command writes it
    got = json.loads(json.dumps(_scan_payload(report, thermal)))
    want = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))
    _assert_close(want, got)


LIBRARY = json.loads((GOLDEN / "library.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "entry", LIBRARY, ids=[e["document"]["name"] for e in LIBRARY]
)
def test_library_run_matches_golden(entry):
    doc = entry["document"]
    runs = parse_scenario(doc)
    # the payload ``szilard run --format json`` writes, round-tripped
    payload = {"name": runs[0].name, "records": run_records(runs)}
    got = json.loads(json.dumps(payload))
    _assert_close(entry["output"], got)


def test_gate_catches_a_drift_past_the_tolerance():
    want = {"records": [{"triple": [True, False], "min_work": 0.25}]}
    _assert_close(want, {"records": [{"triple": [True, False],
                                      "min_work": 0.25 + 0.9e-12}]})
    with pytest.raises(AssertionError, match="drifted"):
        _assert_close(want, {"records": [{"triple": [True, False],
                                          "min_work": 0.25 + 1.1e-12}]})
    with pytest.raises(AssertionError):
        _assert_close(want, {"records": [{"triple": [True, True],
                                          "min_work": 0.25}]})
