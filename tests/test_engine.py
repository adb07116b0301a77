"""End-to-end engine tests: config validation, cycle invariants, features,
the scenario library, and the randomized scan machinery."""

from __future__ import annotations

import collections
import copy
import dataclasses
import inspect
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from szilard import (
    SCAN_FAMILIES,
    SCENARIO_NAMES,
    ConstructionError,
    DensityMatrix,
    EngineConfig,
    FeatureReport,
    FeedbackScheme,
    GenericWeight,
    HardAssertionError,
    Instrument,
    Observable,
    Operator,
    OscillatorWeight,
    PureState,
    SizeError,
    ThermoContext,
    Transition,
    basis_state,
    build_oscillator_weight,
    build_shift_unitary,
    build_swap_erasure,
    build_transition_model,
    check_feedback_energy,
    check_feedback_form,
    compose_feedback_unitary,
    erase_demon,
    evaluate_features,
    free_energy,
    impossibility_scan,
    objectification_order_gap,
    operator_norm,
    projector_onto,
    run_cycle,
    scenario_library,
    thermal_state,
    von_neumann_entropy,
    work_threshold,
)

import szilard.engine as engine_mod
import szilard.feedback as feedback_mod
import szilard.thermo as thermo_mod
from szilard.feedback import _plane_stroke
from szilard.qop import EPS_ALG, _FactorState, _check_joint_dim, _factor, _read
import _dense
from _oracles import harvest_works, superposed_post_work
from conftest import assert_refused_before_allocating, golden_document
from szilard.cli import parse_scenario
from test_cli import _explicit_block
from test_feedback import random_unitary
import test_golden


def _clear_memos() -> None:
    engine_mod._ENGINES.clear()
    engine_mod._MODELS.clear()


@pytest.fixture
def cleared_memos():
    """Start from empty memos, so no engine the test builds shares a
    structure, or a cache an earlier test formed on one, with an engine
    built before it; and leave them empty, so no later test shares one
    this test formed or altered."""
    _clear_memos()
    yield
    _clear_memos()


def _swapped_post_model(h_s_gap: float = 1.0):
    """Qubit model whose posts exchange the energy eigenstates.

    Built without Hamiltonians, so the generic completion exists but cannot
    conserve energy against a nondegenerate system Hamiltonian.
    """
    target = Observable(
        (
            ("+", h_s_gap / 2, Operator(np.diag([1.0, 0.0]))),
            ("-", -h_s_gap / 2, Operator(np.diag([0.0, 1.0]))),
        )
    )
    pointer = Observable(
        (
            ("+", 1.0, Operator(np.diag([1.0, 0.0]))),
            ("-", -1.0, Operator(np.diag([0.0, 1.0]))),
        )
    )
    transitions = (
        Transition("+", PureState(basis_state(2, 0)), PureState(basis_state(2, 1)),
                   PureState(basis_state(2, 0))),
        Transition("-", PureState(basis_state(2, 1)), PureState(basis_state(2, 0)),
                   PureState(basis_state(2, 1))),
    )
    zero = np.zeros((2, 2))
    return build_transition_model(
        target, pointer, PureState(basis_state(2, 0)), transitions, (zero, zero)
    )


class TestEngineConfigValidation:
    def test_system_state_hamiltonian_mismatch(self):
        cfg = scenario_library("example_I")
        with pytest.raises(ValueError, match="dimensions differ"):
            dataclasses.replace(
                cfg, rho_s=DensityMatrix(np.eye(3) / 3)
            )

    def test_degenerate_flag_must_match_target(self):
        cfg = scenario_library("example_I")
        with pytest.raises(ValueError, match="degenerate_target"):
            dataclasses.replace(cfg, degenerate_target=True)

    def test_system_hamiltonian_must_be_hermitian(self):
        # before the check this engine certified as conforming and failed
        # only later, inside the ledger's free energy
        cfg = scenario_library("example_I")
        h_s = Operator(np.diag([0.5 + 0.01j, -0.5 + 0.01j]))
        with pytest.raises(ValueError, match="Hermitian"):
            dataclasses.replace(cfg, h_s=h_s)

    def test_demon_hamiltonian_must_be_hermitian(self):
        # before the check the whole cycle ran, its energies silently
        # dropping the imaginary part
        cfg = scenario_library("example_I")
        with pytest.raises(ValueError, match="Hermitian"):
            dataclasses.replace(cfg, h_d=Operator(0.01j * np.eye(2)))

    def test_demon_hamiltonian_dimension(self):
        cfg = scenario_library("example_I")
        with pytest.raises(ValueError, match="demon Hamiltonian"):
            dataclasses.replace(cfg, h_d=Operator(np.zeros((3, 3))))

    def test_reservoir_scheme_requires_reservoir(self):
        cfg = scenario_library("reservoir_circumvention", dim_R=4, N=4)
        with pytest.raises(ValueError, match="branch dimension"):
            dataclasses.replace(cfg, h_r=None)

    def test_unused_reservoir_rejected(self):
        cfg = scenario_library("example_I")
        h_r = Operator(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="branch dimension"):
            dataclasses.replace(cfg, h_r=h_r)

    def test_feedback_branch_dimension_mismatch(self):
        cfg = scenario_library("example_I")
        with pytest.raises(ValueError, match="branch dimension"):
            dataclasses.replace(cfg, weight=build_oscillator_weight(1.0, 4))

    def test_feedback_label_mismatch(self):
        cfg = scenario_library("example_I")
        relabeled = FeedbackScheme(
            tuple((l + "x", u) for l, u in cfg.feedback.branch_unitaries)
        )
        with pytest.raises(ValueError, match="labels"):
            dataclasses.replace(cfg, feedback=relabeled)

    def test_joint_dimension_cap(self):
        # 100 outcomes drive the demon register over the joint-size limit
        # (21 * 2 * 100 = 4200) while every factor stays small
        k = 100
        amp = math.sqrt(2.0 / k)
        rows = []
        for i in range(k):
            m = np.zeros((2, 2), dtype=complex)
            m[i % 2, i % 2] = amp
            rows.append((f"o{i}", (Operator(m),)))
        instr = Instrument(tuple(rows))
        weight = build_oscillator_weight(1.0, 17, dim=21)
        eye_branch = Operator(np.eye(21 * 2))
        scheme = FeedbackScheme(
            tuple((f"o{i}", eye_branch) for i in range(k))
        )
        with pytest.raises(SizeError, match="exceeds"):
            EngineConfig(
                rho_s=DensityMatrix(np.eye(2) / 2),
                h_s=Operator(np.zeros((2, 2))),
                measurement=instr,
                feedback=scheme,
                weight=weight,
                thermo=ThermoContext(1.0),
            )

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_no_joint_dimension_operator_is_kept(self, name):
        config = scenario_library(name)
        for key, value in vars(config).items():
            assert not (
                isinstance(value, Operator) and value.dim == config.total_dim
            ), key

    @pytest.mark.parametrize("tol_s", [True, "0.1", 1j, -1.0, math.nan, math.inf])
    def test_tol_s_must_be_a_non_negative_number(self, tol_s):
        # True was read as 1.0 and "0.1" failed with a bare TypeError
        config = scenario_library("example_I")
        with pytest.raises(ValueError, match="tol_s must be finite and non-negative"):
            dataclasses.replace(config, tol_s=tol_s)
        assert dataclasses.replace(config, tol_s=np.float64(0.5)).tol_s == 0.5
        assert type(dataclasses.replace(config, tol_s=1).tol_s) is float

    @pytest.mark.parametrize("tol_s", ["0.1", -1, "nan"])
    def test_tol_s_refusal_shows_the_value_as_given(self, tol_s):
        # "0.1" read "got 0.1", the text the number gives
        config = scenario_library("example_I")
        with pytest.raises(ValueError, match=re.escape(f"got {tol_s!r}")):
            dataclasses.replace(config, tol_s=tol_s)

    @pytest.mark.parametrize(
        "name, flag, value",
        [
            ("example_II", "non_conforming", "false"),
            ("example_I", "non_conforming", 1),
            ("null_engine", "degenerate_target", "no"),
            ("example_I", "degenerate_target", 0),
        ],
    )
    def test_flags_must_be_booleans(self, name, flag, value):
        # "false" built an engine with every hard assertion off, "no" was
        # kept as given, and 0 passed the model's degeneracy check
        config = scenario_library(name)
        message = f"{flag!r}: expected true or false, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(config, **{flag: value})
        assert dataclasses.replace(config, non_conforming=True).non_conforming is True

    def test_nonconserving_feedback_refused(self):
        cfg = scenario_library("example_I")
        dw = cfg.weight.hamiltonian.dim
        # cyclic weight raise with no compensating system drop
        lift = Operator(np.roll(np.eye(2 * dw), 2, axis=0))
        scheme = FeedbackScheme((("+", lift), ("-", lift)))
        with pytest.raises(ConstructionError, match="feedback violates"):
            dataclasses.replace(cfg, feedback=scheme)

    def test_nonconserving_measurement_refused(self):
        cfg = scenario_library("example_I")
        with pytest.raises(ConstructionError, match="measurement violates"):
            dataclasses.replace(cfg, measurement=_swapped_post_model())

    def test_non_conforming_escape_hatch(self):
        cfg = scenario_library("example_I")
        loose = dataclasses.replace(
            cfg, measurement=_swapped_post_model(), non_conforming=True
        )
        assert not loose.conforming
        assert not loose.certification.way.energy.passed
        assert loose.certification.feedback_energy.passed
        result = run_cycle(loose)
        assert len(result.branches) == 2

    def test_certification_passes_for_reference_engines(self):
        cfg = scenario_library("example_II")
        cert = cfg.certification
        assert cfg.conforming
        assert cert.passed
        assert cert.way.energy.passed
        assert cert.feedback_energy.passed
        assert cert.feedback_form.passed
        assert cert.way.repeatability is not None

    def test_instrument_configs_have_no_model_certificates(self):
        cfg = scenario_library("degenerate_circumvention")
        cert = cfg.certification
        assert cert.way is None
        assert not cert.passed
        assert not cfg.conforming


# each joint dimension just past MAX_DIM = 4096, and one past any array
OVERSIZE = [
    ("reservoir_circumvention", {"dim_R": 40}),  # 34 * 2 * 40 * 2
    ("example_II", {"N": 1100}),  # 1104 * 2 * 2
    ("degenerate_circumvention", {"d": 3, "ranks": [2, 1], "N": 700}),
    ("example_II", {"N": 10**30}),
]


class TestSizeGuard:
    """An oversize engine is refused from the dimensions its builder holds,
    before any stroke of the joint size is allocated."""

    @pytest.mark.parametrize("name, params", OVERSIZE)
    def test_library_refuses_before_building(self, name, params):
        assert_refused_before_allocating(
            lambda: scenario_library(name, **params)
        )

    @pytest.mark.parametrize("extra", [{"dim": 1025}, {"levels": 1022}])
    def test_explicit_config_refuses_before_building(self, extra):
        # a qubit system and a qubit record: 1025 * 2 * 2 = 4100, and
        # 1022 window levels make a ladder of 1026
        assert_refused_before_allocating(
            lambda: parse_scenario({"config": _explicit_block(**extra)})
        )

    def test_limit_is_inclusive(self):
        _check_joint_dim(1024, 2, 2)
        with pytest.raises(SizeError, match="joint dimension 4100 exceeds"):
            _check_joint_dim(1025, 2, 2)


class TestRunCycle:
    def test_branch_probabilities_sum_to_one(self, example_i_cycles):
        for _, result, _ in example_i_cycles.values():
            total = sum(b.probability for b in result.branches)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_marginals_match_joint_evolution(self, example_i_cycles,
                                             example_ii_sweep):
        for store in (example_i_cycles, example_ii_sweep):
            for _, result, _ in store.values():
                assert result.marginal_deviation < 1e-10

    def test_ledger_average_matches_branches(self, example_i_cycles):
        _, result, _ = example_i_cycles[0.3]
        w = sum(b.probability * b.work for b in result.branches)
        assert result.ledger.w_avg == pytest.approx(w, abs=1e-12)

    def test_model_engine_keeps_premeasured_state(self, example_i_cycles,
                                                  degenerate_cycle):
        _, result, _ = example_i_cycles[0.3]
        assert result.premeasured is not None
        assert result.premeasured.dim == 4
        _, deg_result, _ = degenerate_cycle
        assert deg_result.premeasured is None

    def test_landauer_erasure_charges_record_entropy(self, example_i_cycles):
        config, result, _ = example_i_cycles[0.3]
        s_d = von_neumann_entropy(result.rho_d_after)
        assert result.erasure.landauer_optimal
        assert result.erasure.q == pytest.approx(
            config.thermo.kt * s_d, abs=1e-12
        )
        assert result.erasure.reset_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_reservoir_chains_only_with_reservoir(self, example_i_cycles,
                                                  reservoir_cycle):
        _, plain, _ = example_i_cycles[0.3]
        assert plain.reservoir_chains == ()
        assert plain.rho_r_after is None
        _, res, _ = reservoir_cycle
        assert len(res.reservoir_chains) == 2
        assert res.rho_r_after is not None

    def test_order_gap_matches_public_route(self, example_i_cycles):
        config, result, _ = example_i_cycles[0.3]
        v = compose_feedback_unitary(config.feedback, config.records)
        joint = np.kron(
            config.weight.initial.entries, result.premeasured.entries
        )
        gap = objectification_order_gap(
            v,
            joint,
            [(x, p) for x, _, p in config.records.outcomes],
            config.feedback.branch_dim,
        )
        assert gap == pytest.approx(result.objectification_order_gap, abs=1e-12)
        assert gap <= 1e-10

    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_weight_free_energy_is_taken_once(self, family, monkeypatch):
        # F(rho_W) once, F of each branch weight once (the ledger takes the
        # cycle's works), F of the averaged weight, and F of the system
        # before and after: 1 + 2 + 1 + 2 on a two-branch cycle
        config = SCAN_FAMILIES[family](np.random.default_rng(4), False)
        calls = []
        original = thermo_mod.free_energy

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(engine_mod, "free_energy", counted, raising=False)
        monkeypatch.setattr(thermo_mod, "free_energy", counted)
        result = run_cycle(config)
        assert len(result.branches) == 2
        assert len(calls) == 6

    def test_null_engine_moves_nothing(self, null_cycle):
        config, result, report = null_cycle
        assert len(result.branches) == 1
        assert result.branches[0].work == pytest.approx(0.0, abs=1e-12)
        assert result.ledger.w_net_coarse == pytest.approx(0.0, abs=1e-12)
        assert result.erasure.q == pytest.approx(0.0, abs=1e-12)
        assert not report.f3_positive_work

    def test_deterministic_preparation_leaves_one_branch(self):
        config = scenario_library("example_I", q=0.0)
        result = run_cycle(config)
        assert len(result.branches) == 1
        assert result.branches[0].outcome == "-"
        assert result.branches[0].work == pytest.approx(0.0, abs=1e-12)

        config = scenario_library("example_I", q=1.0)
        result = run_cycle(config)
        assert len(result.branches) == 1
        assert result.branches[0].outcome == "+"
        assert result.branches[0].work == pytest.approx(1.0, abs=1e-9)


def _consistency_routes(config, **marginals):
    """``(gap, deviation)`` of one cycle from the factored check and from
    the dense oracle, with any mixture-built marginal overridden."""
    result = run_cycle(config)
    sigma_sd, gem, _ = engine_mod._measure(config)
    after = {
        "rho_s_after": result.rho_s_after,
        "rho_w_after": result.rho_w_after,
        "rho_d_after": result.rho_d_after,
        "rho_r_after": result.rho_r_after,
    }
    after.update(marginals)
    args = (config, sigma_sd, gem, config.weight.initial, after["rho_s_after"],
            after["rho_w_after"], after["rho_d_after"], after["rho_r_after"])
    routes = []
    for route in (engine_mod._joint_consistency, _dense.joint_consistency):
        try:
            routes.append(route(*args))
        except HardAssertionError as exc:
            routes.append(exc)
    return result, routes


def _shifted(rho: DensityMatrix) -> DensityMatrix:
    """Mix 1e-6 of the least populated level into ``rho``; the shift is at
    least 1e-6 * (1 - 1/dim) in operator norm."""
    m = (1.0 - 1e-6) * rho.entries
    k = int(np.argmin(m.diagonal().real))
    m[k, k] += 1e-6
    return DensityMatrix(m)


def _pm_record_engine() -> EngineConfig:
    """The explicit engine of ``test_cli._explicit_block`` with |+>/|->
    records: the pointer is rotated off the demon basis and the demon starts
    in |+>, with ``h_d = 0``.  Its control projectors are not exactly
    orthogonal in floating point, unlike every library and scan engine's."""
    s = 1.0 / math.sqrt(2.0)
    plus, minus = [[s, 0.0], [s, 0.0]], [[s, 0.0], [-s, 0.0]]
    block = _explicit_block(demon_initial=plus)
    for i, rec in enumerate((plus, minus)):
        block["pointer"][i]["projector"] = [
            [[a[0] * b[0], 0.0] for b in rec] for a in rec
        ]
        block["transitions"][i]["pointer_out"] = rec
    return parse_scenario({"config": block})[0].config


# small engines of every shape: pure and mixed weights, a reservoir, an
# instrument, a degenerate target and a single-outcome null engine
LIBRARY_CASES = [
    ("example_II", {"N": 5}),
    ("example_II", {"N": 20}),
    ("reservoir_circumvention", {"dim_R": 2}),
    ("reservoir_circumvention", {"dim_R": 3}),
    ("reservoir_circumvention", {"dim_R": 4}),
    ("degenerate_circumvention", {}),
    ("null_engine", {}),
    ("example_I", {}),
]


class TestJointConsistency:
    """The factored joint check against the dense oracle in ``_dense``."""

    def _assert_routes_agree(self, config):
        result, (factored, dense) = _consistency_routes(config)
        assert factored == (
            result.objectification_order_gap,
            result.marginal_deviation,
        )
        assert factored[0] == pytest.approx(dense[0], abs=1e-12)
        assert factored[1] == pytest.approx(dense[1], abs=1e-12)

    @pytest.mark.parametrize("name, params", LIBRARY_CASES)
    def test_library_matches_dense_oracle(self, name, params):
        self._assert_routes_agree(scenario_library(name, **params))

    @pytest.mark.parametrize("thermal", [False, True])
    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_scan_families_match_dense_oracle(self, family, thermal):
        rng = np.random.default_rng(11)
        for _ in range(3):
            self._assert_routes_agree(SCAN_FAMILIES[family](rng, thermal))

    def test_rotated_records_match_dense_oracle(self):
        config = _pm_record_engine()
        projs = config.record_projectors
        assert np.abs(projs[0] @ projs[1]).max() > 0.0
        assert config.conforming
        _, (factored, dense) = _consistency_routes(config)
        assert factored[0] == pytest.approx(dense[0], abs=1e-15)
        assert factored[1] == pytest.approx(dense[1], abs=1e-15)

    @pytest.mark.parametrize(
        "marginal", ["rho_w_after", "rho_s_after", "rho_r_after", "rho_d_after"]
    )
    def test_shifted_marginal_raises_on_both_routes(self, marginal):
        config = scenario_library("reservoir_circumvention", dim_R=2)
        result = run_cycle(config)
        _, routes = _consistency_routes(
            config, **{marginal: _shifted(getattr(result, marginal))}
        )
        for exc in routes:
            assert isinstance(exc, HardAssertionError)
            assert "mixture marginals deviate" in str(exc)

    def test_dropped_population_enters_both_bounds(self):
        # a 1e-13 population sits below EPS_EIG, so the factor drops it; the
        # dense route keeps it and reads only rounding.  The factored weight
        # marginal misses that population (1e-13 off) and the bound adds the
        # dropped mass on top; the two pinched factors miss it alike, so
        # the gap is twice the dropped mass
        base = SCAN_FAMILIES["entropy_harvest"](np.random.default_rng(3), False)
        rho = base.weight.initial.entries.copy()
        top = int(np.argmax(rho.diagonal().real))
        rho[top, top] -= 1e-13
        rho[0, 0] += 1e-13
        config = dataclasses.replace(
            base,
            weight=GenericWeight(base.weight.hamiltonian, DensityMatrix(rho)),
        )
        _, ((gap, dev), (gap_d, dev_d)) = _consistency_routes(config)
        assert dev_d < 1e-14
        assert dev >= 2 * 0.99e-13 and dev >= dev_d
        assert gap >= 2 * 0.99e-13 and gap >= gap_d
        assert dev == pytest.approx(dev_d, abs=1e-12)
        assert gap == pytest.approx(gap_d, abs=1e-12)

    def test_nan_deviation_fails(self, monkeypatch):
        # max(0.0, nan) is 0.0 in Python, so a NaN from the first marginal
        # must not be dropped by the later, finite ones
        real = engine_mod._marginal_deviation
        calls = []

        def spy(a, m):
            calls.append(m)
            return math.nan if len(calls) == 1 else real(a, m)

        monkeypatch.setattr(engine_mod, "_marginal_deviation", spy)
        with pytest.raises(HardAssertionError, match="deviate .* by nan"):
            run_cycle(scenario_library("example_II", N=20))
        assert len(calls) == 3  # W, S and D: every marginal is still compared

    def test_zero_one_registers_take_no_qr_for_the_gap(self, monkeypatch):
        # the record slices are not pinched a second time, so the gap takes
        # no joint-sized QR on any register: it is twice the dropped mass
        # plus the register's 2 k^3 (1 + EPS_ALG) pi^2 o, which a 0/1
        # register makes exactly 0
        qrs = []
        real = np.linalg.qr
        monkeypatch.setattr(
            np.linalg, "qr", lambda *a, **k: qrs.append(a[0].shape) or real(*a, **k)
        )
        for config in (
            scenario_library("example_II", N=20),
            scenario_library("reservoir_circumvention", dim_R=4),
            _pm_record_engine(),
        ):
            result = run_cycle(config)
            sigma_sd, gem, _ = engine_mod._measure(config)
            qrs.clear()
            gap, _ = engine_mod._joint_consistency(
                config, sigma_sd, gem, config.weight.initial, result.rho_s_after,
                result.rho_w_after, result.rho_d_after, result.rho_r_after,
            )
            joint_dim = config.feedback.branch_dim * config.demon_dim
            assert [q for q in qrs if q[0] == joint_dim] == [], config.label
            *_, o, pi = config.records._register
            k = len(config.records.outcomes)
            assert gap == 2 * k**3 * (1.0 + EPS_ALG) * pi**2 * o, config.label
            if config.records._zero_one_diagonals is not None:
                assert gap == 0.0, config.label


def _rotated_register_engine(
    seed: int, dd: int, k: int, exponent: float | None, planes: bool
) -> EngineConfig:
    """A non-conforming-flagged engine whose k records project onto the
    columns of a Haar-random unitary on ``dd`` demon levels, each nudged by
    ``10**exponent`` times a random unit-norm Hermitian matrix (not at all
    for ``None``), so the records are neither idempotent nor orthogonal
    beyond that.  The system has k levels, read in its basis and written to
    the first column of each record's group; ``H_S = H_D = 0`` and the
    weight has levels 0 and 1, so each ``U_x = 1 (x) V_x`` conserves energy:
    ``V_x`` is a dense Haar unitary, or one random 2x2 block on the plane of
    system levels 0 and 1, held as planes."""
    rng = np.random.default_rng(seed)
    w = random_unitary(rng, dd)
    groups = np.array_split(rng.permutation(dd), k)
    projs = []
    for g in groups:
        h = rng.normal(size=(dd, dd)) + 1j * rng.normal(size=(dd, dd))
        h += h.conj().T
        nudge = 0.0 if exponent is None else 10.0**exponent / np.linalg.norm(h)
        projs.append(w[:, g] @ w[:, g].conj().T + nudge * h)
    labels = [f"x{i}" for i in range(k)]
    pointer = Observable(tuple(
        (x, float(i), Operator(p)) for i, (x, p) in enumerate(zip(labels, projs))
    ))
    target = engine_mod._basis_records(labels)
    transitions = [
        Transition(x, PureState(basis_state(k, i)), PureState(basis_state(k, i)),
                   PureState(w[:, g[0]]))
        for i, (x, g) in enumerate(zip(labels, groups))
    ]
    h_s, h_d = Operator(np.zeros((k, k))), Operator(np.zeros((dd, dd)))
    model = build_transition_model(
        target, pointer, PureState(w[:, groups[0][0]]), transitions, (h_s, h_d)
    )
    if planes:
        strokes = [
            _plane_stroke(2 * k, [0, k], [1, k + 1], random_unitary(rng, 2))
            for _ in labels
        ]
    else:
        strokes = [Operator(np.kron(np.eye(2), random_unitary(rng, k))) for _ in labels]
    return EngineConfig(
        rho_s=DensityMatrix(np.diag(rng.dirichlet(np.ones(k)))),
        h_s=h_s,
        measurement=model,
        feedback=FeedbackScheme(tuple(zip(labels, strokes))),
        weight=GenericWeight(
            Operator(np.diag([0.0, 1.0])), DensityMatrix(np.diag([1.0, 0.0]))
        ),
        thermo=ThermoContext(1.0),
        h_d=h_d,
        non_conforming=True,
    )


def _dense_register_routes(config):
    """The form report and order gap of the dense oracles: V composed and
    checked, the gap of ``objectification_order_gap`` on the premeasured
    joint, and ``_dense.joint_consistency``'s."""
    projs = [(x, p) for x, _, p in config.records.outcomes]
    v = compose_feedback_unitary(config.feedback, config.records)
    form = check_feedback_form(v, projs, config.feedback.branch_dim)
    result = run_cycle(config)
    joint = np.kron(config.weight.initial.entries, result.premeasured.entries)
    gap = objectification_order_gap(v, joint, projs, config.feedback.branch_dim)
    sigma_sd, gem, _ = engine_mod._measure(config)
    dense_gap, _ = _dense.joint_consistency(
        config, sigma_sd, gem, config.weight.initial, result.rho_s_after,
        result.rho_w_after, result.rho_d_after, result.rho_r_after,
    )
    return result, form, (gap, dense_gap)


class TestRotatedRegisters:
    """Every register's form report and order gap are bounded from its own
    residuals; the composed V and the dense joint are the oracles."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dd=st.integers(2, 6),
        k=st.integers(2, 4),
        exponent=st.floats(-13.0, -11.0),
        planes=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounds_dominate_the_dense_values(self, seed, dd, k, exponent, planes):
        # records off by o in 1e-13 .. 1e-11: each reported residual is at
        # least the dense one, and the verdicts agree
        config = _rotated_register_engine(seed, dd, min(k, dd), exponent, planes)
        o = config.records._register[3]
        assume(1e-13 <= o <= 1e-11)
        result, form, gaps = _dense_register_routes(config)
        got = config.certification.feedback_form
        assert got.block_residual >= form.block_residual
        assert got.probe_residual >= form.probe_residual
        assert got.passed is form.passed
        assert result.objectification_order_gap >= max(gaps)

    @given(
        seed=st.integers(0, 2**32 - 1),
        dd=st.integers(2, 6),
        k=st.integers(2, 4),
        planes=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_rounding_level_registers_agree(self, seed, dd, k, planes):
        # projectors exact but for rounding: both routes read rounding only
        config = _rotated_register_engine(seed, dd, min(k, dd), None, planes)
        result, form, gaps = _dense_register_routes(config)
        got = config.certification.feedback_form
        assert got.passed is form.passed is True
        for value in (got.block_residual, got.probe_residual, form.block_residual,
                      form.probe_residual, result.objectification_order_gap, *gaps):
            assert value <= EPS_ALG

    def test_no_build_or_cycle_composes_v_or_takes_a_joint_qr(
        self, monkeypatch, cleared_memos
    ):
        # no library scenario, scan family or golden document, the rotated
        # pointer included, composes V, checks it densely or takes a QR of
        # the joint dimension, in its build or its cycle
        calls, qrs = [], []
        for name in ("compose_feedback_unitary", "check_feedback_form"):
            for module in (feedback_mod, engine_mod):
                monkeypatch.setattr(
                    module, name, lambda *a, _n=name, **k: calls.append(_n),
                    raising=False,
                )
        real = np.linalg.qr
        monkeypatch.setattr(
            np.linalg, "qr", lambda *a, **k: qrs.append(a[0].shape) or real(*a, **k)
        )
        rng = np.random.default_rng(19)
        builds = [lambda n=n: [scenario_library(n)] for n in SCENARIO_NAMES]
        builds += [
            lambda: [scenario_library("example_II", N=120)],
            lambda: [scenario_library("reservoir_circumvention", dim_R=4)],
        ]
        builds += [
            lambda f=f, t=t: [SCAN_FAMILIES[f](rng, t)]
            for f in sorted(SCAN_FAMILIES) for t in (False, True)
        ]
        builds += [
            lambda e=e: [run.config for run in parse_scenario(e["document"])]
            for e in test_golden.LIBRARY
        ]
        seen = set()
        for build in builds:
            qrs.clear()
            for config in build():
                run_cycle(config)
                joint = config.feedback.branch_dim * config.demon_dim
                assert not [q for q in qrs if q[0] == joint], config.label
                seen.add(config.records._zero_one_diagonals is None)
        assert calls == [] and seen == {False, True}


class TestOuterDifferenceNorm:
    """The joint check's gap core against the dense difference."""

    @pytest.mark.parametrize("rows, cols", [(40, 3), (7, 5), (3, 4), (1, 1)])
    def test_matches_the_dense_norm(self, rows, cols):
        rng = np.random.default_rng(rows + cols)
        f, g = (
            rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            for _ in range(2)
        )
        dense = np.linalg.norm(f @ f.conj().T - g @ g.conj().T, 2)
        got = engine_mod._outer_difference_norm(f, g)
        assert got == pytest.approx(dense, rel=1e-12)

    def test_equal_factors_up_to_columns_give_zero(self):
        # G spans the same outer product as F with its columns rotated
        rng = np.random.default_rng(9)
        f = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
        c, s = math.cos(0.3), math.sin(0.3)
        g = f @ np.array([[c, -s], [s, c]])
        assert engine_mod._outer_difference_norm(f, g) < 1e-13
        assert engine_mod._outer_difference_norm(f, f) < 1e-13

    @staticmethod
    def _qr_route(f, g):
        r = np.linalg.qr(np.hstack([f, g]), mode="r")
        r1, r2 = r[:, : f.shape[1]], r[:, f.shape[1] :]
        return operator_norm(r1 @ r1.conj().T - r2 @ r2.conj().T)

    @pytest.mark.parametrize("delta", [1e-15, 1e-12, 1e-6])
    def test_perturbed_factors_take_the_qr_route(self, delta):
        rng = np.random.default_rng(23)
        f = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        f /= np.linalg.norm(f)
        g = f.copy()
        g[7, 2] += delta
        got = engine_mod._outer_difference_norm(f, g)
        assert got > 0.0
        assert got == self._qr_route(f, g)
        dense = operator_norm(f @ f.conj().T - g @ g.conj().T)
        assert got == pytest.approx(dense, rel=1e-9, abs=1e-15)

    def test_gap_is_exactly_zero_on_classical_registers(self):
        # pinching a 0/1 record commutes with feedback it controls, so both
        # pinched factors are the same array; a rotated register is not
        configs = [scenario_library(name) for name in SCENARIO_NAMES]
        rng = np.random.default_rng(23)
        for thermal in (False, True):
            configs += [family(rng, thermal) for family in SCAN_FAMILIES.values()]
        for config in configs:
            assert config.records._zero_one_diagonals is not None, config.label
            assert run_cycle(config).objectification_order_gap == 0.0, config.label
        rotated = _pm_record_engine()
        assert rotated.records._zero_one_diagonals is None
        gap = run_cycle(rotated).objectification_order_gap
        assert 0.0 < gap < 1e-12


@pytest.mark.parametrize("dim_r", [2, 3, 4])
def test_reservoir_weight_factors_hold_no_zero_column(dim_r):
    # the Gibbs factor's basis columns leave most (system, reservoir)
    # slices empty; the branch map drops them, so the averaged weight
    # stacks only columns that carry amplitude
    result = run_cycle(scenario_library("reservoir_circumvention", dim_R=dim_r))
    states = [br.post_weight for br in result.branches] + [result.rho_w_after]
    assert len(states) == 3
    for rho in states:
        f = _factor(rho)[0]
        assert np.abs(f).max(axis=0).min() > 0.0


class TestFactoredBranchMap:
    """Every branch of the factored cycle against the dense branch map in
    ``_dense``: post states, work and weight-entropy change."""

    def _assert_branches_match(self, config):
        result = run_cycle(config)
        rho_w = config.weight.initial.entries
        h_w = config.weight.hamiltonian.entries
        kt = config.thermo.kt
        tau_r = config.tau_r
        assert result.branches
        for br in result.branches:
            w, s, r = _dense.conditional_feedback_map(
                config.feedback, br.outcome, config.weight.initial,
                br.pre_system, tau_r,
            )
            assert np.abs(br.post_weight.entries - w).max() <= 1e-12
            assert np.abs(br.post_system.entries - s).max() <= 1e-12
            if r is None:
                assert br.post_reservoir is None
            else:
                assert np.abs(br.post_reservoir.entries - r).max() <= 1e-12
            work = _dense.free_energy(w, h_w, kt) - _dense.free_energy(
                rho_w, h_w, kt
            )
            assert br.work == pytest.approx(work, abs=1e-12)
            ds = _dense.entropy(w) - _dense.entropy(rho_w)
            assert br.weight_entropy_change == pytest.approx(ds, abs=1e-12)

    @pytest.mark.parametrize("name, params", LIBRARY_CASES)
    def test_library_matches_dense_oracle(self, name, params):
        self._assert_branches_match(scenario_library(name, **params))

    @pytest.mark.parametrize("thermal", [False, True])
    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_scan_families_match_dense_oracle(self, family, thermal):
        rng = np.random.default_rng(11)
        for _ in range(3):
            self._assert_branches_match(SCAN_FAMILIES[family](rng, thermal))

    @pytest.mark.parametrize(
        "name, params",
        [("example_II", {"N": 200}), ("reservoir_circumvention", {"dim_R": 4})],
    )
    def test_cycle_peaks_below_one_joint_matrix(self, name, params):
        # the cycle carries factors, so it never holds an n x n complex array
        # of the joint dimension n
        config = scenario_library(name, **params)
        tracemalloc.start()
        try:
            evaluate_features(run_cycle(config), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * config.total_dim**2

    def test_no_diagonalisation_at_the_weight_dimension(self, monkeypatch):
        # the weight states' spectra come from their factors' singular
        # values, so nothing of the weight's dimension is diagonalised
        config = scenario_library("example_II", N=20)
        dw = config.weight.hamiltonian.dim
        sizes = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, **kwargs):
                sizes.append(np.shape(a)[-1])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        evaluate_features(run_cycle(config), config)
        assert all(n < dw for n in sizes), sizes


def _weight_states(config, result) -> list[DensityMatrix]:
    """The cycle's weight states: the initial one, each branch's and the
    outcome average."""
    return [
        config.weight.initial,
        *(b.post_weight for b in result.branches),
        result.rho_w_after,
    ]


# _CORE_RATIO values that send every factor-held marginal to the QR core,
# and none
ALL_CORE, NO_CORE = 0, 10**9


class TestFactorHeldStates:
    """Weight states held as their factors against the dense references in
    ``_dense``, on both sides of the joint check's marginal shape rule:
    every engine runs once with every factor-held marginal on the QR core
    and once with every marginal dense.  Works, free energies, entropies
    and the marginal deviation agree within 1e-12, and a held state's
    entries, asked for, are ``X X^dag`` bit for bit and pass the public
    constructor."""

    @staticmethod
    def _assert_matches_dense(config):
        result, (factored, dense) = _consistency_routes(config)
        assert factored[1] == result.marginal_deviation
        assert factored[1] == pytest.approx(dense[1], abs=1e-12)
        h_w = config.weight.hamiltonian
        ctx = config.thermo
        f0 = _dense.free_energy(config.weight.initial.entries, h_w.entries, ctx.kt)
        for br in result.branches:
            f = _dense.free_energy(br.post_weight.entries, h_w.entries, ctx.kt)
            assert br.work == pytest.approx(f - f0, abs=1e-12)
        for rho in _weight_states(config, result):
            m = rho.entries
            if isinstance(rho, _FactorState):
                x = rho._carried_factor[0]
                assert np.array_equal(m, x @ x.conj().T)
                DensityMatrix(m)
            want = _dense.free_energy(m, h_w.entries, ctx.kt)
            assert free_energy(rho, h_w, ctx) == pytest.approx(want, abs=1e-12)
            assert von_neumann_entropy(rho) == pytest.approx(
                _dense.entropy(m), abs=1e-12
            )

    @pytest.mark.parametrize("ratio", [ALL_CORE, NO_CORE], ids=["core", "dense"])
    @pytest.mark.parametrize(
        "name, params", LIBRARY_CASES + [("example_II", {"N": 120})]
    )
    def test_library_matches_dense(self, name, params, ratio, monkeypatch):
        monkeypatch.setattr(engine_mod, "_CORE_RATIO", ratio)
        self._assert_matches_dense(scenario_library(name, **params))

    @pytest.mark.parametrize("ratio", [ALL_CORE, NO_CORE], ids=["core", "dense"])
    @pytest.mark.parametrize("thermal", [False, True])
    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_scan_families_match_dense(self, family, thermal, ratio, monkeypatch):
        monkeypatch.setattr(engine_mod, "_CORE_RATIO", ratio)
        rng = np.random.default_rng(31)
        for _ in range(3):
            self._assert_matches_dense(SCAN_FAMILIES[family](rng, thermal))

    def test_default_rule_takes_the_core_on_the_window_only(self, monkeypatch):
        # the weight marginal is compared on the core where the stacked
        # factor is thin: example_II at N = 120 (124 rows, 20 columns), not
        # a scan engine (at most 14 rows) or the reservoir (34 rows, 271
        # columns)
        rows = []
        real = engine_mod._outer_difference_norm
        monkeypatch.setattr(
            engine_mod, "_outer_difference_norm",
            lambda f, g: rows.append(f.shape[0]) or real(f, g),
        )
        cases = {
            "window": scenario_library("example_II", N=120),
            "reservoir": scenario_library("reservoir_circumvention", dim_R=4),
        }
        rng = np.random.default_rng(31)
        for thermal in (False, True):
            for name, family in SCAN_FAMILIES.items():
                cases[f"{name} {thermal}"] = family(rng, thermal)
        for label, config in cases.items():
            rows.clear()
            run_cycle(config)
            dw = config.weight.hamiltonian.dim
            assert (dw in rows) == (label == "window"), label

    def test_shifted_factor_marginal_raises_on_the_core(self):
        # 1e-6 of the least populated level mixed into the window's weight
        # marginal, held as a factor: the core refuses it without forming
        # its entries, and the dense oracle refuses it too
        config = scenario_library("example_II", N=120)
        result = run_cycle(config)
        y = result.rho_w_after._carried_factor[0]
        e = np.zeros((y.shape[0], 1))
        e[int(np.argmin(result.rho_w_after._populations))] = 1.0
        shifted = DensityMatrix._from_factor(
            np.hstack([math.sqrt(1.0 - 1e-6) * y, math.sqrt(1e-6) * e])
        )
        assert isinstance(shifted, _FactorState)
        _, routes = _consistency_routes(config, rho_w_after=shifted)
        for exc in routes:
            assert isinstance(exc, HardAssertionError)
            assert "mixture marginals deviate" in str(exc)


class TestValidatedAtTheBoundary:
    """The cycle builds its states privately and re-proves nothing the
    engine's build certified; what it builds still passes the public
    checks, bit for bit."""

    @staticmethod
    def _assert_private_states_are_public(configs, monkeypatch):
        built = {"_derived": [], "_from_factor": []}
        for name, states in built.items():
            real = getattr(DensityMatrix, name)

            def recording(m, _real=real, _states=states):
                out = _real(m)
                _states.append(out)
                return out

            monkeypatch.setattr(DensityMatrix, name, staticmethod(recording))
        for config in configs:
            evaluate_features(run_cycle(config), config)
        assert built["_derived"] and built["_from_factor"]
        for state in built["_derived"]:
            public = DensityMatrix(state.entries)
            assert np.array_equal(public._spectrum, state._spectrum)
        # a factor's spectrum comes from its singular values instead
        for state in built["_from_factor"]:
            public = DensityMatrix(state.entries)
            assert np.abs(public._spectrum - state._spectrum).max() < 1e-12

    @pytest.mark.parametrize("name, params", LIBRARY_CASES)
    def test_library_states_pass_the_public_constructor(
        self, name, params, monkeypatch
    ):
        config = scenario_library(name, **params)
        self._assert_private_states_are_public([config], monkeypatch)

    @pytest.mark.parametrize("thermal", [False, True])
    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_scan_states_pass_the_public_constructor(
        self, family, thermal, monkeypatch
    ):
        rng = np.random.default_rng(23)
        configs = [SCAN_FAMILIES[family](rng, thermal) for _ in range(3)]
        self._assert_private_states_are_public(configs, monkeypatch)

    @staticmethod
    def _count_public_states(monkeypatch):
        calls = []
        real = DensityMatrix.__init__

        def counted(self, *args, **kwargs):
            calls.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(DensityMatrix, "__init__", counted)
        return calls

    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_scan_cycle_builds_no_public_state(self, family, monkeypatch):
        config = SCAN_FAMILIES[family](np.random.default_rng(4), False)
        calls = self._count_public_states(monkeypatch)
        evaluate_features(run_cycle(config), config)
        assert calls == []

    def test_reservoir_cycle_reuses_the_build_certificate(self, monkeypatch):
        config = scenario_library("reservoir_circumvention", dim_R=3)
        tau = config.tau_r.entries
        thermal, weight_f, tau_diag = [], [], []

        def counted_thermal(*args):
            thermal.append(1)
            return thermal_state(*args)

        def counted_f(rho, *args, _real=thermo_mod.free_energy):
            weight_f.append(rho is config.weight.initial)
            return _real(rho, *args)

        for mod in (engine_mod, thermo_mod):
            monkeypatch.setattr(mod, "thermal_state", counted_thermal)
            monkeypatch.setattr(mod, "free_energy", counted_f)
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def spied(a, *args, _real=real, **kwargs):
                if np.shape(a) == tau.shape and np.abs(a - tau).max() < 1e-15:
                    tau_diag.append(1)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spied)
        for _ in range(2):
            result = run_cycle(config)
            assert len(result.reservoir_chains) == 2
        # tau_R's eigh is kept by the state: one diagonalisation per config
        assert thermal == []
        assert len(tau_diag) <= 1
        assert sum(weight_f) == 2  # F(rho_W) once per cycle

    def test_work_floor_is_kept_from_the_build(self, monkeypatch):
        config = SCAN_FAMILIES["entropy_harvest"](np.random.default_rng(1), False)
        scale = np.ptp(np.linalg.eigvalsh(config.weight.hamiltonian.entries))
        want = work_threshold(float(scale), config.thermo)
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        assert config.work_floor == want and type(config.work_floor) is float
        assert config.work_floor == want
        assert calls == []


class TestFeatureReports:
    def test_reports_are_recomputable(self, example_i_cycles):
        config, result, report = example_i_cycles[0.5]
        again = evaluate_features(result, config)
        assert again == report

    def test_eigenstate_engine_pattern(self, example_i_cycles):
        for config, _, report in example_i_cycles.values():
            assert report.triple == (True, True, False)
            assert not config.degenerate_target
            assert not config.reservoir_in_feedback

    def test_superposed_engine_pattern(self, example_ii_sweep):
        for _, _, report in example_ii_sweep.values():
            assert not report.f1_repeatable
            assert report.f3_positive_work

    def test_degenerate_engine_holds_all_three(self, degenerate_cycle):
        config, _, report = degenerate_cycle
        assert report.triple == (True, True, True)
        assert config.degenerate_target

    def test_reservoir_engine_spends_weight_entropy(self, reservoir_cycle):
        config, _, report = reservoir_cycle
        assert report.f1_repeatable
        assert not report.f2_entropy_invariant
        assert report.f3_positive_work
        assert config.reservoir_in_feedback

    def test_min_work_and_floor_are_consistent(self, example_i_cycles):
        config, result, report = example_i_cycles[0.3]
        assert report.min_work == pytest.approx(
            min(b.work for b in result.branches), abs=1e-15
        )
        assert config.work_floor == work_threshold(
            config.weight.omega, config.thermo
        )

    def test_fidelities_cover_every_branch(self, degenerate_cycle):
        _, result, report = degenerate_cycle
        assert {o for o, _ in report.f1_fidelities} == {
            b.outcome for b in result.branches
        }
        assert all(p >= 1.0 - 1e-9 for _, p in report.f1_fidelities)

    def test_doctored_branch_set_trips_the_exclusion(self, example_i_cycles):
        # dropping the idle branch makes all three features appear to hold
        # on a certified engine, which the evaluator must refuse to report
        config, result, _ = example_i_cycles[0.3]
        lifted_only = dataclasses.replace(
            result, branches=(result.branches[0],)
        )
        assert result.branches[0].outcome == "+"
        with pytest.raises(HardAssertionError, match="three features"):
            evaluate_features(lifted_only, config)


class TestScenarioLibrary:
    def test_unknown_scenario_named(self):
        with pytest.raises(ValueError, match="unknown scenario 'bogus'"):
            scenario_library("bogus")

    def test_unknown_parameter_named(self):
        with pytest.raises(ValueError, match="unknown parameter 'frequency'"):
            scenario_library("example_I", frequency=2.0)

    def test_every_scenario_builds_with_defaults(self):
        for name in SCENARIO_NAMES:
            config = scenario_library(name)
            assert config.label == name

    def test_window_build_allocates_less_than_one_stroke(self):
        # the strokes are formed in place and certified from their planes:
        # beyond what the engine keeps, the build allocates less than one
        # 248 x 248 complex stroke
        scenario_library("example_II", N=120)  # warm the model memo
        tracemalloc.start()
        try:
            config = scenario_library("example_II", N=120)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # sized from the dimension: reading .entries would form the stroke
        assert config.feedback.branch_dim == 248
        stroke = 248**2 * 16
        assert peak - held < stroke, (peak - held, stroke)

    def test_largest_window_builds_without_v(self):
        # at N = 1000 the joint dimension is 4016: a dense V is 246 MiB,
        # and composing and checking it peaked near 1,000 MiB
        tracemalloc.start()
        try:
            config = scenario_library("example_II", N=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * 2**20, peak
        want = superposed_post_work(1000, 1.0, 1.0)
        works = [b.work for b in run_cycle(config).branches]
        assert len(works) == 2
        assert all(abs(w - want) <= 1e-9 for w in works), works

    @pytest.mark.parametrize(
        "name,params",
        [
            ("example_I", {"q": 1.5}),
            ("example_I", {"q": -0.1}),
            ("example_I", {"N": 1}),
            ("example_II", {"N": 0}),
            ("reservoir_circumvention", {"theta": 4.0}),
            ("reservoir_circumvention", {"dim_R": 1}),
            ("degenerate_circumvention", {"d": 2}),
            ("degenerate_circumvention", {"ranks": (2, 3)}),
            ("degenerate_circumvention", {"ranks": (1, 3)}),
            ("degenerate_circumvention", {"ranks": (4,)}),
            # wrong types, checked once for every scenario
            ("example_I", {"N": 3.5}),
            ("example_I", {"q": "abc"}),
            ("example_I", {"q": True}),
            ("example_II", {"tol_s": "tight"}),
            ("reservoir_circumvention", {"dim_R": 2.5}),
            # ranks: a list or tuple of integral numbers, nothing else
            ("degenerate_circumvention", {"ranks": [2.7, 1.3], "d": 3}),
            ("degenerate_circumvention", {"ranks": "22"}),
            ("degenerate_circumvention", {"ranks": True}),
            ("degenerate_circumvention", {"ranks": [2, None]}),
            ("degenerate_circumvention", {"ranks": [3, True]}),
            # the feature tolerance must be a finite non-negative number
            ("example_I", {"tol_s": -1.0}),
            ("example_I", {"tol_s": float("nan")}),
            ("example_II", {"tol_s": float("inf")}),
            # the thermodynamic context must be finite
            ("example_I", {"kb": float("inf")}),
            ("example_I", {"temperature": float("inf")}),
        ],
    )
    def test_out_of_range_parameters(self, name, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            scenario_library(name, **params)

    def test_integral_floats_are_integers(self):
        config = scenario_library("example_I", N=5.0)
        assert config.weight.levels == 5
        config = scenario_library("reservoir_circumvention", dim_R=3.0, N=4.0)
        assert config.tau_r.dim == 3

    def test_ranks_list_is_read_as_integers(self):
        config = scenario_library("degenerate_circumvention", d=5, ranks=[3.0, 2])
        want = scenario_library("degenerate_circumvention", d=5, ranks=(3, 2))
        assert config.outcome_labels == want.outcome_labels == ("x0", "x1")
        for (_, u), (_, v) in zip(
            config.feedback.branch_unitaries, want.feedback.branch_unitaries
        ):
            assert np.array_equal(u.entries, v.entries)

    def test_zero_tol_s_is_accepted(self):
        assert scenario_library("example_I", tol_s=0.0).tol_s == 0.0

    def test_every_parameter_has_a_reader(self):
        # the parameter reader checks exactly these annotations; an
        # ``erasure: str | ExplicitReservoir`` once passed through unchecked
        known = {"int", "float", "int | None", "float | None", "Sequence[int]"}
        for name, fn in engine_mod._SCENARIOS.items():
            defaults = {}
            for param in inspect.signature(fn).parameters.values():
                assert param.annotation in known, (name, param.name)
                defaults[param.name] = param.default
            table = engine_mod._param_table(fn)
            assert _read(defaults, table, "", "parameter") == defaults, name
            assert engine_mod._param_table(fn) is table  # built once

    def test_unknown_annotation_is_an_error(self):
        def builder(erasure: str | ExplicitReservoir = "swap"):  # noqa: F821
            raise AssertionError("never built")

        with pytest.raises(KeyError, match=re.escape("str | ExplicitReservoir")):
            engine_mod._param_table(builder)

    def test_erasure_is_a_reservoir_or_none(self):
        # the old mode string used to fail with an AttributeError on h_r
        config = scenario_library("example_I")
        with pytest.raises(TypeError, match="ExplicitReservoir or None"):
            dataclasses.replace(config, erasure="landauer_optimal")

    def test_library_engines_erase_landauer_optimally(self):
        with pytest.raises(ValueError, match="unknown parameter 'erasure'"):
            scenario_library("example_I", erasure="swap")
        for name in SCENARIO_NAMES:
            assert scenario_library(name).erasure is None

    def test_degenerate_ranks_set_branch_works(self):
        config = scenario_library(
            "degenerate_circumvention", d=5, ranks=(3, 2), N=6
        )
        result = run_cycle(config)
        works = {b.outcome: b.work for b in result.branches}
        # each branch lifts the weight by the top level of its subspace
        assert works["x0"] == pytest.approx(2.0, abs=1e-9)
        assert works["x1"] == pytest.approx(4.0, abs=1e-9)
        report = evaluate_features(result, config)
        assert report.triple == (True, True, True)


def _swap_erasure():
    return build_swap_erasure(PureState(basis_state(2, 0)), ThermoContext(1.0))


def test_hundred_outcome_basis_register():
    labels = [f"x{i}" for i in range(100)]
    records = engine_mod._basis_records(labels)
    assert records.labels == tuple(labels)
    assert records.is_nondegenerate
    assert np.array_equal(records.operator(), np.diag(np.arange(100.0)))


class TestDerivedInputs:
    """What the engine can derive is not an input: the feedback controls
    are the measurement's record register, and each reservoir state is the
    Gibbs state of its Hamiltonian, derived once at build."""

    def test_model_records_are_its_pointer(self):
        config = scenario_library("example_I")
        assert config.records is config.measurement.pointer
        assert config.outcome_labels == ("+", "-")

    def test_instrument_records_are_basis_projectors(self):
        config = scenario_library("degenerate_circumvention", d=5, ranks=(3, 2))
        assert config.records.labels == config.measurement.labels
        for i, (_, value, p) in enumerate(config.records.outcomes):
            assert value == float(i)
            assert np.array_equal(p.entries, projector_onto(basis_state(2, i)))

    def test_non_basis_pointer_certifies_through_the_derived_controls(self):
        # the |+>/|-> pointer controls the feedback without being restated
        config = _pm_record_engine()
        assert config.records is config.measurement.pointer
        assert abs(config.record_projectors[0][0, 1]) == pytest.approx(0.5)
        assert config.conforming
        assert config.certification.feedback_form.passed
        assert config.certification.feedback_energy.passed
        result = run_cycle(config)
        assert result.marginal_deviation < 1e-10
        assert result.objectification_order_gap < 1e-10

    def test_reservoir_states_are_gibbs_states(self):
        config = dataclasses.replace(
            scenario_library("reservoir_circumvention", dim_R=3),
            erasure=_swap_erasure(),
        )
        beta = config.thermo.beta
        assert np.array_equal(
            config.tau_r.entries, thermal_state(config.h_r, beta).entries
        )
        assert np.array_equal(
            config._tau_e.entries, thermal_state(config.erasure.h_r, beta).entries
        )

    def test_explicit_erasure_cycle_derives_no_thermal_state(self, monkeypatch):
        config = dataclasses.replace(
            scenario_library("example_I"), erasure=_swap_erasure()
        )
        calls = []

        def counted(*args):
            calls.append(1)
            return thermal_state(*args)

        for mod in (engine_mod, thermo_mod):
            monkeypatch.setattr(mod, "thermal_state", counted)
        for _ in range(2):
            result = run_cycle(config)
            assert not result.erasure.landauer_optimal
        assert calls == []
        # the public function derives the reservoir state from its context
        again = erase_demon(
            result.rho_d_after, config.demon_hamiltonian, config.demon_initial,
            config.thermo, config.erasure,
        )
        assert calls == [1]
        assert again.q == result.erasure.q


def _library_and_family_configs():
    configs = [scenario_library(name) for name in SCENARIO_NAMES]
    rng = np.random.default_rng(11)
    for family in SCAN_FAMILIES.values():
        configs += [family(rng, False), family(rng, True)]
    return configs


class TestWeightsOwnTheirFacts:
    """Both weight kinds own the three facts the build reads, built once."""

    @pytest.mark.parametrize(
        "config", _library_and_family_configs(), ids=lambda c: c.label
    )
    def test_hamiltonian_initial_and_scale(self, config):
        w = config.weight
        assert isinstance(w.hamiltonian, Operator)
        assert isinstance(w.initial, DensityMatrix)
        assert w.hamiltonian is w.hamiltonian and w.initial is w.initial
        assert w.initial.dim == w.hamiltonian.dim
        if isinstance(w, OscillatorWeight):
            assert w.scale == w.omega
            np.testing.assert_array_equal(
                w.hamiltonian.entries, np.diag(w.omega * np.arange(w.dim))
            )
            np.testing.assert_array_equal(
                w.initial.entries, w.initial_state.density().entries
            )
        else:
            ev = np.linalg.eigvalsh(w.hamiltonian.entries)
            assert w.scale == float(ev.max() - ev.min())
        assert config.work_floor == work_threshold(w.scale, config.thermo)
        assert config.feedback.branch_dim == w.hamiltonian.dim * config.rho_s.dim * (
            1 if config.h_r is None else config.h_r.dim
        )

    def test_generic_weight_accepts_arrays(self):
        w = GenericWeight(np.diag([0.0, 1.0]), np.eye(2) / 2)
        assert isinstance(w.hamiltonian, Operator)
        assert isinstance(w.initial, DensityMatrix)
        assert w.scale == 1.0
        with pytest.raises(ValueError, match="dimensions differ"):
            GenericWeight(np.eye(3), np.eye(2) / 2)

    def test_every_weight_kind_is_covered(self):
        kinds = {type(c.weight) for c in _library_and_family_configs()}
        assert kinds == {OscillatorWeight, GenericWeight}


class TestPlaneStrokes:
    """Every stroke built through ``feedback._plane_stroke`` equals, entry
    for entry, the element-wise loop it replaced (``tests/_dense.py``)."""

    @pytest.mark.parametrize(
        "name,params",
        [("example_I", {}), ("example_II", {"N": 5}), ("example_II", {"N": 120})],
    )
    def test_shift_strokes(self, name, params):
        config = scenario_library(name, **params)
        posts = config.measurement.post_states
        for label, u in config.feedback.branch_unitaries:
            want = _dense.shift_stroke(config.weight.dim, posts[label].amplitudes)
            assert np.array_equal(u.entries, want)

    @pytest.mark.parametrize("dim_r", [2, 4])
    @pytest.mark.parametrize("theta", [math.pi / 2, 1.0])
    def test_reservoir_swaps(self, dim_r, theta):
        config = scenario_library(
            "reservoir_circumvention", dim_R=dim_r, theta=theta
        )
        for s_in, label in enumerate(("+", "-")):
            want = _dense.reservoir_swap(config.weight.dim, dim_r, theta, s_in)
            assert np.array_equal(config.feedback.unitary_for(label).entries, want)

    @pytest.mark.parametrize("ranks", [(2, 2), (3, 2)])
    def test_degenerate_top_swaps(self, ranks):
        params = {} if ranks == (2, 2) else {"d": sum(ranks), "ranks": ranks}
        config = scenario_library("degenerate_circumvention", **params)
        tops = np.cumsum(ranks) - 1
        for (_, u), top in zip(config.feedback.branch_unitaries, tops):
            want = _dense.top_swap(config.weight.dim, sum(ranks), int(top))
            assert np.array_equal(u.entries, want)

    def test_entropy_harvest_plane(self):
        rng = np.random.default_rng(0)
        config = SCAN_FAMILIES["entropy_harvest"](rng, False)
        for _, u in config.feedback.branch_unitaries:
            assert np.array_equal(u.entries, _dense.harvest_plane(8, 3))


class TestStrokesStayPlanes:
    """Every shipped stroke is built from planes, and no shipped path forms
    its n x n entries: the build certifies the planes, and the cycle and the
    features apply them.  Asked for, the entries are the element-wise loop's
    matrix."""

    def test_build_cycle_and_features_form_no_stroke(self, cleared_memos):
        configs = [scenario_library(name) for name in SCENARIO_NAMES]
        rng = np.random.default_rng(22)
        for thermal in (False, True):
            configs += [family(rng, thermal) for family in SCAN_FAMILIES.values()]
        for name in ("explicit", "explicit_swap", "explicit_rotated_pointer"):
            configs += [run.config for run in parse_scenario(golden_document(name))]
        for config in configs:
            evaluate_features(run_cycle(config), config)
            strokes = [u for _, u in config.feedback.branch_unitaries]
            assert all(u._planes is not None for u in strokes), config.label
            # entropy_harvest shares one stroke between its outcomes, so
            # every stroke is checked before any entries are read
            assert not any("entries" in vars(u) for u in strokes), config.label
            for u in strokes:
                want = _dense.plane_stroke(u.dim, *u._planes)
                assert np.array_equal(u.entries.view(float), want.view(float))

    def test_identity_strokes_on_other_planes_form_no_stroke(self):
        # at theta = 0 both reservoir strokes are the identity, held on
        # different planes: the Frobenius norm of their aligned columns
        # groups them, as the dense difference does, with no n x n stroke
        config = scenario_library("reservoir_circumvention", theta=0.0)
        strokes = config.feedback.branch_unitaries
        assert not any("entries" in vars(u) for _, u in strokes)
        got = config.certification.feedback_energy.pointer_group_commutators
        dense = FeedbackScheme(tuple((x, Operator(u.entries)) for x, u in strokes))
        assert all(u._planes is None for _, u in dense.branch_unitaries)
        want = check_feedback_energy(
            dense, config.records, config.weight.hamiltonian, config.h_s,
            config.demon_hamiltonian, config.h_r,
        ).pointer_group_commutators
        assert got == want
        assert len(got) == 1 and len(got[0][0]) == 2


class TestStatesStayFactors:
    """A weight state built from a factor no wider than the weight is held
    as that factor, and no build, cycle or feature score of a window engine
    forms its n x n entries: the dimension, trace, spectrum, populations
    and the joint check's marginal all read the factor.  Asked for, the
    entries are ``X X^dag`` bit for bit."""

    @pytest.mark.parametrize("N", [120, 1000])
    def test_window_forms_no_weight_state(self, N, cleared_memos):
        # the second engine is a memo hit, sharing the first's weight
        configs = [scenario_library("example_II", N=N, q=q) for q in (0.5, 0.3)]
        assert configs[1].weight is configs[0].weight
        cycles = []
        for config in configs:
            result = run_cycle(config)
            evaluate_features(result, config)
            cycles.append((config, result))
        for config, result in cycles:
            states = _weight_states(config, result)
            assert len(states) == 4
            assert all(isinstance(rho, _FactorState) for rho in states)
            assert not any("entries" in vars(rho) for rho in states)
        for config, result in cycles:
            for rho in _weight_states(config, result):
                x = rho._carried_factor[0]
                assert np.array_equal(rho.entries, x @ x.conj().T)

    def test_no_engine_forms_a_held_initial_or_branch_weight(self, cleared_memos):
        # a scan engine's average weight is too small for the marginal
        # core, so only the joint check's dense route reads its entries
        held = 0
        for config in _library_and_family_configs():
            result = run_cycle(config)
            evaluate_features(result, config)
            for rho in _weight_states(config, result)[:-1]:
                if isinstance(rho, _FactorState):
                    held += 1
                    assert "entries" not in vars(rho), config.label
        assert held >= 30


class TestWeightTrajectory:
    """Each cycle's ``rho_w_after`` fed back as the next cycle's weight:
    the factor it carries stays no wider than the weight, and every
    cycle's works match a cycle fed the same state without a factor."""

    def test_carried_factor_stays_thin(self):
        config = scenario_library("example_II", N=40)
        h_w = config.weight.hamiltonian
        for cycle in range(8):
            result = run_cycle(config)
            fresh = dataclasses.replace(config, weight=GenericWeight(
                h_w, DensityMatrix(config.weight.initial.entries)
            ))
            want = [b.work for b in run_cycle(fresh).branches]
            assert [b.work for b in result.branches] == pytest.approx(
                want, abs=1e-10
            ), cycle
            rho = result.rho_w_after
            width = _factor(rho)[0].shape[1]
            assert width <= rho.dim == h_w.dim, (cycle, width)
            config = dataclasses.replace(config, weight=GenericWeight(h_w, rho))


class TestHarvestFamily:
    def test_branch_works_match_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            config = SCAN_FAMILIES["entropy_harvest"](rng, False)
            rw = np.diag(config.weight.initial.entries).real
            idx = np.nonzero(rw > 1e-12)[0]
            p = float(rw[idx[0]])
            hw = np.diag(config.weight.hamiltonian.entries).real
            omega = float(hw[1] - hw[0])
            w_plus, w_minus = harvest_works(
                p, omega, config.thermo.temperature
            )
            result = run_cycle(config)
            works = {b.outcome: b.work for b in result.branches}
            assert works["+"] == pytest.approx(w_plus, abs=1e-9)
            assert works["-"] == pytest.approx(w_minus, abs=1e-9)


def _assert_same(a, b, where="value"):
    """``a`` and ``b`` hold the same values, bit for bit: states and
    operators entrywise, dataclasses field by field."""
    if isinstance(a, (DensityMatrix, Operator)):
        assert np.array_equal(a.entries, b.entries), where
    elif isinstance(a, PureState):
        assert np.array_equal(a.amplitudes, b.amplitudes), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            _assert_same(
                getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
            )
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


def _assert_memo_matches_fresh(config):
    """``config``'s model, however it was obtained, against one built from
    the same table by ``build_transition_model``: the premeasurement, the
    certification and the cycle are identical."""
    m = config.measurement
    fresh = build_transition_model(
        m.target, m.pointer, m.demon_initial, m.transitions,
        (config.h_s, config.h_d),
    )
    assert fresh is not m
    assert np.array_equal(m.premeasurement.entries, fresh.premeasurement.entries)
    twin = dataclasses.replace(config, measurement=fresh)
    _assert_same(config.certification, twin.certification, "certification")
    _assert_same(run_cycle(config), run_cycle(twin), "cycle")


class TestSharedModels:
    """Record-write engines share one record register and take their model
    from a memo keyed by what determines it: the posts, the demon's initial
    amplitudes and the order and sector partition of the additive
    diagonal."""

    @pytest.mark.parametrize("family", tuple(SCAN_FAMILIES))
    def test_scan_draws_match_fresh_builds(self, family):
        rng = np.random.default_rng(16)
        for _ in range(200):
            _assert_memo_matches_fresh(SCAN_FAMILIES[family](rng, False))

    @pytest.mark.parametrize(
        "name,params",
        [
            ("example_I", {"q": 0.3}),
            ("example_II", {"N": 8}),
            ("reservoir_circumvention", {"dim_R": 3, "N": 6}),
        ],
    )
    def test_library_engines_match_fresh_builds(self, name, params):
        scenario_library(name, **params)  # the second build is a memo hit
        _assert_memo_matches_fresh(scenario_library(name, **params))

    def test_one_model_per_structure(self):
        rng = np.random.default_rng(3)
        family = SCAN_FAMILIES["eigenstate_posts"]
        a, b = family(rng, False), family(rng, False)
        assert a.h_s.entries[0, 0] != b.h_s.entries[0, 0]
        assert a.measurement is b.measurement
        register = engine_mod._record_register()
        assert a.records is register[1]
        assert a.measurement.transitions[0].sys_in is register[0][0]

    def test_different_sectors_never_share_a_model(self):
        omega = 1.3
        e0, e1 = basis_state(2, 0), basis_state(2, 1)
        zero = Operator(np.zeros((2, 2)))
        h_s = Operator(np.diag([omega / 2, -omega / 2]))
        # excited posts conserve energy only when the demon prices the
        # record of the ground outcome one quantum lower; without that
        # price the table crosses sectors, memo or not
        engine_mod._record_model(h_s, Operator(np.diag([0.0, -omega])), (e0, e0), e0)
        with pytest.raises(ConstructionError, match="between energy sectors"):
            engine_mod._record_model(h_s, zero, (e0, e0), e0)
        # eigenstate posts conserve under one sector of four levels and
        # under two sectors of two
        one = engine_mod._record_model(zero, zero, (e0, e1), e0)
        two = engine_mod._record_model(h_s, zero, (e0, e1), e0)
        assert one is not two
        other_gap = Operator(np.diag([0.35, -0.35]))
        assert engine_mod._record_model(other_gap, zero, (e0, e1), e0) is two
        for model, h in ((one, (zero, zero)), (two, (h_s, zero))):
            fresh = build_transition_model(
                model.target, model.pointer, model.demon_initial,
                model.transitions, h,
            )
            assert np.array_equal(
                model.premeasurement.entries, fresh.premeasurement.entries
            )

    def test_shared_model_meets_the_completion_assertion(self):
        # a demon gap below the sector split keeps the structure of h_d = 0
        # but breaks commutation with the completed swap of |1,0>, |1,1>;
        # a fresh build fails the completion's hard assertion, and so must
        # the shared model
        e0, e1 = basis_state(2, 0), basis_state(2, 1)
        h_s = Operator(np.diag([0.5, -0.5]))
        model = engine_mod._record_model(
            h_s, Operator(np.zeros((2, 2))), (e0, e1), e0
        )
        near = Operator(np.diag([0.0, 3e-9]))
        with pytest.raises(HardAssertionError, match="failed to commute"):
            build_transition_model(
                model.target, model.pointer, model.demon_initial,
                model.transitions, (h_s, near),
            )
        with pytest.raises(HardAssertionError, match="failed to commute"):
            engine_mod._record_model(h_s, near, (e0, e1), e0)

    def test_non_diagonal_hamiltonians_skip_the_memo(self):
        # flipping the demon's record conserves sigma_x on the demon
        e0, e1 = basis_state(2, 0), basis_state(2, 1)
        zero = Operator(np.zeros((2, 2)))
        sx = Operator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        a = engine_mod._record_model(zero, sx, (e0, e1), e0)
        b = engine_mod._record_model(zero, sx, (e0, e1), e0)
        assert a is not b
        assert np.array_equal(a.premeasurement.entries, b.premeasurement.entries)

    def test_memo_stays_within_its_bound(self):
        # the superposed posts are new on every draw, so a long scan fills
        # the memo and keeps evicting
        names = tuple(SCAN_FAMILIES)
        rng = np.random.default_rng(16)
        for i in range(2000):
            SCAN_FAMILIES[names[i % len(names)]](rng, False)
            assert len(engine_mod._MODELS) <= engine_mod._MODELS_BOUND
        assert len(engine_mod._MODELS) == engine_mod._MODELS_BOUND

    def test_import_builds_no_register(self):
        code = (
            "import szilard.engine as e; "
            "print(e._record_register.cache_info().currsize, len(e._MODELS), "
            "len(e._ENGINES))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "0"]


def _takes_q(name: str) -> bool:
    return "q" in inspect.signature(engine_mod._SCENARIOS[name]).parameters


def _count_calls(monkeypatch, targets) -> collections.Counter:
    """Count the calls of each ``(owner, name)`` in ``targets`` by name."""
    calls: collections.Counter = collections.Counter()
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _features_or_refusal(result, config) -> FeatureReport | str:
    """The feature report, or the message of the exclusion assertion:
    example_I at q = 1 starts excited, and its one branch reports all three
    features, which that assertion refuses."""
    try:
        return evaluate_features(result, config)
    except HardAssertionError as exc:
        return str(exc)


CERTIFICATES = (
    (engine_mod, "check_feedback_energy"),
    (engine_mod, "way_witness"),
    (engine_mod, "_register_form"),
)


class TestCertifiedStructureMemo:
    """A library scenario's structure (every parameter but ``q``) is built
    and certified once; a later call at any ``q`` constructs a new engine
    on the same structure objects, sharing their certification, and is the
    engine a fresh build gives, bit for bit."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_hit_matches_a_build_from_cleared_memos(self, name, cleared_memos):
        template = scenario_library(name)
        for q in (0.0, 0.2, 0.5, 0.73, 1.0) if _takes_q(name) else (None,):
            params = {} if q is None else {"q": q}
            hit = scenario_library(name, **params)
            assert hit is not template
            assert hit.certification is template.certification
            result = run_cycle(hit)
            report = _features_or_refusal(result, hit)
            _clear_memos()
            fresh = scenario_library(name, **params)
            assert fresh.certification is not hit.certification
            assert fresh.weight is not hit.weight
            _assert_same(hit.rho_s, fresh.rho_s, "rho_s")
            _assert_same(hit.certification, fresh.certification, "certification")
            fresh_result = run_cycle(fresh)
            _assert_same(result, fresh_result, "cycle")
            _assert_same(report, _features_or_refusal(fresh_result, fresh), "features")
            template = fresh

    def test_large_window_hit_matches_a_fresh_build(self, cleared_memos):
        want = superposed_post_work(1000, 1.0, 1.0)
        scenario_library("example_II", N=1000)
        hit = scenario_library("example_II", N=1000, q=0.3)
        result = run_cycle(hit)
        report = evaluate_features(result, hit)
        assert all(abs(b.work - want) <= 1e-9 for b in result.branches)
        _clear_memos()
        fresh = scenario_library("example_II", N=1000, q=0.3)
        assert fresh.certification is not hit.certification
        fresh_result = run_cycle(fresh)
        _assert_same(result, fresh_result, "cycle")
        _assert_same(report, evaluate_features(fresh_result, fresh), "features")

    def test_ten_inputs_certify_once(self, monkeypatch, cleared_memos):
        calls = _count_calls(monkeypatch, [*CERTIFICATES, (EngineConfig, "__init__")])
        configs = [scenario_library("example_II", q=0.05 + i / 10) for i in range(10)]
        assert calls == {
            "check_feedback_energy": 1, "way_witness": 1, "_register_form": 1,
            "__init__": 10,
        }
        assert len({id(c) for c in configs}) == 10
        assert all(c.certification is configs[0].certification for c in configs)
        assert [c.rho_s.entries[0, 0].real for c in configs] == [
            0.05 + i / 10 for i in range(10)
        ]

    @pytest.mark.parametrize("field", engine_mod._STRUCTURE)
    def test_replacing_a_structure_field_recertifies(
        self, field, monkeypatch, cleared_memos
    ):
        name, params = "example_II", {"N": 8}
        if field == "h_r":
            name, params = "reservoir_circumvention", {"dim_R": 3, "N": 6}
        config = scenario_library(name, **params)
        assert scenario_library(name, **params).certification is config.certification
        if field == "degenerate_target":
            # the flag is checked against the target again, and refused
            with pytest.raises(ValueError, match="contradicts the target"):
                dataclasses.replace(config, degenerate_target=True)
            return
        new = _swap_erasure() if field == "erasure" else copy.copy(getattr(config, field))
        calls = _count_calls(monkeypatch, CERTIFICATES)
        other = dataclasses.replace(config, **{field: new})
        assert calls == {
            "check_feedback_energy": 1, "way_witness": 1, "_register_form": 1,
        }
        assert other.certification is not config.certification
        _assert_same(other.certification, config.certification, "certification")

    @pytest.mark.parametrize("q", [-0.25, 1.5])
    def test_hit_still_refuses_q_out_of_range(self, q, cleared_memos):
        config = scenario_library("example_II", N=8)
        with pytest.raises(ValueError, match=f"parameter 'q' = {q} outside"):
            scenario_library("example_II", N=8, q=q)
        assert list(engine_mod._ENGINES.values()) == [config]
        again = scenario_library("example_II", N=8, q=0.25)
        assert again.certification is config.certification

    def test_hit_still_checks_its_own_system_state(self, cleared_memos):
        config = scenario_library("example_II", N=8)
        with pytest.raises(ValueError, match="system state and Hamiltonian"):
            dataclasses.replace(config, rho_s=DensityMatrix(np.eye(3) / 3))
        with pytest.raises(ValueError, match="tol_s must be finite"):
            dataclasses.replace(config, tol_s=-1.0)
        # the verdict is the engine's own: a non-conforming flag on the
        # shared certification raises nothing, and conforming reads it
        flagged = dataclasses.replace(config, non_conforming=True)
        assert flagged.certification is config.certification
        assert config.conforming and not flagged.conforming
        # a failing shared certification is refused on every hit
        cert = config.certification
        failing = dataclasses.replace(
            cert, feedback_form=dataclasses.replace(cert.feedback_form, passed=False)
        )
        object.__setattr__(config, "_certification", failing)
        with pytest.raises(ConstructionError, match="not of controlled form"):
            scenario_library("example_II", N=8, q=0.25)
        assert not dataclasses.replace(config, non_conforming=True).conforming

    def test_memo_stays_within_its_bound(self, cleared_memos):
        bound = engine_mod._MODELS_BOUND
        built = {n: scenario_library("example_I", N=n) for n in range(2, bound + 10)}
        assert len(engine_mod._ENGINES) == bound
        # N = 2..9 were dropped first; touching N = 10 keeps it past N = 11
        assert scenario_library("example_I", N=10).certification is (
            built[10].certification
        )
        scenario_library("example_I", N=bound + 10)
        assert len(engine_mod._ENGINES) == bound
        for n, kept in ((10, True), (12, True), (2, False), (11, False)):
            again = scenario_library("example_I", N=n)
            assert (again.certification is built[n].certification) is kept, n

    def test_scan_draws_never_enter_the_memo(self, cleared_memos):
        template = scenario_library("example_II")
        rng = np.random.default_rng(12)
        for thermal in (False, True):
            for family in SCAN_FAMILIES.values():
                config = family(rng, thermal)
                assert engine_mod._certified_template(config) is None
        impossibility_scan(8, seed=1)
        assert list(engine_mod._ENGINES.values()) == [template]

    def test_basis_registers_are_shared_by_labels(self):
        # labels equal to 1 and 0 that print differently keep their type
        ones = [engine_mod._basis_records([v, 0]) for v in (1, 1.0, True)]
        assert len({id(r) for r in ones}) == 3
        assert [type(r.labels[0]) for r in ones] == [int, float, bool]
        # unhashable labels are refused
        with pytest.raises(TypeError, match="unhashable"):
            engine_mod._basis_records([["a"], ["b"]])

    def test_instrument_engines_share_their_register_through_the_memo(
        self, cleared_memos
    ):
        configs = [scenario_library("degenerate_circumvention") for _ in range(2)]
        assert configs[0] is not configs[1]
        assert configs[0].records is configs[1].records

    @pytest.mark.parametrize(
        "name, params",
        [
            ("example_II", {"N": 8}),
            ("reservoir_circumvention", {"dim_R": 3, "N": 6}),
        ],
    )
    @pytest.mark.parametrize("q", [-0.25, 1.5])
    def test_miss_refuses_q_before_building(self, name, params, q, cleared_memos):
        # the record-write build reads q before its model, so a refused q
        # memoises no model and no engine
        def memos():
            return [list(m.items()) for m in (engine_mod._MODELS, engine_mod._ENGINES)]

        scenario_library("null_engine")
        before = memos()
        with pytest.raises(
            ValueError, match=rf"parameter 'q' = {q} outside \[0.0, 1.0\]"
        ):
            scenario_library(name, q=q, **params)
        assert memos() == before
        assert len(before[1]) == 1


class TestImpossibilityScan:
    def test_scan_is_reproducible(self):
        a = impossibility_scan(8, seed=4242)
        b = impossibility_scan(8, seed=4242)
        assert a.records == b.records
        assert a.seed == 4242 and a.count == 8

    def test_families_rotate_round_robin(self):
        report = impossibility_scan(8, seed=1)
        names = tuple(SCAN_FAMILIES)
        assert tuple(r.family for r in report.records) == tuple(
            names[i % len(names)] for i in range(8)
        )

    @pytest.mark.parametrize(
        "family,check",
        [
            ("eigenstate_posts", lambda t: t == (True, True, False)),
            ("excited_posts", lambda t: t == (False, True, True)),
            ("entropy_harvest", lambda t: t == (True, False, True)),
            ("superposition_posts", lambda t: t[:2] == (False, False)),
        ],
    )
    def test_family_feature_patterns(self, family, check):
        # six draws of one family off one generator, as the scan draws them
        rng = np.random.default_rng(31)
        for _ in range(6):
            config = SCAN_FAMILIES[family](rng, False)
            triple = evaluate_features(run_cycle(config), config).triple
            assert check(triple), (family, triple)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            impossibility_scan(0, seed=0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            impossibility_scan(1, seed=-1)

    @pytest.mark.parametrize(
        "count, seed, field",
        [(True, 1, "count"), (2.5, 1, "count"), ("2", 1, "count"),
         (1, False, "seed"), (1, 0.5, "seed"), (1, None, "seed")],
    )
    def test_count_and_seed_must_be_integers(self, count, seed, field):
        # True was kept as the report's count, and 2.5 or "2" failed with a
        # bare TypeError
        with pytest.raises(ValueError, match=f"argument '{field}': expected"):
            impossibility_scan(count, seed)
        report = impossibility_scan(2.0, seed=3.0)
        assert (report.count, report.seed) == (2, 3)
        assert (type(report.count), type(report.seed)) == (int, int)

    @pytest.mark.parametrize("thermal_system", ["no", 0, None])
    def test_thermal_system_must_be_a_boolean(self, thermal_system):
        # "no" ran the thermal scan
        with pytest.raises(
            ValueError, match="argument 'thermal_system': expected true or false"
        ):
            impossibility_scan(4, 1, thermal_system=thermal_system)

    def test_each_engine_is_certified_once(self, monkeypatch):
        import szilard.measurement as measurement_mod

        calls = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
            return wrapper

        counted(EngineConfig, "__init__")
        # the build reaches both through measurement.way_witness
        for name in ("check_repeatable", "check_energy_conserving_measurement"):
            counted(measurement_mod, name)
        # every register certifies the form without V
        for name in ("compose_feedback_unitary", "check_feedback_form"):
            counted(feedback_mod, name)
        impossibility_scan(8, seed=1)
        assert calls == {
            "__init__": 8,
            "check_repeatable": 8,
            "check_energy_conserving_measurement": 8,
        }
        calls.clear()
        parse_scenario(golden_document("explicit_rotated_pointer"))
        assert calls == {
            "__init__": 1,
            "check_repeatable": 1,
            "check_energy_conserving_measurement": 1,
        }
        rng = np.random.default_rng(0)
        assert SCAN_FAMILIES["eigenstate_posts"](rng, False).label == (
            "eigenstate_posts"
        )

    def test_pattern_counts_partition_the_records(self):
        report = impossibility_scan(12, seed=5)
        assert sum(n for _, n in report.pattern_counts) == 12
        for triple, n in report.pattern_counts:
            assert report.pattern_count(triple) == n
        assert report.all_three_count == report.pattern_count(
            (True, True, True)
        )
