"""End-to-end engine tests: config validation, cycle invariants, features,
the scenario library, and the randomized scan machinery."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from szilard import (
    SCAN_FAMILIES,
    SCENARIO_NAMES,
    ConstructionError,
    DensityMatrix,
    EngineConfig,
    FeedbackScheme,
    GenericWeight,
    HardAssertionError,
    Instrument,
    Observable,
    Operator,
    PureState,
    SizeError,
    ThermoContext,
    Transition,
    basis_state,
    build_oscillator_weight,
    build_shift_unitary,
    build_swap_erasure,
    build_transition_model,
    compose_feedback_unitary,
    erase_demon,
    evaluate_features,
    impossibility_scan,
    objectification_order_gap,
    projector_onto,
    run_cycle,
    scenario_library,
    thermal_state,
    von_neumann_entropy,
    work_threshold,
)

import szilard.engine as engine_mod
import szilard.thermo as thermo_mod
import _dense
from _oracles import harvest_works
from szilard.cli import parse_scenario
from test_cli import _explicit_block


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
    return build_transition_model(
        target, pointer, PureState(basis_state(2, 0)), transitions
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

    def test_nonconserving_feedback_refused(self):
        cfg = scenario_library("example_I")
        dw = cfg.weight_hamiltonian.dim
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
        assert not loose.certification.measurement_energy.passed
        assert loose.certification.feedback_energy.passed
        result = run_cycle(loose)
        assert len(result.branches) == 2

    def test_certification_passes_for_reference_engines(self):
        cfg = scenario_library("example_II")
        cert = cfg.certification
        assert cfg.conforming
        assert cert.passed
        assert cert.measurement_energy.passed
        assert cert.feedback_energy.passed
        assert cert.feedback_form.passed
        assert cert.repeatability is not None
        assert cert.way is not None

    def test_instrument_configs_have_no_model_certificates(self):
        cfg = scenario_library("degenerate_circumvention")
        cert = cfg.certification
        assert cert.measurement_energy is None
        assert cert.repeatability is None
        assert cert.way is None
        assert not cert.passed
        assert not cfg.conforming


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
            config.weight_initial.entries, result.premeasured.entries
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
    args = (config, sigma_sd, gem, config.weight_initial, after["rho_s_after"],
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
        rho = base.weight_initial.entries.copy()
        top = int(np.argmax(rho.diagonal().real))
        rho[top, top] -= 1e-13
        rho[0, 0] += 1e-13
        config = dataclasses.replace(
            base,
            weight=GenericWeight(base.weight_hamiltonian, DensityMatrix(rho)),
        )
        _, ((gap, dev), (gap_d, dev_d)) = _consistency_routes(config)
        assert dev_d < 1e-14
        assert dev >= 2 * 0.99e-13 and dev >= dev_d
        assert gap >= 2 * 0.99e-13 and gap >= gap_d
        assert dev == pytest.approx(dev_d, abs=1e-12)
        assert gap == pytest.approx(gap_d, abs=1e-12)


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


class TestFactoredBranchMap:
    """Every branch of the factored cycle against the dense branch map in
    ``_dense``: post states, work and weight-entropy change."""

    def _assert_branches_match(self, config):
        result = run_cycle(config)
        rho_w = config.weight_initial.entries
        h_w = config.weight_hamiltonian.entries
        kt = config.thermo.kt
        tau_r = config.tau_r
        assert result.branches
        for br in result.branches:
            w, s, r = _dense.conditional_feedback_map(
                config.feedback, br.outcome, config.weight_initial,
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
        dw = config.weight_hamiltonian.dim
        sizes = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, **kwargs):
                sizes.append(np.shape(a)[-1])
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        evaluate_features(run_cycle(config), config)
        assert all(n < dw for n in sizes), sizes


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
            weight_f.append(rho is config.weight_initial)
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
        scale = np.ptp(np.linalg.eigvalsh(config.weight_hamiltonian.entries))
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
        for _, _, report in example_i_cycles.values():
            assert report.triple == (True, True, False)
            assert not report.degenerate_target
            assert not report.reservoir_in_feedback

    def test_superposed_engine_pattern(self, example_ii_sweep):
        for _, _, report in example_ii_sweep.values():
            assert not report.f1_repeatable
            assert report.f3_positive_work

    def test_degenerate_engine_holds_all_three(self, degenerate_cycle):
        _, _, report = degenerate_cycle
        assert report.triple == (True, True, True)
        assert report.degenerate_target

    def test_reservoir_engine_spends_weight_entropy(self, reservoir_cycle):
        _, _, report = reservoir_cycle
        assert report.f1_repeatable
        assert not report.f2_entropy_invariant
        assert report.f3_positive_work
        assert report.reservoir_in_feedback

    def test_min_work_and_floor_are_consistent(self, example_i_cycles):
        config, result, report = example_i_cycles[0.3]
        assert report.min_work == pytest.approx(
            min(b.work for b in result.branches), abs=1e-15
        )
        assert report.work_floor == work_threshold(
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
        config = scenario_library(
            "reservoir_circumvention", dim_R=3, erasure=_swap_erasure()
        )
        beta = config.thermo.beta
        assert np.array_equal(
            config.tau_r.entries, thermal_state(config.h_r, beta).entries
        )
        assert np.array_equal(
            config._tau_e.entries, thermal_state(config.erasure.h_r, beta).entries
        )

    def test_explicit_erasure_cycle_derives_no_thermal_state(self, monkeypatch):
        config = scenario_library("example_I", erasure=_swap_erasure())
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


class TestHarvestFamily:
    def test_branch_works_match_closed_form(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            config = SCAN_FAMILIES["entropy_harvest"](rng, False)
            rw = np.diag(config.weight_initial.entries).real
            idx = np.nonzero(rw > 1e-12)[0]
            p = float(rw[idx[0]])
            hw = np.diag(config.weight_hamiltonian.entries).real
            omega = float(hw[1] - hw[0])
            w_plus, w_minus = harvest_works(
                p, omega, config.thermo.temperature
            )
            result = run_cycle(config)
            works = {b.outcome: b.work for b in result.branches}
            assert works["+"] == pytest.approx(w_plus, abs=1e-9)
            assert works["-"] == pytest.approx(w_minus, abs=1e-9)


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
        report = impossibility_scan(6, seed=31, families=[family])
        for record in report.records:
            assert check(record.triple), (family, record.triple)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            impossibility_scan(4, seed=0, families=["nope"])

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            impossibility_scan(0, seed=0)

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
        for name in ("check_repeatable", "check_energy_conserving_measurement"):
            wrapper = counted(measurement_mod, name)
            monkeypatch.setattr(engine_mod, name, wrapper)
        counted(engine_mod, "compose_feedback_unitary")
        impossibility_scan(8, seed=1)
        assert calls == {
            "__init__": 8,
            "check_repeatable": 8,
            "check_energy_conserving_measurement": 8,
            "compose_feedback_unitary": 8,
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
