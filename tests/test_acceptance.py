"""Acceptance suite: the headline behaviours of the engine laboratory.

Each class exercises one published behaviour end to end at its stated
tolerance, against oracle values computed independently in ``_oracles``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from szilard import (
    DensityMatrix,
    Factor,
    HardAssertionError,
    Observable,
    Operator,
    PureState,
    SubsystemLayout,
    ThermoContext,
    Transition,
    basis_state,
    build_swap_erasure,
    build_transition_model,
    check_repeatable,
    erase_demon,
    free_energy,
    partial_trace,
    random_energy_conserving_unitary,
    thermal_state,
    von_neumann_entropy,
    way_witness,
)
from szilard.measurement import MeasurementModel
from szilard.qop import dagger

from _oracles import (
    RESERVOIR_FROZEN,
    mixing_entropy_bound,
    record_write_coarse_work,
    superposed_post_ground_population,
    superposed_post_work,
)

TOL_W = 1e-9
TOL_GAP = 1e-10


def _works(result):
    return {b.outcome: b.work for b in result.branches}


# ---------------------------------------------------------------------------
# reference engine: eigenstate posts


class TestEigenstateReferenceEngine:
    def test_branch_works(self, example_i_cycles):
        for q, (_, result, _) in example_i_cycles.items():
            works = _works(result)
            assert works["+"] == pytest.approx(1.0, abs=TOL_W)
            assert works["-"] == pytest.approx(0.0, abs=TOL_W)
            probs = {b.outcome: b.probability for b in result.branches}
            assert probs["+"] == pytest.approx(q, abs=1e-12)

    def test_feature_pattern(self, example_i_cycles):
        for _, _, report in example_i_cycles.values():
            assert report.triple == (True, True, False)


# ---------------------------------------------------------------------------
# reference engine: superposed posts


class TestSuperposedPostEngine:
    def test_branch_states_reach_the_ground_level(self, example_ii_sweep):
        _, result, _ = example_ii_sweep[50]
        want = superposed_post_ground_population(50)
        assert want == 0.99
        for b in result.branches:
            got = float(b.post_system.entries[1, 1].real)
            assert got == pytest.approx(want, abs=TOL_W)

    def test_works_match_closed_form(self, example_ii_sweep):
        for n, (_, result, _) in example_ii_sweep.items():
            want = superposed_post_work(n, 1.0, 1.0)
            for b in result.branches:
                assert b.work == pytest.approx(want, abs=TOL_W)

    def test_work_deficit_enclosed_by_mixing_bound(self, example_ii_sweep):
        # deficit = omega/2 - W = omega/(2N) + kT*S(G), and the diagonal
        # (p, 1-p) of G majorizes its spectrum, so 0 <= S(G) <= H(p)
        n = 50
        config, result, _ = example_ii_sweep[n]
        omega, kt = config.weight.omega, config.thermo.kt
        boundary_loss = omega / (2 * n)
        bound = boundary_loss + kt * mixing_entropy_bound(n)
        for b in result.branches:
            deficit = omega / 2 - b.work
            assert deficit >= boundary_loss - TOL_W
            assert deficit <= bound + TOL_W

    def test_feature_pattern(self, example_ii_sweep):
        _, _, report = example_ii_sweep[50]
        assert not report.f1_repeatable
        assert report.f3_positive_work

    def test_work_deficit_shrinks_with_window_size(self, example_ii_sweep):
        deficits = [
            0.5 - min(_works(result).values())
            for _, result, _ in (example_ii_sweep[n] for n in (5, 50, 500))
        ]
        assert deficits[0] > deficits[1] > deficits[2]


# ---------------------------------------------------------------------------
# randomized exclusion scan


class TestRandomizedExclusionScan:
    def test_no_engine_shows_all_three_features(self, scan500):
        assert scan500.count == 500
        assert scan500.all_three_count == 0
        for record in scan500.records:
            assert record.triple != (True, True, True)

    def test_every_pairwise_pattern_is_witnessed(self, scan500):
        for pattern in [
            (True, True, False),
            (True, False, True),
            (False, True, True),
        ]:
            assert dict(scan500.pattern_counts).get(pattern, 0) > 0


# ---------------------------------------------------------------------------
# conservation restricts which observables are measurable


def _rotated_pair(theta: float) -> tuple[np.ndarray, np.ndarray]:
    c, s = math.cos(theta), math.sin(theta)
    return (
        np.array([c, s], dtype=complex),
        np.array([-s, c], dtype=complex),
    )


def _vector_observable(vectors, labels=("0", "1")) -> Observable:
    return Observable(
        tuple(
            (labels[i], float(i), Operator(np.outer(v, v.conj())))
            for i, v in enumerate(vectors)
        )
    )


def _eigen_record_write(omega: float, flip_pointer: bool) -> tuple[
    MeasurementModel, Operator, Operator
]:
    h_s = Operator(np.diag([omega / 2, -omega / 2]))
    h_d = Operator(np.zeros((2, 2)))
    idx = (1, 0) if flip_pointer else (0, 1)
    target = _vector_observable([basis_state(2, 0), basis_state(2, 1)])
    pointer = _vector_observable(
        [basis_state(2, idx[0]), basis_state(2, idx[1])]
    )
    transitions = tuple(
        Transition(
            str(s),
            PureState(basis_state(2, s)),
            PureState(basis_state(2, s)),
            PureState(basis_state(2, idx[s])),
        )
        for s in (0, 1)
    )
    model = build_transition_model(
        target,
        pointer,
        PureState(basis_state(2, 0)),
        transitions,
        hamiltonians=(h_s, h_d),
    )
    return model, h_s, h_d


def _swap_exchange(theta: float, omega: float) -> tuple[
    MeasurementModel, Operator, Operator
]:
    rot0, rot1 = _rotated_pair(theta)
    h = Operator(np.diag([0.0, omega]))
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    transitions = tuple(
        Transition(
            str(k),
            PureState(v),
            PureState(basis_state(2, 0)),
            PureState(v),
        )
        for k, v in enumerate((rot0, rot1))
    )
    model = MeasurementModel(
        demon_initial=PureState(basis_state(2, 0)),
        premeasurement=Operator(swap),
        pointer=_vector_observable([rot0, rot1]),
        target=_vector_observable([rot0, rot1]),
        transitions=transitions,
    )
    return model, h, h


def _rotated_record_generic(theta: float, omega: float) -> tuple[
    MeasurementModel, Operator, Operator
]:
    rot0, rot1 = _rotated_pair(theta)
    transitions = tuple(
        Transition(
            str(s),
            PureState(basis_state(2, s)),
            PureState(v),
            PureState(basis_state(2, s)),
        )
        for s, v in enumerate((rot0, rot1))
    )
    model = build_transition_model(
        _vector_observable([basis_state(2, 0), basis_state(2, 1)]),
        _vector_observable([basis_state(2, 0), basis_state(2, 1)]),
        PureState(basis_state(2, 0)),
        transitions,
        hamiltonians=(np.zeros((2, 2)), np.zeros((2, 2))),
    )
    return model, Operator(np.diag([omega / 2, -omega / 2])), Operator(
        np.zeros((2, 2))
    )


def _rotated_record_free(theta: float) -> tuple[
    MeasurementModel, Operator, Operator
]:
    rot0, rot1 = _rotated_pair(theta)
    zero = Operator(np.zeros((2, 2)))
    transitions = tuple(
        Transition(
            str(k),
            PureState(v),
            PureState(v),
            PureState(basis_state(2, k)),
        )
        for k, v in enumerate((rot0, rot1))
    )
    model = build_transition_model(
        _vector_observable([rot0, rot1]),
        _vector_observable([basis_state(2, 0), basis_state(2, 1)]),
        PureState(basis_state(2, 0)),
        transitions,
        hamiltonians=(zero, zero),
    )
    return model, zero, zero


class TestConservationRestrictsMeasurement:
    def test_scan_models_obey_the_restriction(self, scan500_configs):
        repeatable = 0
        for config in scan500_configs:
            cert = config.certification
            assert cert.way.energy.passed
            if cert.way.repeatability.passed:
                repeatable += 1
                assert cert.way.observable_commutes
                assert cert.way.target_commutator <= TOL_GAP
        assert repeatable >= 100  # the claim must not hold vacuously

    def test_brute_force_qubit_family_never_violates(self):
        rng = np.random.default_rng(40404)
        non_vacuous = 0
        for i in range(500):
            omega = float(rng.uniform(0.5, 2.0))
            theta = float(rng.uniform(0.1, 1.4))
            kind = i % 4
            if kind == 0:
                model, h_s, h_d = _eigen_record_write(omega, bool(i % 8 == 0))
            elif kind == 1:
                model, h_s, h_d = _swap_exchange(theta, omega)
            elif kind == 2:
                model, h_s, h_d = _rotated_record_generic(theta, omega)
            else:
                model, h_s, h_d = _rotated_record_free(theta)
            # the witness raises on an energy-conserving repeatable model
            # whose target fails to commute; none of these may trip it
            report = way_witness(model, h_s, h_d)
            if report.energy.passed and check_repeatable(model).passed:
                non_vacuous += 1
                assert report.observable_commutes
                assert report.target_commutator <= TOL_GAP
            if kind == 0 or kind == 3:
                assert report.energy.passed
            else:
                assert not report.energy.passed
        assert non_vacuous == 250


# ---------------------------------------------------------------------------
# objectification order


class TestObjectificationOrder:
    def test_reference_cycles_are_order_insensitive(
        self, example_i_cycles, example_ii_sweep
    ):
        for store in (example_i_cycles, example_ii_sweep):
            for _, result, _ in store.values():
                assert result.objectification_order_gap <= TOL_GAP

    def test_scanned_cycles_are_order_insensitive(self, scan500):
        for record in scan500.records:
            assert record.order_gap <= TOL_GAP


# ---------------------------------------------------------------------------
# coarse versus averaged work


class TestCoarseWorkConcavity:
    def test_no_run_pays_more_coarse_than_average(
        self,
        example_i_cycles,
        example_ii_sweep,
        degenerate_cycle,
        reservoir_cycle,
        null_cycle,
    ):
        ledgers = [r.ledger for _, r, _ in example_i_cycles.values()]
        ledgers += [r.ledger for _, r, _ in example_ii_sweep.values()]
        ledgers += [
            cycle[1].ledger
            for cycle in (degenerate_cycle, reservoir_cycle, null_cycle)
        ]
        for led in ledgers:
            assert led.w_coarse <= led.w_avg + TOL_W

    def test_scanned_runs_hold_the_inequality(self, scan500, thermal100):
        for report in (scan500, thermal100):
            for record in report.records:
                # both nets subtract the same erasure charges, so their
                # difference is exactly the average-vs-coarse gap
                gap = record.w_net_avg - record.w_net_coarse
                assert gap >= -TOL_W

    def test_balanced_mixture_pays_a_strict_gap(self, example_i_cycles):
        _, result, _ = example_i_cycles[0.5]
        led = result.ledger
        want = record_write_coarse_work(0.5, 20, 1.0, 1.0)
        assert led.w_coarse == pytest.approx(want, abs=TOL_W)
        assert led.w_avg == pytest.approx(0.5, abs=TOL_W)
        assert led.w_avg - led.w_coarse > 0.1


# ---------------------------------------------------------------------------
# no net work from a thermal preparation


class TestThermalPreparationNetWork:
    def test_net_work_never_positive(self, thermal100):
        assert thermal100.count == 100
        for record in thermal100.records:
            assert record.w_net_coarse <= TOL_W
            assert record.w_net_coarse <= record.bound_rhs_coarse + TOL_W

    def test_average_route_witnesses_a_positive_net(self, thermal100, scan500):
        # orthogonal records and Landauer-optimal erasure give
        # w_net_avg <= F(rho_S) - F(rho_S'), which is <= 0 for a Gibbs rho_S
        def witnesses(scan):
            return [
                r
                for r in scan.records
                if r.w_net_avg > 0.0 and r.w_net_coarse <= 0.0
            ]

        for record in thermal100.records:
            assert record.w_net_avg <= record.bound_rhs_coarse + TOL_W
            assert record.bound_rhs_coarse <= TOL_W
        assert not witnesses(thermal100)
        assert witnesses(scan500), "no non-thermal draw showed the witness"


# ---------------------------------------------------------------------------
# product interactions cannot charge the weight beyond the system free energy


class TestProductConservingInteractions:
    def _random_density(self, rng, dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ dagger(a)
        return DensityMatrix(m / np.trace(m))

    def test_weight_gain_bounded_by_system_free_energy_drop(self):
        rng = np.random.default_rng(818)
        ctx = ThermoContext(1.0)
        dw, ds = 6, 2
        h_w = Operator(np.diag([float(n) for n in range(dw)]))
        h_s = Operator(np.diag([0.5, -0.5]))
        layout = SubsystemLayout(
            (Factor("W", dw, h_w), Factor("S", ds, h_s))
        )
        h_add = np.kron(h_w.entries, np.eye(ds)) + np.kron(
            np.eye(dw), h_s.entries
        )
        tau_s = thermal_state(h_s.entries, ctx.beta)
        for _ in range(100):
            u = random_energy_conserving_unitary(Operator(h_add), rng)
            rho_w = self._random_density(rng, dw)
            for rho_s, thermal in (
                (tau_s, True),
                (self._random_density(rng, ds), False),
            ):
                joint = DensityMatrix(
                    u.entries
                    @ np.kron(rho_w.entries, rho_s.entries)
                    @ dagger(u.entries)
                )
                w_after = partial_trace(joint, layout, ["W"])
                s_after = partial_trace(joint, layout, ["S"])
                gain = free_energy(w_after, h_w, ctx) - free_energy(
                    rho_w, h_w, ctx
                )
                drop = free_energy(rho_s, h_s, ctx) - free_energy(
                    s_after, h_s, ctx
                )
                if thermal:
                    assert gain <= TOL_W
                assert gain <= drop + TOL_W


# ---------------------------------------------------------------------------
# degenerate-subspace circumvention


class TestDegenerateSubspaceCircumvention:
    def test_all_three_features_hold(self, degenerate_cycle):
        config, _, report = degenerate_cycle
        assert report.triple == (True, True, True)
        assert config.degenerate_target

    def test_every_branch_extracts_at_least_one_gap(self, degenerate_cycle):
        config, result, _ = degenerate_cycle
        works = _works(result)
        # outcome x covers levels [offset, offset+rank); its branch feeds
        # the full subspace excitation (top level) into the weight
        assert works["x0"] == pytest.approx(1.0, abs=TOL_W)
        assert works["x1"] == pytest.approx(3.0, abs=TOL_W)
        for w in works.values():
            assert w >= 1.0 - TOL_W  # rank 2 subspaces: at least one gap
        assert result.marginal_deviation <= TOL_GAP


# ---------------------------------------------------------------------------
# reservoir-assisted circumvention


class TestReservoirAssistedCircumvention:
    def test_branch_works_stay_under_the_heat_bound(self, reservoir_cycle):
        config, result, _ = reservoir_cycle
        cap = config.thermo.kt * math.log(2.0)
        frozen = RESERVOIR_FROZEN[math.pi / 2]
        for b in result.branches:
            assert b.work <= cap + TOL_W
            assert b.work == pytest.approx(frozen["work"], abs=TOL_W)
            assert b.weight_entropy_change == pytest.approx(
                frozen["weight_entropy_change"], abs=TOL_W
            )
            assert von_neumann_entropy(b.post_system) == pytest.approx(
                frozen["post_system_entropy"], abs=TOL_W
            )

    def test_inequality_chain_holds_term_by_term(self, reservoir_cycle):
        config, result, _ = reservoir_cycle
        cap = config.thermo.kt * math.log(2.0)
        frozen = RESERVOIR_FROZEN[math.pi / 2]
        works = _works(result)
        assert len(result.reservoir_chains) == 2
        for outcome, chain in result.reservoir_chains:
            assert chain.w_x == pytest.approx(works[outcome], abs=1e-12)
            assert chain.w_x <= chain.intermediate_bound + TOL_W
            assert chain.intermediate_bound <= chain.final_bound + TOL_W
            assert chain.final_bound == pytest.approx(
                config.thermo.kt * frozen["post_system_entropy"], abs=TOL_W
            )
            assert chain.final_bound <= cap + TOL_W
            assert chain.rel_entropy_term >= -1e-12
            assert chain.subadditivity_gap >= -TOL_W
            assert chain.energy_form == pytest.approx(
                chain.heat_identity_form, abs=1e-8
            )


# ---------------------------------------------------------------------------
# erasure costs


class TestErasureCosts:
    def test_explicit_reset_pays_at_least_the_landauer_heat(self):
        ctx = ThermoContext(1.0)
        blank = PureState(basis_state(2, 0))
        record = DensityMatrix(np.eye(2) / 2.0)
        h_d = Operator(np.zeros((2, 2)))
        reservoir = build_swap_erasure(blank, ctx)
        res = erase_demon(record, h_d, blank, ctx, reservoir)
        assert res.q >= ctx.kt * math.log(2.0) - TOL_W
        assert not res.landauer_optimal
        # the cold slot is thermal, so its ground occupation falls short of
        # one by exp(-15) and the reset fidelity inherits that deficit
        assert res.reset_fidelity > 1.0 - 1e-5

    def test_optimal_reset_pays_exactly_the_record_entropy(self):
        ctx = ThermoContext(1.0)
        blank = PureState(basis_state(2, 0))
        record = DensityMatrix(np.eye(2) / 2.0)
        h_d = Operator(np.zeros((2, 2)))
        res = erase_demon(record, h_d, blank, ctx)
        assert abs(res.q - math.log(2.0)) <= 1e-12
        assert res.landauer_optimal
