"""Free energy, per-branch work, erasure, and the cycle ledger."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szilard import (
    DensityMatrix,
    ErasureError,
    ExplicitReservoir,
    HardAssertionError,
    Operator,
    PureState,
    ThermoContext,
    basis_state,
    build_swap_erasure,
    dagger,
    erase_demon,
    feature2_test,
    free_energy,
    operator_norm,
    random_energy_conserving_unitary,
    thermal_state,
    von_neumann_entropy,
    work_energy_entropy_form,
    work_ledger,
    work_per_outcome,
    work_threshold,
    reservoir_assisted_bound,
)
from szilard.qop import _ptrace_nd

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ dagger(a)
    return DensityMatrix(m / np.trace(m))


# ---------------------------------------------------------------------------
# free energy and branch work


class TestFreeEnergy:
    def test_pure_ground_state_is_zero(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        rho = DensityMatrix(np.diag([1.0, 0j]))
        assert abs(free_energy(rho, h, ThermoContext(1.0))) < 1e-12

    def test_thermal_state_gives_log_partition(self):
        h = np.diag([0.0, 0.8, 1.7]).astype(complex)
        ctx = ThermoContext(temperature=1.3)
        tau = thermal_state(h, ctx.beta)
        z = float(np.sum(np.exp(-ctx.beta * np.diag(h).real)))
        assert abs(free_energy(tau, h, ctx) + ctx.kt * math.log(z)) < 1e-10

    def test_nonhermitian_hamiltonian_rejected(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            free_energy(rho, np.array([[0.0, 1.0], [0.0, 0.0]]), ThermoContext(1.0))

    def test_context_validation(self):
        with pytest.raises(ValueError):
            ThermoContext(temperature=0.0)
        with pytest.raises(ValueError):
            ThermoContext(temperature=1.0, kb=-1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["temperature", "kb"])
    def test_context_needs_finite_values(self, field, value):
        # an infinite temperature or kb used to be accepted, and the cycle
        # then priced entropy at kT = inf, writing NaN works
        kwargs = {"temperature": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ThermoContext(**kwargs)

    @pytest.mark.parametrize("value", ["1", "-1.0", -1, np.float64(-1.0)])
    def test_refusal_shows_the_value_as_given(self, value):
        # "1" read "got 1", the text the number 1 gives
        with pytest.raises(ValueError, match=re.escape(f"got {value!r}")):
            ThermoContext(value)

    @pytest.mark.parametrize("value", [True, "1", 1j, None, 10**400])
    @pytest.mark.parametrize("field", ["temperature", "kb"])
    def test_context_needs_real_numbers(self, field, value):
        # True was read as 1 and "1" failed with a bare TypeError that named
        # no field; each is refused in the message of an infinite value
        kwargs = {"temperature": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            ThermoContext(**kwargs)
        ctx = ThermoContext(2, kb=np.float64(0.5))
        assert (type(ctx.temperature), type(ctx.kb)) == (float, float)
        assert ctx.kt == 1.0

    @pytest.mark.parametrize(
        "kb, temperature",
        [(1e-200, 1e-200), (1e-160, 1e-160), (1e200, 1e200)],
        ids=["kt-zero", "beta-infinite", "kt-infinite"],
    )
    def test_context_needs_a_usable_thermal_energy(self, kb, temperature):
        # finite positive factors whose product kT is zero or infinite, or a
        # subnormal kT whose beta = 1 / kT overflows
        with pytest.raises(ValueError, match=r"kb \* temperature"):
            ThermoContext(temperature, kb)

    def test_kb_scales_entropy_term(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        h = np.zeros((2, 2), dtype=complex)
        f1 = free_energy(rho, h, ThermoContext(1.0, kb=1.0))
        f2 = free_energy(rho, h, ThermoContext(1.0, kb=2.0))
        assert abs(f1 + math.log(2)) < 1e-12
        assert abs(f2 + 2 * math.log(2)) < 1e-12

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_energy_term_matches_the_trace(self, diagonal):
        # a diagonal H is priced from the two diagonals alone, any other H
        # through the full product; both give tr[H rho]
        rng = np.random.default_rng(8)
        rho = random_density(rng, 6)
        h = np.diag(rng.normal(size=6)).astype(complex)
        if not diagonal:
            h[0, 3] = h[3, 0] = 0.4
        ctx = ThermoContext(0.7)
        want = float(np.trace(h @ rho.entries).real)
        want -= ctx.kt * von_neumann_entropy(rho)
        assert free_energy(rho, h, ctx) == pytest.approx(want, abs=1e-14)


class TestBranchWork:
    def test_pure_lift_is_energy_difference(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        ctx = ThermoContext(1.0)
        before = DensityMatrix(np.diag([1.0, 0j, 0j]))
        after = DensityMatrix(np.diag([0j, 0j, 1.0]))
        assert abs(work_per_outcome(before, after, h, ctx) - 2.0) < 1e-12

    def test_entropy_gain_reduces_work(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        ctx = ThermoContext(0.7)
        before = DensityMatrix(np.diag([1.0, 0j]))
        after = DensityMatrix(np.diag([0.5, 0.5]))
        want = 0.5 - 0.7 * math.log(2)
        assert abs(work_per_outcome(before, after, h, ctx) - want) < 1e-12

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_two_work_forms_agree_for_conserving_branches(self, seed):
        # energy form vs entropy form: identical whenever the branch
        # unitary conserves the summed weight+system energy
        rng = np.random.default_rng(seed)
        h_w = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        h_s = np.diag([0.0, 1.0]).astype(complex)
        h_add = np.kron(h_w, np.eye(2)) + np.kron(np.eye(4), h_s)
        u = random_energy_conserving_unitary(h_add, rng).entries
        rho_w = random_density(rng, 4)
        rho_s = random_density(rng, 2)
        joint = u @ np.kron(rho_w.entries, rho_s.entries) @ dagger(u)
        w_after = DensityMatrix(_ptrace_nd(joint, (4, 2), [0]))
        s_after = DensityMatrix(_ptrace_nd(joint, (4, 2), [1]))
        ctx = ThermoContext(1.1)
        w1 = work_per_outcome(rho_w, w_after, h_w, ctx)
        w2 = work_energy_entropy_form(rho_s, s_after, h_s, rho_w, w_after, ctx)
        assert abs(w1 - w2) < 1e-9

    def test_work_threshold_scales(self):
        assert work_threshold(1.0, ThermoContext(1.0)) == pytest.approx(1e-9)
        assert work_threshold(0.1, ThermoContext(5.0)) == pytest.approx(5e-9)
        # the floor is set by the thermal energy kT, not by T alone
        assert work_threshold(0.1, ThermoContext(5.0, kb=0.5)) == pytest.approx(2.5e-9)
        assert work_threshold(1.0, ThermoContext(2.0**30, kb=2.0**-30)) == 1e-9


class TestFeature2:
    def test_pure_shifts_pass(self):
        w0 = DensityMatrix(np.diag([1.0, 0j, 0j]))
        w1 = DensityMatrix(np.diag([0j, 1.0, 0j]))
        rep = feature2_test([("+", 0.5, w1), ("-", 0.5, w0)], w0)
        assert rep.passed
        assert all(d <= rep.tol_s and ok for _, d, ok in rep.per_outcome)

    def test_mixing_branch_fails(self):
        w0 = DensityMatrix(np.diag([1.0, 0j]))
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
        rep = feature2_test([("+", 1.0, mixed)], w0)
        assert not rep.passed
        assert rep.per_outcome[0][1] == pytest.approx(math.log(2))

    def test_default_tolerance_scales_with_log_dim(self):
        dim = 512
        rho = DensityMatrix(np.eye(dim, dtype=complex) / dim)
        rep = feature2_test([], rho)
        assert rep.tol_s == pytest.approx(1e-9 * math.log(dim))

    def test_custom_tolerance_honoured(self):
        w0 = DensityMatrix(np.diag([1.0, 0j]))
        slightly = DensityMatrix(np.diag([0.999, 0.001]).astype(complex))
        loose = feature2_test([("+", 1.0, slightly)], w0, tol_s=0.1)
        tight = feature2_test([("+", 1.0, slightly)], w0, tol_s=1e-12)
        assert loose.passed and not tight.passed

    def test_zero_probability_branches_skipped(self):
        w0 = DensityMatrix(np.diag([1.0, 0j]))
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
        rep = feature2_test([("+", 1.0, w0), ("-", 0.0, mixed)], w0)
        assert rep.passed


# ---------------------------------------------------------------------------
# erasure


class TestErasure:
    def test_landauer_mode_charges_exact_entropy(self):
        ctx = ThermoContext(1.0)
        rho_d = DensityMatrix(np.eye(2, dtype=complex) / 2)
        res = erase_demon(
            rho_d, np.zeros((2, 2)), PureState(basis_state(2, 0)), ctx
        )
        assert res.landauer_optimal
        assert abs(res.q - math.log(2)) < 1e-12
        assert res.reset_fidelity == 1.0
        # flat memory: the reset work is all heat
        assert abs(res.w_r - res.q) < 1e-12

    def test_demon_energy_priced_into_reset_work(self):
        ctx = ThermoContext(2.0)
        h_d = np.diag([0.0, 3.0]).astype(complex)
        rho_d = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        res = erase_demon(rho_d, h_d, PureState(basis_state(2, 0)), ctx)
        s = von_neumann_entropy(rho_d)
        assert abs(res.q - 2.0 * s) < 1e-12
        # blank state drops 0.75 * 3 of demon energy
        assert abs(res.w_r - (-2.25 + res.q)) < 1e-12

    def test_swap_erasure_obeys_landauer(self):
        ctx = ThermoContext(1.0)
        blank = PureState(basis_state(2, 0))
        reservoir = build_swap_erasure(blank, ctx)
        rho_d = DensityMatrix(np.eye(2, dtype=complex) / 2)
        res = erase_demon(rho_d, np.zeros((2, 2)), blank, ctx, reservoir)
        assert not res.landauer_optimal
        assert res.q >= math.log(2) - 1e-9
        assert res.q > math.log(2)  # finite reservoir pays strictly more
        assert res.reset_fidelity >= 1.0 - 1e-6
        assert res.rho_r_after is not None

    def test_identity_reset_rejected(self):
        ctx = ThermoContext(1.0)
        blank = PureState(basis_state(2, 0))
        template = build_swap_erasure(blank, ctx)
        lazy = ExplicitReservoir(
            h_r=template.h_r,
            u_r=Operator(np.eye(template.u_r.dim, dtype=complex)),
        )
        rho_d = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ErasureError):
            erase_demon(rho_d, np.zeros((2, 2)), blank, ctx, lazy)

    def test_arrays_are_accepted_as_operators(self):
        ctx = ThermoContext(1.0)
        blank = PureState(basis_state(2, 0))
        template = build_swap_erasure(blank, ctx)
        bare = ExplicitReservoir(
            h_r=np.array(template.h_r.entries), u_r=np.array(template.u_r.entries)
        )
        assert isinstance(bare.h_r, Operator) and isinstance(bare.u_r, Operator)
        rho_d = DensityMatrix(np.eye(2, dtype=complex) / 2)
        got = erase_demon(rho_d, np.zeros((2, 2)), blank, ctx, bare)
        want = erase_demon(rho_d, np.zeros((2, 2)), blank, ctx, template)
        assert (got.q, got.w_r) == (want.q, want.w_r)
        with pytest.raises(ValueError, match="not unitary"):
            ExplicitReservoir(h_r=np.eye(2), u_r=2.0 * np.eye(4))

    @pytest.mark.parametrize(
        "h_r", [[[0, 1j], [0, 1]], np.diag([0.0, 1e-3j]), np.ones((2, 2)) + 1e-6j]
    )
    def test_reservoir_hamiltonian_must_be_hermitian(self, h_r):
        # refused where the reservoir is built, naming the field, not later
        # by the Gibbs state of an engine build or an erasure
        message = "^reservoir Hamiltonian h_r must be Hermitian$"
        with pytest.raises(ValueError, match=message):
            ExplicitReservoir(h_r, np.eye(4))

    def test_pure_record_erases_for_free(self):
        ctx = ThermoContext(1.0)
        rho_d = DensityMatrix(np.diag([1.0, 0j]))
        res = erase_demon(
            rho_d, np.zeros((2, 2)), PureState(basis_state(2, 0)), ctx
        )
        assert abs(res.q) < 1e-12 and abs(res.w_r) < 1e-12


# ---------------------------------------------------------------------------
# the cycle ledger


def _simple_cycle(q=0.3, temperature=1.0):
    """Hand-built two-branch record-write cycle on small matrices.

    System qubit measured in its energy basis, records on a flat demon,
    branch "1" lifts the weight one rung, branch "0" does nothing.
    """
    ctx = ThermoContext(temperature)
    h_w = np.diag([0.0, 1.0, 2.0]).astype(complex)
    h_s = np.diag([0.0, 1.0]).astype(complex)
    rho_s = DensityMatrix(np.diag([1.0 - q, q]).astype(complex))
    w0 = DensityMatrix(np.diag([0j, 1.0, 0j]))  # start mid-ladder
    w_up = DensityMatrix(np.diag([0j, 0j, 1.0]))
    branches = [("0", 1.0 - q, w0), ("1", q, w_up)]
    rho_w_after = DensityMatrix((1.0 - q) * w0.entries + q * w_up.entries)
    rho_s_after = DensityMatrix(np.diag([1.0, 0j]))  # both posts end ground
    rho_d_after = DensityMatrix(np.diag([1.0 - q, q]).astype(complex))
    erasure = erase_demon(
        rho_d_after, np.zeros((2, 2)), PureState(basis_state(2, 0)), ctx
    )
    ledger = work_ledger(
        branches,
        w0,
        rho_w_after,
        rho_s,
        rho_s_after,
        rho_d_after,
        h_w,
        h_s,
        erasure,
        ctx,
    )
    return ledger, ctx, q, erasure


class TestWorkLedger:
    def test_average_is_probability_weighted(self):
        ledger, ctx, q, _ = _simple_cycle()
        assert abs(ledger.w_avg - q * 1.0) < 1e-12
        # the ledger keeps no per-branch rows: each branch's work is the
        # weight's free-energy gain, as a cycle's BranchResult.work holds it
        h_w = np.diag([0.0, 1.0, 2.0]).astype(complex)
        w0 = DensityMatrix(np.diag([0j, 1.0, 0j]))
        w_up = DensityMatrix(np.diag([0j, 0j, 1.0]))
        works = {x: work_per_outcome(w0, w, h_w, ctx)
                 for x, w in (("0", w0), ("1", w_up))}
        assert abs(works["1"] - 1.0) < 1e-12
        assert abs(works["0"]) < 1e-12
        assert abs(ledger.w_avg - ((1 - q) * works["0"] + q * works["1"])) < 1e-12

    def test_coarse_work_pays_mixing_entropy(self):
        ledger, ctx, q, _ = _simple_cycle()
        h = -(q * math.log(q) + (1 - q) * math.log(1 - q))
        assert abs(ledger.w_coarse - (q - ctx.kt * h)) < 1e-12
        assert ledger.w_coarse <= ledger.w_avg + 1e-9
        assert abs(ledger.concavity_gap - h) < 1e-12

    def test_erasure_charges_record_entropy(self):
        ledger, ctx, q, erasure = _simple_cycle()
        h = -(q * math.log(q) + (1 - q) * math.log(1 - q))
        assert abs(erasure.q - ctx.kt * h) < 1e-12
        assert abs(ledger.w_net_avg - (ledger.w_avg - erasure.w_r)) < 1e-12
        assert abs(ledger.w_net_coarse - (ledger.w_coarse - erasure.w_r)) < 1e-12

    def test_net_bound_is_free_energy_drop(self):
        ledger, ctx, q, _ = _simple_cycle()
        h_s = np.diag([0.0, 1.0]).astype(complex)
        rho_s = DensityMatrix(np.diag([1.0 - q, q]).astype(complex))
        rho_s_after = DensityMatrix(np.diag([1.0, 0j]))
        want = free_energy(rho_s, h_s, ctx) - free_energy(rho_s_after, h_s, ctx)
        assert abs(ledger.bound_rhs_coarse - want) < 1e-12
        assert ledger.w_net_coarse <= ledger.bound_rhs_coarse + 1e-9
        assert ledger.slack_second_law >= -1e-9

    def test_entropy_chain_nonnegative_when_certified(self):
        ledger, _, _, _ = _simple_cycle()
        assert ledger.entropy_chain_slack >= -1e-9

    def test_certified_violation_raises(self):
        # a branch set that claims pure weight outputs while the system
        # entropy vanished without a record is unphysical for a certified
        # pipeline and must trip the hard concavity/chain assertions
        ctx = ThermoContext(1.0)
        h = np.zeros((2, 2), dtype=complex)
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
        pure = DensityMatrix(np.diag([1.0, 0j]))
        erasure = erase_demon(
            pure, np.zeros((2, 2)), PureState(basis_state(2, 0)), ctx
        )
        with pytest.raises(HardAssertionError):
            work_ledger(
                [("0", 1.0, pure)],
                mixed,  # weight starts mixed
                pure,  # and ends pure: entropy destroyed, no record
                mixed,
                mixed,
                pure,
                h,
                h,
                erasure,
                ctx,
                certified=True,
            )

    def test_uncertified_violation_reported_not_raised(self):
        ctx = ThermoContext(1.0)
        h = np.zeros((2, 2), dtype=complex)
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
        pure = DensityMatrix(np.diag([1.0, 0j]))
        erasure = erase_demon(
            pure, np.zeros((2, 2)), PureState(basis_state(2, 0)), ctx
        )
        ledger = work_ledger(
            [("0", 1.0, pure)],
            mixed,
            pure,
            mixed,
            mixed,
            pure,
            h,
            h,
            erasure,
            ctx,
            certified=False,
        )
        assert ledger.entropy_chain_slack < 0.0


class TestReservoirChain:
    def test_partial_swap_chain_holds_term_by_term(self):
        # one branch of a record-conditioned swap: a reservoir quantum is
        # moved onto the weight with angle-dependent completeness
        ctx = ThermoContext(1.0)
        omega = 0.4
        h_w = np.diag([0.0, omega]).astype(complex)
        h_r = np.diag([0.0, omega]).astype(complex)
        h_s = np.zeros((1, 1), dtype=complex)
        tau_r = thermal_state(h_r, ctx.beta)
        rho_w = DensityMatrix(np.diag([1.0, 0j]))
        rho_s = DensityMatrix(np.eye(1, dtype=complex))
        theta = 1.1
        c, s = math.cos(theta), math.sin(theta)
        u = np.eye(4, dtype=complex)
        u[np.ix_([1, 2], [1, 2])] = np.array([[c, -1j * s], [-1j * s, c]])
        joint = u @ np.kron(np.kron(rho_w.entries, rho_s.entries), tau_r.entries) @ dagger(u)
        w_after = DensityMatrix(_ptrace_nd(joint, (2, 1, 2), [0]))
        r_after = DensityMatrix(_ptrace_nd(joint, (2, 1, 2), [2]))
        rep = reservoir_assisted_bound(
            rho_w, w_after, rho_s, rho_s, tau_r, r_after, h_s, h_r, h_w, ctx
        )
        assert rep.w_x <= rep.intermediate_bound + 1e-9
        assert rep.intermediate_bound <= rep.final_bound + 1e-9
        # the energy form tracks what left reservoir and system, and must
        # equal the weight's energy gain exactly
        de_w = float(np.trace(h_w @ (w_after.entries - rho_w.entries)).real)
        assert abs(rep.energy_form - de_w) < 1e-9
        assert abs(rep.energy_form - rep.heat_identity_form) < 1e-8
        assert rep.subadditivity_gap >= -1e-9
        assert rep.rel_entropy_term >= 0.0
        # a trivial system pins the final bound at zero: pulling heat
        # without a record cannot yield positive branch work
        assert abs(rep.final_bound) < 1e-12
        assert rep.w_x < 0.0
        assert rep.weight_entropy_change > 0.0

    def test_boundary_rejects_a_non_thermal_reservoir(self):
        # the cycle skips this check, since the engine's build certified
        # its reservoir; the public function still makes it
        ctx = ThermoContext(1.0)
        h1 = np.zeros((1, 1), dtype=complex)
        h2 = np.diag([0.0, 1.0]).astype(complex)
        one = DensityMatrix(np.eye(1, dtype=complex))
        rho_w = DensityMatrix(np.diag([1.0, 0j]))
        hot = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError, match="not thermal"):
            reservoir_assisted_bound(
                rho_w, rho_w, one, one, hot, hot, h1, h2, h2, ctx
            )

    def test_bogus_accounting_trips_assertions(self):
        ctx = ThermoContext(1.0)
        h1 = np.zeros((1, 1), dtype=complex)
        h2 = np.diag([0.0, 1.0]).astype(complex)
        one = DensityMatrix(np.eye(1, dtype=complex))
        tau = thermal_state(h2, ctx.beta)
        lifted = DensityMatrix(np.diag([0j, 1.0]))
        with pytest.raises(HardAssertionError):
            # claims the weight gained a quantum while nothing moved
            reservoir_assisted_bound(
                DensityMatrix(np.diag([1.0, 0j])),
                lifted,
                one,
                one,
                tau,
                tau,
                h1,
                h2,
                h2,
                ctx,
            )
