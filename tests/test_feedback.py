"""Controlled feedback: composition, form and energy certificates, strokes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szilard import (
    DensityMatrix,
    FeedbackScheme,
    Observable,
    Operator,
    PureState,
    basis_state,
    build_oscillator_weight,
    build_shift_unitary,
    check_feedback_energy,
    check_feedback_form,
    commutator_norm,
    compose_feedback_unitary,
    conditional_feedback_map,
    dagger,
    objectification_order_gap,
    operator_norm,
    random_energy_conserving_unitary,
)
from szilard.feedback import _BLOCK_PATH, _plane_stroke
from szilard.qop import EPS_ALG, _ptrace_nd

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def basis_projectors(dim: int, labels=None):
    labels = labels or [str(i) for i in range(dim)]
    out = []
    for i in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[i, i] = 1.0
        out.append((labels[i], Operator(p)))
    return tuple(out)


def basis_records(dim: int, labels=None) -> Observable:
    """A record register of basis projectors, value ``i`` for the ``i``-th."""
    pairs = basis_projectors(dim, labels)
    return Observable(tuple((l, float(i), p) for i, (l, p) in enumerate(pairs)))


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ dagger(a)
    return DensityMatrix(m / np.trace(m))


# ---------------------------------------------------------------------------
# scheme construction and composition


class TestScheme:
    def test_nonunitary_branch_rejected(self):
        bad = Operator(np.diag([1.0, 0.5]).astype(complex))
        with pytest.raises(ValueError):
            FeedbackScheme(
                branch_unitaries=(("a", bad), ("b", Operator(np.eye(2, dtype=complex)))),
            )

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_composed_equals_kron_sum(self, seed):
        rng = np.random.default_rng(seed)
        us = [Operator(random_unitary(rng, 3)) for _ in range(2)]
        scheme = FeedbackScheme(
            branch_unitaries=(("0", us[0]), ("1", us[1])),
        )
        records = basis_records(2)
        v = compose_feedback_unitary(scheme, records)
        want = sum(
            np.kron(u.entries, records.projector_for(l).entries)
            for l, u in scheme.branch_unitaries
        )
        assert operator_norm(v.entries - want) < 1e-12
        assert v.is_unitary

    def test_composed_takes_its_controls_from_the_register(self):
        # a register rotated off the demon basis: each U_x is controlled by
        # that register's P_x, exactly sum_x U_x (x) P_x
        rng = np.random.default_rng(17)
        s = 1.0 / math.sqrt(2.0)
        plus = Operator(np.outer([s, s], [s, s]).astype(complex))
        minus = Operator(np.outer([s, -s], [s, -s]).astype(complex))
        records = Observable((("a", 1.0, plus), ("b", -1.0, minus)))
        us = [Operator(random_unitary(rng, 3)) for _ in range(2)]
        scheme = FeedbackScheme((("b", us[1]), ("a", us[0])))
        v = compose_feedback_unitary(scheme, records)
        want = np.kron(us[1].entries, minus.entries) + np.kron(
            us[0].entries, plus.entries
        )
        assert np.array_equal(v.entries, want)

    def test_labels_must_match_the_register(self):
        u = Operator(np.eye(2, dtype=complex))
        scheme = FeedbackScheme((("a", u), ("b", u)))
        records = basis_records(2, ["a", "c"])
        with pytest.raises(ValueError, match="record labels"):
            compose_feedback_unitary(scheme, records)
        zero = np.zeros((2, 2))
        with pytest.raises(ValueError, match="record labels"):
            check_feedback_energy(scheme, records, zero, np.zeros((1, 1)), zero)

    def test_duplicate_labels_rejected(self):
        u = Operator(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="duplicate"):
            FeedbackScheme((("a", u), ("a", u)))


class TestFormCheck:
    def test_controlled_unitary_passes(self):
        rng = np.random.default_rng(2)
        scheme = FeedbackScheme(
            branch_unitaries=(
                ("0", Operator(random_unitary(rng, 4))),
                ("1", Operator(random_unitary(rng, 4))),
            ),
        )
        v = compose_feedback_unitary(scheme, basis_records(2))
        rep = check_feedback_form(v, basis_projectors(2), branch_dim=4)
        assert rep.passed
        assert rep.block_residual <= EPS_ALG
        assert rep.probe_residual <= EPS_ALG

    def test_entangling_unitary_fails_both_routes(self):
        # swap between branch and demon is unitary but not controlled
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        rep = check_feedback_form(Operator(swap), basis_projectors(2), branch_dim=2)
        assert not rep.passed
        assert rep.block_residual > 0.1
        assert rep.probe_residual > 0.1

    def test_block_diagonal_but_not_controlled_fails(self):
        # a rank-2 pointer subspace hides within-subspace structure: the
        # commutator probe is blind to it, the reconstruction is not
        rng = np.random.default_rng(5)
        v = Operator(random_unitary(rng, 4))  # entangles branch and demon
        projs = (("all", Operator(np.eye(2, dtype=complex))),)
        rep = check_feedback_form(v, projs, branch_dim=2)
        assert rep.probe_residual <= EPS_ALG  # [v, 1] = 0 identically
        assert not rep.passed
        assert rep.block_residual > 0.1

    def test_rank2_projector_with_genuine_control_passes(self):
        rng = np.random.default_rng(7)
        u0 = random_unitary(rng, 2)
        u1 = random_unitary(rng, 2)
        p0 = np.zeros((3, 3), dtype=complex)
        p0[0, 0] = p0[1, 1] = 1.0
        p1 = np.zeros((3, 3), dtype=complex)
        p1[2, 2] = 1.0
        v = np.kron(u0, p0) + np.kron(u1, p1)
        rep = check_feedback_form(
            Operator(v), (("a", Operator(p0)), ("b", Operator(p1))), branch_dim=2
        )
        assert rep.passed
        assert rep.block_residual <= EPS_ALG

    @pytest.mark.parametrize("branch_dim", [8, 248])  # a scan draw, the window
    def test_block_path_is_the_optimized_one(self, branch_dim):
        # the fixed path reproduces what optimize=True plans, so the blocks
        # are contracted in the same order and come out bit for bit the same
        pe = np.zeros((2, 2), dtype=complex)
        t = np.zeros((branch_dim, 2, branch_dim, 2), dtype=complex)
        planned = np.einsum_path("ab,ibjc,ca->ij", pe, t, pe, optimize=True)[0]
        assert _BLOCK_PATH == planned


class TestEnergyCheck:
    def test_shift_strokes_conserve(self):
        weight = build_oscillator_weight(1.0, 8)
        post = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        u = build_shift_unitary(weight, post)
        h_w = weight.hamiltonian.entries
        h_s = np.diag([0.5, -0.5]).astype(complex)
        h_add = np.kron(h_w, np.eye(2)) + np.kron(np.eye(weight.dim), h_s)
        assert commutator_norm(u.entries, h_add) <= 1e-10

    def test_grouped_projectors_allow_noncommuting_pieces(self):
        # two outcomes share one stroke; individually their projectors do
        # not commute with a transverse memory Hamiltonian, the group sum
        # does, and that is all a shared stroke needs
        u = Operator(np.eye(3, dtype=complex))
        scheme = FeedbackScheme(
            branch_unitaries=(("0", u), ("1", u)),
        )
        h_d = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rep = check_feedback_energy(
            scheme, basis_records(2), np.zeros((3, 3)), np.zeros((1, 1)), h_d
        )
        assert rep.passed
        assert all(c <= EPS_ALG for _, c in rep.branch_commutators)
        (group,) = rep.pointer_group_commutators
        assert set(group[0]) == {"0", "1"}
        assert group[1] <= EPS_ALG

    def test_distinct_strokes_need_commuting_projectors(self):
        u0 = Operator(np.eye(3, dtype=complex))
        u1 = Operator(np.diag([1.0, 1.0, -1.0]).astype(complex))
        scheme = FeedbackScheme(
            branch_unitaries=(("0", u0), ("1", u1)),
        )
        h_d = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        rep = check_feedback_energy(
            scheme, basis_records(2), np.zeros((3, 3)), np.zeros((1, 1)), h_d
        )
        assert not rep.passed
        assert any(c > 0.5 for _, c in rep.pointer_group_commutators)

    @staticmethod
    def _stroke_groups(u1: np.ndarray) -> list[set]:
        """Outcome groups for a scheme whose strokes are 1 and ``u1``."""
        scheme = FeedbackScheme(
            branch_unitaries=(
                ("0", Operator(np.eye(4, dtype=complex))),
                ("1", Operator(u1)),
            ),
        )
        zero = np.zeros((2, 2))
        rep = check_feedback_energy(scheme, basis_records(2), zero, zero, zero)
        return [set(g) for g, _ in rep.pointer_group_commutators]

    def test_strokes_1e9_apart_are_not_grouped(self):
        u1 = np.diag(np.exp(1j * np.array([1e-9, 0.0, 0.0, 0.0])))
        assert operator_norm(u1 - np.eye(4)) > EPS_ALG
        assert self._stroke_groups(u1) == [{"0"}, {"1"}]

    @pytest.mark.parametrize("rank_one", [True, False])
    def test_grouping_takes_the_exact_norm_where_bounds_straddle(
        self, rank_one
    ):
        # column norms at or below EPS_ALG, Frobenius norm above it: the
        # rank-one difference has spectral norm 1.5e-10 (distinct strokes),
        # the diagonal one 0.9e-10 (one stroke)
        if rank_one:
            v = np.full(4, 0.5, dtype=complex)
            u1 = np.eye(4) + (np.exp(1.5e-10j) - 1.0) * np.outer(v, v.conj())
        else:
            u1 = np.diag(np.exp(np.full(4, 0.9e-10j)))
        d = u1 - np.eye(4)
        assert np.linalg.norm(d, axis=0).max() <= EPS_ALG < np.linalg.norm(d)
        same = operator_norm(d) <= EPS_ALG
        assert same is not rank_one
        want = [{"0", "1"}] if same else [{"0"}, {"1"}]
        assert self._stroke_groups(u1) == want

    def test_nonconserving_branch_flagged(self):
        # raising the weight without lowering anything else costs energy
        raise_w = np.zeros((3, 3), dtype=complex)
        raise_w[1, 0] = raise_w[2, 1] = raise_w[0, 2] = 1.0
        scheme = FeedbackScheme(
            branch_unitaries=(("0", Operator(raise_w)),),
        )
        h_w = np.diag([0.0, 1.0, 2.0]).astype(complex)
        rep = check_feedback_energy(
            scheme, basis_records(1), h_w, np.zeros((1, 1)), np.zeros((1, 1))
        )
        assert not rep.passed
        assert rep.branch_commutators[0][1] > 0.5


# ---------------------------------------------------------------------------
# conditional application and objectification order


class TestConditionalMap:
    def test_excitation_transfer(self):
        # push one quantum from the system onto the weight
        swap_plane = np.eye(4, dtype=complex)
        swap_plane[[1, 2], [1, 2]] = 0.0
        swap_plane[1, 2] = swap_plane[2, 1] = 1.0  # |0W,1S> <-> |1W,0S>
        scheme = FeedbackScheme(
            branch_unitaries=(("0", Operator(swap_plane)),),
        )
        w0 = DensityMatrix(np.diag([1.0, 0j]))
        s1 = DensityMatrix(np.diag([0j, 1.0]))
        out = conditional_feedback_map(scheme, "0", w0, s1)
        assert operator_norm(out.rho_weight.entries - np.diag([0.0, 1.0])) < 1e-12
        assert operator_norm(out.rho_system.entries - np.diag([1.0, 0.0])) < 1e-12

    def test_marginals_consistent_with_joint(self):
        rng = np.random.default_rng(13)
        scheme = FeedbackScheme(
            branch_unitaries=(("0", Operator(random_unitary(rng, 6))),),
        )
        w = random_density(rng, 2)
        s = random_density(rng, 3)
        out = conditional_feedback_map(scheme, "0", w, s)
        u = scheme.unitary_for("0").entries
        joint = u @ np.kron(w.entries, s.entries) @ dagger(u)
        assert operator_norm(
            out.rho_weight.entries - _ptrace_nd(joint, (2, 3), [0])
        ) < 1e-12
        assert operator_norm(
            out.rho_system.entries - _ptrace_nd(joint, (2, 3), [1])
        ) < 1e-12

    def test_missing_reservoir_state_rejected(self):
        scheme = FeedbackScheme(
            branch_unitaries=(("0", Operator(np.eye(8, dtype=complex))),),
        )
        w = DensityMatrix(np.eye(2, dtype=complex) / 2)
        s = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            conditional_feedback_map(scheme, "0", w, s)


class TestObjectificationOrder:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_controlled_feedback_order_independent(self, seed):
        rng = np.random.default_rng(seed)
        scheme = FeedbackScheme(
            branch_unitaries=(
                ("0", Operator(random_unitary(rng, 3))),
                ("1", Operator(random_unitary(rng, 3))),
            ),
        )
        v = compose_feedback_unitary(scheme, basis_records(2))
        rho = random_density(rng, 6)
        gap = objectification_order_gap(
            v, rho, basis_projectors(2), branch_dim=3
        )
        assert gap <= 1e-10

    def test_entangling_unitary_breaks_order(self):
        rng = np.random.default_rng(3)
        v = random_unitary(rng, 4)
        rho = random_density(rng, 4)
        gap = objectification_order_gap(
            v, rho, basis_projectors(2), branch_dim=2
        )
        assert gap > 1e-3

    def test_form_and_probe_biconditional(self):
        # composed schemes satisfy the form test and reproduce each branch
        # on product probes; the two certificates agree
        rng = np.random.default_rng(9)
        scheme = FeedbackScheme(
            branch_unitaries=(
                ("0", Operator(random_unitary(rng, 3))),
                ("1", Operator(random_unitary(rng, 3))),
            ),
        )
        v = compose_feedback_unitary(scheme, basis_records(2))
        assert check_feedback_form(v, basis_projectors(2), 3).passed
        for i, (label, u) in enumerate(scheme.branch_unitaries):
            for k in range(3):
                probe = np.kron(basis_state(3, k), basis_state(2, i))
                want = np.kron(u.entries @ basis_state(3, k), basis_state(2, i))
                assert np.linalg.norm(v.entries @ probe - want) < 1e-12


# ---------------------------------------------------------------------------
# ladder weight and work strokes


class TestOscillatorWeight:
    def test_single_level_window(self):
        w = build_oscillator_weight(1.0, 1)
        v = w.initial_state.amplitudes
        assert abs(v[2] - 1.0) < 1e-12
        assert np.linalg.norm(np.delete(v, 2)) < 1e-12

    def test_four_level_window_amplitudes(self):
        w = build_oscillator_weight(1.0, 4, dim=16)
        v = w.initial_state.amplitudes
        assert np.allclose(v[2:6], 0.5)
        assert np.linalg.norm(v[:2]) == 0.0 and np.linalg.norm(v[6:]) == 0.0

    def test_mean_energy_is_window_mean(self):
        w = build_oscillator_weight(1.0, 10)
        rho = w.initial_density().entries
        e = float(np.trace(w.hamiltonian.entries @ rho).real)
        assert abs(e - 6.5) < 1e-12  # mean of 2..11

    def test_headroom_enforced(self):
        with pytest.raises(ValueError):
            build_oscillator_weight(1.0, 5, dim=7)

    def test_hamiltonian_is_ladder(self):
        w = build_oscillator_weight(0.3, 2, dim=6)
        assert operator_norm(
            w.hamiltonian.entries - np.diag(0.3 * np.arange(6))
        ) < 1e-12


class TestShiftUnitary:
    def test_unitary_and_conserving(self):
        weight = build_oscillator_weight(0.7, 6)
        post = np.array([0.6, 0.8], dtype=complex)
        u = build_shift_unitary(weight, post)
        assert u.is_unitary
        h_add = np.kron(weight.hamiltonian.entries, np.eye(2)) + np.kron(
            np.eye(weight.dim), np.diag([0.35, -0.35])
        )
        assert commutator_norm(u.entries, h_add) <= 1e-10

    def test_post_state_lifts_weight_one_rung(self):
        n = 8
        weight = build_oscillator_weight(1.0, n)
        post = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        u = build_shift_unitary(weight, post)
        joint = np.kron(
            weight.initial_density().entries,
            np.outer(post, post.conj()),
        )
        out = u.entries @ joint @ dagger(u.entries)
        w_after = _ptrace_nd(out, (weight.dim, 2), [0])
        shifted = np.zeros(weight.dim, dtype=complex)
        shifted[3 : 3 + n] = 1.0 / math.sqrt(n)
        fid = float((shifted.conj() @ w_after @ shifted).real)
        assert fid >= 1.0 - 2.0 / n
        # the balanced post carries half a quantum of extractable energy;
        # the boundary sector eats 1/(2n) of it
        e0 = float(np.trace(weight.hamiltonian.entries @ weight.initial_density().entries).real)
        e1 = float(np.trace(weight.hamiltonian.entries @ w_after).real)
        assert abs((e1 - e0) - (0.5 - 0.5 / n)) < 1e-9

    def test_ground_post_acts_as_identity(self):
        weight = build_oscillator_weight(1.0, 4)
        u = build_shift_unitary(weight, np.array([0.0, 1.0], dtype=complex))
        assert operator_norm(u.entries - np.eye(2 * weight.dim)) < 1e-12

    def test_non_qubit_post_rejected(self):
        weight = build_oscillator_weight(1.0, 4)
        with pytest.raises(ValueError):
            build_shift_unitary(weight, np.array([1.0, 0.0, 0.0], dtype=complex))


class TestPlaneStroke:
    def test_block_sits_on_each_plane(self):
        block = np.array([[1.0, 2.0j], [3.0, 4.0]])
        u = _plane_stroke(6, [0, 3], [5, 1], block)
        want = np.eye(6, dtype=complex)
        for i, j in ((0, 5), (3, 1)):
            want[i, i], want[i, j] = block[0]
            want[j, i], want[j, j] = block[1]
        assert np.array_equal(u, want)


class TestRandomConservingUnitary:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_commutes_and_unitary(self, seed):
        rng = np.random.default_rng(seed)
        h = np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 2.0]).astype(complex)
        u = random_energy_conserving_unitary(h, rng)
        assert u.is_unitary
        assert commutator_norm(u.entries, h) <= 1e-9

    def test_mixes_inside_degenerate_sectors(self):
        rng = np.random.default_rng(12)
        h = np.diag([0.0, 1.0, 1.0]).astype(complex)
        u = random_energy_conserving_unitary(h, rng)
        # the two degenerate levels must actually talk to each other
        assert abs(u.entries[1, 2]) + abs(u.entries[2, 1]) > 1e-3
        assert abs(u.entries[0, 1]) + abs(u.entries[0, 2]) < 1e-10
