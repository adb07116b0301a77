"""Controlled feedback: composition, form and energy certificates, strokes."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szilard import (
    SCAN_FAMILIES,
    SCENARIO_NAMES,
    ConstructionError,
    DensityMatrix,
    FeedbackScheme,
    Observable,
    Operator,
    OscillatorWeight,
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
    scenario_library,
)
import _dense
from conftest import golden_document
from szilard.cli import parse_scenario
import szilard.feedback as feedback_mod
import szilard.qop as qop_mod
from szilard.feedback import _plane_stroke, _register_form
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

    @pytest.mark.parametrize("planes", [False, True])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_composed_is_the_kron_sum_bit_for_bit(self, rotated, planes):
        # adding U_x P_x[a, b] for each nonzero P_x[a, b] makes the same
        # products and sums as adding U_x (x) P_x, in the same order; a
        # stroke held as planes is added from its planes
        rng = np.random.default_rng(23)
        if rotated:
            s = 1.0 / math.sqrt(2.0)
            records = Observable((
                ("a", 1.0, Operator(np.outer([s, s], [s, s]))),
                ("b", -1.0, Operator(np.outer([s, -s], [s, -s]))),
            ))
        else:
            p0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
            records = Observable((
                ("a", 1.0, Operator(p0)), ("b", -1.0, Operator(np.eye(3) - p0)),
            ))
        scheme = FeedbackScheme(tuple(
            (l, _plane_stroke(5, [0, 3], [2, 1], random_unitary(rng, 2)) if planes
             else Operator(random_unitary(rng, 5)))
            for l in ("a", "b")
        ))
        got = compose_feedback_unitary(scheme, records).entries
        if planes:
            assert not any("entries" in vars(u) for _, u in scheme.branch_unitaries)
        want = np.zeros((5 * records.dim,) * 2, dtype=complex)
        for l, u in scheme.branch_unitaries:
            want += np.kron(u.entries, records.projector_for(l).entries)
        assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("branch_dim", [104, 120])
    @pytest.mark.parametrize("where", ["in a block", "off the blocks", "off control"])
    def test_non_finite_bare_array_fails(self, bad, branch_dim, where):
        # a bare array skips Operator's finite check; the form check either
        # reports failure or raises from the exact norm
        rng = np.random.default_rng(branch_dim)
        us = [np.eye(branch_dim, dtype=complex) for _ in range(2)]
        for u in us:  # 2x2 rotations on disjoint planes, as a stroke has
            for k in range(0, branch_dim - 1, 2):
                u[k : k + 2, k : k + 2] = random_unitary(rng, 2)
        scheme = FeedbackScheme((("0", Operator(us[0])), ("1", Operator(us[1]))))
        v = np.array(compose_feedback_unitary(scheme, basis_records(2)).entries)
        # V's index is 2 i + a for branch index i and demon index a
        i, j, a, c = {"in a block": (0, 1, 0, 0), "off the blocks": (0, 3, 1, 1),
                      "off control": (0, 0, 0, 1)}[where]
        v[2 * i + a, 2 * j + c] = bad
        try:
            with np.errstate(invalid="ignore"):
                report = check_feedback_form(v, basis_projectors(2), branch_dim)
        except np.linalg.LinAlgError:
            return
        assert report.passed is False


def _dense_form(scheme, records):
    """The form report of the dense route: compose V, then recover each U_x."""
    return check_feedback_form(
        compose_feedback_unitary(scheme, records),
        [(x, p) for x, _, p in records.outcomes],
        scheme.branch_dim,
    )


def _shipped_engines():
    for name in SCENARIO_NAMES:
        yield name, scenario_library(name)
    for n in (5, 20, 120):
        yield f"example_II N={n}", scenario_library("example_II", N=n)
    yield "reservoir dim_R=4", scenario_library(
        "reservoir_circumvention", dim_R=4
    )
    rng = np.random.default_rng(41)
    for thermal in (False, True):
        for family in sorted(SCAN_FAMILIES):
            for _ in range(3):
                yield family, SCAN_FAMILIES[family](rng, thermal)


class TestRegisterRoute:
    """Every register certifies the controlled form from its own residuals,
    without V; the dense route is the oracle it is compared against."""

    def test_every_shipped_engine_takes_it_and_agrees_bit_for_bit(self):
        # every shipped register has outcomes of rank 1, where the dense
        # route is exact: the two reports are equal, not merely close
        for label, config in _shipped_engines():
            register = _register_form(config.feedback, config.records)
            assert register is not None, label
            assert register == _dense_form(config.feedback, config.records), label
            assert config.certification.feedback_form == register, label

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_hand_built_register_agrees(self, rank):
        # outcome "a" holds `rank` scattered demon levels, "b" the others
        rng = np.random.default_rng(rank)
        dim = rank + 2
        owned = rng.permutation(dim)[:rank]
        d = np.zeros(dim)
        d[owned] = 1.0
        records = Observable((
            ("a", 1.0, Operator(np.diag(d))), ("b", 0.0, Operator(np.diag(1 - d))),
        ))
        scheme = FeedbackScheme(tuple(
            (l, Operator(random_unitary(rng, 6))) for l in ("a", "b")
        ))
        register = _register_form(scheme, records)
        dense = _dense_form(scheme, records)
        assert register.passed is dense.passed is True
        if rank in (1, 2, 4):  # sums of `rank` copies of U_x divide exactly
            assert register == dense
        else:
            assert dense.block_residual <= 1e-15
            assert dense.probe_residual <= 1e-15

    def test_other_registers_are_bounded_from_their_residuals(self):
        # |+>/|-> records differ from a projector pair by rounding only, and
        # a near-diagonal pair by 1e-13: each bound is at least the dense
        # residual there, and at rounding level both pass
        rng = np.random.default_rng(8)
        s = 1.0 / math.sqrt(2.0)
        rotated = Observable((
            ("a", 1.0, Operator(np.outer([s, s], [s, s]))),
            ("b", -1.0, Operator(np.outer([s, -s], [s, -s]))),
        ))
        near = Observable((
            ("a", 1.0, Operator(np.diag([1.0, 1e-13]))),
            ("b", -1.0, Operator(np.diag([0.0, 1.0 - 1e-13]))),
        ))
        scheme = FeedbackScheme(tuple(
            (l, Operator(random_unitary(rng, 3))) for l in ("a", "b")
        ))
        for records in (rotated, near):
            assert records._zero_one_diagonals is None
            register = _register_form(scheme, records)
            dense = _dense_form(scheme, records)
            assert register.passed is dense.passed is True
            assert register.block_residual <= EPS_ALG
            assert register.probe_residual <= EPS_ALG
        register, dense = _register_form(scheme, near), _dense_form(scheme, near)
        assert register.block_residual >= dense.block_residual > 1e-14
        (run,) = parse_scenario(golden_document("explicit_rotated_pointer"))
        config = run.config
        got = config.certification.feedback_form
        assert got == _register_form(config.feedback, config.records)
        want = _dense_form(config.feedback, config.records)
        assert got.passed is want.passed is True
        assert 0.0 < got.block_residual <= EPS_ALG


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

    @staticmethod
    def _kron_commutators(scheme, h_w, h_s, h_r=None) -> list[float]:
        """Each branch commutator with the additive H formed by ``np.kron``,
        the route the check takes for a non-diagonal factor."""
        entries = lambda h: np.asarray(getattr(h, "entries", h), dtype=complex)
        hw, hs = entries(h_w), entries(h_s)
        h = np.kron(hw, np.eye(hs.shape[0])) + np.kron(np.eye(hw.shape[0]), hs)
        if h_r is not None:
            hr = entries(h_r)
            h = np.kron(h, np.eye(hr.shape[0])) + np.kron(np.eye(h.shape[0]), hr)
        return [commutator_norm(u.entries, h) for _, u in scheme.branch_unitaries]

    def _assert_diagonal_route_is_exact(self, config):
        got = [c for _, c in config.certification.feedback_energy.branch_commutators]
        want = self._kron_commutators(
            config.feedback, config.weight.hamiltonian, config.h_s, config.h_r
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_library_commutators_equal_the_kron_route(self, name):
        # reservoir_circumvention at the benchmark's dim_R = 4 (joint dim
        # 544) instead of its default 16, to keep the test quick
        params = {"dim_R": 4} if name == "reservoir_circumvention" else {}
        self._assert_diagonal_route_is_exact(scenario_library(name, **params))

    @pytest.mark.parametrize("thermal", [False, True])
    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_scan_family_commutators_equal_the_kron_route(self, family, thermal):
        rng = np.random.default_rng(31)
        for _ in range(3):
            self._assert_diagonal_route_is_exact(SCAN_FAMILIES[family](rng, thermal))

    @pytest.mark.parametrize("reservoir", [False, True])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_non_commuting_strokes_read_the_same_either_way(
        self, diagonal, reservoir
    ):
        # nonzero commutators, so the exact norm is taken: the diagonal
        # route and the kron route still agree bit for bit, and a
        # non-diagonal factor takes the kron route
        rng = np.random.default_rng(41)
        h_w = np.diag([0.0, 1.0, 2.0]).astype(complex)
        h_s = np.diag([0.5, -0.5]) if diagonal else np.array([[0.0, 1.0], [1.0, 0.0]])
        h_r = np.diag([0.0, 0.25]) if reservoir else None
        n = 12 if reservoir else 6
        scheme = FeedbackScheme(tuple(
            (l, Operator(random_unitary(rng, n))) for l in ("0", "1")
        ))
        rep = check_feedback_energy(
            scheme, basis_records(2), h_w, h_s, np.zeros((2, 2)), h_r
        )
        got = [c for _, c in rep.branch_commutators]
        assert min(got) > 0.1
        assert np.array_equal(got, self._kron_commutators(scheme, h_w, h_s, h_r))

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
        rho = w.initial.entries
        e = float(np.trace(w.hamiltonian.entries @ rho).real)
        assert abs(e - 6.5) < 1e-12  # mean of 2..11

    def test_headroom_enforced(self):
        with pytest.raises(ValueError):
            build_oscillator_weight(1.0, 5, dim=7)

    @pytest.mark.parametrize(
        "omega",
        [math.nan, math.inf, -math.inf, 0.0, -1.0, 10**400,
         True, "1", 1j, complex(1.0, 0.0), None],
    )
    def test_omega_must_be_finite_and_positive(self, omega):
        # refused at construction, naming the field, before any ladder is
        # built: an infinite omega once warned from the multiply first, True
        # was read as omega = 1 and "1" failed with a bare TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega must be finite and positive"):
                build_oscillator_weight(omega, 3)

    @pytest.mark.parametrize(
        "levels, dim, field",
        [(2.7, 10, "levels"), (True, 10, "levels"), ("3", 10, "levels"),
         (3, 7.5, "dim"), (3, False, "dim")],
    )
    def test_levels_and_dim_must_be_integers(self, levels, dim, field):
        # refused at construction, naming the field: int() once truncated
        # a 2.7-level window to 2, and a float count reached a slice later
        with pytest.raises(ValueError, match=f"field '{field}'"):
            OscillatorWeight(1.0, levels, dim)
        with pytest.raises(ValueError, match=f"field '{field}'"):
            build_oscillator_weight(1.0, levels, dim=dim)

    def test_build_does_not_truncate(self):
        with pytest.raises(ValueError, match="field 'levels'.*2.7"):
            build_oscillator_weight(1.0, 2.7)

    @pytest.mark.parametrize("levels, dim", [(3, 7), (np.int64(3), np.int64(7)),
                                             (3.0, 7.0)])
    def test_integral_counts_are_kept_as_ints(self, levels, dim):
        w = OscillatorWeight(1.0, levels, dim)
        assert (w.levels, w.dim) == (3, 7)
        assert type(w.levels) is int and type(w.dim) is int
        assert np.allclose(w.initial_state.amplitudes[2:5], 1.0 / math.sqrt(3.0))

    def test_hamiltonian_is_ladder(self):
        w = build_oscillator_weight(0.3, 2, dim=6)
        assert operator_norm(
            w.hamiltonian.entries - np.diag(0.3 * np.arange(6))
        ) < 1e-12

    def test_hamiltonian_is_built_in_place(self):
        # the ladder at N = 1000 (1004 levels) is one 15.4 MiB complex array;
        # a float diagonal matrix and its complex copy left a 9.61 MiB
        # transient, writing the diagonal in place leaves less than 1 MiB
        w = build_oscillator_weight(0.3, 1000)
        tracemalloc.start()
        try:
            h = w.hamiltonian.entries
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < w.dim**2 * 16 / 16, peak - held
        want = np.array(np.diag(0.3 * np.arange(w.dim, dtype=float)), dtype=complex)
        assert np.array_equal(h.view(float), want.view(float))
        assert not h.flags.writeable

    def test_facts_are_built_once(self):
        # the engine reads the Hamiltonian and the initial state on every
        # build and cycle; the weight builds each on first use and keeps it
        w = build_oscillator_weight(0.3, 2, dim=6)
        assert w.hamiltonian is w.hamiltonian
        assert w.initial is w.initial
        assert w.scale == 0.3


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
            weight.initial.entries,
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
        e0 = float(np.trace(weight.hamiltonian.entries @ weight.initial.entries).real)
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
        assert np.array_equal(u.entries, want)

    def test_entries_are_formed_on_first_read_and_kept(self):
        u = _plane_stroke(6, [0, 3], [5, 1], SWAP)
        assert u.dim == 6 and "entries" not in vars(u)
        e = u.entries
        assert u.entries is e and not e.flags.writeable


def _random_block(rng, kind):
    block = random_unitary(rng, 2)
    if kind == "near_unitary":
        return block + 1e-6 * rng.normal(size=(2, 2))
    if kind == "arbitrary":
        return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return block


class TestPlaneApplication:
    """``Operator._apply`` on a stroke built from planes against the dense
    product with the element-wise loop's matrix (``tests/_dense.py``)."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize(
        "kind", ["unitary", "near_unitary", "arbitrary", "no_plane"]
    )
    def test_agrees_with_the_dense_product(self, kind, width, real):
        rng = np.random.default_rng([width, len(kind), real])
        eps = np.finfo(float).eps
        for _ in range(20):
            dim = int(rng.integers(2, 60))
            k = 0 if kind == "no_plane" else int(rng.integers(1, dim // 2 + 1))
            idx = rng.permutation(dim)[: 2 * k]
            block = _random_block(rng, kind)
            u = _plane_stroke(dim, idx[:k], idx[k:], block)
            x = rng.normal(size=(dim, width))
            if not real:
                x = x + 1j * rng.normal(size=(dim, width))
            before = x.copy()
            got = u._apply(x)
            dense = _dense.plane_stroke(dim, idx[:k], idx[k:], block)
            want = dense @ x
            assert np.array_equal(x, before) and not np.shares_memory(got, x)
            assert got.dtype == want.dtype and got.shape == want.shape
            # each entry sums at most two products: a few ulps of their size
            assert np.all(np.abs(got - want) <= 8 * eps * (np.abs(dense) @ np.abs(x)))
            off = np.setdiff1d(np.arange(dim), idx)
            assert np.array_equal(got[off], x[off])
            assert "entries" not in vars(u)

    def test_wrong_operand_is_refused(self):
        u = _plane_stroke(4, [0], [3], SWAP)
        with pytest.raises(ValueError, match="stroke dim 4"):
            u._apply(np.ones((8, 1)))


SWAP = [[0.0, 1.0], [1.0, 0.0]]


def _dense_scheme(scheme):
    """``scheme`` with each stroke copied into an ``Operator`` that carries
    no planes, so every certificate of it takes the dense route."""
    return FeedbackScheme(tuple(
        (l, Operator(u.entries)) for l, u in scheme.branch_unitaries
    ))


def _branch_law(config):
    hs = (config.weight.hamiltonian, config.h_s)
    return qop_mod._additive_hamiltonian(
        *(hs if config.h_r is None else hs + (config.h_r,))
    )


def _energy_report(scheme, config):
    return check_feedback_energy(
        scheme, config.records, config.weight.hamiltonian, config.h_s,
        config._h_d, config.h_r,
    )


def _assert_residual_bounds_dense(u, law):
    """The plane residual is 0.0 exactly where the dense one is, agrees with
    it to 1e-12, and is not below the dense spectral norm by more than the
    rounding of the SVD that computes that norm."""
    got = qop_mod._conservation_residual(u, law)
    dense = qop_mod._diagonal_commutator_norm(u.entries, law)
    if dense == 0.0:
        assert got == 0.0
        return
    spectral = float(np.linalg.norm(u.entries * (law[None, :] - law[:, None]), 2))
    assert got >= spectral - 4 * np.spacing(spectral), (got, spectral)
    assert got == pytest.approx(dense, rel=1e-12)


def _assert_same_report(got, want):
    """Equal verdicts and groups; residuals equal up to the rounding of a
    near-zero Frobenius norm summed in another order."""
    assert got.passed is want.passed
    assert got.pointer_group_commutators == want.pointer_group_commutators
    assert [l for l, _ in got.branch_commutators] == [
        l for l, _ in want.branch_commutators
    ]
    for (_, c), (_, d) in zip(got.branch_commutators, want.branch_commutators):
        assert c == pytest.approx(d, rel=1e-12)


def _shipped_configs():
    yield from _shipped_engines()
    for name in ("explicit", "explicit_swap", "explicit_rotated_pointer"):
        for run in parse_scenario(golden_document(name)):
            yield name, run.config


class TestPlaneCertificates:
    """Strokes built from planes are certified on their 2x2 blocks; the
    dense route, on a plain copy of the same entries, is the oracle."""

    def test_every_shipped_stroke_agrees_with_the_dense_route(self):
        for label, config in _shipped_configs():
            law = _branch_law(config)
            assert law.ndim == 1, label
            for _, u in config.feedback.branch_unitaries:
                assert u._planes is not None, label
                assert u.is_unitary == qop_mod._is_unitary(u.entries), label
                _assert_residual_bounds_dense(u, law)
            got = _energy_report(config.feedback, config)
            want = _energy_report(_dense_scheme(config.feedback), config)
            _assert_same_report(got, want)
            assert config.certification.feedback_energy == got, label

    def test_random_planes_agree_with_the_dense_route(self):
        # planes drawn across sectors or inside them, blocks unitary, near
        # unitary or not, on a ladder times a qubit
        rng = np.random.default_rng(2024)
        law = (np.arange(9.0)[:, None] + np.array([0.5, -0.5])[None, :]).ravel()
        for _ in range(300):
            k = int(rng.integers(0, 10))
            idx = rng.permutation(law.size)[: 2 * k]
            block = random_unitary(rng, 2)
            kind = rng.integers(3)
            if kind == 1:
                block = block + 1e-6 * rng.normal(size=(2, 2))
            elif kind == 2:
                block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u = _plane_stroke(law.size, idx[:k], idx[k:], block)
            want = _dense.plane_stroke(law.size, idx[:k], idx[k:], block)
            assert np.array_equal(u.entries, want)
            assert u.is_unitary == qop_mod._is_unitary(u.entries)
            _assert_residual_bounds_dense(u, law)

    def test_no_plane_is_the_identity(self):
        none = np.arange(0)
        u = _plane_stroke(4, none, none, [[2.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(u.entries, np.eye(4))
        assert u.is_unitary and qop_mod._is_unitary(u.entries)
        assert qop_mod._conservation_residual(u, np.arange(4.0)) == 0.0

    def test_non_unitary_block_is_refused_by_the_scheme(self):
        u = _plane_stroke(8, [1, 2], [6, 5], [[1.0, 0.0], [0.0, 0.5]])
        assert not u.is_unitary and not qop_mod._is_unitary(u.entries)
        with pytest.raises(ValueError, match="branch operator for '0' is not unitary"):
            FeedbackScheme((("0", u),))

    def test_plane_across_sectors_refuses_the_engine(self):
        # |2m, e0> <-> |2m+1, e0> moves one rung of weight energy, which
        # the qubit does not pay back
        config = scenario_library("example_I")
        m = np.arange(config.weight.dim // 2)
        stroke = _plane_stroke(2 * config.weight.dim, 4 * m, 4 * m + 2, SWAP)
        assert stroke._planes is not None  # the route under test
        scheme = FeedbackScheme(tuple(
            (l, stroke) for l in config.feedback.labels
        ))
        got = _energy_report(scheme, config)
        _assert_same_report(got, _energy_report(_dense_scheme(scheme), config))
        assert not got.passed
        for _, c in got.branch_commutators:
            assert c == config.weight.omega
        with pytest.raises(
            ConstructionError, match="^feedback violates energy conservation$"
        ):
            dataclasses.replace(config, feedback=scheme)

    def test_strokes_on_other_planes_take_the_dense_grouping(self, monkeypatch):
        shapes = []
        real = feedback_mod._within_eps

        def spy(d):
            shapes.append(d.shape)
            return real(d)

        monkeypatch.setattr(feedback_mod, "_within_eps", spy)
        near = np.array(SWAP) + 1e-13
        # a phase 0.6e-10 off 1 on each of six columns: the largest column
        # norm is within EPS_ALG and the Frobenius norm (1.5e-10) is not
        phased = np.eye(2) * np.exp(0.6e-10j)
        strokes = (
            ("a", _plane_stroke(6, [0], [5], SWAP)),
            ("b", _plane_stroke(6, [5], [0], SWAP)),  # a's matrix, other planes
            ("c", _plane_stroke(6, [0], [5], near)),  # a's planes
            ("d", _plane_stroke(6, [1], [4], SWAP)),  # another stroke
            ("e", _plane_stroke(6, [0, 1, 2], [3, 4, 5], phased)),
            ("f", _plane_stroke(6, [3, 4, 5], [0, 1, 2], np.eye(2))),  # 1
        )
        scheme = FeedbackScheme(strokes)
        labels = ["a", "b", "c", "d", "e", "f"]
        records = basis_records(6, labels)
        args = (
            records, np.diag([0.0, 1.0, 2.0]), np.diag([0.5, -0.5]), np.zeros((6, 6))
        )
        got = check_feedback_energy(scheme, *args)
        # b is a's matrix, settled by the Frobenius norm of the aligned
        # columns; c takes the 2x2 difference; d and e are told apart by
        # their column bound; only f against e needs the dense difference
        assert shapes == [(2, 2), (6, 6)]
        want = check_feedback_energy(_dense_scheme(scheme), *args)
        groups = [g for g, _ in got.pointer_group_commutators]
        assert groups == [g for g, _ in want.pointer_group_commutators]
        assert groups == [("a", "b", "c"), ("d",), ("e", "f")]

    def test_grouping_agrees_with_the_dense_difference(self):
        # pairs on other planes: a's matrix with each plane listed the other
        # way round and the planes reordered, then moved by a difference
        # that straddles EPS_ALG in one entry or in the whole block (whose
        # columns stay within EPS_ALG while its norm does not); unrelated
        # planes and blocks; strokes near the identity; and a block
        # diag(1, p), which acts on the j side alone, so that other i
        # partners give the same matrix
        rng = np.random.default_rng(1805)
        deltas = [0.0, 0.5e-10, 2e-10, -2e-10]
        seen = set()
        for trial in range(750):
            dim = int(rng.integers(2, 24))
            k = int(rng.integers(0, dim // 2 + 1))
            idx = rng.permutation(dim)[: 2 * k]
            i, j = idx[:k], idx[k:]
            case = trial % 5
            block = _random_block(rng, "unitary")
            if case == 0:
                d = np.zeros((2, 2), dtype=complex)
                d[tuple(rng.integers(2, size=2))] = deltas[trial // 5 % 4]
                other = (j[::-1], i[::-1], block[::-1, ::-1] + d)
            elif case == 1:
                d = np.full((2, 2), 0.6e-10 * (trial // 5 % 2))
                other = (j[::-1], i[::-1], block[::-1, ::-1] + d)
            elif case == 2:
                o = rng.permutation(dim)[: 2 * k]
                other = (o[:k], o[k:], _random_block(rng, "unitary"))
            elif case == 3:
                block = np.eye(2) + 1e-11 * rng.normal(size=(2, 2))
                o = rng.permutation(dim)[: 2 * k]
                other = (o[:k], o[k:], block)
            else:
                block = np.diag([1.0, np.exp(1j * rng.uniform(0.1, 6.0))])
                free = rng.permutation(np.setdiff1d(np.arange(dim), j))
                other = (free[:k], j, block)
            u = _plane_stroke(dim, i, j, block)
            g = _plane_stroke(dim, *other)
            want = feedback_mod._within_eps(
                _dense.plane_stroke(dim, i, j, block) - _dense.plane_stroke(dim, *other)
            )
            assert feedback_mod._same_stroke(u, g) is want, (trial, dim, k)
            seen.add((case, want))
        assert seen >= {(0, True), (0, False), (1, True), (1, False), (2, False),
                        (3, True), (4, True)}, seen

    @pytest.mark.parametrize("dw", [2, 4])
    def test_law_must_match_the_strokes(self, dw):
        # a plane stroke reads the law only at its plane indices, so a law
        # of the wrong length would otherwise pass unnoticed
        scheme = FeedbackScheme((("a", _plane_stroke(6, [0], [5], SWAP)),))
        with pytest.raises(ValueError, match="!= branch dimension 6"):
            check_feedback_energy(
                scheme, basis_records(1, ["a"]), np.diag(np.arange(dw, dtype=float)),
                np.diag([0.5, -0.5]), np.zeros((1, 1)),
            )

    @pytest.mark.parametrize(
        "i, j, block",
        [
            ([0, 1], [1, 2], SWAP),  # planes share index 1
            ([0], [0], SWAP),  # a plane on one index
            ([0], [4], SWAP),  # beyond the dimension
            ([-1], [2], SWAP),  # negative
            ([0, 1], [2], SWAP),  # unequal lengths
            ([0.0], [2.0], SWAP),  # not integers
            ([0], [2], [[1.0, 0.0, 0.0]]),  # not 2x2
            ([0], [2], [[np.nan, 0.0], [0.0, 1.0]]),  # not finite
        ],
    )
    def test_unsound_planes_are_refused(self, i, j, block):
        with pytest.raises(ValueError):
            _plane_stroke(4, i, j, block)


class TestComposedV:
    def test_rotated_register_is_built_in_place(self):
        rng = np.random.default_rng(5)
        s = 1.0 / math.sqrt(2.0)
        records = Observable((
            ("a", 1.0, Operator(np.outer([s, s], [s, s]))),
            ("b", -1.0, Operator(np.outer([s, -s], [s, -s]))),
        ))
        scheme = FeedbackScheme(tuple(
            (l, Operator(random_unitary(rng, 128))) for l in ("a", "b")
        ))
        v = compose_feedback_unitary(scheme, records)
        assert not v.entries.flags.writeable
        # the additions of one U_x P_x[a, b] at a time, in the same order
        want = np.zeros((256, 256), dtype=complex)
        t = want.reshape(128, 2, 128, 2)
        for label, u in scheme.branch_unitaries:
            p = records.projector_for(label).entries
            for a, b in zip(*np.nonzero(p)):
                t[:, a, :, b] += u.entries * p[a, b]
        assert np.array_equal(v.entries, want)


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
