"""Premeasurement models, objectification, certificates, instruments."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szilard import (
    ConstructionError,
    DensityMatrix,
    HardAssertionError,
    Observable,
    Operator,
    PureState,
    Transition,
    apply_instrument,
    basis_state,
    build_degenerate_instrument,
    build_transition_model,
    check_energy_conserving_measurement,
    check_repeatable,
    commutator_norm,
    complete_unitary,
    dagger,
    instrument_from_model,
    operator_norm,
    premeasure_and_objectify,
    way_witness,
)
from szilard.measurement import MeasurementModel
import szilard.qop as qop_mod
from szilard.qop import EPS_ALG, EPS_SECTOR, _ptrace_nd
import _dense

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def qubit_observable(vectors, labels=("0", "1")) -> Observable:
    rows = []
    for i, v in enumerate(vectors):
        rows.append((labels[i], float(i), Operator(np.outer(v, v.conj()))))
    return Observable(tuple(rows))


def basis_observable(dim: int) -> Observable:
    rows = []
    for i in range(dim):
        p = np.zeros((dim, dim), dtype=complex)
        p[i, i] = 1.0
        rows.append((str(i), float(i), Operator(p)))
    return Observable(tuple(rows))


ZERO2 = np.zeros((2, 2), dtype=complex)


def record_write_model(posts, h=(ZERO2, ZERO2), demon_initial=None):
    """Two-outcome qubit model: target = computational basis, the demon
    copies the outcome index, the system is released into ``posts``; zero
    Hamiltonians by default leave the completion unconstrained."""
    target = basis_observable(2)
    pointer = basis_observable(2)
    psi = PureState(demon_initial if demon_initial is not None else basis_state(2, 0))
    transitions = [
        Transition(
            str(s),
            PureState(basis_state(2, s)),
            PureState(np.asarray(posts[s], dtype=complex)),
            PureState(basis_state(2, s)),
        )
        for s in (0, 1)
    ]
    return build_transition_model(target, pointer, psi, transitions, hamiltonians=h)


def random_qubit_basis(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q[:, 0], q[:, 1]


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ dagger(a)
    return DensityMatrix(m / np.trace(m))


# ---------------------------------------------------------------------------
# observables


class TestObservable:
    def test_duplicate_labels_rejected(self):
        p0 = Operator(np.diag([1.0, 0j]))
        p1 = Operator(np.diag([0j, 1.0]))
        with pytest.raises(ValueError):
            Observable((("a", 0.0, p0), ("a", 1.0, p1)))

    def test_incomplete_family_rejected(self):
        p0 = Operator(np.diag([1.0, 0j]))
        with pytest.raises(ValueError):
            Observable((("a", 0.0, p0),))

    def test_non_orthogonal_family_rejected(self):
        v = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        p0 = Operator(np.diag([1.0, 0j]))
        pv = Operator(np.outer(v, v.conj()))
        with pytest.raises(ValueError):
            Observable((("a", 0.0, p0), ("b", 1.0, pv)))

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, True, "1", 1j, None, 10**400]
    )
    def test_outcome_value_must_be_a_finite_number(self, value):
        # refused at construction, naming the outcome: NaN and inf were
        # accepted, and operator() then warned and returned a NaN matrix;
        # True was read as 1.0 and None failed with a bare TypeError
        p0, p1 = Operator(np.diag([1.0, 0j])), Operator(np.diag([0j, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outcome 'b': expected a"):
                Observable((("a", 0.0, p0), ("b", value, p1)))
        obs = Observable((("a", np.float64(0.5), p0), ("b", 2, p1)))
        assert [type(v) for _, v, _ in obs.outcomes] == [float, float]
        assert obs.outcomes[1][1] == 2.0

    def test_operator_reconstruction_and_degeneracy(self):
        obs = basis_observable(3)
        assert obs.is_nondegenerate
        m = obs.operator()
        assert operator_norm(np.asarray(m) - np.diag([0.0, 1.0, 2.0])) < 1e-12
        deg = Observable(
            (
                ("lo", 0.0, Operator(np.diag([1.0, 1.0, 0j]))),
                ("hi", 1.0, Operator(np.diag([0j, 0j, 1.0]))),
            )
        )
        assert not deg.is_nondegenerate


@st.composite
def diagonal_families(draw):
    """Diagonal projector families on 1-6 levels, each level owned by one
    of 1-4 outcomes, with up to three entries nudged: by rounding-sized
    real or imaginary amounts that keep the family valid, or by amounts
    that break idempotence, Hermiticity, orthogonality or completeness.  An
    outcome that owns no level has a zero projector."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    d = np.zeros((k, n), dtype=complex)
    d[owner, np.arange(n)] = 1.0
    nudges = st.sampled_from([1e-13, 1e-13j, 1e-6, 1e-6j, 0.5, 1.0, -1.0])
    for a, i, delta in draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, n - 1), nudges),
        max_size=3,
    )):
        d[a, i] += delta
    return [(f"x{a}", np.diag(d[a])) for a in range(k)]


def _observable_fault(family) -> str | None:
    """The fault ``Observable`` reports for ``family``, in the oracle's
    terms, or ``None`` when it builds."""
    try:
        Observable(tuple(
            (label, float(i), Operator(p)) for i, (label, p) in enumerate(family)
        ))
    except ValueError as exc:
        msg = str(exc)
        if msg.endswith("not a projector"):
            return "projector " + msg.split("'")[1]
        if msg.endswith("not orthogonal"):
            return "orthogonal " + " ".join(msg.split("'")[1:4:2])
        if msg.endswith("projector is zero"):
            return "zero " + msg.split("'")[1]
        assert msg == "projectors do not sum to the identity"
        return "identity"
    return None


class TestDiagonalObservable:
    """Diagonal projector families are judged on their diagonals; the
    verdict is the dense one."""

    @given(diagonal_families())
    @settings(max_examples=300, deadline=None)
    def test_verdict_matches_the_dense_oracle(self, family):
        assert _observable_fault(family) == _dense.observable_fault(family)

    def test_families_of_every_verdict_are_drawn(self):
        # the oracle separates the four verdicts on these hand-made cases
        one, zero = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        cases = {
            None: [("a", one), ("b", zero)],
            "projector a": [("a", np.diag([0.5, 0.0])), ("b", zero)],
            "orthogonal a b": [("a", np.eye(2)), ("b", zero)],
            "identity": [("a", one), ("b", np.zeros((2, 2)))],
            "zero b": [("a", np.eye(2)), ("b", np.zeros((2, 2)))],
        }
        for fault, family in cases.items():
            assert _dense.observable_fault(family) == fault
            assert _observable_fault(family) == fault


# ---------------------------------------------------------------------------
# model construction


def _completion_outcome(route, pairs, dim, h):
    """A completion's unitary, or the type of the error it raised."""
    try:
        return route(pairs, dim, h)
    except (ValueError, ConstructionError, HardAssertionError) as exc:
        return type(exc)


def _assert_same_completion(pairs, dim, h):
    got = _completion_outcome(complete_unitary, pairs, dim, h)
    want = _completion_outcome(_dense.complete_unitary, pairs, dim, h)
    if isinstance(want, type):
        assert got is want
    else:
        assert not isinstance(got, type), got
        assert np.array_equal(got, want)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def diagonal_completions(draw):
    """A diagonal Hamiltonian on 2-6 levels drawn from four energies, so
    degeneracies are exact, with each level nudged by 0 or by amounts below
    ``EPS_SECTOR`` (near degeneracies), and 1-3 pairs: in vectors with
    random support, and out vectors their image under a random unitary
    inside each exact level group, or (to exercise refusals) random."""
    dim = draw(st.integers(2, 6))
    levels = np.array(draw(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    ))
    scale = draw(st.floats(0.25, 4.0))
    nudge = draw(st.lists(
        st.sampled_from([0.0, 1e-14, 1e-12, 0.3 * EPS_SECTOR]),
        min_size=dim, max_size=dim,
    ))
    rng = np.random.default_rng(draw(seeds))
    k = draw(st.integers(1, 3))
    x = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    x = x * (rng.random(size=(dim, 1)) < 0.7)
    w = np.zeros((dim, dim), dtype=complex)
    for level in set(levels.tolist()):
        group = np.flatnonzero(levels == level)
        w[np.ix_(group, group)] = _random_unitary(rng, group.size)
    y = w @ x if draw(st.booleans()) else rng.normal(size=(dim, k)) + 0j
    h = np.diag(levels * scale + np.array(nudge)).astype(complex)
    return [(x[:, j], y[:, j]) for j in range(k)], dim, h


class TestCompletionRoutes:
    """``complete_unitary`` reads a diagonal Hamiltonian's sectors from its
    diagonal; the result is bit-identical to the ``eigh`` route kept in
    ``_dense``, refusals included."""

    @given(diagonal_completions())
    @settings(max_examples=300, deadline=None)
    def test_diagonal_route_matches_the_eigh_oracle(self, case):
        _assert_same_completion(*case)

    @given(diagonal_completions())
    @settings(max_examples=100, deadline=None)
    def test_rotated_hamiltonian_matches_the_eigh_oracle(self, case):
        pairs, dim, h = case
        v = _random_unitary(np.random.default_rng(dim), dim)
        h = v @ h @ dagger(v)
        h = (h + dagger(h)) / 2.0
        pairs = [(v @ a, v @ b) for a, b in pairs]
        _assert_same_completion(pairs, dim, h)

    def test_tied_levels_keep_the_eigh_order(self):
        # eigh's sort reorders the tied levels of diag(1, 0, 1, 0), where a
        # stable sort would not; the completion inside each sector of two
        # depends on that order
        rng = np.random.default_rng(2)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
        w = np.zeros((4, 4), dtype=complex)
        w[np.ix_([0, 2], [0, 2])] = _random_unitary(rng, 2)
        w[np.ix_([1, 3], [1, 3])] = _random_unitary(rng, 2)
        _assert_same_completion([(x, w @ x)], 4, h)

    def test_scan_structures_match_the_eigh_oracle(self):
        # the additive Hamiltonians of the record-write engines, completed
        # for their eigenstate, superposed and excited posts
        rng = np.random.default_rng(16)
        for _ in range(100):
            omega = float(rng.uniform(0.5, 2.0))
            h_s = np.diag([omega / 2, -omega / 2])
            for h_d in (np.zeros(2), [omega / 2, -omega / 2], [0.0, -omega]):
                h = np.kron(h_s, np.eye(2)) + np.kron(np.eye(2), np.diag(h_d))
                c = math.sqrt(float(rng.uniform(0.05, 0.95)))
                post = np.array([c, math.sqrt(1.0 - c * c)])
                for posts in (np.eye(2), [post, post * [1, -1]], [[1, 0], [1, 0]]):
                    pairs = [
                        (np.kron(basis_state(2, s), posts[0]),
                         np.kron(posts[s], basis_state(2, s)))
                        for s in (0, 1)
                    ]
                    _assert_same_completion(pairs, 4, h.astype(complex))



class TestBuildModels:
    def test_transition_model_rejects_cross_sector_table(self):
        # writing the record costs demon energy: no conserving completion
        h = (np.diag([0.0, 1.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ConstructionError):
            record_write_model(
                posts=[basis_state(2, 0), basis_state(2, 1)], h=h
            )

    def test_complete_unitary_extends_isometry(self):
        pairs = [(basis_state(4, 0), basis_state(4, 2))]
        u = complete_unitary(pairs, 4, np.zeros((4, 4), dtype=complex))
        assert operator_norm(u @ dagger(u) - np.eye(4)) < EPS_ALG
        assert abs(np.vdot(basis_state(4, 2), u @ basis_state(4, 0))) > 1 - 1e-12

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_complete_unitary_rejects_non_hermitian_hamiltonian(self, entry):
        # eigh reads one triangle, so this H used to reach a hard assertion
        h = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        h[entry] += 0.01j
        pairs = [(basis_state(4, 0), basis_state(4, 1))]
        with pytest.raises(ValueError, match="Hermitian"):
            complete_unitary(pairs, 4, h)

    def test_complete_unitary_respects_hamiltonian_blocks(self):
        h = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        pairs = [(basis_state(4, 0), basis_state(4, 1))]
        u = complete_unitary(pairs, 4, h)
        assert operator_norm(u @ h - h @ u) < 1e-9

    def test_model_rejects_nonunitary_premeasurement(self):
        with pytest.raises(ValueError):
            MeasurementModel(
                demon_initial=PureState(basis_state(2, 0)),
                premeasurement=Operator(np.ones((4, 4), dtype=complex)),
                pointer=basis_observable(2),
                target=basis_observable(2),
                transitions=(),
            )


# ---------------------------------------------------------------------------
# objectification


class TestObjectification:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_born_probabilities(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 2)
        model = record_write_model(posts=[basis_state(2, 0), basis_state(2, 1)])
        _, gem = premeasure_and_objectify(model, rho)
        for label, _, proj in model.target.outcomes:
            p_born = float(np.trace(proj.entries @ rho.entries).real)
            got = next(b.probability for b in gem.branches if b.outcome == label)
            assert abs(got - p_born) < 1e-9

    def test_branch_states_are_post_projections(self):
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
        model = record_write_model(posts=[plus, minus])
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        _, gem = premeasure_and_objectify(model, rho)
        for b in gem.branches:
            sys = _ptrace_nd(b.state.entries, (2, 2), keep=(0,))
            post = plus if b.outcome == "0" else minus
            assert operator_norm(sys - np.outer(post, post.conj())) < 1e-9

    def test_objectified_joint_equals_pinched_premeasured(self):
        rng = np.random.default_rng(8)
        rho = random_density(rng, 2)
        model = record_write_model(posts=[basis_state(2, 1), basis_state(2, 0)])
        pre, gem = premeasure_and_objectify(model, rho)
        pinched = np.zeros_like(pre.entries)
        for label, _, proj in model.pointer.outcomes:
            big = np.kron(np.eye(2), proj.entries)
            pinched += big @ pre.entries @ big
        mix = sum(
            b.probability * b.state.entries for b in gem.branches if b.state
        )
        assert operator_norm(pinched - mix) < 1e-9

    def test_unselective_map_is_unital(self):
        model = record_write_model(posts=[basis_state(2, 0), basis_state(2, 1)])
        u = model.premeasurement.entries
        mixed = np.eye(4, dtype=complex) / 4.0
        out = np.zeros_like(mixed)
        for _, _, proj in model.pointer.outcomes:
            big = np.kron(np.eye(2), proj.entries)
            out += big @ (u @ mixed @ dagger(u)) @ big
        assert operator_norm(out - mixed) < 1e-9

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(21)
        model = record_write_model(
            posts=[
                np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
                np.array([1.0, -1.0], dtype=complex) / math.sqrt(2),
            ]
        )
        for _ in range(20):
            rho = random_density(rng, 2)
            _, gem = premeasure_and_objectify(model, rho)
            assert abs(sum(b.probability for b in gem.branches) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# certificates


class TestEnergyCertificate:
    def test_record_write_with_flat_memory_passes(self):
        h_s = np.diag([0.5, -0.5]).astype(complex)
        h_d = np.zeros((2, 2), dtype=complex)
        model = record_write_model(
            posts=[basis_state(2, 0), basis_state(2, 1)], h=(h_s, h_d)
        )
        rep = check_energy_conserving_measurement(model, h_s, h_d)
        assert rep.passed
        assert rep.premeasurement_commutator <= EPS_ALG
        assert rep.pointer_commutator <= EPS_ALG

    def test_rotated_record_fails(self):
        h_s = np.diag([0.5, -0.5]).astype(complex)
        h_d = np.zeros((2, 2), dtype=complex)
        c, s = math.cos(0.4), math.sin(0.4)
        rot0 = np.array([c, s], dtype=complex)
        rot1 = np.array([-s, c], dtype=complex)
        target = qubit_observable([rot0, rot1])
        pointer = basis_observable(2)
        transitions = [
            Transition("0", PureState(rot0), PureState(rot0), PureState(basis_state(2, 0))),
            Transition("1", PureState(rot1), PureState(rot1), PureState(basis_state(2, 1))),
        ]
        model = build_transition_model(
            target, pointer, PureState(basis_state(2, 0)), transitions,
            (ZERO2, ZERO2),
        )
        rep = check_energy_conserving_measurement(model, h_s, h_d)
        assert not rep.passed
        assert rep.premeasurement_commutator > 1e-3

    def test_noncommuting_pointer_detected(self):
        h_s = np.zeros((2, 2), dtype=complex)
        h_d = np.diag([0.5, -0.5]).astype(complex)
        c, s = 1.0 / math.sqrt(2), 1.0 / math.sqrt(2)
        rec0 = np.array([c, s], dtype=complex)
        rec1 = np.array([c, -s], dtype=complex)
        pointer = qubit_observable([rec0, rec1])
        target = basis_observable(2)
        transitions = [
            Transition("0", PureState(basis_state(2, 0)), PureState(basis_state(2, 0)), PureState(rec0)),
            Transition("1", PureState(basis_state(2, 1)), PureState(basis_state(2, 1)), PureState(rec1)),
        ]
        model = build_transition_model(
            target, pointer, PureState(rec0), transitions, (ZERO2, ZERO2)
        )
        rep = check_energy_conserving_measurement(model, h_s, h_d)
        assert rep.pointer_commutator > 1e-3

    def test_equals_the_dense_kron_route_bit_for_bit(self):
        # the certificate once formed H_S (x) 1 + 1 (x) H_D densely with a
        # Kronecker sum; it now reads the law (its diagonal when both
        # factors are diagonal) from qop._additive_hamiltonian, same bits
        rng = np.random.default_rng(20)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        cases = [  # (H_S, H_D, whether the law is diagonal)
            (np.diag([0.5, -0.5]).astype(complex), ZERO2, True),
            (np.diag([0.5, -0.5]), np.diag([0.3, -0.7]), True),
            (Operator(np.diag([1.0, 0.25])), Operator(np.diag([0.0, 2.0])), True),
            (np.diag([0.5, -0.5]).astype(complex), a + dagger(a), False),
            (Operator(a + dagger(a)), ZERO2, False),
        ]
        models = [
            record_write_model([basis_state(2, 0), basis_state(2, 1)]),
            record_write_model([basis_state(2, 0), np.array([0.6, 0.8j])]),
        ]
        for model in models:
            for h_s, h_d, diagonal in cases:
                hs = np.asarray(getattr(h_s, "entries", h_s), dtype=complex)
                hd = np.asarray(getattr(h_d, "entries", h_d), dtype=complex)
                htot = np.kron(hs, np.eye(2)) + np.kron(np.eye(2), hd)
                u = model.premeasurement.entries
                rep = check_energy_conserving_measurement(model, h_s, h_d)
                assert rep.premeasurement_commutator == commutator_norm(u, htot)
                assert rep.pointer_commutator == commutator_norm(
                    model.pointer.operator(), hd
                )
                law = qop_mod._additive_hamiltonian(h_s, h_d)
                assert law.ndim == (1 if diagonal else 2)
                assert rep.premeasurement_commutator == (
                    qop_mod._conservation_residual(u, law)
                )

    @pytest.mark.parametrize("dims", [(3, 2), (2, 3), (4, 1)])
    def test_hamiltonians_must_match_the_factors(self, dims):
        # a mismatch used to surface as a numpy broadcast error, and a pair
        # whose product matched the joint dimension went unnoticed
        h_s, h_d = (np.diag(np.arange(d, dtype=float)) for d in dims)
        model = record_write_model([basis_state(2, 0), basis_state(2, 1)])
        with pytest.raises(ValueError, match="!= factor dimensions"):
            check_energy_conserving_measurement(model, h_s, h_d)
        with pytest.raises(ValueError, match="!= factor dimensions"):
            record_write_model([basis_state(2, 0), basis_state(2, 1)], h=(h_s, h_d))


class TestRepeatability:
    def test_eigenstate_posts_repeatable(self):
        model = record_write_model(posts=[basis_state(2, 0), basis_state(2, 1)])
        rep = check_repeatable(model)
        assert rep.passed
        assert all(f >= 1.0 - 1e-9 for _, f in rep.fidelities)

    def test_superposed_posts_not_repeatable(self):
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        model = record_write_model(posts=[plus, plus])
        rep = check_repeatable(model)
        assert not rep.passed
        assert any(f < 0.9 for _, f in rep.fidelities)

    def test_degenerate_support_semantics(self):
        # post sits inside a rank-2 outcome subspace without being a basis
        # vector of it; that still counts as repeatable
        d = 3
        lo = Operator(np.diag([1.0, 1.0, 0j]))
        hi = Operator(np.diag([0j, 0j, 1.0]))
        target = Observable((("lo", 0.0, lo), ("hi", 1.0, hi)))
        pointer = Observable(
            (
                ("lo", 0.0, Operator(np.diag([1.0, 0j]))),
                ("hi", 1.0, Operator(np.diag([0j, 1.0]))),
            )
        )
        inside_a = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2)
        inside_b = np.array([1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
        transitions = [
            Transition("lo", PureState(basis_state(d, 0)), PureState(inside_a), PureState(basis_state(2, 0))),
            Transition("lo", PureState(basis_state(d, 1)), PureState(inside_b), PureState(basis_state(2, 0))),
            Transition("hi", PureState(basis_state(d, 2)), PureState(basis_state(d, 2)), PureState(basis_state(2, 1))),
        ]
        model = build_transition_model(
            target, pointer, PureState(basis_state(2, 0)), transitions,
            (np.zeros((d, d)), ZERO2),
        )
        assert check_repeatable(model).passed

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_eigenvector_equivalence_on_conserving_models(self, seed):
        # for an energy-conserving non-degenerate model, repeatability is
        # the same thing as every post state being an H_S eigenvector
        rng = np.random.default_rng(seed)
        omega = float(rng.uniform(0.5, 2.0))
        h_s = np.diag([omega / 2, -omega / 2]).astype(complex)
        if seed % 2 == 0:
            h_d = np.zeros((2, 2), dtype=complex)
            posts = [basis_state(2, 0), basis_state(2, 1)]
            psi = None
        else:
            # balanced superposed posts stay conserving when the demon
            # mirrors the system splitting and starts in a flat record
            h_d = h_s.copy()
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            posts = [
                np.array([1.0, phase], dtype=complex) / math.sqrt(2),
                np.array([1.0, -phase], dtype=complex) / math.sqrt(2),
            ]
            psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        model = record_write_model(posts=posts, h=(h_s, h_d), demon_initial=psi)
        assert check_energy_conserving_measurement(model, h_s, h_d).passed
        rep = check_repeatable(model)
        eig = all(
            float(
                np.linalg.norm(
                    h_s @ t.sys_out.amplitudes
                    - np.vdot(t.sys_out.amplitudes, h_s @ t.sys_out.amplitudes)
                    * t.sys_out.amplitudes
                )
            )
            <= 1e-9
            for t in model.transitions
        )
        assert rep.passed == eig
        assert rep.passed == (seed % 2 == 0)


class TestWayWitness:
    def test_conserving_repeatable_model_commutes(self):
        h_s = np.diag([0.5, -0.5]).astype(complex)
        h_d = np.zeros((2, 2), dtype=complex)
        model = record_write_model(
            posts=[basis_state(2, 0), basis_state(2, 1)], h=(h_s, h_d)
        )
        rep = way_witness(model, h_s, h_d)
        assert rep.energy.passed and rep.repeatable_or_pointer_commuting
        assert rep.observable_commutes
        assert rep.target_commutator <= 1e-10

    def test_swap_model_fails_pointer_leg(self):
        # full state exchange commutes with the summed Hamiltonian when
        # both sides share it, but its rotated record basis dephases under
        # the memory Hamiltonian, so the conservation certificate fails on
        # the pointer leg and a non-commuting target raises no flag
        h = np.diag([0.0, 1.0]).astype(complex)
        c, s = math.cos(0.6), math.sin(0.6)
        rot0 = np.array([c, s], dtype=complex)
        rot1 = np.array([-s, c], dtype=complex)
        target = qubit_observable([rot0, rot1])
        pointer = qubit_observable([rot0, rot1])
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        transitions = [
            Transition("0", PureState(rot0), PureState(basis_state(2, 0)), PureState(rot0)),
            Transition("1", PureState(rot1), PureState(basis_state(2, 0)), PureState(rot1)),
        ]
        model = MeasurementModel(
            demon_initial=PureState(basis_state(2, 0)),
            premeasurement=Operator(swap),
            pointer=pointer,
            target=target,
            transitions=tuple(transitions),
        )
        rep = way_witness(model, h, h)
        assert rep.energy.premeasurement_commutator <= 1e-10
        assert rep.energy.pointer_commutator > 1e-3
        assert not rep.energy.passed
        assert not rep.repeatable_or_pointer_commuting
        assert not rep.observable_commutes

    def test_report_holds_the_reports_it_was_decided_from(self, monkeypatch):
        import szilard.measurement as measurement_mod

        h_s = np.diag([0.5, -0.5]).astype(complex)
        h_d = np.zeros((2, 2), dtype=complex)
        model = record_write_model(
            posts=[basis_state(2, 0), basis_state(2, 1)], h=(h_s, h_d)
        )
        made = {}
        for name in ("check_energy_conserving_measurement", "check_repeatable"):
            real = getattr(measurement_mod, name)

            def spied(*args, _real=real, _name=name):
                made[_name] = _real(*args)
                return made[_name]

            monkeypatch.setattr(measurement_mod, name, spied)
        rep = way_witness(model, h_s, h_d)
        assert rep.energy is made["check_energy_conserving_measurement"]
        assert rep.repeatability is made["check_repeatable"]
        assert rep.energy == check_energy_conserving_measurement(model, h_s, h_d)
        assert rep.repeatability == check_repeatable(model)

    def test_inconsistent_declaration_raises_hard(self):
        # an energy-conserving pointer-commuting model cannot measure a
        # non-commuting observable; declaring one anyway must trip the
        # hard assertion rather than return a report
        import dataclasses

        h_s = np.diag([0.5, -0.5]).astype(complex)
        h_d = np.zeros((2, 2), dtype=complex)
        model = record_write_model(
            posts=[basis_state(2, 0), basis_state(2, 1)], h=(h_s, h_d)
        )
        c, s = math.cos(0.7), math.sin(0.7)
        rotated = qubit_observable(
            [np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex)]
        )
        tampered = dataclasses.replace(model, target=rotated)
        with pytest.raises(HardAssertionError):
            way_witness(tampered, h_s, h_d)


# ---------------------------------------------------------------------------
# instruments


class TestInstruments:
    def test_kraus_completeness_enforced(self):
        from szilard import Instrument

        half = Operator(np.diag([1.0, 0j]))
        with pytest.raises(ValueError):
            Instrument((("only", (half,)),))

    def test_apply_instrument_luders_commuting(self):
        instr = instrument_from_model(
            record_write_model(posts=[basis_state(2, 0), basis_state(2, 1)])
        )
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        gem = apply_instrument(instr, rho)
        got = {b.outcome: (b.probability, b.state) for b in gem.branches}
        assert abs(got["0"][0] - 0.3) < 1e-12
        assert operator_norm(got["0"][1].entries - np.diag([1.0, 0.0])) < 1e-9

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_probability_sums(self, seed):
        rng = np.random.default_rng(seed)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
        instr = instrument_from_model(record_write_model(posts=[plus, minus]))
        rho = random_density(rng, 2)
        gem = apply_instrument(instr, rho)
        assert abs(sum(b.probability for b in gem.branches) - 1.0) < 1e-9

    def test_instrument_matches_model_branches(self):
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2)
        model = record_write_model(posts=[plus, minus])
        instr = instrument_from_model(model)
        rho = DensityMatrix(np.diag([0.4, 0.6]).astype(complex))
        _, gem_model = premeasure_and_objectify(model, rho)
        gem_instr = apply_instrument(instr, rho)
        by_label = {b.outcome: b for b in gem_instr.branches}
        for b in gem_model.branches:
            q = by_label[b.outcome]
            assert abs(b.probability - q.probability) < 1e-9
            sys = _ptrace_nd(b.state.entries, (2, 2), keep=(0,))
            assert operator_norm(sys - q.state.entries) < 1e-9

    def _coarse(self, d=4):
        lo = Operator(np.diag([1.0, 1.0, 0j, 0j]))
        hi = Operator(np.diag([0j, 0j, 1.0, 1.0]))
        target = Observable((("lo", 0.0, lo), ("hi", 1.0, hi)))
        data = {
            "lo": [
                (PureState(basis_state(d, 0)), PureState(basis_state(d, 1))),
                (PureState(basis_state(d, 1)), PureState(basis_state(d, 1))),
            ],
            "hi": [
                (PureState(basis_state(d, 2)), PureState(basis_state(d, 3))),
                (PureState(basis_state(d, 3)), PureState(basis_state(d, 3))),
            ],
        }
        return target, data

    def test_coarse_grained_branch_energy(self):
        # with every post chosen as the top of its subspace, branch states
        # sit strictly above the global ground energy
        target, data = self._coarse()
        instr = build_degenerate_instrument(target, data)
        h_s = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        gem = apply_instrument(instr, rho)
        for b in gem.branches:
            e = float(np.trace(h_s @ b.state.entries).real)
            assert e > 0.0

    def test_coarse_grained_post_outside_subspace_rejected(self):
        target, data = self._coarse()
        data["lo"][0] = (data["lo"][0][0], PureState(basis_state(4, 3)))
        with pytest.raises(ConstructionError):
            build_degenerate_instrument(target, data)
