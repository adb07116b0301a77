"""Operator substrate: constructors, predicates, traces, entropies."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from szilard import (
    DensityMatrix,
    Factor,
    Operator,
    PureState,
    SubsystemLayout,
    basis_state,
    commutator_norm,
    dagger,
    operator_norm,
    partial_trace,
    projector_onto,
    relative_entropy,
    tensor_product,
    thermal_state,
    von_neumann_entropy,
)
import szilard.qop as qop_mod
from szilard.qop import EPS_ALG, EPS_SECTOR, SizeError, _energy_sectors, _ptrace_nd
from szilard.thermo import ThermoContext, free_energy

import _dense


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ dagger(a)
    return DensityMatrix(m / np.trace(m))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=6)


# ---------------------------------------------------------------------------
# type invariants


class TestTypes:
    def test_operator_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Operator(np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(ValueError):
            Operator(np.array([[np.inf, 0], [0, 1]], dtype=complex))

    def test_operator_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3), dtype=complex))

    def test_predicates_on_known_matrices(self):
        sx = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        assert sx.is_hermitian and sx.is_unitary and not sx.is_projector
        p = Operator(np.diag([1.0, 0.0]).astype(complex))
        assert p.is_projector and p.is_hermitian and not p.is_unitary
        g = Operator(np.array([[1, 1], [0, 1]], dtype=complex))
        assert not g.is_hermitian and not g.is_unitary

    @given(seeds, dims)
    @settings(max_examples=20, deadline=None)
    def test_predicates_agree_with_recomputation(self, seed, dim):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, dim)
        assert Operator(u).is_unitary
        assert operator_norm(u @ dagger(u) - np.eye(dim)) <= EPS_ALG
        h = u + dagger(u)
        assert Operator(h).is_hermitian

    def test_density_matrix_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))  # trace 1.2
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.5 + 1e-6]))
        for bad in (np.diag([np.nan, 1.0]), np.array([[0.5, np.nan], [np.nan, 0.5]])):
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix(bad)

    def test_pure_state_normalization(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0], dtype=complex))
        s = PureState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))
        assert abs(np.trace(s.density().entries) - 1.0) < EPS_ALG

    def test_layout_dimensions_and_embedding(self):
        lay = SubsystemLayout(
            (
                Factor("W", 3, Operator(np.diag([0.0, 1.0, 2.0]).astype(complex))),
                Factor("S", 2, Operator(np.diag([0.0, 1.0]).astype(complex))),
            )
        )
        assert lay.total_dim == 6
        assert lay.labels == ("W", "S")
        h = lay.total_hamiltonian()
        want = np.kron(np.diag([0.0, 1.0, 2.0]), np.eye(2)) + np.kron(
            np.eye(3), np.diag([0.0, 1.0])
        )
        assert operator_norm(h - want) < EPS_ALG

    def test_tensor_product_size_guard(self):
        big = Operator(np.eye(70, dtype=complex))
        with pytest.raises(SizeError):
            tensor_product(big, big)


class TestKron:
    """``qop._kron`` forms the same products as ``np.kron``, so its results
    are equal entry for entry, not merely close."""

    def test_equals_np_kron(self):
        rng = np.random.default_rng(11)
        c = lambda *s: rng.normal(size=s) + 1j * rng.normal(size=s)
        operands = [
            (c(3), c(4)),  # vector (x) vector
            (rng.normal(size=2), c(3)),  # real (x) complex vector
            (c(1, 1), c(1, 1)),
            (c(1, 1), c(3, 2)),
            (c(2, 3), c(1, 1)),
            (c(2, 3), c(4, 5)),  # rectangular factors, as in the cycle
            (rng.normal(size=(3, 3)), c(2, 2)),  # real (x) complex
            (np.eye(3), rng.normal(size=(2, 2))),
            (dagger(c(4, 3)), c(2, 2)),  # non-contiguous views
            (c(2, 2), dagger(c(3, 2))),
            (c(5, 4)[::2, 1:], c(3, 1)),
        ]
        for a, b in operands:
            got = qop_mod._kron(a, b)
            want = np.kron(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_no_np_kron_outside_the_primitive(self):
        """Every Kronecker product in the package goes through ``_kron``."""
        strays = []
        for path in sorted(Path(qop_mod.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "kron":
                    strays.append(f"{path.name}:{node.lineno}")
        assert not strays, "np.kron outside qop._kron: " + ", ".join(strays)


# ---------------------------------------------------------------------------
# partial traces


class TestPartialTrace:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_product_state_factorizes(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density(rng, 3)
        b = random_density(rng, 2)
        lay = SubsystemLayout(
            (
                Factor("S", 3, Operator(np.zeros((3, 3), dtype=complex))),
                Factor("D", 2, Operator(np.zeros((2, 2), dtype=complex))),
            )
        )
        joint = DensityMatrix(np.kron(a.entries, b.entries))
        ra = partial_trace(joint, lay, keep=["S"])
        rb = partial_trace(joint, lay, keep=["D"])
        assert operator_norm(ra.entries - a.entries) < 1e-12
        assert operator_norm(rb.entries - b.entries) < 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved_on_correlated_states(self, seed):
        rng = np.random.default_rng(seed)
        joint = random_density(rng, 12)
        lay = SubsystemLayout(
            (
                Factor("W", 3, Operator(np.zeros((3, 3), dtype=complex))),
                Factor("S", 4, Operator(np.zeros((4, 4), dtype=complex))),
            )
        )
        kept = partial_trace(joint, lay, keep=["W"])
        assert abs(np.trace(kept.entries) - 1.0) < EPS_ALG

    def test_three_factor_middle_trace(self):
        rng = np.random.default_rng(11)
        parts = [random_density(rng, d) for d in (2, 3, 2)]
        joint = np.kron(np.kron(parts[0].entries, parts[1].entries), parts[2].entries)
        kept = _ptrace_nd(joint, (2, 3, 2), keep=(0, 2))
        want = np.kron(parts[0].entries, parts[2].entries)
        assert operator_norm(kept - want) < 1e-12

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2)
        rho = np.outer(bell, bell.conj())
        marg = _ptrace_nd(rho, (2, 2), keep=(0,))
        assert operator_norm(marg - np.eye(2) / 2) < 1e-12

    def test_unknown_label_rejected(self):
        lay = SubsystemLayout(
            (Factor("S", 2, Operator(np.zeros((2, 2), dtype=complex))),)
        )
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            partial_trace(rho, lay, keep=["R"])


# ---------------------------------------------------------------------------
# entropies and free energy


class TestEntropy:
    def test_pure_state_entropy_zero(self):
        v = PureState(basis_state(4, 2))
        assert von_neumann_entropy(v.density()) < 1e-12

    def test_maximally_mixed_entropy(self):
        for d in (2, 3, 7):
            rho = DensityMatrix(np.eye(d, dtype=complex) / d)
            assert abs(von_neumann_entropy(rho) - math.log(d)) < 1e-12

    def test_quarter_three_quarter_mix(self):
        # independent scalar evaluation of -sum p ln p
        want = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        assert abs(von_neumann_entropy(rho) - want) < 1e-12

    @given(seeds, dims)
    @settings(max_examples=25, deadline=None)
    def test_unitary_invariance(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dim)
        u = random_unitary(rng, dim)
        rotated = DensityMatrix(u @ rho.entries @ dagger(u))
        assert abs(
            von_neumann_entropy(rotated) - von_neumann_entropy(rho)
        ) < 1e-9

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_subadditivity(self, seed):
        rng = np.random.default_rng(seed)
        joint = random_density(rng, 12)
        a = _ptrace_nd(joint.entries, (3, 4), keep=(0,))
        b = _ptrace_nd(joint.entries, (3, 4), keep=(1,))
        s_joint = von_neumann_entropy(joint)
        s_a = von_neumann_entropy(DensityMatrix(a))
        s_b = von_neumann_entropy(DensityMatrix(b))
        assert s_joint <= s_a + s_b + EPS_ALG

    @given(seeds, dims)
    @settings(max_examples=25, deadline=None)
    def test_relative_entropy_nonnegative(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, dim)
        sigma = random_density(rng, dim)
        assert relative_entropy(rho, sigma) >= -EPS_ALG
        assert relative_entropy(rho, rho) < 1e-9

    def test_relative_entropy_support_violation(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        sigma = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert relative_entropy(rho, sigma) == math.inf

    def test_relative_entropy_commuting_closed_form(self):
        p, q = 0.2, 0.7
        rho = DensityMatrix(np.diag([p, 1 - p]).astype(complex))
        sigma = DensityMatrix(np.diag([q, 1 - q]).astype(complex))
        want = p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))
        assert abs(relative_entropy(rho, sigma) - want) < 1e-10

    def test_norm_is_exact_above_1024_dims(self):
        # rank-one residual whose kernel holds the all-ones vector, so an
        # iterative estimate started from that vector reads 0
        n = 1100
        v = np.zeros(n, dtype=complex)
        v[0], v[1] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        r = 2e-3 * np.outer(v, v.conj())
        assert abs(operator_norm(r) - 2e-3) < 1e-12
        assert not Operator(np.eye(n) + r).is_unitary

    def test_commutator_norm(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert commutator_norm(sz, sz) < 1e-15
        # [sz, sx] = 2i sy has operator norm 2
        assert abs(commutator_norm(sz, sx) - 2.0) < 1e-12

    def test_projector_onto_basis_vector(self):
        p = projector_onto(basis_state(3, 1))
        want = np.zeros((3, 3), dtype=complex)
        want[1, 1] = 1.0
        assert operator_norm(np.asarray(getattr(p, "entries", p)) - want) < 1e-15


class TestKeptSpectrum:
    """A state keeps the spectrum it was validated with, and
    ``von_neumann_entropy`` reads it instead of diagonalising again."""

    @staticmethod
    def _unit_factor(rng, rows: int, cols: int) -> np.ndarray:
        x = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        return x / np.linalg.norm(x)

    @pytest.mark.parametrize("rows, cols", [(6, 6), (7, 1), (40, 3), (200, 2)])
    def test_entropy_matches_a_fresh_eigvalsh(self, rows, cols):
        # full rank, pure and rank-deficient, from both constructors
        x = self._unit_factor(np.random.default_rng(rows * cols), rows, cols)
        for rho in (DensityMatrix(x @ dagger(x)), DensityMatrix._from_factor(x)):
            want = _dense.entropy(rho.entries)
            assert abs(von_neumann_entropy(rho) - want) < 1e-12
            assert abs(von_neumann_entropy(rho.entries) - want) < 1e-12

    def test_pure_and_random_states(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        pure = PureState(v / np.linalg.norm(v)).density()
        for rho in (pure, random_density(rng, 5), random_density(rng, 12)):
            want = _dense.entropy(rho.entries)
            assert abs(von_neumann_entropy(rho) - want) < 1e-12

    def test_factor_state_matches_the_dense_one(self):
        x = self._unit_factor(np.random.default_rng(2), 10, 3)
        rho = DensityMatrix._from_factor(x)
        assert np.abs(rho.entries - x @ dagger(x)).max() < 1e-15
        assert rho.entries.flags.writeable is False
        assert np.abs(rho._spectrum - np.linalg.eigvalsh(rho.entries)).max() < 1e-12

    def test_factor_constructor_checks_the_trace(self):
        x = self._unit_factor(np.random.default_rng(3), 5, 2)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix._from_factor(x * math.sqrt(1.0 + 1e-6))

    def test_factor_constructor_checks_hermiticity(self, monkeypatch):
        # X X^dag is Hermitian in exact arithmetic; a product that comes out
        # otherwise (here: an adjoint off by 1e-6 in one entry) is refused
        def skewed(a):
            out = np.asarray(a).conj().T.copy()
            if out.shape[0] == out.shape[1]:
                out[0, -1] += 1e-6
            return out

        monkeypatch.setattr(qop_mod, "dagger", skewed)
        x = self._unit_factor(np.random.default_rng(4), 5, 1)
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix._from_factor(x)

    def test_factor_constructor_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            DensityMatrix._from_factor(np.array([[np.nan], [1.0]]))


class TestDerivedStates:
    """The private constructor for states derived inside the package keeps
    the trace, smallest-eigenvalue and non-finite checks."""

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([np.nan, 0.5, 0.5]),  # eigvalsh skips it: [0, 0.5, 0.5]
            np.diag([0.5, 0.5, complex(0.0, np.nan)]),
            np.array([[0.5, np.nan], [np.nan, 0.5]]),
            np.array([[0.5, 0.0], [np.inf, 0.5]]),
            np.diag([np.inf, 0.5]),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_derived_constructor_rejects_non_finite_input(self, m):
        with pytest.raises(ValueError):
            DensityMatrix._derived(m)

    def test_derived_constructor_keeps_trace_and_positivity(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix._derived(np.diag([0.5, 0.5 + 1e-6]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix._derived(np.diag([1.5, -0.5]))

    def test_derived_state_equals_the_public_one(self):
        rho = random_density(np.random.default_rng(8), 6)
        m = rho.entries.copy()
        derived = DensityMatrix._derived(m)
        assert np.array_equal(derived._spectrum, rho._spectrum)
        assert von_neumann_entropy(derived) == von_neumann_entropy(rho)
        assert derived.entries.flags.writeable is False

    def test_operator_keeps_its_verdict_and_diagonal(self, monkeypatch):
        h = Operator(np.diag(np.arange(5.0)))
        assert h.is_hermitian and h._diagonal is not None
        calls = []
        real = qop_mod._is_diagonal
        monkeypatch.setattr(
            qop_mod, "_is_diagonal", lambda a: calls.append(1) or real(a)
        )
        for _ in range(3):
            assert h.is_hermitian
            free_energy(DensityMatrix(np.eye(5) / 5), h, ThermoContext(1.0))
        assert calls == []


class TestHermiticity:
    @pytest.mark.parametrize("im", [0.0, 0.4e-10, 0.6e-10, 1e-3])
    def test_diagonal_verdict_matches_the_norm(self, im):
        # ||H - H^dag|| = 2 max|Im h_ii| for a diagonal H, on both sides of
        # EPS_ALG
        m = np.diag([1.0 + 1j * im, -2.0, 0.5 - 0.5j * im])
        assert Operator(m).is_hermitian == (
            operator_norm(m - dagger(m)) <= EPS_ALG
        )

    def test_diagonal_hamiltonian_needs_no_dense_check(self, monkeypatch):
        rho = DensityMatrix(np.eye(6) / 6)
        h = Operator(np.diag(np.arange(6.0)))

        def dense(a):
            raise AssertionError("dense Hermiticity check on a diagonal H")

        monkeypatch.setattr(qop_mod, "operator_norm", dense)
        assert h.is_hermitian
        assert free_energy(rho, h, ThermoContext(1.0)) == pytest.approx(
            2.5 - math.log(6)
        )

    def test_non_hermitian_hamiltonians_rejected(self):
        rho = DensityMatrix(np.eye(2) / 2)
        for h in (np.diag([0.5 + 0.01j, -0.5]), np.array([[0, 0.01j], [0, 0]])):
            assert not Operator(h).is_hermitian
            with pytest.raises(ValueError, match="Hermitian"):
                free_energy(rho, Operator(h), ThermoContext(1.0))
            with pytest.raises(ValueError, match="Hermitian"):
                thermal_state(h, 1.0)


class TestEnergySectors:
    def test_splits_only_gaps_beyond_the_tolerance(self):
        tol = EPS_SECTOR * (1.0 + 3.0)  # max|ev| = 3
        ev = np.array([0.0, 0.5 * tol, 2.5 * tol, 3.0, 3.0])
        sectors = _energy_sectors(ev)
        assert [s.tolist() for s in sectors] == [[0, 1], [2], [3, 4]]

    def test_single_level(self):
        assert [s.tolist() for s in _energy_sectors(np.array([-1.0]))] == [[0]]


def test_tolerances_live_in_one_table():
    """No float literal below 1e-5 appears in the package outside the named
    tolerance table at the top of ``qop``."""
    strays = []
    for path in sorted(Path(qop_mod.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = set()
        if path.name == "qop.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and all(
                    isinstance(t, ast.Name) and t.id.startswith("EPS_")
                    for t in node.targets
                ):
                    table.add(id(node.value))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-5
                and id(node) not in table
            ):
                strays.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not strays, "tolerance literals outside the table: " + ", ".join(strays)


class TestThermalState:
    def test_two_level_closed_form(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        beta = 1.3
        tau = thermal_state(h, beta)
        z = 1.0 + math.exp(-beta)
        want = np.diag([1.0 / z, math.exp(-beta) / z])
        assert operator_norm(tau.entries - want) < 1e-12

    def test_zero_temperature_limit(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        tau = thermal_state(h, 1e8)
        assert abs(tau.entries[0, 0].real - 1.0) < 1e-9

    def test_degenerate_ground_space(self):
        h = np.diag([0.0, 0.0, 5.0]).astype(complex)
        tau = thermal_state(h, 1e8)
        assert abs(tau.entries[0, 0].real - 0.5) < 1e-9
        assert abs(tau.entries[1, 1].real - 0.5) < 1e-9

    def test_minimizes_free_energy(self):
        # the Gibbs state must beat a large random sample strictly
        rng = np.random.default_rng(3)
        h = np.diag([0.0, 0.7, 1.9, 2.4]).astype(complex)
        ctx = ThermoContext(temperature=0.8)
        tau = thermal_state(h, ctx.beta)
        f_tau = free_energy(tau, Operator(h), ctx)
        for _ in range(1000):
            rho = random_density(rng, 4)
            f = free_energy(rho, Operator(h), ctx)
            assert f >= f_tau - 1e-9
            if operator_norm(rho.entries - tau.entries) > 1e-6:
                assert f > f_tau

    def test_basis_independence(self):
        rng = np.random.default_rng(4)
        u = random_unitary(rng, 3)
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        hr = u @ h @ dagger(u)
        tau = thermal_state(h, 0.9)
        tau_r = thermal_state(hr, 0.9)
        assert operator_norm(tau_r.entries - u @ tau.entries @ dagger(u)) < 1e-10
