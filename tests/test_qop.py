"""Operator substrate: constructors, predicates, traces, entropies."""

from __future__ import annotations

import ast
import math
import re
import tracemalloc
import warnings
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
    build_oscillator_weight,
    build_shift_unitary,
    commutator_norm,
    dagger,
    operator_norm,
    partial_trace,
    projector_onto,
    random_energy_conserving_unitary,
    tensor_product,
    thermal_state,
    von_neumann_entropy,
)
import szilard.qop as qop_mod
from szilard.qop import (
    EPS_ALG,
    EPS_GRAM,
    EPS_SECTOR,
    EPS_THERMAL,
    SizeError,
    _energy_sectors,
    _ptrace_nd,
)
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


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + dagger(a)) / 2.0


class TestAdditiveHamiltonian:
    """``qop._additive_hamiltonian`` is the one builder of the conservation
    law ``sum_i 1 (x) .. (x) H_i (x) .. (x) 1``; ``SubsystemLayout`` keeps
    the embedding route as its reference."""

    @pytest.mark.parametrize("sizes", [(2, 3), (4, 1), (3, 2, 4), (2, 2, 2)])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_matches_the_layout_sum(self, sizes, diagonal):
        rng = np.random.default_rng(sum(sizes) + 7 * diagonal)
        hs = [
            np.diag(rng.normal(size=d)).astype(complex) if diagonal
            else random_hermitian(rng, d)
            for d in sizes
        ]
        layout = SubsystemLayout(tuple(
            Factor(f"F{i}", d, Operator(h)) for i, (d, h) in enumerate(zip(sizes, hs))
        ))
        want = layout.total_hamiltonian()
        for factors in (hs, [f.hamiltonian for f in layout.factors]):
            law = qop_mod._additive_hamiltonian(*factors)
            # a diagonal law comes back as its diagonal: no n x n array
            assert law.ndim == (1 if diagonal else 2)
            assert np.array_equal(np.diag(law) if diagonal else law, want)
            u = random_unitary(rng, layout.total_dim)
            assert qop_mod._conservation_residual(u, law) == commutator_norm(u, want)

    def test_one_non_diagonal_factor_makes_it_dense(self):
        rng = np.random.default_rng(3)
        hs = [np.diag([0.0, 1.0]), random_hermitian(rng, 3), np.diag([2.0, -1.0])]
        law = qop_mod._additive_hamiltonian(*hs)
        want = SubsystemLayout(tuple(
            Factor(f"F{i}", h.shape[0], Operator(h)) for i, h in enumerate(hs)
        )).total_hamiltonian()
        assert law.shape == (12, 12) and np.array_equal(law, want)

    def test_factor_dimensions_are_checked(self):
        h = np.diag([0.0, 1.0])
        assert qop_mod._additive_hamiltonian(h, h, dims=(2, 2)).shape == (4,)
        want = r"Hamiltonian dimensions \(2, 2\) != factor dimensions \(4, 1\)"
        with pytest.raises(ValueError, match=want):
            qop_mod._additive_hamiltonian(h, h, dims=(4, 1))

    def test_one_owner_of_the_additive_sum(self):
        """No module outside ``qop`` adds ``A (x) 1 + 1 (x) B`` itself,
        densely (two Kronecker products with an identity) or on diagonals
        (``a[:, None] + b[None, :]``)."""

        def is_call(node, *names):
            f = getattr(node, "func", None)
            return isinstance(node, ast.Call) and (
                getattr(f, "id", None) in names or getattr(f, "attr", None) in names
            )

        def kron_with_eye(node):
            return is_call(node, "_kron", "kron") and any(
                is_call(a, "eye", "identity") for a in node.args
            )

        def axis_slot(node, where):
            s = getattr(node, "slice", None)
            return isinstance(node, ast.Subscript) and isinstance(s, ast.Tuple) and (
                isinstance(s.elts[where], ast.Constant) and s.elts[where].value is None
            )

        strays = []
        for path in sorted(Path(qop_mod.__file__).parent.glob("*.py")):
            if path.name == "qop.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                    continue
                l, r = node.left, node.right
                if (kron_with_eye(l) and kron_with_eye(r)) or (
                    axis_slot(l, 1) and axis_slot(r, 0)
                ):
                    strays.append(f"{path.name}:{node.lineno}")
        assert not strays, "additive sums outside qop: " + ", ".join(strays)


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

    # a thin factor takes the SVD route, a wide one the eigh route
    @pytest.mark.parametrize("cols", [2, 9])
    def test_factor_constructor_checks_the_trace(self, cols):
        x = self._unit_factor(np.random.default_rng(3), 5, cols)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix._from_factor(x * math.sqrt(1.0 + 1e-6))

    @pytest.mark.parametrize(
        "dim, width",
        sorted({(d, k) for d in (2, 34, 124, 500) for k in (1, d // 2, d, 2 * d)}),
    )
    def test_factor_product_meets_the_rounding_bound(self, dim, width):
        # X X^dag takes no Hermiticity residual: its mirror entries differ by
        # rounding alone, within the bound the constructor's docstring
        # derives, 6 k u tr(rho), which stays below EPS_ALG up to MAX_DIM
        assert 6 * qop_mod.MAX_DIM * 2.0**-53 < EPS_ALG
        x = self._unit_factor(np.random.default_rng(dim * 4099 + width), dim, width)
        rho = DensityMatrix._from_factor(x)
        m = rho.entries
        assert np.array_equal(m, x @ dagger(x))
        tr = float(np.trace(m).real)
        assert float(np.linalg.norm(m - dagger(m))) <= 6 * width * 2.0**-53 * tr
        assert rho._carried_factor[0].shape[1] <= dim

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("cols", [1, 4, 9])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_factor_constructor_refuses_nan_and_inf(self, bad, cols):
        x = self._unit_factor(np.random.default_rng(cols), 4, cols)
        x[1, -1] = bad
        with pytest.raises(ValueError):
            DensityMatrix._from_factor(x)

    @pytest.mark.parametrize("cols", [1, 3])
    def test_factor_constructor_rejects_non_finite_input(self, cols):
        x = np.zeros((2, cols))
        x[:, 0] = [np.nan, 1.0]
        with pytest.raises(ValueError):
            DensityMatrix._from_factor(x)


class TestWideFactors:
    """A factor wider than its dimension is carried as a thin one, taken
    from one ``eigh`` of the product: the entries stay ``X X^dag`` bit for
    bit, the spectrum matches ``X``'s squared singular values, and the
    eigenpairs left out are reported as dropped trace norm."""

    @staticmethod
    def _trace_norm(a: np.ndarray) -> float:
        return float(np.abs(np.linalg.eigvalsh(a)).sum())

    @pytest.mark.parametrize(
        "rows, cols, rank", [(1, 2, 1), (5, 6, 5), (6, 40, 6), (12, 300, 12),
                             (8, 64, 3), (44, 256, 19)],
    )
    def test_matches_the_svd_route(self, rows, cols, rank):
        rng = np.random.default_rng(rows * cols + rank)
        x = TestKeptSpectrum._unit_factor(rng, rows, rank) @ (
            rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
        )
        x /= np.linalg.norm(x)
        rho = DensityMatrix._from_factor(x)
        assert np.array_equal(rho.entries, x @ dagger(x))
        assert rho.entries.flags.writeable is False
        sv = np.linalg.svd(x, compute_uv=False)
        assert np.abs(rho._spectrum - np.sort(sv * sv)).max() < 1e-13
        thin, (kept, dropped) = qop_mod._factor(rho)
        assert thin.shape[0] == rows and thin.shape[1] <= rows
        assert thin.flags.writeable is False
        assert kept == pytest.approx(1.0, abs=1e-13)
        assert dropped == float(np.abs(rho._spectrum[rho._spectrum <= 0.0]).sum())
        # the thin factor's product misses rho by what it drops, up to rounding
        miss = self._trace_norm(thin @ dagger(thin) - rho.entries)
        assert miss <= dropped + 1e-13

    def test_thin_and_square_factors_are_carried_as_given(self):
        rng = np.random.default_rng(8)
        for cols in (1, 4):
            x = TestKeptSpectrum._unit_factor(rng, 4, cols)
            rho = DensityMatrix._from_factor(x)
            carried, norms = qop_mod._factor(rho)
            assert np.array_equal(carried, x) and norms[1] == 0.0


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
        monkeypatch.setattr(qop_mod, "_within_eps", dense)
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


# ---------------------------------------------------------------------------
# unitarity against the dense oracle

# the block sums' dimensions, small to a few hundred
LO, HI = 8, 184


def permuted_block_sum(
    rng: np.random.Generator, dim: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A random unitary direct sum of blocks of sizes 1 to 6, in a random
    basis order, and the index group of each block in that order."""
    u = np.zeros((dim, dim), dtype=complex)
    blocks = []
    start = 0
    while start < dim:
        s = min(int(rng.integers(1, 7)), dim - start)
        u[start : start + s, start : start + s] = random_unitary(rng, s)
        blocks.append(np.arange(start, start + s))
        start += s
    perm = rng.permutation(dim)
    where = np.argsort(perm)  # the new position of each old index
    return u[np.ix_(perm, perm)], [np.sort(where[b]) for b in blocks]


def dense_conserving_unitary(rng: np.random.Generator, dim: int) -> Operator:
    """``random_energy_conserving_unitary`` on a non-degenerate Hamiltonian
    in a random basis: one sector per level, so every entry is nonzero."""
    q = random_unitary(rng, dim)
    h = (q * np.arange(1.0, dim + 1.0)) @ dagger(q)
    return random_energy_conserving_unitary(h, rng)


def traced_peak(call) -> tuple[object, int]:
    """``call()`` and the peak bytes ``tracemalloc`` saw it allocate."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestBlockUnitarity:
    """``Operator.is_unitary`` against the dense oracle ``||U^dag U - 1||``."""

    @staticmethod
    def _verdict(u: np.ndarray) -> bool:
        got = Operator(u).is_unitary
        assert got is _dense.is_unitary(u)
        return got

    @given(seeds, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_permuted_block_sums_are_unitary(self, seed, pick):
        rng = np.random.default_rng(seed)
        u, _ = permuted_block_sum(rng, LO + pick % (HI - LO + 1))
        assert self._verdict(u)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @given(seeds, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_one_block_scaled_to_the_tolerance(self, factor, seed, pick):
        # (1 + d) B for unitary B has ||B^dag B - 1|| = (1 + d)^2 - 1
        rng = np.random.default_rng(seed)
        u, blocks = permuted_block_sum(rng, LO + pick % (HI - LO + 1))
        b = blocks[pick % len(blocks)]
        u[np.ix_(b, b)] *= math.sqrt(1.0 + factor * EPS_ALG)
        assert self._verdict(u) is (factor < 1.0)

    @pytest.mark.parametrize("entry", [0.5 * EPS_ALG, 2.0 * EPS_ALG, 1e-6])
    @given(seeds, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_off_block_entry_joins_two_blocks(self, entry, seed, pick):
        # an entry e outside the blocks adds a rank-two term of norm e
        rng = np.random.default_rng(seed)
        u, blocks = permuted_block_sum(rng, LO + pick % (HI - LO + 1))
        first, second = rng.choice(len(blocks), size=2, replace=False)
        u[blocks[first][0], blocks[second][-1]] = entry
        assert self._verdict(u) is (entry < EPS_ALG)

    @pytest.mark.parametrize("dim", [104, 120])
    def test_one_dense_block(self, dim):
        u = dense_conserving_unitary(np.random.default_rng(dim), dim).entries
        assert np.count_nonzero(u) == dim * dim
        assert self._verdict(u)
        bad = u.copy()
        bad[3, 5] += 2.0 * EPS_ALG
        assert not self._verdict(bad)

    def test_transposed_input_reads_the_same_pattern(self):
        u, _ = permuted_block_sum(np.random.default_rng(1), 117)
        assert qop_mod._is_unitary(dagger(u))
        u[0, :] *= 1.0 + 4.0 * EPS_ALG
        assert not qop_mod._is_unitary(dagger(u))
        assert not qop_mod._is_unitary(np.asfortranarray(u))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("dim", [111, 113])
    def test_non_finite_entry_is_never_unitary(self, dim, bad):
        u, blocks = permuted_block_sum(np.random.default_rng(dim), dim)
        for i, j in ((blocks[0][0], blocks[0][0]), (blocks[0][0], blocks[1][0])):
            m = u.copy()
            m[i, j] = bad
            try:
                with np.errstate(invalid="ignore"):
                    verdict = qop_mod._is_unitary(m)
            except np.linalg.LinAlgError:
                continue
            assert verdict is False


def count_svd_calls(monkeypatch) -> list:
    """A list that gains one entry per ``np.linalg.svd`` call, ``norm(a, 2)``'s
    included: ``norm`` looks ``svd`` up in its own module."""
    calls = []
    real = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", spy)
    return calls


class TestWithinEps:
    """``qop._within_eps``: the Frobenius norm passes, the largest column
    norm refuses, and the exact norm decides only in between."""

    @pytest.mark.parametrize("tol", [EPS_ALG, EPS_GRAM, EPS_THERMAL])
    @pytest.mark.parametrize(
        "make, want",
        [(lambda t: 0.5 * t * np.eye(16), True),  # exact norm 0.5 t
         (lambda t: np.full((16, 16), 0.2 * t), False)],  # exact norm 3.2 t
    )
    def test_straddling_bounds_take_the_exact_norm(self, monkeypatch, tol, make, want):
        d = make(tol)
        assert np.linalg.norm(d) > tol >= np.linalg.norm(d, axis=0).max()
        assert qop_mod._norm_bracket(d, tol) is None
        assert (_dense._norm(d) <= tol) is want
        calls = count_svd_calls(monkeypatch)
        got = qop_mod._within_eps(d, tol) if tol != EPS_ALG else qop_mod._within_eps(d)
        assert (got, calls) == (want, [1])

    @pytest.mark.parametrize(
        "d, want",
        [(np.full((25, 25), 0.03 * EPS_ALG), True),  # Frobenius norm 0.75 t
         (np.outer(np.full(25, 0.4 * EPS_ALG), np.eye(25)[3]), False)],  # column 2 t
    )
    def test_bounds_settle_without_an_svd(self, monkeypatch, d, want):
        assert (_dense._norm(d) <= EPS_ALG) is want
        calls = count_svd_calls(monkeypatch)
        assert (qop_mod._within_eps(d), calls) == (want, [])

    def test_dense_refusals_take_no_svd(self, monkeypatch):
        # a 200 x 200 failing input of each dense predicate is refused on
        # its largest column norm
        rng = np.random.default_rng(200)
        u = random_unitary(rng, 200)
        u[0, 7] += 1e-6
        h = random_hermitian(rng, 200)
        h[3, 5] += 1e-6
        q = random_unitary(rng, 200)[:, :80]
        p = (q @ dagger(q)) * (1.0 + 1e-6)
        assert not (_dense.is_unitary(u) or _dense._norm(h - dagger(h)) <= EPS_ALG)
        assert _dense._norm(p @ p - p) > EPS_ALG
        calls = count_svd_calls(monkeypatch)
        verdicts = (
            qop_mod._is_unitary(u),
            qop_mod._is_hermitian(h),
            Operator(p).is_hermitian,
            Operator(p).is_projector,
        )
        assert (verdicts, calls) == ((False, False, True, False), [])


class TestUnitarityFootprint:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_example_ii_n1000_strokes_need_no_dense_product(self, sign):
        # the two strokes of example_II at N = 1000: 2008 x 2008, where the
        # dense route allocates three arrays of 64 MB each
        s = 1.0 / math.sqrt(2.0)
        u = build_shift_unitary(
            build_oscillator_weight(1.0, 1000), np.array([s, sign * s])
        )
        assert u.dim == 2008
        ok, peak = traced_peak(lambda: u.is_unitary)
        assert ok is True
        assert peak < 16 * 2**20, peak

    def test_dense_matrix_allocates_no_more_than_the_dense_product(self):
        m = dense_conserving_unitary(np.random.default_rng(7), 256).entries
        op = Operator(m)
        ok, peak = traced_peak(lambda: op.is_unitary)
        want, dense_peak = traced_peak(
            lambda: operator_norm(dagger(m) @ m - np.eye(256)) <= EPS_ALG
        )
        assert ok is want is True
        assert peak <= dense_peak, (peak, dense_peak)


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


def test_package_modules_use_every_import():
    """No module of the package imports a name it never reads.  The
    package's ``__init__`` only re-exports, so it is left out."""
    unused = []
    for path in sorted(Path(qop_mod.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in read
        ]
    assert not unused, "imported and never used: " + ", ".join(unused)


class TestThermalState:
    def test_two_level_closed_form(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        beta = 1.3
        tau = thermal_state(h, beta)
        z = 1.0 + math.exp(-beta)
        want = np.diag([1.0 / z, math.exp(-beta) / z])
        assert operator_norm(tau.entries - want) < 1e-12

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf, -1.0])
    def test_beta_must_be_finite_and_non_negative(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta must be finite and non-negative"):
                thermal_state(np.diag([0.0, 1.0]), beta)

    def test_beta_refusal_shows_the_value_as_given(self):
        beta = np.float64(-1.0)
        with pytest.raises(ValueError, match=re.escape(f"got {beta!r}")):
            thermal_state(np.diag([0.0, 1.0]), beta)

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
