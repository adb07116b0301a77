"""Operator-algebra substrate for the engine simulations.

Complex matrices, tensor-product bookkeeping, partial traces, spectral
functions, and the entropy / free-energy primitives used by every other
module.

Conventions fixed here and relied on throughout the package:

* natural logarithms everywhere, so entropies are in nats;
* Boltzmann's constant enters only through ``ThermoContext`` (default 1);
* subsystem factors are ordered (W, S, R, D) left to right in the
  controlled feedback, the demon control last (and R absent without a
  feedback reservoir), and (D, R) in an explicit erasure; single-factor
  operators are padded with identities;
* spectral quantities come from Hermitian eigendecompositions, and
  non-Hermitian input is rejected rather than symmetrised so that
  construction bugs surface early.

All values are immutable after construction and all operations are pure
functions, so concurrent use from scenario sweeps is safe.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from collections.abc import Mapping
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "EPS_ALG",
    "EPS_EIG",
    "MAX_DIM",
    "SzilardError",
    "SizeError",
    "ConstructionError",
    "ErasureError",
    "HardAssertionError",
    "Operator",
    "DensityMatrix",
    "PureState",
    "Factor",
    "SubsystemLayout",
    "dagger",
    "operator_norm",
    "commutator_norm",
    "tensor_product",
    "partial_trace",
    "von_neumann_entropy",
    "thermal_state",
    "projector_onto",
    "basis_state",
]

# Algebraic tolerance for predicates, in operator (largest singular value)
# norm, and the eigenvalue cutoff below which populations are treated as
# exactly zero.  Chosen for double-precision eigendecompositions of
# dimensions up to MAX_DIM.
EPS_ALG = 1e-10
EPS_EIG = 1e-12
MAX_DIM = 4096

# Every other tolerance of the package, one name per role.
# slack of hard-asserted bounds and balances: ledger, chains, marginals
EPS_ASSERT = 1e-9
# agreement of two routes to one energy (work forms, heat identity)
EPS_ROUTE = 1e-8
# probabilities and fidelities of records, repeatability and the Born rule
EPS_FID = 1e-9
# operator-norm distance at which a state counts as the Gibbs state
EPS_THERMAL = 1e-8
# blank-state fidelity deficit an explicit erasure reset may leave
EPS_RESET = 1e-6
# eigenvalue gap splitting energy sectors, relative to 1 + max|E|
EPS_SECTOR = 1e-8
# Gram-matrix agreement of a completion's in and out vectors
EPS_GRAM = 1e-8
# smallest singular value of linearly independent completion inputs
EPS_RANK = 1e-8
# residual norm at which a candidate vector extends an orthonormal basis
EPS_EXTEND = 1e-7
# norm below which a completion pair has no component in a sector
EPS_SUPPORT = 1e-12
# smallest amplitude that may fix a vector's global phase
EPS_PHASE = 1e-8
# default weight-entropy invariance tolerance per nat of log-dimension
EPS_ENTROPY = 1e-9
# positive-work floor per unit of max(weight energy scale, kT)
EPS_WORK = 1e-9


class SzilardError(Exception):
    """Base class for package-specific failures."""


class SizeError(SzilardError):
    """A construction would exceed the configured dimension limit."""


class ConstructionError(SzilardError):
    """Input data admits no object satisfying the requested constraints."""


class ErasureError(SzilardError):
    """An explicit erasure interaction failed to reset the memory."""


class HardAssertionError(SzilardError):
    """An internally guaranteed consistency condition was violated.

    This signals an implementation bug (or a deliberately tampered input),
    never a legitimate physical regime.
    """


# ---------------------------------------------------------------------------
# array helpers


def _as_complex_matrix(entries: object, name: str = "entries") -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have positive dimension")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{name} contains non-finite values")
    return m


def _as_complex_vector(amplitudes: object, name: str = "amplitudes") -> np.ndarray:
    v = np.array(amplitudes, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two vectors or of two matrices.

    The same products, broadcast straight into the product's layout; on the
    package's small operands ``np.kron``'s general n-d bookkeeping costs
    several times the arithmetic."""
    if a.ndim == 1:
        return np.multiply.outer(a, b).ravel()
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def operator_norm(a: object) -> float:
    """Largest singular value.

    The Frobenius norm dominates the spectral norm, so a tiny Frobenius norm
    certifies the result directly; that shortcut keeps pass / fail decisions
    on near-zero residuals cheap at large dimensions.  Every other matrix
    gets the exact spectral norm, so a check never passes on an estimate
    that could sit below the true residual.
    """
    m = np.asarray(a, dtype=complex)
    if m.size == 0:
        return 0.0
    f = float(np.linalg.norm(m))
    if f <= EPS_ALG:
        return f
    return float(np.linalg.norm(m, 2))


def _norm_bracket(d: np.ndarray, tol: float) -> bool | None:
    """``operator_norm(d) <= tol`` where two bounds settle it, else ``None``:
    the Frobenius norm bounds the spectral norm from above, so at most
    ``tol`` it passes, and the largest column 2-norm bounds it from below,
    so above ``tol`` it refuses."""
    if float(np.linalg.norm(d)) <= tol:
        return True
    if float(np.linalg.norm(d, axis=0).max()) > tol:
        return False
    return None


def _within_eps(d: np.ndarray, tol: float = EPS_ALG) -> bool:
    """``operator_norm(d) <= tol``: the verdict of every pass/fail check
    that reports no value.  :func:`_norm_bracket` settles it where it can,
    so a pass costs one Frobenius norm, as ``operator_norm`` does, and a
    refusal one column-norm pass; the exact norm (an SVD) runs only when
    ``tol`` lies between the two bounds."""
    verdict = _norm_bracket(d, tol)
    return float(np.linalg.norm(d, 2)) <= tol if verdict is None else verdict


def _is_unitary(m: np.ndarray) -> bool:
    """``operator_norm(m^dag m - 1) <= EPS_ALG`` for a square matrix."""
    return _within_eps(dagger(m) @ m - np.eye(m.shape[0]))


def _is_diagonal(a: np.ndarray) -> bool:
    # past the first entry, the flat entries of a square matrix fall in rows
    # of n + 1 that each end on the next diagonal entry
    n = a.shape[0]
    off = np.ascontiguousarray(a).reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    return not off.any()


def _diagonal_of(h: object) -> np.ndarray | None:
    """The diagonal of ``h`` when ``h`` is diagonal, else ``None``."""
    if isinstance(h, Operator):
        return h._diagonal
    m = _entries_of(h)
    return np.diagonal(m) if _is_diagonal(m) else None


def _is_hermitian(h: object) -> bool:
    """``operator_norm(h - h^dag) <= EPS_ALG``.  For a diagonal ``h`` that
    norm is exactly ``2 max |Im h_ii|``, so no n x n temporary is formed."""
    if (d := _diagonal_of(h)) is not None:
        return 2.0 * float(np.abs(d.imag).max()) <= EPS_ALG
    m = _entries_of(h)
    return _within_eps(m - dagger(m))


def _check_hermitian(h: object, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``h`` is Hermitian."""
    if not (h.is_hermitian if isinstance(h, Operator) else _is_hermitian(h)):
        raise ValueError(message)


def _energy_sectors(ev: np.ndarray) -> list[np.ndarray]:
    """Index groups of the ascending eigenvalues ``ev``, split wherever two
    neighbours differ by more than ``EPS_SECTOR * (1 + max|ev|)``."""
    tol = EPS_SECTOR * (1.0 + float(np.abs(ev).max()))
    return np.split(np.arange(ev.size), np.flatnonzero(np.diff(ev) > tol) + 1)


def commutator_norm(a: object, b: object) -> float:
    """Operator norm of ``AB - BA``; values within EPS_ALG count as commuting."""
    ma = _entries_of(a)
    mb = _entries_of(b)
    if ma.shape != mb.shape:
        raise ValueError(
            f"commutator requires equal dimensions, got {ma.shape} and {mb.shape}"
        )
    # (AB - BA)[i, j] = A[i, j] (b_j - b_i) when B is diagonal; this avoids
    # two full matrix products for the common diagonal-Hamiltonian case
    if (d := _diagonal_of(b)) is not None:
        return _diagonal_commutator_norm(ma, d)
    if (d := _diagonal_of(a)) is not None:
        c = mb * (d[:, None] - d[None, :])
    else:
        c = ma @ mb - mb @ ma
    return operator_norm(c)


def _diagonal_commutator_norm(a: np.ndarray, d: np.ndarray) -> float:
    """``commutator_norm(a, diag(d))``, taken entrywise."""
    return operator_norm(a * (d[None, :] - d[:, None]))


def _additive_hamiltonian(*hs: object, dims: Sequence[int] | None = None) -> np.ndarray:
    """The conservation law ``L = sum_i 1 (x) .. (x) H_i (x) .. (x) 1`` of
    the factor Hamiltonians ``hs``, in tensor order, built as
    ``L (x) 1 + 1 (x) H_i`` one factor at a time: its diagonal when every
    ``H_i`` is diagonal, else the dense n x n sum.  ``dims``, when given,
    are the factor dimensions the ``H_i`` must have."""
    ms = [_entries_of(h) for h in hs]
    if dims is not None and (got := tuple(m.shape[0] for m in ms)) != tuple(dims):
        raise ValueError(f"Hamiltonian dimensions {got} != factor dimensions {dims}")
    ds = [_diagonal_of(h) for h in hs]
    if all(d is not None for d in ds):
        return functools.reduce(lambda a, b: (a[:, None] + b[None, :]).ravel(), ds)
    return functools.reduce(
        lambda a, b: _kron(a, np.eye(b.shape[0])) + _kron(np.eye(a.shape[0]), b), ms
    )


def _conservation_residual(u: object, law: np.ndarray) -> float:
    """``||[U, L]||`` for ``law``, a result of :func:`_additive_hamiltonian`.

    On a diagonal ``L`` a stroke built from planes is read plane by plane:
    ``[U, L]`` is the direct sum of the 2x2 blocks with off-diagonal
    entries ``b01 (L_j - L_i)`` and ``b10 (L_i - L_j)``.  Their Frobenius
    norm is returned when it is within ``EPS_ALG``, as ``operator_norm``
    does, and otherwise the exact spectral norm, the largest
    ``max(|b01|, |b10|) |L_j - L_i|``."""
    if law.ndim == 1:
        if (planes := getattr(u, "_planes", None)) is not None:
            i, j, b = planes
            d = np.abs(law[j] - law[i])
            x, y = abs(b[0, 1]), abs(b[1, 0])
            f = math.sqrt((x * x + y * y) * float(d @ d))
            return f if f <= EPS_ALG else max(x, y) * float(d.max())
        return _diagonal_commutator_norm(_entries_of(u), law)
    return commutator_norm(u, law)


def _entries_of(x: object) -> np.ndarray:
    """Accept wrapper types or bare arrays where a matrix is expected."""
    e = getattr(x, "entries", x)
    return np.asarray(e, dtype=complex)


def _coerce(cls: type, x: object) -> object:
    """``x`` when it is already a ``cls``, else ``cls(x)``: the one way a
    public dataclass accepts a bare array where a wrapper is declared."""
    return x if isinstance(x, cls) else cls(x)


class FieldError(ValueError):
    """Outside input rejected by a message that names its field."""


# the default of a block key that must be given
REQUIRED = object()

_TYPE_NAMES = {str: "a string", bool: "true or false",
               Mapping: "a mapping with string keys"}


def _read(value: object, kind: object, path: str, noun: str = "field") -> object:
    """``value``, read from outside input at ``path``, as ``kind``:

    * ``int`` or ``float``: a number; ``int`` takes integral values (``5.0``
      gives ``5``), ``float`` any finite real;
    * ``str``, ``bool`` or ``Mapping``: a value of that type, as given;
    * a tuple of strings: one of them;
    * ``[item]``: a non-empty list, read entrywise as ``item`` into a tuple
      (``[object]`` takes any entries);
    * a block, ``{key: (kind, default)}``: a mapping with no other keys,
      read into a dict of every key; an absent or null key takes its
      default, and is missing if that is ``REQUIRED``;
    * a function ``(value, path)``: its result, and a ``ValueError`` it
      raises is raised again naming the field.

    Every failure raises ``FieldError`` naming the full path of the field
    at fault, as in ``field 'config.target[0].label'``.
    """
    where = f"{noun} {path!r}"
    if isinstance(kind, dict):
        _read(value, Mapping, path, noun)
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in kind:
                raise FieldError(
                    f"unknown {noun} {prefix + key!r}; allowed: {', '.join(kind)}"
                )
        out = {}
        for key, (item, default) in kind.items():
            if value.get(key) is not None:
                out[key] = _read(value[key], item, prefix + key, noun)
            elif default is REQUIRED:
                raise FieldError(f"{noun} {prefix + key!r}: missing")
            else:
                out[key] = default
        return out
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise FieldError(f"{where}: expected a non-empty list, got {value!r}")
        return tuple(
            _read(v, kind[0], f"{path}[{i}]", noun) for i, v in enumerate(value)
        )
    if isinstance(kind, tuple):
        if value not in kind:
            raise FieldError(
                f"{where}: expected one of {', '.join(kind)}, got {value!r}"
            )
        return value
    if isinstance(kind, type) and kind not in (int, float):
        if not isinstance(value, kind) or (
            kind is Mapping and not all(isinstance(k, str) for k in value)
        ):
            raise FieldError(f"{where}: expected {_TYPE_NAMES[kind]}, got {value!r}")
        return value
    try:
        return _number(value, kind) if kind in (int, float) else kind(value, path)
    except FieldError:
        raise
    except ValueError as exc:
        raise FieldError(f"{where}: {exc}") from exc


def _number(value: object, kind: type) -> int | float:
    """``value`` as the reader's ``int`` or ``float`` kind; a ``ValueError``
    says why it is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {value!r}")
    if kind is int and not x.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def _positive(value: object, path: str) -> float:
    """A reader kind: a finite number above zero."""
    x = _number(value, float)
    if x <= 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return x


def _non_negative(value: object, path: str) -> float:
    """A reader kind: a finite number of at least zero."""
    x = _number(value, float)
    if x < 0:
        raise ValueError(f"expected a non-negative number, got {value!r}")
    return x


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Fix a vector's global phase: first significant amplitude real positive."""
    for a in v:
        if abs(a) > EPS_PHASE:
            return v * (abs(a) / a)
    return v


# ---------------------------------------------------------------------------
# domain types


@dataclasses.dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix with tolerance-based structural predicates.

    The entries are frozen, so the diagonal (``None`` unless diagonal) and
    the Hermiticity verdict are computed on first use and kept.  A stroke
    built by :meth:`_from_planes` is held as its planes, ``_planes = (i, j,
    block)``: it forms its n x n ``entries`` only when they are read, and
    :meth:`_apply` acts on the planes alone.  Every other operator has
    ``_planes = None``."""

    entries: np.ndarray

    _planes = None

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.entries)
        object.__setattr__(self, "entries", _freeze(m))

    @classmethod
    def _wrap(cls, m: np.ndarray) -> Operator:
        """An operator on ``m``, a finite complex square array the package
        built from validated parts and no one else holds: frozen in place,
        with no copy and no finite scan."""
        op = object.__new__(cls)
        object.__setattr__(op, "entries", _freeze(m))
        return op

    @classmethod
    def _from_planes(cls, dim: int, i: object, j: object, block: object) -> Operator:
        """The identity on ``dim`` states with the 2x2 ``block`` acting on
        each plane ``span{|i_k>, |j_k>}``, in that basis order.

        A stroke that conserves an additive Hamiltonian is a direct sum of
        such rotations inside its degenerate total-energy sectors.  The
        planes must be disjoint and in range, so that ``U^dag U - 1``,
        ``[U, L]`` and the difference of two strokes on the same planes are
        direct sums of 2x2 blocks; other input raises ``ValueError``.  The
        stroke keeps the planes, its dimension and the ``(2, m)`` array of
        plane indices that :meth:`_apply` gathers by; no n x n array is
        formed until ``entries`` is read."""
        i, j = np.asarray(i), np.asarray(j)
        b = np.array(block, dtype=complex)
        if b.shape != (2, 2) or not np.isfinite(b).all():
            raise ValueError(f"plane block must be a finite 2x2 matrix, got {block!r}")
        if i.shape != j.shape or i.dtype.kind not in "iu" or j.dtype.kind not in "iu":
            raise ValueError("plane indices must be two integer arrays of one length")
        i, j = i.astype(np.intp).ravel(), j.astype(np.intp).ravel()
        s = np.sort(np.concatenate((i, j)))
        if s.size and (s[0] < 0 or s[-1] >= dim or (s[1:] == s[:-1]).any()):
            raise ValueError(f"planes must be disjoint and within 0..{dim - 1}")
        op = object.__new__(_PlaneStroke)
        object.__setattr__(op, "_dim", int(dim))
        object.__setattr__(op, "_planes", (_freeze(i), _freeze(j), _freeze(b)))
        object.__setattr__(op, "_ij", _freeze(np.stack((i, j))))
        return op

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """``entries @ x``."""
        return self.entries @ x

    @functools.cached_property
    def _diagonal(self) -> np.ndarray | None:
        return _diagonal_of(self.entries)

    @functools.cached_property
    def is_hermitian(self) -> bool:
        return _is_hermitian(self)

    @property
    def is_unitary(self) -> bool:
        """``||U^dag U - 1|| <= EPS_ALG`` by one dense product and
        :func:`_within_eps`; a stroke built from its planes decides on its
        2x2 block instead."""
        return _is_unitary(self.entries)

    @property
    def is_projector(self) -> bool:
        if not self.is_hermitian:
            return False
        if (d := self._diagonal) is not None:
            # m m - m is diagonal too: its operator norm is its largest |entry|
            return float(np.abs(d * d - d).max()) <= EPS_ALG
        m = self.entries
        return _within_eps(m @ m - m)

    def rank_estimate(self) -> int:
        """Rank of a projector, via its trace."""
        return int(round(float(np.trace(self.entries).real)))


class _PlaneStroke(Operator):
    """An operator built by :meth:`Operator._from_planes`, held as its
    planes: the identity with ``_planes[2]`` on each plane ``(i_k, j_k)``."""

    @property
    def dim(self) -> int:
        return self._dim

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The dense matrix, formed on first read and kept frozen."""
        i, j, b = self._planes
        u = np.eye(self._dim, dtype=complex)
        u[i, i] = b[0, 0]
        u[i, j] = b[0, 1]
        u[j, i] = b[1, 0]
        u[j, j] = b[1, 1]
        return _freeze(u)

    @property
    def is_unitary(self) -> bool:
        """``||U^dag U - 1|| <= EPS_ALG``: the block's ``||b^dag b - 1||``,
        or 0 with no plane."""
        i, _, b = self._planes
        return i.size == 0 or _is_unitary(b)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """``entries @ x`` on a copy of ``x``: rows off every plane are kept,
        and the rows of all planes are gathered as a ``(2, m w)`` array for
        ``m`` planes and ``w`` columns, multiplied by the block in one
        ``(2, 2)`` product and scattered back."""
        y = np.array(x, dtype=complex, order="C")
        if y.shape[0] != self._dim:
            raise ValueError(f"operand has {y.shape[0]} rows, stroke dim {self._dim}")
        t = y.reshape(self._dim, -1)
        g = t[self._ij]
        t[self._ij] = (self._planes[2] @ g.reshape(2, -1)).reshape(g.shape)
        return y


@dataclasses.dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix.

    The public constructor validates its input in full, its Hermiticity
    residual included.  States the package derives from validated states by
    a CPTP map or builds as ``X X^dag`` are built privately with the trace,
    smallest-eigenvalue and non-finite checks alone (:meth:`_derived`,
    :meth:`_from_factor`).  Every state keeps its spectrum and entropy, and
    its ``eigh`` once one is needed, so nothing diagonalises the same state
    twice.  A state built from a factor ``X`` with ``rho = X X^dag`` is
    held as ``X``: it takes its spectrum from the singular values of ``X``,
    reads its dimension, trace and populations (``_populations``, the
    squared row norms of ``X``, complex as ``entries`` are) from ``X``, and
    forms ``entries`` on first read.  One wider than ``rho`` forms
    ``entries`` at once and carries a thin factor from their ``eigh``
    instead.  Every state not held as a factor has ``_populations = None``.
    """

    entries: np.ndarray

    _populations = None

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.entries)
        if not _within_eps(d := m - dagger(m)):
            raise ValueError(
                f"density matrix not Hermitian (deviation {operator_norm(d):.3e})"
            )
        ev = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
        _validate(m, ev)
        _keep(self, m, ev, None)

    @classmethod
    def _derived(cls, m: np.ndarray) -> DensityMatrix:
        """A state derived from validated states by a CPTP map: Hermitian
        up to rounding and held by no one else.  Its spectrum is computed
        as the public constructor computes it, so it is bit-identical; the
        trace, smallest-eigenvalue and non-finite checks stay, while the
        copy, the entrywise finite scan and the Hermiticity residual go."""
        m = np.asarray(m, dtype=complex)
        ev = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
        _validate(m, ev)
        return _keep(object.__new__(cls), m, ev, None)

    @classmethod
    def _from_factor(cls, x: np.ndarray) -> DensityMatrix:
        """``X X^dag``, with its spectrum taken from ``X``: the nonzero
        eigenvalues of ``X X^dag`` are the squared singular values of ``X``,
        so no eigendecomposition of the (possibly large) product is needed.
        Checked as a derived state is, with no Hermiticity residual: it
        cannot fire.  Entry ``(i, j)`` and the conjugate of entry ``(j, i)``
        are two roundings of one dot product of length ``k``, the factor's
        width, and each misses it by at most ``sqrt(2) gamma_2k sum_l |x_il|
        |x_jl|`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., ch. 3), so ``||m - m^dag||_F <= 2 sqrt(2) gamma_2k ||X||_F^2
        <= 6 k u tr(rho)`` with ``u = 2^-53``.  That stays below EPS_ALG for
        any ``k`` under ``EPS_ALG / (6 u)``, about 1.5e5 columns; a held
        factor is no wider than its state, so ``k <= MAX_DIM`` and the bound
        is at most 2.7e-12.

        A factor no wider than its dimension is held as the state
        (:class:`DensityMatrix`).  Its populations are the squared row norms
        of ``X``, and their sum, the trace, is checked before the SVD, so a
        non-finite factor is refused there; ``entries`` is formed as the
        same ``X @ dagger(X)`` on first read.

        A factor wider than its dimension is not carried: the product is
        formed at once, the spectrum comes from one ``eigh`` of it, and
        ``V sqrt(lambda)`` over its positive eigenvalues is carried instead,
        so factors fed from cycle to cycle stay no wider than their state.
        The trace norm of the eigenpairs left out is carried with it (see
        :func:`_factor`)."""
        x = np.asarray(x, dtype=complex)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"factor must be a 2-d array, shape {x.shape}")
        d = x.shape[0]
        if x.shape[1] > d:
            m = x @ dagger(x)
            ev, vec = np.linalg.eigh(m)
            _validate(m, ev)
            return _keep(object.__new__(cls), m, ev, _eigen_factor(ev, vec, 0.0))
        v = np.ascontiguousarray(x).view(float)
        populations = np.add.reduce(v * v, axis=1)  # squared row norms
        _check_trace(populations.sum())
        sv = np.linalg.svd(x, compute_uv=False)
        ev = np.zeros(d)
        ev[d - sv.size :] = np.sort(sv * sv)
        _check_spectrum(ev)
        rho = object.__new__(_FactorState)
        object.__setattr__(rho, "_spectrum", _freeze(ev))
        object.__setattr__(rho, "_populations", _freeze(populations.astype(complex)))
        object.__setattr__(rho, "_carried_factor", (_freeze(x), (float(ev.sum()), 0.0)))
        return rho

    @functools.cached_property
    def _entropy(self) -> float:
        return _entropy_of(self._spectrum)

    @functools.cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_freeze(a) for a in np.linalg.eigh(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class _FactorState(DensityMatrix):
    """A state built by :meth:`DensityMatrix._from_factor` from a factor
    ``X`` no wider than its dimension, held as ``X``."""

    @property
    def dim(self) -> int:
        return self._carried_factor[0].shape[0]

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """``X X^dag``, formed on first read and kept frozen."""
        x = self._carried_factor[0]
        return _freeze(x @ dagger(x))


def _keep(
    rho: DensityMatrix,
    m: np.ndarray,
    ev: np.ndarray,
    factor: tuple[np.ndarray, tuple[float, float]] | None,
) -> DensityMatrix:
    """Hold ``m``, its spectrum and, for a state built from a wide factor,
    the thin factor that replaced it with the trace norms it keeps and
    drops."""
    object.__setattr__(rho, "entries", _freeze(m))
    object.__setattr__(rho, "_spectrum", _freeze(ev))
    if factor is not None:
        factor = (_freeze(factor[0]), factor[1])
    object.__setattr__(rho, "_carried_factor", factor)
    return rho


def _validate(m: np.ndarray, spectrum: np.ndarray) -> None:
    """Trace and smallest eigenvalue, failing on non-finite input too.  The
    trace is read off the diagonal: ``eigvalsh`` may skip a diagonal NaN.
    The Hermiticity residual is the public constructor's alone."""
    _check_trace(np.trace(m))
    _check_spectrum(spectrum)


def _check_trace(trace: complex) -> None:
    """Refuse a trace other than 1; a non-finite one fails the comparison."""
    tr = complex(trace)
    if not abs(tr - 1.0) <= EPS_ALG:
        raise ValueError(f"density matrix trace {tr} differs from 1")


def _check_spectrum(spectrum: np.ndarray) -> None:
    mn = float(spectrum.min())
    if not mn >= -EPS_ALG:
        raise ValueError(f"density matrix has negative eigenvalue {mn:.3e}")


def _factor(
    rho: DensityMatrix, floor: float = EPS_EIG
) -> tuple[np.ndarray, tuple[float, float]]:
    """``X`` with ``rho = X X^dag`` and the trace norms it keeps and drops.

    A carried factor is returned as it is, with the norms it was carried
    with: it drops nothing, or, when it replaced a wider factor, the
    eigenvalues at or below 0.  Otherwise ``X`` comes from ``eigh`` and
    drops the populations at or below ``floor``; ``floor=0`` keeps every
    positive population."""
    if rho._carried_factor is not None:
        return rho._carried_factor
    return _eigen_factor(*rho._eigh, floor)


def _eigen_factor(
    ev: np.ndarray, vec: np.ndarray, floor: float
) -> tuple[np.ndarray, tuple[float, float]]:
    """``V sqrt(lambda)`` over the eigenvalues above ``floor``, and the trace
    norms of the eigenpairs it keeps and drops."""
    keep = ev > floor
    norms = (float(ev[keep].sum()), float(np.abs(ev[~keep]).sum()))
    return vec[:, keep] * np.sqrt(ev[keep]), norms


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """Normalised state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = _as_complex_vector(self.amplitudes)
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > EPS_ALG:
            raise ValueError(f"state norm {n} differs from 1")
        object.__setattr__(self, "amplitudes", _freeze(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> DensityMatrix:
        """``|v><v|``, carrying the amplitude column as its factor."""
        return DensityMatrix._from_factor(self.amplitudes[:, None])


@dataclasses.dataclass(frozen=True, eq=False)
class Factor:
    """One tensor factor: a label, its dimension, and its Hamiltonian."""

    label: str
    dim: int
    hamiltonian: Operator

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("factor dimension must be positive")
        if self.hamiltonian.dim != self.dim:
            raise ValueError(
                f"factor {self.label!r}: Hamiltonian dimension "
                f"{self.hamiltonian.dim} != {self.dim}"
            )
        if not self.hamiltonian.is_hermitian:
            raise ValueError(f"factor {self.label!r}: Hamiltonian not Hermitian")


@dataclasses.dataclass(frozen=True, eq=False)
class SubsystemLayout:
    """Ordered list of tensor factors with their Hamiltonians."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("layout needs at least one factor")
        labels = [f.label for f in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        object.__setattr__(self, "factors", factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no factor labelled {label!r} in {self.labels}") from None

    def embed(self, op: object, labels: Sequence[str]) -> np.ndarray:
        """Pad an operator on the named factors with identities elsewhere.

        ``op`` acts on the tensor product of the named factors taken in
        layout order; the result acts on the full space.
        """
        sel = sorted(self.index(l) for l in labels)
        if len(sel) != len(labels):
            raise ValueError("embed labels must be distinct")
        m = _entries_of(op)
        sel_dims = [self.dims[i] for i in sel]
        if m.shape[0] != int(np.prod(sel_dims)):
            raise ValueError(
                f"operator dimension {m.shape[0]} does not match factors {labels}"
            )
        rest = [i for i in range(len(self.factors)) if i not in sel]
        rest_dims = [self.dims[i] for i in rest]
        full = _kron(m, np.eye(int(np.prod(rest_dims)), dtype=complex))
        # permute tensor axes from (sel..., rest...) back to layout order
        order = sel + rest
        n = len(self.factors)
        perm = [order.index(i) for i in range(n)]
        shaped = full.reshape([self.dims[i] for i in order] * 2)
        shaped = shaped.transpose(perm + [p + n for p in perm])
        return shaped.reshape(self.total_dim, self.total_dim)

    def total_hamiltonian(self) -> np.ndarray:
        h = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for f in self.factors:
            h += self.embed(f.hamiltonian.entries, [f.label])
        return h


# ---------------------------------------------------------------------------
# operations


def _check_joint_dim(*dims: int) -> None:
    """Refuse a joint space of these factor dimensions over ``MAX_DIM``.
    Builders call it before allocating anything of the joint size."""
    total = math.prod(dims)
    if total > MAX_DIM:
        raise SizeError(f"joint dimension {total} exceeds limit {MAX_DIM}")


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker product in layout order, guarded by the dimension limit."""
    if a.dim * b.dim > MAX_DIM:
        raise SizeError(
            f"tensor product dimension {a.dim * b.dim} exceeds limit {MAX_DIM}"
        )
    return Operator(_kron(a.entries, b.entries))


def _ptrace_nd(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    n = len(dims)
    keep = list(keep)
    t = rho.reshape(list(dims) * 2)
    # trace out the complement, highest axis first so positions stay valid
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d, d)


def partial_trace(
    rho: DensityMatrix, layout: SubsystemLayout, keep: Iterable[str]
) -> DensityMatrix:
    """Trace out every factor not named in ``keep``."""
    keep_labels = list(keep)
    if not keep_labels:
        raise ValueError("keep set must not be empty")
    if len(set(keep_labels)) != len(keep_labels):
        raise ValueError("keep labels must be distinct")
    idx = sorted(layout.index(l) for l in keep_labels)
    m = _entries_of(rho)
    if m.shape[0] != layout.total_dim:
        raise ValueError(
            f"state dimension {m.shape[0]} does not match layout "
            f"dimension {layout.total_dim}"
        )
    return DensityMatrix(_ptrace_nd(m, layout.dims, idx))


def von_neumann_entropy(rho: object) -> float:
    """``-tr[rho ln rho]`` in nats; populations below EPS_EIG contribute 0.

    A :class:`DensityMatrix` answers from the entropy it keeps; a bare
    matrix is diagonalised here."""
    if isinstance(rho, DensityMatrix):
        return rho._entropy
    return _entropy_of(np.linalg.eigvalsh(_entries_of(rho)))


def _entropy_of(ev: np.ndarray) -> float:
    ev = ev[ev > EPS_EIG]
    if ev.size == 0:
        return 0.0
    return float(-(ev * np.log(ev)).sum())


def thermal_state(h: object, beta: float) -> DensityMatrix:
    """Gibbs state ``exp(-beta H) / Z``; ``beta = 0`` is maximally mixed."""
    m = _entries_of(h)
    _check_hermitian(m, "thermal_state requires a Hermitian Hamiltonian")
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
    ev, vec = np.linalg.eigh(m)
    w = np.exp(-beta * (ev - ev.min()))
    w /= w.sum()
    return DensityMatrix((vec * w) @ dagger(vec))


def projector_onto(vec: object) -> np.ndarray:
    v = np.asarray(getattr(vec, "amplitudes", vec), dtype=complex)
    return np.outer(v, v.conj())


def basis_state(dim: int, n: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise ValueError(f"basis index {n} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v
