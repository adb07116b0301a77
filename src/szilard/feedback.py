"""Outcome-conditioned feedback and work-extraction unitaries.

Feedback acts after objectification: conditioned on the pointer record, a
branch unitary is applied to weight plus system (and optionally a reservoir).
The composed operation has the controlled form ``sum_x U_x (x) P_x`` with
the memory as the control.  This module builds such schemes, certifies the
form and its energy bookkeeping, and provides the ladder-weight constructions
used by the engine scenarios.

Factor order inside branch unitaries is (weight, system[, reservoir]), and
the demon control sits as the last tensor factor of the composed operation.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

from .measurement import Observable
from .qop import (
    EPS_ALG,
    DensityMatrix,
    Operator,
    PureState,
    _additive_hamiltonian,
    _coerce,
    _conservation_residual,
    _energy_sectors,
    _entries_of,
    _factor,
    _fix_phase,
    _is_unitary,
    _kron,
    _norm_bracket,
    _read,
    _within_eps,
    commutator_norm,
    dagger,
    operator_norm,
)

__all__ = [
    "FeedbackScheme",
    "BranchOutput",
    "FormReport",
    "FeedbackEnergyReport",
    "OscillatorWeight",
    "compose_feedback_unitary",
    "check_feedback_form",
    "check_feedback_energy",
    "conditional_feedback_map",
    "build_oscillator_weight",
    "random_energy_conserving_unitary",
    "objectification_order_gap",
]


# ---------------------------------------------------------------------------
# scheme


@dataclasses.dataclass(frozen=True, eq=False)
class FeedbackScheme:
    """The branch unitaries ``U_x`` of a controlled feedback
    ``sum_x U_x (x) P_x^D``.

    ``branch_unitaries`` maps each outcome to a unitary on weight+system
    (+reservoir when one takes part).  The controls ``P_x^D`` are not part
    of the scheme: they are the record projectors the measurement writes.
    """

    branch_unitaries: tuple[tuple[object, Operator], ...]

    def __post_init__(self) -> None:
        bu = tuple(
            (l, _coerce(Operator, u)) for l, u in self.branch_unitaries
        )
        if not bu:
            raise ValueError("scheme needs branch unitaries")
        labels = [l for l, _ in bu]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate outcome labels")
        d = bu[0][1].dim
        for l, u in bu:
            if u.dim != d:
                raise ValueError("branch unitary dimensions inconsistent")
            if not u.is_unitary:
                raise ValueError(f"branch operator for {l!r} is not unitary")
        object.__setattr__(self, "branch_unitaries", bu)

    @property
    def labels(self) -> tuple[object, ...]:
        return tuple(l for l, _ in self.branch_unitaries)

    @property
    def branch_dim(self) -> int:
        return self.branch_unitaries[0][1].dim

    def unitary_for(self, label: object) -> Operator:
        for l, u in self.branch_unitaries:
            if l == label:
                return u
        raise ValueError(f"unknown outcome label {label!r}")


def _check_labels(scheme: FeedbackScheme, records: Observable) -> None:
    if set(scheme.labels) != set(records.labels):
        raise ValueError(
            f"branch labels {sorted(map(str, scheme.labels))} do not match "
            f"record labels {sorted(map(str, records.labels))}"
        )


def compose_feedback_unitary(
    scheme: FeedbackScheme, records: Observable
) -> Operator:
    """The full controlled unitary ``sum_x U_x (x) P_x``, each ``U_x``
    controlled by its outcome's projector in the record register, demon as
    the last tensor factor.

    Unitarity needs no runtime product here: the scheme validated each
    branch unitary and the register the orthogonal completeness of its
    projectors, which force the sum to be unitary.  Each nonzero entry
    ``P_x[a, b]`` adds ``U_x P_x[a, b]`` into the ``(branch, demon, branch,
    demon)`` view of V, so no ``U_x (x) P_x`` is formed.  A stroke held as
    planes adds the two entries of each of its columns, so its n x n entries
    are never formed; a dense ``U_x`` adds a sixteenth of its rows at a
    time, so each scratch product is at most ``1/16`` of it.  V is frozen as
    it is built, not copied."""
    _check_labels(scheme, records)
    bd, dd = scheme.branch_dim, records.dim
    v = np.zeros((bd * dd, bd * dd), dtype=complex)
    t = v.reshape(bd, dd, bd, dd)
    k, step = np.arange(bd), -(-bd // 16)
    for label, u in scheme.branch_unitaries:
        p = records.projector_for(label).entries
        cols = None if u._planes is None else _plane_columns(u)
        for a, b in zip(*np.nonzero(p)):
            if cols is not None:
                diag, row, off = cols
                t[k, a, k, b] += diag * p[a, b]
                t[row, a, k, b] += off * p[a, b]
            else:
                for r in range(0, bd, step):
                    t[r : r + step, a, :, b] += u.entries[r : r + step] * p[a, b]
    return Operator._wrap(v)


# ---------------------------------------------------------------------------
# form certification


@dataclasses.dataclass(frozen=True)
class FormReport:
    passed: bool
    block_residual: float
    probe_residual: float


def _register_form(records: Observable) -> FormReport | None:
    """The report :func:`check_feedback_form` gives a scheme's V controlled
    by ``records`` when every record projector is a diagonal of exact 0s
    and 1s, else ``None``.  Such a V permutes the direct sum of the ``U_x``
    (each ``rank P_x`` times), so it is controlled by construction, and the
    scheme judged each ``U_x`` on ``||U^dag U - 1||``, which equals the
    ``||U U^dag - 1||`` the dense check judges.  No V is formed."""
    if records._zero_one_diagonals is None:
        return None
    return FormReport(passed=True, block_residual=0.0, probe_residual=0.0)


def check_feedback_form(
    v: object,
    demon_projectors: Sequence[tuple[object, Operator]],
    branch_dim: int,
) -> FormReport:
    """Is ``v`` of the controlled form ``sum_x U_x (x) P_x``?

    Two routes, both reported: the reconstruction residual
    ``||v - sum_x B_x (x) P_x||`` with ``B_x`` the compressed blocks, and a
    probe residual ``||[v, 1 (x) P_x]||`` measuring how far conjugation by a
    unitary ``v`` moves each ``1 (x) P_x``.  The probe vanishes for any
    block-diagonal unitary, so the verdict requires the reconstruction to
    close with unitary blocks; the probe is reported as an independent
    diagnostic.

    Each ``B_x`` is judged unitary as ``Operator.is_unitary`` judges a dense
    matrix, by the one product ``||B_x B_x^dag - 1|| <= EPS_ALG``.  A
    non-finite entry fails the check: the verdict is ``False`` or the exact
    norm raises ``LinAlgError``.

    All contractions ride on the demon being the (small) final factor.  The
    reconstruction is finished and dropped before the probes start, and each
    probe subtracts in place, so at most three n x n arrays are held at once.
    """
    m = _entries_of(v)
    dps = [(l, _coerce(Operator, p)) for l, p in demon_projectors]
    dd = dps[0][1].dim
    if m.shape[0] != branch_dim * dd:
        raise ValueError(
            f"operator dimension {m.shape[0]} != branch_dim*demon {branch_dim * dd}"
        )
    t = m.reshape(branch_dim, dd, branch_dim, dd)
    recon = np.zeros_like(m)
    blocks_unitary = True
    for label, p in dps:
        pe = p.entries
        rank = p.rank_estimate()
        # averaging the demon factor away recovers B_x when the block is a
        # product, and exposes any within-subspace structure otherwise
        b = np.einsum("ab,ibjc,ca->ij", pe, t, pe, optimize=True) / rank
        recon += _kron(b, pe)
        # the predicate forms X^dag X, which is B B^dag for X = B^dag
        if not _is_unitary(dagger(b)):
            blocks_unitary = False
    block_residual = operator_norm(np.subtract(m, recon, out=recon))
    del recon
    probe = 0.0
    for label, p in dps:
        left = np.einsum("ibjc,cd->ibjd", t, p.entries).reshape(m.shape)
        left -= np.einsum("bd,idjc->ibjc", p.entries, t).reshape(m.shape)
        probe = max(probe, operator_norm(left))
    passed = block_residual <= EPS_ALG and blocks_unitary
    return FormReport(
        passed=passed, block_residual=block_residual, probe_residual=probe
    )


# ---------------------------------------------------------------------------
# energy certification


@dataclasses.dataclass(frozen=True)
class FeedbackEnergyReport:
    passed: bool
    branch_commutators: tuple[tuple[object, float], ...]
    pointer_group_commutators: tuple[tuple[tuple[object, ...], float], ...]


def _plane_columns(u: Operator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every column ``c`` of a stroke built from planes, which holds at most
    two nonzeros: its diagonal entry, the other row of ``c``'s plane (``c``
    itself off every plane) and the entry there (0 off every plane)."""
    i, j, b = u._planes
    diag = np.ones(u.dim, dtype=complex)
    diag[i], diag[j] = b[0, 0], b[1, 1]
    row = np.arange(u.dim)
    row[i], row[j] = j, i
    off = np.zeros(u.dim, dtype=complex)
    off[i], off[j] = b[1, 0], b[0, 1]
    return diag, row, off


def _same_stroke(u: Operator, g: Operator) -> bool:
    """``operator_norm(u - g) <= EPS_ALG``.  Two strokes on the same planes
    differ by the direct sum of their blocks' difference, so that 2x2
    difference decides it (with no plane they are both the identity).

    Two strokes on other planes are settled in O(n) where they can be:
    each column of ``u - g`` is the difference of the aligned entries of
    two columns with at most two nonzeros each, and ``qop._norm_bracket``
    reads its bounds off these columns.  Strokes it leaves open, and dense
    strokes, take :func:`_within_eps` on the dense difference."""
    pu, pg = u._planes, g._planes
    if pu is not None and pg is not None:
        # plane indices are 1-d intp arrays, equal exactly when their bytes are
        if all(a.tobytes() == b.tobytes() for a, b in zip(pu[:2], pg[:2])):
            return pu[0].size == 0 or _within_eps(pu[2] - pg[2])
        du, ru, ou = _plane_columns(u)
        dg, rg, og = _plane_columns(g)
        same = ru == rg  # the off entries share a row, or both are 0
        cols = np.stack((du - dg, np.where(same, ou - og, ou), np.where(same, 0, -og)))
        if (verdict := _norm_bracket(cols, EPS_ALG)) is not None:
            return verdict
    return _within_eps(u.entries - g.entries)


def check_feedback_energy(
    scheme: FeedbackScheme,
    records: Observable,
    h_w: object,
    h_s: object,
    h_d: object,
    h_r: object | None = None,
) -> FeedbackEnergyReport:
    """Energy conservation of the composed feedback operation, itemised.

    Each branch unitary must commute with the additive Hamiltonian of the
    factors it acts on (a reservoir exactly when ``h_r`` is given), and for
    every maximal group of outcomes sharing the same branch unitary the
    summed record projector must commute with the memory Hamiltonian.
    Together these certify that the composed controlled operation conserves
    total energy.  The branch residuals are taken against
    ``qop._additive_hamiltonian``: entrywise when every factor is diagonal,
    and plane by plane on a stroke built from planes.
    """
    _check_labels(scheme, records)
    law = _additive_hamiltonian(*((h_w, h_s) if h_r is None else (h_w, h_s, h_r)))
    if law.shape[0] != scheme.branch_dim:
        raise ValueError(
            f"Hamiltonian dimension {law.shape[0]} != branch dimension "
            f"{scheme.branch_dim}"
        )
    hd = _entries_of(h_d)
    branch = []
    ok = True
    for label, u in scheme.branch_unitaries:
        c = _conservation_residual(u, law)
        branch.append((label, c))
        if c > EPS_ALG:
            ok = False
    # group outcomes by identical branch unitary
    groups: list[list[object]] = []
    for label, u in scheme.branch_unitaries:
        for g in groups:
            if _same_stroke(u, scheme.unitary_for(g[0])):
                g.append(label)
                break
        else:
            groups.append([label])
    gsum = []
    for g in groups:
        p = sum(records.projector_for(l).entries for l in g)
        c = commutator_norm(p, hd)
        gsum.append((tuple(g), c))
        if c > EPS_ALG:
            ok = False
    return FeedbackEnergyReport(
        passed=ok,
        branch_commutators=tuple(branch),
        pointer_group_commutators=tuple(gsum),
    )


# ---------------------------------------------------------------------------
# conditional action on a branch


@dataclasses.dataclass(frozen=True, eq=False)
class BranchOutput:
    rho_system: DensityMatrix
    rho_weight: DensityMatrix
    rho_reservoir: DensityMatrix | None


def conditional_feedback_map(
    scheme: FeedbackScheme,
    outcome: object,
    rho_weight: DensityMatrix,
    rho_system: DensityMatrix,
    rho_reservoir: DensityMatrix | None = None,
) -> BranchOutput:
    """Apply one branch unitary to ``weight (x) system [(x) reservoir]``;
    the reservoir takes part exactly when ``rho_reservoir`` is given.

    The branch state is carried as a factor ``X`` with ``rho = X X^dag``:
    each input contributes its carried factor, or an ``eigh`` factor that
    keeps every positive population, and ``U (X_W (x) X_S [(x) X_R])`` is
    only as wide as the product of their ranks.  Each marginal is ``A A^dag``
    with ``A`` the evolved factor reshaped with that factor's axis first, and
    the returned states carry ``A``, or a thin factor of ``A A^dag`` where
    ``A`` is wider than its dimension (``DensityMatrix._from_factor``).
    ``U`` acts through ``Operator._apply``: a stroke built from planes moves
    only the rows of its planes, and no n x n array is formed.
    """
    u = scheme.unitary_for(outcome)
    states = [rho_weight, rho_system]
    if rho_reservoir is not None:
        states.append(rho_reservoir)
    dims = [r.dim for r in states]
    if u.dim != math.prod(dims):
        raise ValueError(
            f"branch unitary dimension {u.dim} != joint {math.prod(dims)}"
        )
    x = functools.reduce(_kron, (_factor(r, floor=0.0)[0] for r in states))
    t = u._apply(x).reshape(*dims, -1)
    out = [
        DensityMatrix._from_factor(np.moveaxis(t, ax, 0).reshape(d, -1))
        for ax, d in enumerate(dims)
    ]
    return BranchOutput(
        rho_system=out[1],
        rho_weight=out[0],
        rho_reservoir=out[2] if len(out) > 2 else None,
    )


# ---------------------------------------------------------------------------
# order of objectification and feedback


def objectification_order_gap(
    v: object,
    rho_joint: object,
    demon_projectors: Sequence[tuple[object, Operator]],
    branch_dim: int,
) -> float:
    """Distance between objectify-then-feedback and feedback-then-objectify.

    ``rho_joint`` lives on ``branch (x) demon`` with the demon last.  For a
    genuinely controlled feedback the two orders agree exactly; the returned
    operator-norm gap quantifies any violation.
    """
    m = _entries_of(v)
    rho = _entries_of(rho_joint)
    projs = [_kron(np.eye(branch_dim), _entries_of(p)) for _, p in demon_projectors]
    objectified = sum(p @ rho @ p for p in projs)
    before = m @ objectified @ dagger(m)
    evolved = m @ rho @ dagger(m)
    after = sum(p @ evolved @ p for p in projs)
    return operator_norm(before - after)


# ---------------------------------------------------------------------------
# ladder weight and shift unitaries


@dataclasses.dataclass(frozen=True, eq=False)
class OscillatorWeight:
    """Truncated ladder: ``H_W = omega * diag(0..dim-1)`` and a uniform
    window state over levels ``2..levels+1``.  The Hamiltonian and the
    initial state are built on first use and kept."""

    omega: float
    levels: int
    dim: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        for name in ("levels", "dim"):
            object.__setattr__(self, name, _read(getattr(self, name), int, name))
        if self.levels < 1:
            raise ValueError("need at least one window level")
        # one rung of headroom on each side of the window, so a single raise
        # or lower never collides with the truncation
        if self.dim < self.levels + 3:
            raise ValueError(
                f"dimension {self.dim} too small for a {self.levels}-level "
                f"window starting at 2 plus headroom"
            )

    @functools.cached_property
    def hamiltonian(self) -> Operator:
        # built complex in place, with no float copy: only the diagonal
        # needs the finite scan
        d = self.omega * np.arange(self.dim, dtype=float)
        if not np.isfinite(d).all():
            raise ValueError("entries contains non-finite values")
        h = np.zeros((self.dim, self.dim), dtype=complex)
        np.fill_diagonal(h, d)
        return Operator._wrap(h)

    @property
    def initial_state(self) -> PureState:
        v = np.zeros(self.dim, dtype=complex)
        v[2 : 2 + self.levels] = 1.0 / np.sqrt(self.levels)
        return PureState(v)

    @functools.cached_property
    def initial(self) -> DensityMatrix:
        return self.initial_state.density()

    @property
    def scale(self) -> float:
        """The energy a work floor is measured against: the rung ``omega``."""
        return self.omega


def build_oscillator_weight(
    omega: float, levels: int, dim: int | None = None
) -> OscillatorWeight:
    if dim is None:
        dim = levels + 4
    return OscillatorWeight(omega=float(omega), levels=levels, dim=dim)


# a stroke built from planes keeps them, so its certificates read 2x2 blocks
_plane_stroke = Operator._from_planes


def build_shift_unitary(
    weight: OscillatorWeight, post: np.ndarray | PureState
) -> Operator:
    """Energy-conserving work stroke on ``weight (x) qubit``.

    The qubit carries ``H = (omega/2) diag(1, -1)``, with basis vector 0 the
    excited state and basis vector 1 the ground state, and the gap equals
    the ladder spacing.  The stroke rotates the branch post state to the
    ground component while raising the weight one rung, acting as a 2x2
    block inside each degenerate total-energy sector
    ``span{|k, e0>, |k+1, e1>}`` for ``k = 1 .. dim-2``; the bottom sector
    and the edge states are left untouched, which keeps the operation
    unitary and exactly energy conserving on the truncated ladder.

    A ground-state post makes the stroke collapse to the identity, so the
    same constructor covers do-nothing branches.
    """
    dw = weight.dim
    vpost = np.asarray(getattr(post, "amplitudes", post), dtype=complex)
    if vpost.shape != (2,):
        raise ValueError("shift construction is limited to qubit systems")
    if abs(np.linalg.norm(vpost) - 1.0) > EPS_ALG:
        raise ValueError("post state is not normalised")
    vperp = _fix_phase(np.array([-np.conj(vpost[1]), np.conj(vpost[0])]))
    # 2x2 sector block in the (e0, e1) basis: post -> ground (weight up one
    # rung), orthogonal complement -> excited (weight unchanged)
    g = np.outer([0.0, 1.0], np.conj(vpost)) + np.outer([1.0, 0.0], np.conj(vperp))
    k = np.arange(1, dw - 1)
    return _plane_stroke(2 * dw, 2 * k, 2 * (k + 1) + 1, g)


# ---------------------------------------------------------------------------
# random conserving unitaries


def random_energy_conserving_unitary(
    hamiltonian: object, rng: np.random.Generator
) -> Operator:
    """Haar-random within each energy sector of the Hamiltonian."""
    h = _entries_of(hamiltonian)
    ev, vec = np.linalg.eigh(h)
    n = h.shape[0]
    blocks = np.zeros((n, n), dtype=complex)
    for sector in _energy_sectors(ev):
        k = sector.size
        z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        blocks[np.ix_(sector, sector)] = q
    u = vec @ blocks @ dagger(vec)
    return Operator(u)
