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
    _energy_sectors,
    _entries_of,
    _factor,
    _fix_phase,
    _kron,
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
            (l, u if isinstance(u, Operator) else Operator(u))
            for l, u in self.branch_unitaries
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
    projectors, which force the sum to be unitary."""
    _check_labels(scheme, records)
    d = scheme.branch_dim * records.dim
    v = np.zeros((d, d), dtype=complex)
    for label, u in scheme.branch_unitaries:
        v += _kron(u.entries, records.projector_for(label).entries)
    return Operator(v)


# ---------------------------------------------------------------------------
# form certification


# The contraction order ``np.einsum(..., optimize=True)`` picks for the block
# average below whenever the branch dimension exceeds one: the two demon
# projectors first, then the operator.  Passing it skips the path search on
# each call.
_BLOCK_PATH = ["einsum_path", (0, 2), (0, 1)]


@dataclasses.dataclass(frozen=True)
class FormReport:
    passed: bool
    block_residual: float
    probe_residual: float


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

    All contractions ride on the demon being the (small) final factor.
    """
    m = _entries_of(v)
    dps = [
        (l, p if isinstance(p, Operator) else Operator(p))
        for l, p in demon_projectors
    ]
    dd = dps[0][1].dim
    if m.shape[0] != branch_dim * dd:
        raise ValueError(
            f"operator dimension {m.shape[0]} != branch_dim*demon {branch_dim * dd}"
        )
    t = m.reshape(branch_dim, dd, branch_dim, dd)
    recon = np.zeros_like(m)
    blocks_unitary = True
    probe = 0.0
    for label, p in dps:
        pe = p.entries
        rank = p.rank_estimate()
        # averaging the demon factor away recovers B_x when the block is a
        # product, and exposes any within-subspace structure otherwise
        b = np.einsum("ab,ibjc,ca->ij", pe, t, pe, optimize=_BLOCK_PATH) / rank
        recon += _kron(b, pe)
        if operator_norm(b @ dagger(b) - np.eye(branch_dim)) > EPS_ALG:
            blocks_unitary = False
        left = np.einsum("ibjc,cd->ibjd", t, pe).reshape(m.shape)
        right = np.einsum("bd,idjc->ibjc", pe, t).reshape(m.shape)
        probe = max(probe, operator_norm(left - right))
    block_residual = operator_norm(m - recon)
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


def _within_eps(d: np.ndarray) -> bool:
    """``operator_norm(d) <= EPS_ALG``, settled by bounds where they agree.

    The largest column 2-norm bounds the spectral norm from below and the
    Frobenius norm bounds it from above, so the exact norm (an SVD) is
    needed only when EPS_ALG lies between the two."""
    if float(np.linalg.norm(d, axis=0).max()) > EPS_ALG:
        return False
    if float(np.linalg.norm(d)) <= EPS_ALG:
        return True
    return operator_norm(d) <= EPS_ALG


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
    total energy.
    """
    _check_labels(scheme, records)
    hw = _entries_of(h_w)
    hs = _entries_of(h_s)
    hd = _entries_of(h_d)
    dw, ds = hw.shape[0], hs.shape[0]
    hadd = _kron(hw, np.eye(ds)) + _kron(np.eye(dw), hs)
    if h_r is not None:
        hr = _entries_of(h_r)
        hadd = _kron(hadd, np.eye(hr.shape[0])) + _kron(
            np.eye(dw * ds), hr
        )
    branch = []
    ok = True
    for label, u in scheme.branch_unitaries:
        c = commutator_norm(u.entries, hadd)
        branch.append((label, c))
        if c > EPS_ALG:
            ok = False
    # group outcomes by identical branch unitary
    groups: list[list[object]] = []
    for label, u in scheme.branch_unitaries:
        for g in groups:
            if _within_eps(u.entries - scheme.unitary_for(g[0]).entries):
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
    the returned states carry ``A``.
    """
    u = scheme.unitary_for(outcome).entries
    states = [rho_weight, rho_system]
    if rho_reservoir is not None:
        states.append(rho_reservoir)
    dims = [r.dim for r in states]
    if u.shape[0] != math.prod(dims):
        raise ValueError(
            f"branch unitary dimension {u.shape[0]} != joint {math.prod(dims)}"
        )
    x = functools.reduce(_kron, (_factor(r, floor=0.0)[0] for r in states))
    t = (u @ x).reshape(*dims, -1)
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
    window state over levels ``2..levels+1``."""

    omega: float
    levels: int
    dim: int

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.levels < 1:
            raise ValueError("need at least one window level")
        # one rung of headroom on each side of the window, so a single raise
        # or lower never collides with the truncation
        if self.dim < self.levels + 3:
            raise ValueError(
                f"dimension {self.dim} too small for a {self.levels}-level "
                f"window starting at 2 plus headroom"
            )

    @property
    def hamiltonian(self) -> Operator:
        return Operator(np.diag(self.omega * np.arange(self.dim, dtype=float)))

    @property
    def initial_state(self) -> PureState:
        v = np.zeros(self.dim, dtype=complex)
        v[2 : 2 + self.levels] = 1.0 / np.sqrt(self.levels)
        return PureState(v)

    def initial_density(self) -> DensityMatrix:
        return self.initial_state.density()


def build_oscillator_weight(
    omega: float, levels: int, dim: int | None = None
) -> OscillatorWeight:
    if dim is None:
        dim = levels + 4
    return OscillatorWeight(omega=float(omega), levels=int(levels), dim=int(dim))


def _plane_stroke(dim: int, i: object, j: object, block: object) -> np.ndarray:
    """The identity on ``dim`` states with the 2x2 ``block`` acting on each
    plane ``span{|i_k>, |j_k>}``, in that basis order; planes are disjoint.

    A stroke that conserves an additive Hamiltonian is a direct sum of such
    rotations inside its degenerate total-energy sectors."""
    i, j = np.asarray(i), np.asarray(j)
    b = np.asarray(block, dtype=complex)
    u = np.eye(dim, dtype=complex)
    u[i, i] = b[0, 0]
    u[i, j] = b[0, 1]
    u[j, i] = b[1, 0]
    u[j, j] = b[1, 1]
    return u


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
    return Operator(_plane_stroke(2 * dw, 2 * k, 2 * (k + 1) + 1, g))


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
