"""Thermodynamic bookkeeping: free energy, per-outcome work, entropy tests,
erasure cost, and the inequality chains tying them together.

Work is stored in the weight and quantified by its non-equilibrium free
energy ``F(rho) = tr[H rho] - K_B T S(rho)`` (natural logarithms, so
entropies are in nats).  Erasure of the demon record is charged against the
extracted work through an idealised Landauer-optimal accounting rule, or
through an explicit finite reservoir with a constructed reset unitary when
one is given.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .measurement import _orthonormal_extension
from .qop import (
    EPS_ASSERT,
    EPS_EIG,
    EPS_ENTROPY,
    EPS_RESET,
    EPS_ROUTE,
    EPS_THERMAL,
    EPS_WORK,
    DensityMatrix,
    ErasureError,
    HardAssertionError,
    Operator,
    PureState,
    _check_hermitian,
    _coerce,
    _diagonal_of,
    _entries_of,
    _kron,
    _positive,
    _ptrace_nd,
    _within_eps,
    dagger,
    projector_onto,
    thermal_state,
    von_neumann_entropy,
)

__all__ = [
    "ThermoContext",
    "Feature2Report",
    "ExplicitReservoir",
    "ErasureResult",
    "WorkLedger",
    "ChainReport",
    "free_energy",
    "work_per_outcome",
    "work_energy_entropy_form",
    "feature2_test",
    "work_threshold",
    "erase_demon",
    "build_swap_erasure",
    "work_ledger",
    "reservoir_assisted_bound",
]


@dataclasses.dataclass(frozen=True)
class ThermoContext:
    """Reference temperature and Boltzmann constant (energy units)."""

    temperature: float
    kb: float = 1.0

    def __post_init__(self) -> None:
        for name in ("temperature", "kb"):
            value = getattr(self, name)
            try:  # True is no temperature, whatever it converts to
                object.__setattr__(self, name, _positive(value, name))
            except ValueError:
                raise ValueError(
                    f"{name} must be finite and positive, got {value!r}"
                ) from None
        if not (0.0 < self.kt < math.inf and 1.0 / self.kt < math.inf):
            raise ValueError(
                f"kb * temperature = {self.kt!r} must be a positive finite "
                "energy with a finite inverse"
            )

    @property
    def beta(self) -> float:
        return 1.0 / (self.kb * self.temperature)

    @property
    def kt(self) -> float:
        return self.kb * self.temperature


def _energy(h: object, rho: object, minus: object = None) -> float:
    """``tr[H (rho - minus)]`` of states or matrices, ``tr[H rho]`` without
    ``minus``.  A diagonal ``H`` needs only their diagonals, and a state
    held as its factor gives its populations from the factor's rows."""
    if (d := _diagonal_of(h)) is None:
        m = _entries_of(rho)
        if minus is not None:
            m = m - _entries_of(minus)
        return float(np.trace(_entries_of(h) @ m).real)
    p = _populations_of(rho)
    if minus is not None:
        p = p - _populations_of(minus)
    return float(np.add.reduce(d * p).real)


def _populations_of(rho: object) -> np.ndarray:
    """The diagonal of a state or matrix; a state held as its factor reads
    it from the factor."""
    p = getattr(rho, "_populations", None)
    return _entries_of(rho).diagonal() if p is None else p


def _shape_of(rho: object) -> tuple[int, ...]:
    """The shape of a state's matrix, read without forming the entries of a
    state held as its factor."""
    if isinstance(rho, DensityMatrix):
        return (rho.dim, rho.dim)
    return _entries_of(rho).shape


def free_energy(rho: object, h: object, ctx: ThermoContext) -> float:
    """``tr[H rho] - K_B T S(rho)``."""
    shape, hm = _shape_of(rho), _entries_of(h)
    _check_hermitian(h, "free_energy requires a Hermitian Hamiltonian")
    if shape != hm.shape:
        raise ValueError(f"dimension mismatch {shape} vs {hm.shape}")
    return _energy(h, rho) - ctx.kt * von_neumann_entropy(rho)


def work_per_outcome(
    rho_w_before: object, rho_w_after: object, h_w: object, ctx: ThermoContext
) -> float:
    """Free-energy gain of the weight over one branch."""
    return free_energy(rho_w_after, h_w, ctx) - free_energy(rho_w_before, h_w, ctx)


def work_energy_entropy_form(
    rho_s_before: object,
    rho_s_after: object,
    h_s: object,
    rho_w_before: object,
    rho_w_after: object,
    ctx: ThermoContext,
) -> float:
    """Branch work recomputed from the system's energy loss plus the weight's
    entropy change.  Agrees with :func:`work_per_outcome` whenever the branch
    dynamics conserve the summed weight+system energy."""
    de_s = _energy(h_s, rho_s_before, rho_s_after)
    ds_w = von_neumann_entropy(rho_w_before) - von_neumann_entropy(rho_w_after)
    return de_s + ctx.kt * ds_w


@dataclasses.dataclass(frozen=True)
class Feature2Report:
    passed: bool
    tol_s: float
    per_outcome: tuple[tuple[object, float, bool], ...]  # (x, |dS|, pass)


def feature2_test(
    branch_weight_states: Sequence[tuple[object, float, DensityMatrix | None]],
    rho_w: object,
    tol_s: float | None = None,
) -> Feature2Report:
    """Is the weight's entropy invariant on every realised branch?

    ``branch_weight_states`` holds ``(outcome, probability, weight state)``
    rows; branches with probability at or below the eigenvalue floor are
    skipped.  Default tolerance scales with the weight's log-dimension.
    """
    s0 = von_neumann_entropy(rho_w)
    dim = _shape_of(rho_w)[0]
    if tol_s is None:
        tol_s = EPS_ENTROPY * math.log(max(dim, 2))
    rows = []
    ok = True
    for outcome, p, state in branch_weight_states:
        if p <= EPS_EIG or state is None:
            continue
        ds = abs(von_neumann_entropy(state) - s0)
        good = ds <= tol_s
        rows.append((outcome, ds, good))
        if not good:
            ok = False
    return Feature2Report(passed=ok, tol_s=float(tol_s), per_outcome=tuple(rows))


def work_threshold(omega: float, ctx: ThermoContext) -> float:
    """Floor above which a branch work counts as strictly positive."""
    return EPS_WORK * max(omega, ctx.kt)


# ---------------------------------------------------------------------------
# erasure


@dataclasses.dataclass(frozen=True, eq=False)
class ExplicitReservoir:
    """Finite reservoir, given by its Hamiltonian ``h_r``, plus a reset
    unitary on demon (x) reservoir.  The reservoir starts in its Gibbs
    state at the temperature of the erasure's context."""

    h_r: Operator
    u_r: Operator

    def __post_init__(self) -> None:
        object.__setattr__(self, "h_r", _coerce(Operator, self.h_r))
        object.__setattr__(self, "u_r", _coerce(Operator, self.u_r))
        _check_hermitian(self.h_r, "reservoir Hamiltonian h_r must be Hermitian")
        if not self.u_r.is_unitary:
            raise ValueError("reset operator is not unitary")
        if self.u_r.dim % self.h_r.dim != 0:
            raise ValueError("reset operator does not factor over the reservoir")


@dataclasses.dataclass(frozen=True, eq=False)
class ErasureResult:
    q: float  # heat delivered to the reservoir
    w_r: float  # total work cost of the reset
    rho_r_after: DensityMatrix | None
    landauer_optimal: bool
    reset_fidelity: float


def erase_demon(
    rho_d_prime: DensityMatrix,
    h_d: object,
    demon_initial: PureState,
    ctx: ThermoContext,
    reservoir: ExplicitReservoir | None = None,
) -> ErasureResult:
    """Reset the demon record to its blank state and account the cost.

    Without a reservoir the erasure is Landauer-optimal, an accounting
    rule: exact reset with heat ``Q = K_B T S(rho_D')``.  An explicit
    reservoir applies its reset unitary to ``rho_D' (x) tau_R``, with
    ``tau_R`` the Gibbs state of ``H_R`` at the context temperature, and
    charges ``Q = tr[H_R (tau_R' - tau_R)]``; it must restore the blank
    state within fidelity 1 - 1e-6 and always obeys ``Q >= K_B T S(rho_D')``
    up to tolerance, anything less being an implementation bug.

    Both price the demon's own energy change as
    ``W_R = tr[H_D(|psi><psi| - rho_D')] + Q``.
    """
    tau = None if reservoir is None else thermal_state(reservoir.h_r, ctx.beta)
    return _erase_demon(rho_d_prime, h_d, demon_initial, ctx, reservoir, tau)


def _erase_demon(
    rho_d_prime: DensityMatrix,
    h_d: object,
    demon_initial: PureState,
    ctx: ThermoContext,
    reservoir: ExplicitReservoir | None,
    tau: DensityMatrix | None,
) -> ErasureResult:
    """:func:`erase_demon` given the reservoir's Gibbs state ``tau``
    (``None`` for the Landauer-optimal erasure)."""
    hd = _entries_of(h_d)
    dd = rho_d_prime.dim
    if hd.shape[0] != dd or demon_initial.dim != dd:
        raise ValueError("demon dimensions inconsistent")
    s_record = von_neumann_entropy(rho_d_prime)
    blank = projector_onto(demon_initial)
    e_term = _energy(h_d, blank, rho_d_prime)

    if reservoir is None:
        q = ctx.kt * s_record
        return ErasureResult(
            q=q,
            w_r=e_term + q,
            rho_r_after=None,
            landauer_optimal=True,
            reset_fidelity=1.0,
        )

    dr = tau.dim
    if reservoir.u_r.dim != dd * dr:
        raise ValueError(
            f"reset operator dimension {reservoir.u_r.dim} != demon*reservoir "
            f"{dd * dr}"
        )
    u = reservoir.u_r.entries
    joint = u @ _kron(rho_d_prime.entries, tau.entries) @ dagger(u)
    rho_d_after = _ptrace_nd(joint, [dd, dr], [0])
    fid = float(np.vdot(demon_initial.amplitudes, rho_d_after @ demon_initial.amplitudes).real)
    if fid < 1.0 - EPS_RESET:
        raise ErasureError(
            f"reset restores the blank state with fidelity {fid:.9f} < 1 - 1e-6"
        )
    tau_after = _ptrace_nd(joint, [dd, dr], [1])
    q = _energy(reservoir.h_r, tau_after, tau)
    if q < ctx.kt * s_record - EPS_ASSERT:
        raise HardAssertionError(
            f"explicit erasure heat {q} beats the Landauer cost "
            f"{ctx.kt * s_record}"
        )
    return ErasureResult(
        q=q,
        w_r=e_term + q,
        rho_r_after=DensityMatrix._derived(tau_after),
        landauer_optimal=False,
        reset_fidelity=fid,
    )


# The swap reservoir of :func:`build_swap_erasure`: the gap of its cold
# slot in units of K_B T, and the levels of its degenerate spectator.
SWAP_GAP_FACTOR = 15.0
SWAP_SPECTATOR_LEVELS = 4


def build_swap_erasure(
    demon_initial: PureState, ctx: ThermoContext
) -> ExplicitReservoir:
    """A concrete reset: swap the demon with a cold slot of a small reservoir.

    The reservoir is a slot of the demon's dimension (all excited levels at
    ``SWAP_GAP_FACTOR * K_B T``, so its thermal state is almost pure)
    tensored with an energy-degenerate spectator of
    ``SWAP_SPECTATOR_LEVELS`` levels that pads it to a larger Hilbert
    space.  The reset conjugates a demon-slot swap by the basis change that
    sends the blank state to the slot ground level.  Strictly dissipative:
    the heat exceeds the Landauer cost by a finite margin.
    """
    dd = demon_initial.dim
    gap = SWAP_GAP_FACTOR * ctx.kt
    h_slot = np.diag([0.0] + [gap] * (dd - 1))
    h_r = _kron(h_slot, np.eye(SWAP_SPECTATOR_LEVELS))
    # basis change on the demon: first column is the blank state
    b = _orthonormal_extension(
        demon_initial.amplitudes.reshape(-1, 1), dd
    )
    swap = np.zeros((dd * dd, dd * dd), dtype=complex)
    for i in range(dd):
        for j in range(dd):
            swap[j * dd + i, i * dd + j] = 1.0
    core = _kron(swap, np.eye(SWAP_SPECTATOR_LEVELS))
    rot = _kron(b, np.eye(dd * SWAP_SPECTATOR_LEVELS))
    u_r = rot @ core @ dagger(rot)
    return ExplicitReservoir(h_r, u_r)


# ---------------------------------------------------------------------------
# ledger


@dataclasses.dataclass(frozen=True)
class WorkLedger:
    """The cycle's work account.  The per-branch rows are the cycle's
    branches and the erasure terms its :class:`ErasureResult`; the ledger
    holds only what it derives from them."""

    w_coarse: float  # from the outcome-averaged weight state
    w_avg: float  # probability-weighted per-outcome work
    w_net_coarse: float
    w_net_avg: float
    bound_rhs_coarse: float  # F(rho_S) - F(rho_S')
    slack_second_law: float  # bound_rhs_coarse - w_net_coarse
    concavity_gap: float  # w_avg - w_coarse
    entropy_chain_slack: float


def work_ledger(
    branches: Sequence[tuple[object, float, DensityMatrix | None]],
    rho_w: object,
    rho_w_after: object,
    rho_s: object,
    rho_s_after: object,
    rho_d_after: object,
    h_w: object,
    h_s: object,
    erasure: ErasureResult,
    ctx: ThermoContext,
    certified: bool = True,
    reservoir_in_feedback: bool = False,
) -> WorkLedger:
    """Assemble the cycle's complete work account.

    ``branches`` holds ``(outcome, probability, branch weight state)`` rows.
    Hard assertions (concavity of the coarse work, the entropy chain, and
    the net-work second-law bound under Landauer-optimal erasure) fire only
    for certified engines whose feedback draws no reservoir; on such engines
    a violation can only be an implementation bug.
    """
    f_w0 = free_energy(rho_w, h_w, ctx)
    rows = [
        (p, state, free_energy(state, h_w, ctx) - f_w0)
        for _, p, state in branches
        if p > EPS_EIG and state is not None
    ]
    return _work_ledger(
        rows, f_w0, rho_w, rho_w_after, rho_s, rho_s_after, rho_d_after, h_w,
        h_s, erasure, ctx, certified, reservoir_in_feedback,
    )


def _work_ledger(
    rows: Sequence[tuple[float, DensityMatrix, float]],
    f_w0: float, rho_w: object, rho_w_after: object, rho_s: object,
    rho_s_after: object, rho_d_after: object, h_w: object, h_s: object,
    erasure: ErasureResult, ctx: ThermoContext, certified: bool,
    reservoir_in_feedback: bool,
) -> WorkLedger:
    """:func:`work_ledger` on the realised branches' ``(probability,
    weight state, work)`` rows, given ``F(rho_W)``."""
    t = ctx.kt
    w_avg = 0.0
    s_branch_avg = 0.0
    for p, state, w_x in rows:
        w_avg += p * w_x
        s_branch_avg += p * von_neumann_entropy(state)
    w_coarse = free_energy(rho_w_after, h_w, ctx) - f_w0
    concavity_gap = w_avg - w_coarse
    mixing_gap = t * (von_neumann_entropy(rho_w_after) - s_branch_avg)
    if certified:
        if concavity_gap < -EPS_ASSERT:
            raise HardAssertionError(
                f"coarse work exceeds average work by {-concavity_gap}"
            )
        if abs(concavity_gap - mixing_gap) > EPS_ROUTE:
            raise HardAssertionError(
                "work concavity gap does not match the weight mixing entropy "
                f"({concavity_gap} vs {mixing_gap}); marginals are inconsistent"
            )
    w_net_coarse = w_coarse - erasure.w_r
    w_net_avg = w_avg - erasure.w_r
    bound = free_energy(rho_s, h_s, ctx) - free_energy(rho_s_after, h_s, ctx)
    chain_slack = (
        von_neumann_entropy(rho_w_after)
        + von_neumann_entropy(rho_s_after)
        + von_neumann_entropy(rho_d_after)
        - von_neumann_entropy(rho_w)
        - von_neumann_entropy(rho_s)
    )
    if certified and not reservoir_in_feedback:
        if chain_slack < -EPS_ASSERT:
            raise HardAssertionError(
                f"entropy chain violated by {-chain_slack}; the pipeline is "
                "not unital"
            )
        if erasure.landauer_optimal and w_net_coarse > bound + EPS_ASSERT:
            raise HardAssertionError(
                f"net coarse work {w_net_coarse} exceeds the free-energy drop "
                f"{bound}"
            )
    return WorkLedger(
        w_coarse=w_coarse,
        w_avg=w_avg,
        w_net_coarse=w_net_coarse,
        w_net_avg=w_net_avg,
        bound_rhs_coarse=bound,
        slack_second_law=bound - w_net_coarse,
        concavity_gap=concavity_gap,
        entropy_chain_slack=chain_slack,
    )


# ---------------------------------------------------------------------------
# reservoir-assisted branch bound


@dataclasses.dataclass(frozen=True)
class ChainReport:
    w_x: float
    final_bound: float  # K_B T S(system after) + system energy drop
    energy_form: float  # reservoir + system energy released to the weight
    heat_identity_form: float  # energy form rewritten through entropies
    intermediate_bound: float  # final bound minus the relative-entropy term
    rel_entropy_term: float  # K_B T S(tau' || tau)
    subadditivity_gap: float
    weight_entropy_change: float


def reservoir_assisted_bound(
    rho_w: object,
    rho_w_after: object,
    rho_s_branch: object,
    rho_s_after: object,
    tau_r: object,
    tau_r_after: object,
    h_s: object,
    h_r: object,
    h_w: object,
    ctx: ThermoContext,
) -> ChainReport:
    """Certify the branch-work bound for reservoir-assisted feedback.

    For a branch unitary conserving the summed weight+system+reservoir
    energy, with the reservoir starting thermal, the extracted work obeys

        W_x <= K_B T S(rho_S') + tr[H_S (rho_S - rho_S')]

    The report carries every intermediate form of the chain: the energy
    form (exact), its entropy rewriting through the heat identity (exact),
    the subadditivity step, and the final bound after dropping the
    relative-entropy term.  Each link is asserted; a broken link means the
    inputs did not come from a conforming branch.
    """
    gibbs = thermal_state(h_r, ctx.beta)
    if not _within_eps(gibbs.entries - _entries_of(tau_r), EPS_THERMAL):
        raise ValueError(
            "reservoir input state is not thermal at the context temperature"
        )
    w_x = work_per_outcome(rho_w, rho_w_after, h_w, ctx)
    return _reservoir_chain(
        w_x, rho_w, rho_w_after, rho_s_branch, rho_s_after, tau_r, tau_r_after,
        h_s, h_r, h_w, ctx,
    )


def _reservoir_chain(
    w_x: float, rho_w: object, rho_w_after: object, rho_s_branch: object,
    rho_s_after: object, tau_r: object, tau_r_after: object, h_s: object,
    h_r: object, h_w: object, ctx: ThermoContext,
) -> ChainReport:
    """:func:`reservoir_assisted_bound` given the branch work ``w_x``, for
    a ``tau_r`` already known to be thermal.

    ``tau_r`` is ``exp(-beta (H_R - e_0)) / Z`` with ``e_0`` the least
    level of ``H_R``, so ``S(tau' || tau_r) = beta tr[H_R tau'] - beta e_0
    + ln Z - S(tau')`` needs no eigendecomposition of ``tau_r`` and no
    eigenvalue cutoff.  The heat identity then checks the kept entropy of
    ``tau_r`` against the partition function of ``h_r``."""
    t = ctx.kt
    ds_w = von_neumann_entropy(rho_w_after) - von_neumann_entropy(rho_w)
    de_w = _energy(h_w, rho_w_after, rho_w)
    de_s_drop = _energy(h_s, rho_s_branch, rho_s_after)
    energy_form = _energy(h_r, tau_r, tau_r_after) + de_s_drop
    if abs(de_w - energy_form) > EPS_ASSERT:
        raise HardAssertionError(
            f"weight energy gain {de_w} does not match the released energy "
            f"{energy_form}; the branch is not energy conserving"
        )
    levels = _diagonal_of(h_r)
    levels = np.linalg.eigvalsh(_entries_of(h_r)) if levels is None else levels.real
    e_0 = levels.min()
    log_z = math.log(np.exp(-ctx.beta * (levels - e_0)).sum())
    s_tau, s_tau_after = von_neumann_entropy(tau_r), von_neumann_entropy(tau_r_after)
    rel = t * (ctx.beta * (_energy(h_r, tau_r_after) - e_0) + log_z - s_tau_after)
    heat_identity_form = t * (s_tau - s_tau_after) - rel + de_s_drop
    if abs(energy_form - heat_identity_form) > EPS_ROUTE:
        raise HardAssertionError(
            "heat identity failed: the reservoir energy change does not "
            "match its entropy rewriting"
        )
    s_after = von_neumann_entropy(rho_s_after)
    intermediate = t * s_after - rel + de_s_drop
    final = t * s_after + de_s_drop
    subadd_gap = (
        ds_w + s_after - von_neumann_entropy(rho_s_branch) + s_tau_after - s_tau
    )
    if subadd_gap < -EPS_ASSERT:
        raise HardAssertionError(
            f"entropy subadditivity violated by {-subadd_gap}"
        )
    if w_x > intermediate + EPS_ASSERT or intermediate > final + EPS_ASSERT:
        raise HardAssertionError(
            f"bound chain broken: W_x {w_x}, intermediate {intermediate}, "
            f"final {final}"
        )
    return ChainReport(
        w_x=w_x,
        final_bound=final,
        energy_form=energy_form,
        heat_identity_form=heat_identity_form,
        intermediate_bound=intermediate,
        rel_entropy_term=rel,
        subadditivity_gap=subadd_gap,
        weight_entropy_change=ds_w,
    )
