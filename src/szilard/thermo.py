"""Thermodynamic bookkeeping: free energy, per-outcome work, entropy tests,
erasure cost, and the inequality chains tying them together.

Work is stored in the weight and quantified by its non-equilibrium free
energy ``F(rho) = tr[H rho] - K_B T S(rho)`` (natural logarithms, so
entropies are in nats).  Erasure of the demon record is charged against the
extracted work either through an idealised Landauer-optimal accounting rule
or through an explicit finite reservoir with a constructed reset unitary.
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
    _entries_of,
    _is_diagonal,
    _kron,
    _ptrace_nd,
    dagger,
    operator_norm,
    projector_onto,
    thermal_state,
    von_neumann_entropy,
    relative_entropy,
)

__all__ = [
    "ThermoContext",
    "Feature2Report",
    "ExplicitReservoir",
    "ErasureResult",
    "OutcomeWork",
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
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not self.kb > 0:
            raise ValueError(f"kb must be positive, got {self.kb}")

    @property
    def beta(self) -> float:
        return 1.0 / (self.kb * self.temperature)

    @property
    def kt(self) -> float:
        return self.kb * self.temperature


def _check_thermal(
    state: object, h: object, ctx: ThermoContext, message: str
) -> None:
    """Raise ``ValueError(message)`` unless ``state`` is the Gibbs state of
    ``h`` at the context temperature."""
    tau = thermal_state(h, ctx.beta)
    if operator_norm(tau.entries - _entries_of(state)) > EPS_THERMAL:
        raise ValueError(message)


def _energy(h: np.ndarray, m: np.ndarray) -> float:
    """``tr[H m]``; a diagonal ``H`` needs only the diagonal of ``m``."""
    if _is_diagonal(h):
        return float(np.sum(np.diagonal(h) * np.diagonal(m)).real)
    return float(np.trace(h @ m).real)


def free_energy(rho: object, h: object, ctx: ThermoContext) -> float:
    """``tr[H rho] - K_B T S(rho)``."""
    m = _entries_of(rho)
    hm = _entries_of(h)
    _check_hermitian(hm, "free_energy requires a Hermitian Hamiltonian")
    if m.shape != hm.shape:
        raise ValueError(f"dimension mismatch {m.shape} vs {hm.shape}")
    return _energy(hm, m) - ctx.kt * von_neumann_entropy(rho)


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
    hs = _entries_of(h_s)
    de_s = _energy(hs, _entries_of(rho_s_before) - _entries_of(rho_s_after))
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
    dim = _entries_of(rho_w).shape[0]
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
    return EPS_WORK * max(omega, ctx.temperature)


# ---------------------------------------------------------------------------
# erasure


@dataclasses.dataclass(frozen=True, eq=False)
class ExplicitReservoir:
    """Finite thermal reservoir plus a reset unitary on demon (x) reservoir."""

    reservoir_state: DensityMatrix
    h_r: Operator
    u_r: Operator

    def __post_init__(self) -> None:
        if not self.u_r.is_unitary:
            raise ValueError("reset operator is not unitary")
        if self.u_r.dim % self.reservoir_state.dim != 0:
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
    mode: str | ExplicitReservoir = "landauer_optimal",
) -> ErasureResult:
    """Reset the demon record to its blank state and account the cost.

    Landauer-optimal mode is an accounting rule: exact reset with heat
    ``Q = K_B T S(rho_D')``.  Explicit mode applies the supplied reset
    unitary to ``rho_D' (x) tau_R`` and charges ``Q = tr[H_R (tau_R' -
    tau_R)]``; it must restore the blank state within fidelity 1 - 1e-6 and
    always obeys ``Q >= K_B T S(rho_D')`` up to tolerance, anything less
    being an implementation bug.

    Both modes price the demon's own energy change as
    ``W_R = tr[H_D(|psi><psi| - rho_D')] + Q``.
    """
    hd = _entries_of(h_d)
    dd = rho_d_prime.dim
    if hd.shape[0] != dd or demon_initial.dim != dd:
        raise ValueError("demon dimensions inconsistent")
    s_record = von_neumann_entropy(rho_d_prime)
    blank = projector_onto(demon_initial)
    e_term = _energy(hd, blank - rho_d_prime.entries)

    if mode == "landauer_optimal":
        q = ctx.kt * s_record
        return ErasureResult(
            q=q,
            w_r=e_term + q,
            rho_r_after=None,
            landauer_optimal=True,
            reset_fidelity=1.0,
        )
    if not isinstance(mode, ExplicitReservoir):
        raise ValueError(f"unknown erasure mode {mode!r}")

    res = mode
    dr = res.reservoir_state.dim
    if res.u_r.dim != dd * dr:
        raise ValueError(
            f"reset operator dimension {res.u_r.dim} != demon*reservoir {dd * dr}"
        )
    _check_thermal(
        res.reservoir_state,
        res.h_r,
        ctx,
        "explicit reservoir state is not thermal for its Hamiltonian at "
        "the context temperature",
    )
    u = res.u_r.entries
    joint = u @ _kron(rho_d_prime.entries, res.reservoir_state.entries) @ dagger(u)
    rho_d_after = _ptrace_nd(joint, [dd, dr], [0])
    fid = float(np.vdot(demon_initial.amplitudes, rho_d_after @ demon_initial.amplitudes).real)
    if fid < 1.0 - EPS_RESET:
        raise ErasureError(
            f"reset restores the blank state with fidelity {fid:.9f} < 1 - 1e-6"
        )
    tau_after = _ptrace_nd(joint, [dd, dr], [1])
    q = _energy(res.h_r.entries, tau_after - res.reservoir_state.entries)
    if q < ctx.kt * s_record - EPS_ASSERT:
        raise HardAssertionError(
            f"explicit erasure heat {q} beats the Landauer cost "
            f"{ctx.kt * s_record}"
        )
    return ErasureResult(
        q=q,
        w_r=e_term + q,
        rho_r_after=DensityMatrix(tau_after),
        landauer_optimal=False,
        reset_fidelity=fid,
    )


def build_swap_erasure(
    demon_initial: PureState,
    ctx: ThermoContext,
    gap_factor: float = 15.0,
    spectator_levels: int = 4,
) -> ExplicitReservoir:
    """A concrete reset: swap the demon with a cold slot of a small reservoir.

    The reservoir is a slot of the demon's dimension (all excited levels at
    ``gap_factor * K_B T``, so its thermal state is almost pure) tensored
    with an energy-degenerate spectator that pads it to a larger Hilbert
    space.  The reset conjugates a demon-slot swap by the basis change that
    sends the blank state to the slot ground level.  Strictly dissipative:
    the heat exceeds the Landauer cost by a finite margin.
    """
    dd = demon_initial.dim
    gap = gap_factor * ctx.kt
    h_slot = np.diag([0.0] + [gap] * (dd - 1))
    h_r = _kron(h_slot, np.eye(spectator_levels))
    tau = thermal_state(h_r, ctx.beta)
    # basis change on the demon: first column is the blank state
    b = _orthonormal_extension(
        demon_initial.amplitudes.reshape(-1, 1), dd
    )
    swap = np.zeros((dd * dd, dd * dd), dtype=complex)
    for i in range(dd):
        for j in range(dd):
            swap[j * dd + i, i * dd + j] = 1.0
    core = _kron(swap, np.eye(spectator_levels))
    rot = _kron(b, np.eye(dd * spectator_levels))
    u_r = rot @ core @ dagger(rot)
    return ExplicitReservoir(
        reservoir_state=tau, h_r=Operator(h_r), u_r=Operator(u_r)
    )


# ---------------------------------------------------------------------------
# ledger


@dataclasses.dataclass(frozen=True)
class OutcomeWork:
    outcome: object
    probability: float
    work: float
    weight_entropy_change: float
    weight_energy_change: float


@dataclasses.dataclass(frozen=True)
class WorkLedger:
    outcomes: tuple[OutcomeWork, ...]
    w_coarse: float  # from the outcome-averaged weight state
    w_avg: float  # probability-weighted per-outcome work
    q: float
    w_r: float
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
    t = ctx.kt
    rows = []
    w_avg = 0.0
    s_w0 = von_neumann_entropy(rho_w)
    f_w0 = free_energy(rho_w, h_w, ctx)
    hw = _entries_of(h_w)
    e_w0 = _energy(hw, _entries_of(rho_w))
    s_branch_avg = 0.0
    for outcome, p, state in branches:
        if p <= EPS_EIG or state is None:
            continue
        w_x = free_energy(state, h_w, ctx) - f_w0
        s_x = von_neumann_entropy(state)
        e_x = _energy(hw, _entries_of(state))
        rows.append(
            OutcomeWork(
                outcome=outcome,
                probability=float(p),
                work=w_x,
                weight_entropy_change=s_x - s_w0,
                weight_energy_change=e_x - e_w0,
            )
        )
        w_avg += p * w_x
        s_branch_avg += p * s_x
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
        - s_w0
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
        outcomes=tuple(rows),
        w_coarse=w_coarse,
        w_avg=w_avg,
        q=erasure.q,
        w_r=erasure.w_r,
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
    t = ctx.kt
    hs = _entries_of(h_s)
    hr = _entries_of(h_r)
    hw = _entries_of(h_w)
    tau = _entries_of(tau_r)
    tau_after = _entries_of(tau_r_after)
    _check_thermal(
        tau,
        hr,
        ctx,
        "reservoir input state is not thermal at the context temperature",
    )
    w_x = work_per_outcome(rho_w, rho_w_after, h_w, ctx)
    de_w = _energy(hw, _entries_of(rho_w_after) - _entries_of(rho_w))
    ds_w = von_neumann_entropy(rho_w_after) - von_neumann_entropy(rho_w)
    de_s_drop = _energy(hs, _entries_of(rho_s_branch) - _entries_of(rho_s_after))
    energy_form = _energy(hr, tau - tau_after) + de_s_drop
    if abs(de_w - energy_form) > EPS_ASSERT:
        raise HardAssertionError(
            f"weight energy gain {de_w} does not match the released energy "
            f"{energy_form}; the branch is not energy conserving"
        )
    rel = t * relative_entropy(tau_after, tau)
    heat_identity_form = (
        t * (von_neumann_entropy(tau) - von_neumann_entropy(tau_after))
        - rel
        + de_s_drop
    )
    if abs(energy_form - heat_identity_form) > EPS_ROUTE:
        raise HardAssertionError(
            "heat identity failed: the reservoir energy change does not "
            "match its entropy rewriting"
        )
    s_after = von_neumann_entropy(rho_s_after)
    intermediate = t * s_after - rel + de_s_drop
    final = t * s_after + de_s_drop
    subadd_gap = (
        ds_w
        + s_after
        - von_neumann_entropy(rho_s_branch)
        + von_neumann_entropy(tau_after)
        - von_neumann_entropy(tau)
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
