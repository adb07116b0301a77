"""Full engine cycles: measure, objectify, feed back, erase, account.

An :class:`EngineConfig` bundles a system state, a measurement (a unitary
model with a demon memory, or a bare instrument with a synthetic record
register), a conditioned feedback scheme acting on a work-storage weight
(optionally assisted by a thermal reservoir), and a thermodynamic context.
Construction certifies energy conservation of both stages and the
controlled form of the feedback; violations raise unless the config is
explicitly flagged non-conforming for negative tests.

:func:`run_cycle` executes one cycle and cross-checks every marginal
against the joint evolution of a low-rank factor of the joint state,
:func:`evaluate_features` scores the three engine features and enforces
their mutual exclusion on conforming non-degenerate thermally-isolated
engines, and
:func:`impossibility_scan` sweeps randomized conforming engines to exhibit
the exclusion patterns.  :func:`scenario_library` provides named,
fully-certified reference constructions.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
from typing import Callable, Sequence

import numpy as np

from .feedback import (
    FeedbackScheme,
    OscillatorWeight,
    _plane_stroke,
    build_oscillator_weight,
    build_shift_unitary,
    check_feedback_energy,
    check_feedback_form,
    compose_feedback_unitary,
    conditional_feedback_map,
)
from .measurement import (
    Branch,
    EnergyReport,
    Gemenge,
    Instrument,
    MeasurementModel,
    Observable,
    RepeatReport,
    Transition,
    WayReport,
    _way_report,
    apply_instrument,
    build_degenerate_instrument,
    build_transition_model,
    check_energy_conserving_measurement,
    check_repeatable,
    premeasure_and_objectify,
)
from .qop import (
    EPS_ASSERT,
    EPS_EIG,
    EPS_FID,
    EPS_ROUTE,
    MAX_DIM,
    ConstructionError,
    DensityMatrix,
    HardAssertionError,
    Operator,
    PureState,
    SizeError,
    _check_hermitian,
    _factor,
    _kron,
    _number,
    _ptrace_nd,
    basis_state,
    dagger,
    operator_norm,
    projector_onto,
    thermal_state,
    von_neumann_entropy,
)
from .thermo import (
    ChainReport,
    ErasureResult,
    ExplicitReservoir,
    Feature2Report,
    ThermoContext,
    WorkLedger,
    _erase_demon,
    _reservoir_chain,
    _work_ledger,
    feature2_test,
    free_energy,
    work_energy_entropy_form,
    work_threshold,
)

__all__ = [
    "GenericWeight",
    "EngineConfig",
    "BranchResult",
    "CycleResult",
    "FeatureReport",
    "ScanRecord",
    "ScanReport",
    "run_cycle",
    "evaluate_features",
    "impossibility_scan",
    "scenario_library",
    "SCENARIO_NAMES",
    "SCAN_FAMILIES",
]


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True, eq=False)
class GenericWeight:
    """A weight given directly by its Hamiltonian and initial state."""

    hamiltonian: Operator
    initial: DensityMatrix

    def __post_init__(self) -> None:
        h = self.hamiltonian if isinstance(self.hamiltonian, Operator) else Operator(
            self.hamiltonian
        )
        object.__setattr__(self, "hamiltonian", h)
        if not h.is_hermitian:
            raise ValueError("weight Hamiltonian must be Hermitian")
        if h.dim != self.initial.dim:
            raise ValueError("weight Hamiltonian and state dimensions differ")


def _weight_parts(weight: OscillatorWeight | GenericWeight) -> tuple[Operator, DensityMatrix]:
    if isinstance(weight, OscillatorWeight):
        return weight.hamiltonian, weight.initial_density()
    return weight.hamiltonian, weight.initial


def _weight_scale(weight: OscillatorWeight | GenericWeight) -> float:
    if isinstance(weight, OscillatorWeight):
        return weight.omega
    ev = np.linalg.eigvalsh(weight.hamiltonian.entries)
    return float(ev.max() - ev.min())


@dataclasses.dataclass(frozen=True)
class Certification:
    measurement_energy: EnergyReport | None
    way: WayReport | None
    repeatability: RepeatReport | None
    feedback_energy: object
    feedback_form: object

    @property
    def passed(self) -> bool:
        meas_ok = (
            self.measurement_energy.passed
            if self.measurement_energy is not None
            else False
        )
        return bool(
            meas_ok and self.feedback_energy.passed and self.feedback_form.passed
        )


def _basis_records(labels: Sequence[object]) -> Observable:
    """The register an instrument's outcomes are written to: ``|i><i|``
    with value ``i`` for the ``i``-th label."""
    rows = np.eye(len(labels))
    return Observable(
        tuple(
            (x, float(i), Operator(np.diag(rows[i])))
            for i, x in enumerate(labels)
        )
    )


@dataclasses.dataclass(frozen=True, eq=False)
class EngineConfig:
    """One complete engine: state preparation through erasure accounting.

    Construction certifies the engine once and keeps the report.
    ``non_conforming`` (for negative tests) still runs and keeps that
    certification but does not raise ``ConstructionError`` when it fails;
    it also disables the hard assertions that are theorems only for
    certified engines.

    What the engine can derive is not an input.  The feedback is controlled
    by the measurement's own record register (:attr:`records`), and a
    reservoir is given by its Hamiltonian: a reservoir taking part in the
    feedback (``h_r``) and an explicit erasure reservoir both start in
    their Gibbs state at the context temperature, derived once here.
    """

    rho_s: DensityMatrix
    h_s: Operator
    measurement: MeasurementModel | Instrument
    feedback: FeedbackScheme
    weight: OscillatorWeight | GenericWeight
    thermo: ThermoContext
    h_d: Operator | None = None
    h_r: Operator | None = None
    erasure: str | ExplicitReservoir = "landauer_optimal"
    degenerate_target: bool = False
    non_conforming: bool = False
    tol_s: float | None = None
    label: str = "engine"

    def __post_init__(self) -> None:
        if self.tol_s is not None and not (
            math.isfinite(self.tol_s) and self.tol_s >= 0.0
        ):
            raise ValueError(
                f"tol_s must be finite and non-negative, got {self.tol_s}"
            )
        if self.rho_s.dim != self.h_s.dim:
            raise ValueError("system state and Hamiltonian dimensions differ")
        _check_hermitian(self.h_s, "system Hamiltonian h_s must be Hermitian")
        m = self.measurement
        model = isinstance(m, MeasurementModel)
        if model:
            if m.system_dim != self.rho_s.dim:
                raise ValueError("measurement system dimension mismatch")
            if self.degenerate_target != (not m.target.is_nondegenerate):
                raise ValueError(
                    "degenerate_target flag contradicts the target observable"
                )
        elif m.dim != self.rho_s.dim:
            raise ValueError("instrument dimension mismatch")
        h_w, rho_w = _weight_parts(self.weight)
        object.__setattr__(self, "_h_w", h_w)
        object.__setattr__(self, "_rho_w", rho_w)
        floor = work_threshold(_weight_scale(self.weight), self.thermo)
        object.__setattr__(self, "_work_floor", floor)
        branch_dim = h_w.dim * self.rho_s.dim
        if self.h_r is not None:
            branch_dim *= self.h_r.dim
        if self.feedback.branch_dim != branch_dim:
            raise ValueError(
                f"feedback branch dimension {self.feedback.branch_dim} != "
                f"weight*system(*reservoir) {branch_dim}"
            )
        total_dim = branch_dim * (m.demon_dim if model else len(m.labels))
        if total_dim > MAX_DIM:
            raise SizeError(
                f"joint dimension {total_dim} exceeds limit {MAX_DIM}"
            )
        records = m.pointer if model else _basis_records(m.labels)
        object.__setattr__(self, "_records", records)
        if set(self.feedback.labels) != set(records.labels):
            raise ValueError("feedback outcome labels differ from measurement")
        h_d = self.h_d
        if h_d is None:
            h_d = Operator(np.zeros((records.dim, records.dim)))
        elif h_d.dim != records.dim:
            raise ValueError("demon Hamiltonian dimension mismatch")
        _check_hermitian(h_d, "demon Hamiltonian h_d must be Hermitian")
        object.__setattr__(self, "_h_d", h_d)
        tau_r = None
        if self.h_r is not None:
            _check_hermitian(
                self.h_r, "reservoir Hamiltonian h_r must be Hermitian"
            )
            tau_r = thermal_state(self.h_r, self.thermo.beta)
        object.__setattr__(self, "_tau_r", tau_r)
        tau_e = None
        if isinstance(self.erasure, ExplicitReservoir):
            tau_e = thermal_state(self.erasure.h_r, self.thermo.beta)
        object.__setattr__(self, "_tau_e", tau_e)
        cert = self._certify()
        object.__setattr__(self, "_certification", cert)
        if not self.non_conforming:
            failures = []
            if model and not cert.measurement_energy.passed:
                failures.append(
                    "measurement violates energy conservation "
                    f"(norms {cert.measurement_energy})"
                )
            if not cert.feedback_energy.passed:
                failures.append("feedback violates energy conservation")
            if not cert.feedback_form.passed:
                failures.append("feedback is not of controlled form")
            if failures:
                raise ConstructionError("; ".join(failures))

    def _certify(self) -> Certification:
        records = self._records
        fb_energy = check_feedback_energy(
            self.feedback, records, self._h_w, self.h_s, self._h_d, self.h_r
        )
        fb_form = check_feedback_form(
            compose_feedback_unitary(self.feedback, records),
            [(x, p) for x, _, p in records.outcomes], self.feedback.branch_dim,
        )
        if isinstance(self.measurement, MeasurementModel):
            me = check_energy_conserving_measurement(
                self.measurement, self.h_s, self._h_d
            )
            rep = check_repeatable(self.measurement)
            way = _way_report(self.measurement, self.h_s, me, rep)
        else:
            me, rep, way = None, None, None
        return Certification(
            measurement_energy=me,
            way=way,
            repeatability=rep,
            feedback_energy=fb_energy,
            feedback_form=fb_form,
        )

    def _as_non_conforming(self) -> EngineConfig:
        """This engine flagged non-conforming, sharing its certification:
        certifying does not depend on the flag, so nothing is re-run."""
        out = copy.copy(self)
        object.__setattr__(out, "non_conforming", True)
        return out

    # -- derived views ------------------------------------------------------

    @property
    def certification(self) -> Certification:
        return self._certification

    @property
    def conforming(self) -> bool:
        """Certified as energy conserving with closed controlled feedback."""
        return (not self.non_conforming) and self.certification.passed

    @property
    def records(self) -> Observable:
        """The demon's record register, which controls the feedback: a
        model's pointer, or ``|i><i|`` with value ``i`` for an instrument's
        ``i``-th outcome."""
        return self._records

    @property
    def outcome_labels(self) -> tuple[object, ...]:
        return self._records.labels

    @property
    def record_projectors(self) -> tuple[np.ndarray, ...]:
        """Each outcome's record projector, in outcome order."""
        return tuple(p.entries for _, _, p in self._records.outcomes)

    @property
    def tau_r(self) -> DensityMatrix | None:
        """The feedback reservoir's Gibbs state, or ``None`` without one."""
        return self._tau_r

    @property
    def reservoir_in_feedback(self) -> bool:
        return self.h_r is not None

    @property
    def demon_dim(self) -> int:
        return self._records.dim

    @property
    def demon_hamiltonian(self) -> Operator:
        return self._h_d

    @property
    def demon_initial(self) -> PureState:
        if isinstance(self.measurement, MeasurementModel):
            return self.measurement.demon_initial
        return PureState(basis_state(self.demon_dim, 0))

    @property
    def weight_hamiltonian(self) -> Operator:
        return self._h_w

    @property
    def weight_initial(self) -> DensityMatrix:
        return self._rho_w

    @property
    def work_floor(self) -> float:
        return self._work_floor

    @property
    def total_dim(self) -> int:
        return self.feedback.branch_dim * self.demon_dim


# ---------------------------------------------------------------------------
# cycle results


@dataclasses.dataclass(frozen=True, eq=False)
class BranchResult:
    outcome: object
    probability: float
    pre_system: DensityMatrix  # system state of the branch before feedback
    post_system: DensityMatrix
    post_weight: DensityMatrix
    post_reservoir: DensityMatrix | None
    work: float
    weight_entropy_change: float


@dataclasses.dataclass(frozen=True, eq=False)
class CycleResult:
    branches: tuple[BranchResult, ...]
    rho_s_after: DensityMatrix
    rho_w_after: DensityMatrix
    rho_d_after: DensityMatrix
    rho_r_after: DensityMatrix | None
    premeasured: DensityMatrix | None  # system (x) demon, None for instruments
    erasure: ErasureResult
    ledger: WorkLedger
    objectification_order_gap: float
    marginal_deviation: float
    reservoir_chains: tuple[tuple[object, ChainReport], ...]


def _measure(config: EngineConfig) -> tuple[DensityMatrix | None, Gemenge, dict]:
    """Measurement stage: correlated state (when it exists), the branch
    mixture on the system, and the per-outcome demon records."""
    if isinstance(config.measurement, MeasurementModel):
        model = config.measurement
        sigma, gem_sd = premeasure_and_objectify(model, config.rho_s)
        ds, dd = model.system_dim, model.demon_dim
        sys_branches = []
        demon_records = {}
        for b in gem_sd.branches:
            if b.state is None:
                sys_branches.append(Branch(b.outcome, b.probability, None))
                continue
            joint = b.state.entries
            sys_branches.append(
                Branch(
                    b.outcome,
                    b.probability,
                    DensityMatrix._derived(_ptrace_nd(joint, [ds, dd], [0])),
                )
            )
            demon_records[b.outcome] = DensityMatrix._derived(
                _ptrace_nd(joint, [ds, dd], [1])
            )
        gem = Gemenge(tuple(sys_branches))
        return sigma, gem, demon_records
    gem = apply_instrument(config.measurement, config.rho_s)
    records = zip(config.outcome_labels, config.record_projectors)
    return None, gem, {x: DensityMatrix._derived(p) for x, p in records}


def run_cycle(config: EngineConfig) -> CycleResult:
    """Execute one full cycle and assemble its ledger.

    Each branch state is carried as a low-rank factor ``X`` with
    ``rho = X X^dag`` through the feedback map, and the averaged weight
    state is built from the branches' stacked factors, so entropies come
    from singular values and no state of the joint dimension is formed.
    The results are ordinary :class:`DensityMatrix` objects.

    Every marginal is cross-checked against the joint evolution of the
    weight-system-demon(-reservoir) state, carried as a low-rank factor
    through the controlled feedback, and the order-of-objectification
    gap is evaluated on the same joint; both are upper bounds of their dense
    values.  A marginal deviation above tolerance fails hard on every
    engine.
    """
    ctx = config.thermo
    h_w, rho_w = config.weight_hamiltonian, config.weight_initial
    h_s = config.h_s
    tau_r = config.tau_r

    sigma_sd, gem, demon_records = _measure(config)

    cross_check = (
        config.conforming
        and tau_r is None
        and isinstance(config.measurement, MeasurementModel)
    )
    branches = []
    chains = []
    ds = h_s.dim
    rho_s_after = np.zeros((ds, ds), dtype=complex)
    # factor of the mixture sum_x p_x rho_W^x, one block of columns a branch
    w_after_factor = []
    rho_d_after = np.zeros((config.demon_dim, config.demon_dim), dtype=complex)
    rho_r_after = (
        np.zeros((tau_r.dim, tau_r.dim), dtype=complex)
        if tau_r is not None
        else None
    )
    # F(rho_W) and each branch work are taken once, here, and handed to
    # the ledger and the reservoir chain
    s_w0 = von_neumann_entropy(rho_w)
    f_w0 = free_energy(rho_w, h_w, ctx)
    for b in gem.branches:
        if b.probability <= EPS_EIG or b.state is None:
            continue
        out = conditional_feedback_map(
            config.feedback, b.outcome, rho_w, b.state, tau_r
        )
        w_x = free_energy(out.rho_weight, h_w, ctx) - f_w0
        if cross_check:
            alt = work_energy_entropy_form(
                b.state, out.rho_system, h_s, rho_w, out.rho_weight, ctx
            )
            if abs(w_x - alt) > EPS_ROUTE:
                raise HardAssertionError(
                    f"branch {b.outcome!r}: free-energy work {w_x} disagrees "
                    f"with the energy+entropy form {alt}"
                )
        if tau_r is not None:
            # the build derived tau_R as the Gibbs state of h_r
            chain = _reservoir_chain(
                w_x, rho_w, out.rho_weight, b.state, out.rho_system, tau_r,
                out.rho_reservoir, h_s, config.h_r, h_w, ctx,
            )
            chains.append((b.outcome, chain))
        branches.append(
            BranchResult(
                outcome=b.outcome,
                probability=b.probability,
                pre_system=b.state,
                post_system=out.rho_system,
                post_weight=out.rho_weight,
                post_reservoir=out.rho_reservoir,
                work=w_x,
                weight_entropy_change=von_neumann_entropy(out.rho_weight) - s_w0,
            )
        )
        rho_s_after += b.probability * out.rho_system.entries
        w_after_factor.append(math.sqrt(b.probability) * _factor(out.rho_weight)[0])
        rho_d_after += b.probability * demon_records[b.outcome].entries
        if rho_r_after is not None:
            rho_r_after += b.probability * out.rho_reservoir.entries

    rho_s_after = DensityMatrix._derived(rho_s_after)
    rho_w_after = DensityMatrix._from_factor(np.hstack(w_after_factor))
    rho_d_after = DensityMatrix._derived(rho_d_after)
    rho_r_after = DensityMatrix._derived(rho_r_after) if rho_r_after is not None else None

    gap, marginal_dev = _joint_consistency(
        config, sigma_sd, gem, rho_w, rho_s_after, rho_w_after, rho_d_after,
        rho_r_after,
    )

    erasure = _erase_demon(
        rho_d_after,
        config.demon_hamiltonian,
        config.demon_initial,
        ctx,
        config.erasure,
        config._tau_e,
    )
    ledger = _work_ledger(
        [(br.outcome, br.probability, br.post_weight, br.work) for br in branches],
        f_w0, rho_w, rho_w_after, config.rho_s, rho_s_after, rho_d_after, h_w,
        h_s, erasure, ctx, config.conforming, config.reservoir_in_feedback,
    )
    return CycleResult(
        branches=tuple(branches),
        rho_s_after=rho_s_after,
        rho_w_after=rho_w_after,
        rho_d_after=rho_d_after,
        rho_r_after=rho_r_after,
        premeasured=sigma_sd,
        erasure=erasure,
        ledger=ledger,
        objectification_order_gap=gap,
        marginal_deviation=marginal_dev,
        reservoir_chains=tuple(chains),
    )


def _dropped_mass(parts: Sequence[tuple[float, float]]) -> float:
    """Trace norm bound on ``(x)_i (K_i + D_i) - (x)_i K_i`` from the kept
    and dropped trace norms ``(|K_i|_1, |D_i|_1)`` of each factor."""
    return math.prod(k + d for k, d in parts) - math.prod(k for k, _ in parts)


def _outer_difference_norm(f: np.ndarray, g: np.ndarray) -> float:
    """``operator_norm(F F^dag - G G^dag)`` without forming either product.

    The reduced QR ``[F G] = Q [R1 R2]`` has an isometry ``Q``, so the
    difference equals ``Q (R1 R1^dag - R2 R2^dag) Q^dag`` and shares its
    norm with a core as wide as ``F`` and ``G`` together."""
    r = np.linalg.qr(np.hstack([f, g]), mode="r")
    r1, r2 = r[:, : f.shape[1]], r[:, f.shape[1] :]
    return operator_norm(r1 @ dagger(r1) - r2 @ dagger(r2))


def _joint_consistency(
    config: EngineConfig,
    sigma_sd: DensityMatrix | None,
    gem: Gemenge,
    rho_w: DensityMatrix,
    rho_s_after: DensityMatrix,
    rho_w_after: DensityMatrix,
    rho_d_after: DensityMatrix,
    rho_r_after: DensityMatrix | None,
) -> tuple[float, float]:
    """Joint evolution on a factor ``X`` of the weight-system-demon
    (-reservoir) state: the order-of-objectification gap and the largest
    deviation of any mixture-built marginal from the joint marginal.

    The joint state has rank at most a few columns, so ``X`` goes through
    the controlled feedback, each ``U_x`` acting on its record's slice
    ``(1 (x) P_x) X``, and the gap is taken on the small QR core of the
    two pinched factors; no n x n array exists.  Populations the
    factorization drops are added back in trace norm, once to the
    deviation and twice to the gap; pinching, unitary conjugation and the
    partial trace do not increase the trace norm, so both stay upper
    bounds of their dense values.
    """
    dw = rho_w.dim
    ds = config.rho_s.dim
    dd = config.demon_dim
    x_w, w_part = _factor(rho_w)
    parts = [w_part]
    # (probability, factor on (S, D), its system-side (kept, dropped))
    terms = []
    if sigma_sd is not None:
        model = config.measurement
        x_s, s_part = _factor(config.rho_s)
        x_sd = model.premeasurement.entries @ _kron(
            x_s, model.demon_initial.amplitudes[:, None]
        )
        terms.append((1.0, x_sd, s_part))
    else:
        # instruments carry no coherent record; the joint starts objectified
        for b in gem.branches:
            if b.probability <= EPS_EIG or b.state is None:
                continue
            x_b, b_part = _factor(b.state)
            idx = list(config.outcome_labels).index(b.outcome)
            rec = basis_state(dd, idx)[:, None]
            terms.append((b.probability, _kron(x_b, rec), b_part))
    x = np.hstack(
        [math.sqrt(p) * _kron(x_w, x_sd) for p, x_sd, _ in terms]
    )  # rows (W, S, D)
    dims = [dw, ds, dd]
    if config.tau_r is not None:
        dr = config.tau_r.dim
        x_r, r_part = _factor(config.tau_r)
        parts.append(r_part)
        x = _kron(x, x_r).reshape(dw, ds, dd, dr, -1)
        x = x.transpose(0, 1, 3, 2, 4).reshape(dw * ds * dr * dd, -1)
        dims = [dw, ds, dr, dd]
    dropped = sum(p * _dropped_mass([*parts, part]) for p, _, part in terms)
    n = x.shape[0]
    nb = n // dd
    records = config.records.outcomes
    units = [config.feedback.unitary_for(l).entries for l, _, _ in records]
    projs = [p.entries for _, _, p in records]

    def pinch(y: np.ndarray) -> list[np.ndarray]:
        # (1 (x) P_x) y for each x, rows (branch, demon)
        return [np.einsum("ab,ibk->iak", p, y.reshape(nb, dd, -1)) for p in projs]

    # V = sum_x U_x (x) P_x: each U_x acts on its own record's slice only
    moved = [u @ s.reshape(nb, -1) for u, s in zip(units, pinch(x))]
    first = np.hstack([m.reshape(n, -1) for m in moved])
    last = np.hstack([s.reshape(n, -1) for s in pinch(sum(moved))])
    gap = _outer_difference_norm(first, last) + 2.0 * dropped

    # pinch-first is the state the branch pipeline actually realises;
    # its marginals must match the mixture-built ones exactly
    dev = 0.0
    marginals = [rho_w_after, rho_s_after]
    axes = [0, 1]
    if config.tau_r is not None:
        marginals.append(rho_r_after)
        axes.append(2)
    marginals.append(rho_d_after)
    axes.append(len(dims) - 1)
    t = first.reshape(*dims, -1)
    for m, ax in zip(marginals, axes):
        a = np.moveaxis(t, ax, 0).reshape(dims[ax], -1)
        dev = max(dev, operator_norm(a @ dagger(a) - m.entries))
    dev += dropped
    if dev > EPS_ASSERT:
        raise HardAssertionError(
            f"mixture marginals deviate from the joint evolution by {dev}"
        )
    return gap, dev


# ---------------------------------------------------------------------------
# features


@dataclasses.dataclass(frozen=True)
class FeatureReport:
    f1_repeatable: bool
    f2_entropy_invariant: bool
    f3_positive_work: bool
    f1_fidelities: tuple[tuple[object, float], ...]
    f2_report: Feature2Report
    min_work: float
    work_floor: float
    degenerate_target: bool
    reservoir_in_feedback: bool

    @property
    def triple(self) -> tuple[bool, bool, bool]:
        return (
            self.f1_repeatable,
            self.f2_entropy_invariant,
            self.f3_positive_work,
        )


def _instrument_repeat_fidelities(
    instr: Instrument, gem: Sequence[BranchResult]
) -> tuple[tuple[object, float], ...]:
    rows = []
    for br in gem:
        ops = instr.kraus_for(br.outcome)
        m = br.pre_system.entries
        p = 0.0
        for k in ops:
            p += float(np.trace(k.entries @ m @ dagger(k.entries)).real)
        rows.append((br.outcome, p))
    return tuple(rows)


def evaluate_features(result: CycleResult, config: EngineConfig) -> FeatureReport:
    """Score repeatability, weight-entropy invariance, and positive work.

    On a conforming, non-degenerate, thermally-isolated, model-based engine
    the three can never hold together; that exclusion is asserted and its
    violation raises, since it would prove an implementation bug.
    """
    if isinstance(config.measurement, MeasurementModel):
        rep = config.certification.repeatability
        f1 = rep.passed
        fids = rep.fidelities
    else:
        fids = _instrument_repeat_fidelities(config.measurement, result.branches)
        f1 = all(p >= 1.0 - EPS_FID for _, p in fids)
    f2_rep = feature2_test(
        [(b.outcome, b.probability, b.post_weight) for b in result.branches],
        config.weight_initial,
        config.tol_s,
    )
    floor = config.work_floor
    works = [b.work for b in result.branches]
    min_work = min(works) if works else 0.0
    f3 = bool(works) and all(w > floor for w in works)
    report = FeatureReport(
        f1_repeatable=f1,
        f2_entropy_invariant=f2_rep.passed,
        f3_positive_work=f3,
        f1_fidelities=tuple(fids),
        f2_report=f2_rep,
        min_work=min_work,
        work_floor=floor,
        degenerate_target=config.degenerate_target,
        reservoir_in_feedback=config.reservoir_in_feedback,
    )
    guarded = (
        config.conforming
        and isinstance(config.measurement, MeasurementModel)
        and not config.degenerate_target
        and not config.reservoir_in_feedback
    )
    if guarded and f1 and f2_rep.passed and f3:
        raise HardAssertionError(
            "a conforming non-degenerate thermally-isolated engine reported "
            "all three features; this cannot happen"
        )
    return report


# ---------------------------------------------------------------------------
# scenario library


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not (lo <= value <= hi):
        raise ValueError(f"parameter {name!r} = {value} outside [{lo}, {hi}]")


def _record_write_engine(
    label: str,
    ctx: ThermoContext,
    q: float,
    h_s: Operator,
    h_d: Operator,
    posts: Sequence[np.ndarray],
    demon_initial: np.ndarray,
    weight: OscillatorWeight | GenericWeight,
    strokes: Sequence[Operator],
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
    h_r: Operator | None = None,
) -> EngineConfig:
    """The two-outcome engine behind every model-based scenario and scan
    family.  The qubit system starts in ``diag(q, 1 - q)`` and is measured
    in its energy basis: outcome ``"+"`` (``"-"``) takes basis state 0 (1)
    to its post state and writes demon basis state 0 (1), and that record
    selects the outcome's stroke.  ``posts`` and ``strokes`` are in outcome
    order; a reservoir given by ``h_r`` takes part in the strokes."""
    records = [PureState(basis_state(2, i)) for i in range(2)]
    # the target and the pointer, which controls the feedback, share one
    # basis
    basis = Observable(
        (
            ("+", 1.0, Operator(projector_onto(records[0]))),
            ("-", -1.0, Operator(projector_onto(records[1]))),
        )
    )
    transitions = [
        Transition(x, r, PureState(post), r)
        for x, r, post in zip(basis.labels, records, posts)
    ]
    model = build_transition_model(
        basis, basis, PureState(demon_initial), transitions, (h_s, h_d)
    )
    return EngineConfig(
        rho_s=DensityMatrix(np.diag([q, 1.0 - q])),
        h_s=h_s,
        measurement=model,
        feedback=FeedbackScheme(tuple(zip(basis.labels, strokes))),
        weight=weight,
        thermo=ctx,
        h_d=h_d,
        h_r=h_r,
        erasure=erasure,
        tol_s=tol_s,
        label=label,
    )


def _ladder_engine(
    label: str,
    ctx: ThermoContext,
    q: float,
    N: int,
    omega: float,
    h_d: Operator,
    posts: Sequence[np.ndarray],
    demon_initial: np.ndarray,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """A record-write engine on a qubit of gap ``omega`` whose strokes turn
    each post state to the ground state while raising an ``N``-level
    ladder weight one rung."""
    _check_range("q", q, 0.0, 1.0)
    if N < 2:
        raise ValueError(f"parameter 'N' = {N} must be at least 2")
    h_s = Operator(np.diag([omega / 2, -omega / 2]))
    weight = build_oscillator_weight(omega, N)
    strokes = [build_shift_unitary(weight, post) for post in posts]
    return _record_write_engine(
        label, ctx, q, h_s, h_d, posts, demon_initial, weight, strokes, erasure, tol_s
    )


def _eigenstate_engine(
    label: str,
    ctx: ThermoContext,
    q: float,
    N: int,
    omega: float,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """Each outcome leaves its measured eigenstate and the demon has no
    energy.  ``example_I`` and the ``eigenstate_posts`` family build here."""
    h_d = Operator(np.zeros((2, 2)))
    posts = (basis_state(2, 0), basis_state(2, 1))
    return _ladder_engine(label, ctx, q, N, omega, h_d, posts, posts[0], erasure, tol_s)


def _superposition_engine(
    label: str,
    ctx: ThermoContext,
    q: float,
    N: int,
    omega: float,
    c1: float,
    c2: float,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """Outcomes leave ``c1|0> + c2|1>`` and ``c1|0> - c2|1>``; the demon
    carries the system's Hamiltonian and starts in the first post state.
    ``example_II`` and the ``superposition_posts`` family build here."""
    h_d = Operator(np.diag([omega / 2, -omega / 2]))
    posts = (np.array([c1, c2], dtype=complex), np.array([c1, -c2], dtype=complex))
    return _ladder_engine(label, ctx, q, N, omega, h_d, posts, posts[0], erasure, tol_s)


def _example_I(
    q: float = 0.5,
    N: int = 20,
    omega: float = 1.0,
    temperature: float = 1.0,
    kb: float = 1.0,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """Eigenstate measurement in the energy basis; one branch lifts the
    weight a full quantum, the other does nothing."""
    ctx = ThermoContext(temperature, kb)
    return _eigenstate_engine("example_I", ctx, q, N, omega, erasure, tol_s)


def _example_II(
    q: float = 0.5,
    N: int = 50,
    omega: float = 1.0,
    temperature: float = 1.0,
    kb: float = 1.0,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """Eigenstate measurement whose post states are balanced superpositions;
    both branches extract close to half a quantum at large N."""
    ctx = ThermoContext(temperature, kb)
    s = 1.0 / math.sqrt(2.0)
    return _superposition_engine("example_II", ctx, q, N, omega, s, s, erasure, tol_s)


def _degenerate_circumvention(
    d: int = 4,
    ranks: Sequence[int] = (2, 2),
    N: int = 10,
    omega: float = 1.0,
    temperature: float = 1.0,
    kb: float = 1.0,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """Degenerate target observable read out by a coarse-grained instrument:
    a finer level readout is merged per subspace, every branch collapses to
    the top state of its subspace, and feedback feeds that full excitation
    into the weight, so all three features hold together."""
    if d < 3:
        raise ValueError(f"parameter 'd' = {d} must be at least 3")
    if len(ranks) < 2 or any(r < 1 for r in ranks) or sum(ranks) != d:
        raise ValueError(
            f"parameter 'ranks' = {ranks} must hold at least two positive "
            f"ranks summing to d = {d}"
        )
    if ranks[0] < 2:
        raise ValueError(
            f"parameter 'ranks' = {ranks} must open with a rank of at least "
            "2 so the first branch extracts work"
        )
    if N < 2:
        raise ValueError(f"parameter 'N' = {N} must be at least 2")
    ctx = ThermoContext(temperature, kb)
    h_s = Operator(np.diag([omega * s for s in range(d)]))
    # outcome x covers system levels [offset, offset + rank); merging the
    # level readout means one Kraus |top_x><s| per covered level s
    offsets = np.concatenate([[0], np.cumsum(ranks)])[:-1]
    tops = [int(o + r - 1) for o, r in zip(offsets, ranks)]
    labels = [f"x{i}" for i in range(len(ranks))]
    target_rows = []
    data = {}
    for i, (o, r) in enumerate(zip(offsets, ranks)):
        covered = range(o, o + r)
        top = PureState(basis_state(d, tops[i]))
        proj = np.diag([1.0 if s in covered else 0.0 for s in range(d)])
        target_rows.append((labels[i], float(i), Operator(proj)))
        data[labels[i]] = [(PureState(basis_state(d, s)), top) for s in covered]
    target = Observable(tuple(target_rows))
    instr = build_degenerate_instrument("coarse_grained", target, data)
    weight = build_oscillator_weight(omega, N, dim=N + d + 2)
    dw = weight.dim
    swap = [[0.0, 1.0], [1.0, 0.0]]
    unitaries = []
    for label, t in zip(labels, tops):
        # every top is at least 1: trade |n, top> with |n + top, ground>
        n = np.arange(dw - t)
        u = _plane_stroke(dw * d, n * d + t, (n + t) * d, swap)
        unitaries.append((label, Operator(u)))
    rho_s = thermal_state(h_s.entries, ctx.beta)
    return EngineConfig(
        rho_s=rho_s,
        h_s=h_s,
        measurement=instr,
        feedback=FeedbackScheme(tuple(unitaries)),
        weight=weight,
        thermo=ctx,
        erasure=erasure,
        degenerate_target=True,
        tol_s=tol_s,
        label="degenerate_circumvention",
    )


def _reservoir_circumvention(
    dim_R: int = 16,
    theta: float = math.pi / 2,
    q: float = 0.5,
    N: int = 30,
    omega: float = 0.25,
    temperature: float = 1.0,
    kb: float = 1.0,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """Fully degenerate system: feedback partially swaps reservoir quanta
    into the weight conditioned on the record, extracting work from heat at
    the price of a growing weight entropy."""
    _check_range("q", q, 0.0, 1.0)
    _check_range("theta", theta, 0.0, math.pi)
    if dim_R < 2:
        raise ValueError(f"parameter 'dim_R' = {dim_R} must be at least 2")
    if N < 2:
        raise ValueError(f"parameter 'N' = {N} must be at least 2")
    ctx = ThermoContext(temperature, kb)
    weight = build_oscillator_weight(omega, N)
    dw = weight.dim
    h_r = Operator(np.diag([omega * k for k in range(dim_R)]))
    c, s = math.cos(theta), math.sin(theta)
    block = [[c, -1j * s], [-1j * s, c]]
    # each plane trades one reservoir quantum for one weight quantum while
    # flipping the (energy-free) system, conserving total energy
    n, k = np.meshgrid(np.arange(dw - 1), np.arange(1, dim_R), indexing="ij")
    strokes = []
    for s_in in (0, 1):
        i = (n * 2 + s_in) * dim_R + k  # |n, s_in, k>
        j = ((n + 1) * 2 + (1 - s_in)) * dim_R + (k - 1)  # |n+1, 1-s_in, k-1>
        strokes.append(Operator(_plane_stroke(dw * 2 * dim_R, i, j, block)))
    zero = Operator(np.zeros((2, 2)))
    posts = (basis_state(2, 0), basis_state(2, 1))
    return _record_write_engine(
        "reservoir_circumvention",
        ctx,
        q,
        zero,
        zero,
        posts,
        posts[0],
        weight,
        strokes,
        erasure,
        tol_s,
        h_r,
    )


def _null_engine(
    omega: float = 1.0,
    temperature: float = 1.0,
    kb: float = 1.0,
    erasure: str | ExplicitReservoir = "landauer_optimal",
    tol_s: float | None = None,
) -> EngineConfig:
    """Trivial single-outcome measurement and identity feedback."""
    ctx = ThermoContext(temperature, kb)
    h_s = Operator(np.diag([omega / 2, -omega / 2]))
    instr = Instrument((("0", (Operator(np.eye(2)),)),))
    weight = build_oscillator_weight(omega, 4)
    rho_s = thermal_state(h_s.entries, ctx.beta)
    return EngineConfig(
        rho_s=rho_s,
        h_s=h_s,
        measurement=instr,
        feedback=FeedbackScheme((("0", Operator(np.eye(weight.dim * 2))),)),
        weight=weight,
        thermo=ctx,
        erasure=erasure,
        tol_s=tol_s,
        label="null_engine",
    )


_SCENARIOS: dict[str, Callable[..., EngineConfig]] = {
    "example_I": _example_I,
    "example_II": _example_II,
    "degenerate_circumvention": _degenerate_circumvention,
    "reservoir_circumvention": _reservoir_circumvention,
    "null_engine": _null_engine,
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def _typed_param(name: str, value: object, annotation: str) -> object:
    """``value`` read as its scenario parameter's annotation says: ``int``
    or ``float``, either optionally ``| None``, or ``Sequence[int]``, a list
    or tuple of integral numbers read as a tuple of ``int``; other
    annotations pass through."""
    where = f"parameter {name!r}"
    if annotation == "Sequence[int]":
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected a list of integers, got {value!r}")
        return tuple(_number(v, int, where) for v in value)
    kind = {"int": int, "float": float}.get(annotation.removesuffix(" | None"))
    if kind is None or (value is None and annotation.endswith(" | None")):
        return value
    return _number(value, kind, where)


def scenario_library(name: str, **params) -> EngineConfig:
    """Build one of the named reference engines.

    Unknown names or parameters, and parameters of the wrong type, raise
    ``ValueError`` naming the offender, so front ends can surface precise
    diagnostics.
    """
    if name not in _SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    fn = _SCENARIOS[name]
    allowed = inspect.signature(fn).parameters
    for key in params:
        if key not in allowed:
            raise ValueError(
                f"unknown parameter {key!r} for scenario {name!r}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
    return fn(**{
        key: _typed_param(key, value, allowed[key].annotation)
        for key, value in params.items()
    })


# ---------------------------------------------------------------------------
# randomized families and the impossibility scan


def _thermal_q(omega: float, ctx: ThermoContext) -> float:
    return 1.0 / (1.0 + math.exp(ctx.beta * omega))


def _family_eigenstate_posts(
    rng: np.random.Generator, thermal_system: bool
) -> EngineConfig:
    omega = float(rng.uniform(0.5, 2.0))
    levels = int(rng.integers(4, 11))
    ctx = ThermoContext(1.0)
    q = _thermal_q(omega, ctx) if thermal_system else float(rng.uniform(0.1, 0.9))
    return _eigenstate_engine("eigenstate_posts", ctx, q, levels, omega)


def _family_superposition_posts(
    rng: np.random.Generator, thermal_system: bool
) -> EngineConfig:
    omega = float(rng.uniform(0.5, 2.0))
    levels = int(rng.integers(4, 11))
    w = float(rng.uniform(0.05, 0.95))
    c1, c2 = math.sqrt(w), math.sqrt(1.0 - w)
    ctx = ThermoContext(1.0)
    q = _thermal_q(omega, ctx) if thermal_system else float(rng.uniform(0.1, 0.9))
    return _superposition_engine(
        "superposition_posts", ctx, q, levels, omega, c1, c2
    )


def _family_excited_posts(
    rng: np.random.Generator, thermal_system: bool
) -> EngineConfig:
    omega = float(rng.uniform(0.5, 2.0))
    levels = int(rng.integers(4, 11))
    ctx = ThermoContext(1.0)
    q = _thermal_q(omega, ctx) if thermal_system else float(rng.uniform(0.1, 0.9))
    # both outcomes leave the system excited; conservation prices the pointer
    # record of the ground outcome one quantum below the other
    h_d = Operator(np.diag([0.0, -omega]))
    excited = basis_state(2, 0)
    return _ladder_engine(
        "excited_posts", ctx, q, levels, omega, h_d, (excited, excited), excited
    )


def _family_entropy_harvest(
    rng: np.random.Generator, thermal_system: bool
) -> EngineConfig:
    p = float(rng.uniform(0.6, 0.8))
    h_p = -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)
    omega_hi = min(2.0, 0.95 * h_p / (1.0 - p))
    omega = float(rng.uniform(0.5, omega_hi))
    ctx = ThermoContext(1.0)
    q = _thermal_q(omega, ctx) if thermal_system else float(rng.uniform(0.2, 0.8))
    dim_w, m = 8, 3
    h_w = Operator(np.diag([omega * n for n in range(dim_w)]))
    rho_w = DensityMatrix(
        p * projector_onto(basis_state(dim_w, m))
        + (1.0 - p) * projector_onto(basis_state(dim_w, m + 1))
    )
    # one conserving plane: trading the system quantum against the weight
    # rung purifies the weight on both branches, harvesting its mixing
    # entropy as work; the plane is span{|m, excited>, |m+1, ground>}
    swap = [[0.0, 1.0], [1.0, 0.0]]
    stroke = Operator(_plane_stroke(dim_w * 2, [m * 2], [(m + 1) * 2 + 1], swap))
    posts = (basis_state(2, 0), basis_state(2, 1))
    return _record_write_engine(
        "entropy_harvest",
        ctx,
        q,
        Operator(np.diag([omega / 2, -omega / 2])),
        Operator(np.zeros((2, 2))),
        posts,
        posts[0],
        GenericWeight(hamiltonian=h_w, initial=rho_w),
        (stroke, stroke),
    )


SCAN_FAMILIES: dict[str, Callable[[np.random.Generator, bool], EngineConfig]] = {
    "eigenstate_posts": _family_eigenstate_posts,
    "superposition_posts": _family_superposition_posts,
    "excited_posts": _family_excited_posts,
    "entropy_harvest": _family_entropy_harvest,
}


@dataclasses.dataclass(frozen=True)
class ScanRecord:
    family: str
    triple: tuple[bool, bool, bool]
    min_work: float
    w_net_coarse: float
    w_net_avg: float
    bound_rhs_coarse: float
    order_gap: float


@dataclasses.dataclass(frozen=True)
class ScanReport:
    count: int
    seed: int
    records: tuple[ScanRecord, ...]
    all_three_count: int

    def pattern_count(self, triple: tuple[bool, bool, bool]) -> int:
        return sum(1 for r in self.records if r.triple == tuple(triple))

    @property
    def pattern_counts(self) -> tuple[tuple[tuple[bool, bool, bool], int], ...]:
        seen: dict[tuple[bool, bool, bool], int] = {}
        for r in self.records:
            seen[r.triple] = seen.get(r.triple, 0) + 1
        return tuple(sorted(seen.items(), key=lambda kv: kv[0], reverse=True))


def impossibility_scan(
    count: int,
    seed: int,
    families: Sequence[str] | None = None,
    thermal_system: bool = False,
) -> ScanReport:
    """Run randomized conforming engines and tally their feature patterns.

    Families rotate round-robin so every pattern generator gets a fixed
    share of the draws; the full run is reproducible from the seed.  Each
    cycle passes through the feature-exclusion assertion, so a scan
    completing at all is itself evidence.
    """
    if count < 1:
        raise ValueError("count must be positive")
    names = tuple(families) if families is not None else tuple(SCAN_FAMILIES)
    for n in names:
        if n not in SCAN_FAMILIES:
            raise ValueError(
                f"unknown family {n!r}; available: {', '.join(SCAN_FAMILIES)}"
            )
    rng = np.random.default_rng(seed)
    records = []
    all_three = 0
    for i in range(count):
        name = names[i % len(names)]
        config = SCAN_FAMILIES[name](rng, thermal_system)
        result = run_cycle(config)
        report = evaluate_features(result, config)
        triple = report.triple
        if all(triple):
            all_three += 1
        records.append(
            ScanRecord(
                family=name,
                triple=triple,
                min_work=report.min_work,
                w_net_coarse=result.ledger.w_net_coarse,
                w_net_avg=result.ledger.w_net_avg,
                bound_rhs_coarse=result.ledger.bound_rhs_coarse,
                order_gap=result.objectification_order_gap,
            )
        )
    return ScanReport(
        count=count,
        seed=seed,
        records=tuple(records),
        all_three_count=all_three,
    )
