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

import collections
import dataclasses
import functools
import inspect
import math
from typing import Callable, Sequence

import numpy as np

from . import feedback as _feedback
from .feedback import (
    FeedbackScheme,
    OscillatorWeight,
    _plane_stroke,
    _register_form,
    build_oscillator_weight,
    build_shift_unitary,
    check_feedback_energy,
    conditional_feedback_map,
)
from .measurement import (
    Branch,
    Gemenge,
    Instrument,
    MeasurementModel,
    Observable,
    Transition,
    WayReport,
    _eigh_order,
    apply_instrument,
    build_degenerate_instrument,
    build_transition_model,
    premeasure_and_objectify,
    way_witness,
)
from .qop import (
    EPS_ALG,
    EPS_ASSERT,
    EPS_EIG,
    EPS_FID,
    EPS_ROUTE,
    ConstructionError,
    DensityMatrix,
    HardAssertionError,
    Operator,
    PureState,
    _FactorState,
    _additive_hamiltonian,
    _check_hermitian,
    _check_joint_dim,
    _coerce,
    _conservation_residual,
    _energy_sectors,
    _factor,
    _kron,
    _non_negative,
    _positive,
    _ptrace_nd,
    _read,
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

# the dense form check, still reached here by perfbench's tracer self-test
check_feedback_form = _feedback.check_feedback_form


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True, eq=False)
class GenericWeight:
    """A weight given directly by its Hamiltonian and initial state.

    A weight of any kind owns three facts the engine reads: its
    ``hamiltonian``, its ``initial`` state and the energy ``scale`` its
    work floor is measured against (:class:`feedback.OscillatorWeight` is
    the other kind)."""

    hamiltonian: Operator
    initial: DensityMatrix

    def __post_init__(self) -> None:
        h = _coerce(Operator, self.hamiltonian)
        initial = _coerce(DensityMatrix, self.initial)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "initial", initial)
        if not h.is_hermitian:
            raise ValueError("weight Hamiltonian must be Hermitian")
        if h.dim != initial.dim:
            raise ValueError("weight Hamiltonian and state dimensions differ")

    @functools.cached_property
    def scale(self) -> float:
        """The spectral width of the Hamiltonian."""
        ev = np.linalg.eigvalsh(self.hamiltonian.entries)
        return float(ev.max() - ev.min())


@dataclasses.dataclass(frozen=True)
class Certification:
    # a model's measurement energy and repeatability reports are the ones
    # its WAY report was decided from; an instrument has none of the three
    way: WayReport | None
    feedback_energy: object
    feedback_form: object

    @property
    def passed(self) -> bool:
        meas_ok = self.way is not None and self.way.energy.passed
        return bool(
            meas_ok and self.feedback_energy.passed and self.feedback_form.passed
        )


def _basis_records(labels: Sequence[object]) -> Observable:
    """The register an instrument's outcomes are written to: ``|i><i|``
    with value ``i`` for the ``i``-th label."""
    rows = np.eye(len(labels))
    return Observable(tuple(
        (x, float(i), Operator(np.diag(rows[i]))) for i, x in enumerate(labels)
    ))


# what a build derives from an engine's structure, under the names read
_DERIVED = (
    "records", "demon_initial", "tau_r", "_tau_e", "work_floor", "certification",
)


@dataclasses.dataclass(frozen=True, eq=False)
class EngineConfig:
    """One complete engine: state preparation through erasure accounting.

    The engine's structure is every field but the system state ``rho_s``
    and the per-engine ``tol_s``, ``label`` and ``non_conforming``; no
    certificate reads those.  Construction validates the structure, derives
    what it implies and certifies it once, keeping the report.  An engine
    whose structure fields are the very objects of an engine memoised by
    :func:`scenario_library` shares that engine's derived facts and
    certification instead, and validates only its own ``tol_s`` and system
    state dimension.  ``non_conforming`` (for negative tests) still runs and
    keeps the certification but does not raise ``ConstructionError`` when it
    fails; it also disables the hard assertions that are theorems only for
    certified engines.

    What the engine can derive is not an input.  The build sets each
    derived fact once, as the attribute its readers use: ``records``, the
    register that controls the feedback (a model's pointer, or ``|i><i|``
    with value ``i`` for an instrument's ``i``-th outcome);
    ``demon_initial``, the blank record state; ``tau_r``, the Gibbs state
    of the feedback reservoir ``h_r`` at the context temperature (``None``
    without one); ``work_floor``; and ``certification``.  It resolves
    ``h_d``, ``None`` to the register's zero Hamiltonian.  An explicit
    erasure reservoir starts in its Gibbs state too; without one the
    record is erased Landauer-optimally.
    """

    rho_s: DensityMatrix
    h_s: Operator
    measurement: MeasurementModel | Instrument
    feedback: FeedbackScheme
    weight: OscillatorWeight | GenericWeight
    thermo: ThermoContext
    h_d: Operator | None = None
    h_r: Operator | None = None
    erasure: ExplicitReservoir | None = None
    degenerate_target: bool = False
    non_conforming: bool = False
    tol_s: float | None = None
    label: str = "engine"

    def __post_init__(self) -> None:
        for flag in ("degenerate_target", "non_conforming"):
            _read(getattr(self, flag), bool, flag)
        if self.tol_s is not None:
            try:
                object.__setattr__(self, "tol_s", _non_negative(self.tol_s, "tol_s"))
            except ValueError:
                raise ValueError(
                    f"tol_s must be finite and non-negative, got {self.tol_s!r}"
                ) from None
        if self.rho_s.dim != self.h_s.dim:
            raise ValueError("system state and Hamiltonian dimensions differ")
        template = _certified_template(self)
        if template is None:
            self._derive()
        else:
            for name in _DERIVED:
                object.__setattr__(self, name, getattr(template, name))
        cert = self.certification
        if not self.non_conforming:
            failures = []
            if cert.way is not None and not cert.way.energy.passed:
                failures.append(
                    "measurement violates energy conservation "
                    f"(norms {cert.way.energy})"
                )
            if not cert.feedback_energy.passed:
                failures.append("feedback violates energy conservation")
            if not cert.feedback_form.passed:
                failures.append("feedback is not of controlled form")
            if failures:
                raise ConstructionError("; ".join(failures))

    def _derive(self) -> None:
        """Validate the structure, resolve ``h_d`` and set each of
        ``_DERIVED`` from it."""
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
        floor = work_threshold(self.weight.scale, self.thermo)
        object.__setattr__(self, "work_floor", floor)
        branch_dim = self.weight.hamiltonian.dim * self.rho_s.dim
        if self.h_r is not None:
            branch_dim *= self.h_r.dim
        if self.feedback.branch_dim != branch_dim:
            raise ValueError(
                f"feedback branch dimension {self.feedback.branch_dim} != "
                f"weight*system(*reservoir) {branch_dim}"
            )
        _check_joint_dim(branch_dim, m.demon_dim if model else len(m.labels))
        records = m.pointer if model else _basis_records(m.labels)
        object.__setattr__(self, "records", records)
        blank = m.demon_initial if model else PureState(basis_state(records.dim, 0))
        object.__setattr__(self, "demon_initial", blank)
        h_d = self.h_d
        if h_d is None:
            h_d = Operator(np.zeros((records.dim, records.dim)))
        elif h_d.dim != records.dim:
            raise ValueError("demon Hamiltonian dimension mismatch")
        _check_hermitian(h_d, "demon Hamiltonian h_d must be Hermitian")
        object.__setattr__(self, "h_d", h_d)
        tau_r = None
        if self.h_r is not None:
            _check_hermitian(
                self.h_r, "reservoir Hamiltonian h_r must be Hermitian"
            )
            tau_r = thermal_state(self.h_r, self.thermo.beta)
        object.__setattr__(self, "tau_r", tau_r)
        tau_e = None
        if self.erasure is not None:
            if not isinstance(self.erasure, ExplicitReservoir):
                raise TypeError(
                    "erasure must be an ExplicitReservoir or None, got "
                    f"{self.erasure!r}"
                )
            reset, joint = self.erasure.u_r.dim, records.dim * self.erasure.h_r.dim
            if reset != joint:
                raise ValueError(
                    f"reset operator dimension {reset} != demon*reservoir {joint}"
                )
            tau_e = thermal_state(self.erasure.h_r, self.thermo.beta)
        object.__setattr__(self, "_tau_e", tau_e)
        object.__setattr__(self, "certification", self._certify())

    def _certify(self) -> Certification:
        """Each certificate once: the feedback's energy bookkeeping, which
        also refuses feedback labels other than the record labels, its
        controlled form bounded from the record register's own residuals
        (:func:`feedback._register_form`; no register composes V) and a
        model's WAY report."""
        fb_energy = check_feedback_energy(
            self.feedback, self.records, self.weight.hamiltonian, self.h_s,
            self.h_d, self.h_r,
        )
        way = None
        if isinstance(self.measurement, MeasurementModel):
            way = way_witness(self.measurement, self.h_s, self.h_d)
        return Certification(
            way=way,
            feedback_energy=fb_energy,
            feedback_form=_register_form(self.feedback, self.records),
        )

    # -- derived views ------------------------------------------------------

    @property
    def conforming(self) -> bool:
        """Certified as energy conserving with closed controlled feedback."""
        return (not self.non_conforming) and self.certification.passed

    @property
    def reservoir_in_feedback(self) -> bool:
        return self.h_r is not None


# the fields an engine's certificates and derived facts are read from: every
# field but the per-engine ones, so a field added later counts as structure
_STRUCTURE = tuple(
    f.name for f in dataclasses.fields(EngineConfig)
    if f.name not in {"rho_s", "tol_s", "label", "non_conforming"}
)


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
    mixture on the system, and each outcome's demon record matrix."""
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
            demon_records[b.outcome] = _ptrace_nd(joint, [ds, dd], [1])
        gem = Gemenge(tuple(sys_branches))
        return sigma, gem, demon_records
    gem = apply_instrument(config.measurement, config.rho_s)
    return None, gem, {x: p.entries for x, _, p in config.records.outcomes}


def run_cycle(config: EngineConfig) -> CycleResult:
    """Execute one full cycle and assemble its ledger.

    Each branch state is carried as a low-rank factor ``X`` with
    ``rho = X X^dag`` through the feedback map (``Operator._apply``: a
    stroke built from planes moves only its plane rows), and the averaged
    weight stacks the branches' factors, so entropies come from singular
    values and no state of the joint dimension is formed.  The weight
    states are held as their factors; their n x n entries are formed only
    if read.

    :func:`_joint_consistency` checks every marginal against the joint
    evolution and bounds the order-of-objectification gap from the record
    register, with no V and no second pinch on any register.  A marginal
    deviation above tolerance, or a NaN one, fails hard on every engine.
    """
    ctx = config.thermo
    h_w, rho_w = config.weight.hamiltonian, config.weight.initial
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
    dd = config.records.dim
    rho_d_after = np.zeros((dd, dd), dtype=complex)
    rho_r_after = None if tau_r is None else np.zeros((tau_r.dim,) * 2, dtype=complex)
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
        rho_d_after += b.probability * demon_records[b.outcome]
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
        rho_d_after, config.h_d, config.demon_initial, ctx,
        config.erasure, config._tau_e,
    )
    ledger = _work_ledger(
        [(br.probability, br.post_weight, br.work) for br in branches],
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


# a marginal held as its factor is compared with the joint's on their QR
# core when the two stacked are at most 1 / _CORE_RATIO of its dimension wide
_CORE_RATIO = 4


def _marginal_deviation(a: np.ndarray, m: DensityMatrix) -> float:
    """``operator_norm(A A^dag - m)``.  A marginal held as its factor ``Y``
    takes the QR core of :func:`_outer_difference_norm` where ``[A Y]`` is
    thin by ``_CORE_RATIO``, and so forms no array of its dimension
    squared; any other marginal takes the dense difference."""
    if isinstance(m, _FactorState):
        y = m._carried_factor[0]
        if _CORE_RATIO * (a.shape[1] + y.shape[1]) <= m.dim:
            return _outer_difference_norm(a, y)
    return operator_norm(a @ dagger(a) - m.entries)


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
    (-reservoir) state: an upper bound of the order-of-objectification gap
    and the largest deviation of any mixture-built marginal from the joint.

    Each ``U_x`` acts on its record's slice ``(1 (x) P_x) X`` through
    ``Operator._apply``: the record's demon rows, gathered, on a register of
    0/1 diagonal projectors (the demon's marginal factor holds each slice on
    those rows), a contraction with ``P_x`` on any other.  No n x n array
    exists, and a NaN deviation fails as one above tolerance does.

    The gap is not pinched again: it is the register's ``2 k^3 (1 +
    EPS_ALG) pi^2 o`` (0 on a 0/1 register) plus twice the populations the
    factorization drops, which also enter the deviation once.  Pinching,
    unitary conjugation and the partial trace do not increase the trace
    norm, so both stay upper bounds of their dense values.
    """
    dw = rho_w.dim
    ds = config.rho_s.dim
    dd = config.records.dim
    x_w, w_part = _factor(rho_w)
    parts = [w_part]
    # (probability, factor on (S, D), its system-side (kept, dropped))
    terms = []
    if sigma_sd is not None:
        model = config.measurement
        x_s, s_part = _factor(config.rho_s)
        x_sd = model.premeasurement.entries @ _kron(
            x_s, config.demon_initial.amplitudes[:, None]
        )
        terms.append((1.0, x_sd, s_part))
    else:
        # instruments carry no coherent record; the joint starts objectified
        for b in gem.branches:
            if b.probability <= EPS_EIG or b.state is None:
                continue
            x_b, b_part = _factor(b.state)
            idx = list(config.records.labels).index(b.outcome)
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
    nb = x.shape[0] // dd
    records = config.records.outcomes
    units = [config.feedback.unitary_for(l) for l, _, _ in records]
    diags = config.records._zero_one_diagonals
    y = x.reshape(nb, dd, -1)  # rows (branch, demon)
    if diags is not None:
        # V = sum_x U_x (x) P_x: each U_x moves only its record's rows
        rows = [np.flatnonzero(d) for d in diags]
        moved = [
            u._apply(y[:, r].reshape(nb, -1)).reshape(*dims[:-1], r.size, -1)
            for u, r in zip(units, rows)
        ]
        # the W, S (and R) marginal factors stack the record slices; the
        # demon's holds each slice on its own rows and columns
        a_d = np.zeros((dd, sum(m[..., 0, :].size for m in moved)), dtype=complex)
        col = 0
        for r, m in zip(rows, moved):
            b = np.moveaxis(m, -2, 0).reshape(r.size, -1)
            a_d[r, col : col + b.shape[1]] = b
            col += b.shape[1]
        factors = [
            np.hstack([np.moveaxis(m, ax, 0).reshape(d, -1) for m in moved])
            for ax, d in enumerate(dims[:-1])
        ] + [a_d]
    else:
        # U_x on each (1 (x) P_x) x
        t = np.concatenate([
            u._apply(np.einsum("ab,ibk->iak", p.entries, y).reshape(nb, -1))
            .reshape(*dims, -1)
            for u, (_, _, p) in zip(units, records)
        ], axis=-1)
        factors = [
            np.moveaxis(t, ax, 0).reshape(d, -1) for ax, d in enumerate(dims)
        ]
    # every term of the gap past the x = z = w ones carries some P_a P_b
    # with a != b (README "One register route")
    *_, o, pi = config.records._register
    gap = 2.0 * dropped + 2 * len(records) ** 3 * (1.0 + EPS_ALG) * pi**2 * o

    # pinch-first is the state the branch pipeline actually realises; its
    # marginals must match the mixture-built ones exactly.  numpy's max
    # keeps a NaN deviation, which then fails the check
    marginals = [rho_w_after, rho_s_after]
    if config.tau_r is not None:
        marginals.append(rho_r_after)
    marginals.append(rho_d_after)
    dev = float(np.max([
        _marginal_deviation(a, m) for a, m in zip(factors, marginals)
    ])) + dropped
    if not dev <= EPS_ASSERT:
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
        rep = config.certification.way.repeatability
        f1 = rep.passed
        fids = rep.fidelities
    else:
        fids = _instrument_repeat_fidelities(config.measurement, result.branches)
        f1 = all(p >= 1.0 - EPS_FID for _, p in fids)
    f2_rep = feature2_test(
        [(b.outcome, b.probability, b.post_weight) for b in result.branches],
        config.weight.initial,
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


@functools.cache
def _record_register() -> tuple[tuple[PureState, PureState], Observable]:
    """The qubit register every record-write engine shares: the two basis
    states and the basis observable, which serves as target, pointer and
    feedback control.  Built on first use, so importing does no algebra."""
    records = (PureState(basis_state(2, 0)), PureState(basis_state(2, 1)))
    basis = Observable((
        ("+", 1.0, Operator(projector_onto(records[0]))),
        ("-", -1.0, Operator(projector_onto(records[1]))),
    ))
    return records, basis


# every memo here holds at most this many entries, least recently used first
_MODELS_BOUND = 32

# record-write models by structure, least recently used first
_MODELS: collections.OrderedDict = collections.OrderedDict()


def _remember(memo: collections.OrderedDict, key: object, value: object) -> None:
    """Store ``value`` in an LRU ``memo``, evicting past ``_MODELS_BOUND``."""
    memo[key] = value
    if len(memo) > _MODELS_BOUND:
        memo.popitem(last=False)


def _record_model(
    h_s: Operator,
    h_d: Operator,
    posts: Sequence[np.ndarray],
    demon_initial: np.ndarray,
) -> MeasurementModel:
    """The record-write model: outcome ``"+"`` (``"-"``) takes basis state
    0 (1) to its post and writes demon basis state 0 (1).

    Its premeasurement conserves ``H_S (x) 1 + 1 (x) H_D``, which
    ``measurement.complete_unitary`` reads, for diagonal ``H_S`` and
    ``H_D``, only through the order and the sector partition of that sum's
    diagonal.  With the posts and the demon's initial amplitudes, those
    determine the model, so engines that share them share one model from a
    bounded memo; a non-diagonal or complex conservation law skips it.
    A shared model still meets the completion's hard assertion against
    this engine's Hamiltonians, and each engine certifies it itself."""
    records, basis = _record_register()
    posts = [np.asarray(p, dtype=complex) for p in posts]
    psi = np.asarray(demon_initial, dtype=complex)
    law = _additive_hamiltonian(h_s, h_d)
    key = None
    if law.ndim == 1 and not law.imag.any():
        order = _eigh_order(law.real)
        key = (
            tuple(p.tobytes() for p in posts),
            psi.tobytes(),
            (h_s.dim, h_d.dim),
            order.tobytes(),
            tuple(s.size for s in _energy_sectors(law.real[order])),
        )
        model = _MODELS.get(key)
        if model is not None:
            _MODELS.move_to_end(key)
            if _conservation_residual(model.premeasurement, law) > EPS_ALG:
                raise HardAssertionError("blockwise completion failed to commute")
            return model
    transitions = [
        Transition(x, r, PureState(post), r)
        for x, r, post in zip(basis.labels, records, posts)
    ]
    model = build_transition_model(
        basis, basis, PureState(psi), transitions, (h_s, h_d)
    )
    if key is not None:
        _remember(_MODELS, key, model)
    return model


def _qubit_state(q: float) -> DensityMatrix:
    """``diag(q, 1 - q)``, the record-write system's input state."""
    _check_range("q", q, 0.0, 1.0)
    return DensityMatrix(np.diag([q, 1.0 - q]))


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
    h_r: Operator | None = None,
) -> EngineConfig:
    """The two-outcome engine behind every model-based scenario and scan
    family.  The qubit system starts in ``diag(q, 1 - q)`` and is measured
    in its energy basis by :func:`_record_model`, and the record selects
    the outcome's stroke.  ``posts`` and ``strokes`` are in outcome order;
    a reservoir given by ``h_r`` takes part in the strokes."""
    rho_s = _qubit_state(q)
    model = _record_model(h_s, h_d, posts, demon_initial)
    return EngineConfig(
        rho_s=rho_s,
        h_s=h_s,
        measurement=model,
        feedback=FeedbackScheme(tuple(zip(model.pointer.labels, strokes))),
        weight=weight,
        thermo=ctx,
        h_d=h_d,
        h_r=h_r,
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
) -> EngineConfig:
    """A record-write engine on a qubit of gap ``omega`` whose strokes turn
    each post state to the ground state while raising an ``N``-level
    ladder weight one rung."""
    if N < 2:
        raise ValueError(f"parameter 'N' = {N} must be at least 2")
    weight = build_oscillator_weight(omega, N)
    _check_joint_dim(weight.dim, 2, h_d.dim)
    h_s = Operator(np.diag([omega / 2, -omega / 2]))
    strokes = [build_shift_unitary(weight, post) for post in posts]
    return _record_write_engine(
        label, ctx, q, h_s, h_d, posts, demon_initial, weight, strokes
    )


def _eigenstate_engine(
    label: str,
    ctx: ThermoContext,
    q: float,
    N: int,
    omega: float,
) -> EngineConfig:
    """Each outcome leaves its measured eigenstate and the demon has no
    energy.  ``example_I`` and the ``eigenstate_posts`` family build here."""
    h_d = Operator(np.zeros((2, 2)))
    posts = (basis_state(2, 0), basis_state(2, 1))
    return _ladder_engine(label, ctx, q, N, omega, h_d, posts, posts[0])


def _superposition_engine(
    label: str,
    ctx: ThermoContext,
    q: float,
    N: int,
    omega: float,
    c1: float,
    c2: float,
) -> EngineConfig:
    """Outcomes leave ``c1|0> + c2|1>`` and ``c1|0> - c2|1>``; the demon
    carries the system's Hamiltonian and starts in the first post state.
    ``example_II`` and the ``superposition_posts`` family build here."""
    h_d = Operator(np.diag([omega / 2, -omega / 2]))
    posts = (np.array([c1, c2], dtype=complex), np.array([c1, -c2], dtype=complex))
    return _ladder_engine(label, ctx, q, N, omega, h_d, posts, posts[0])


def _example_I(
    ctx: ThermoContext, q: float = 0.5, N: int = 20, omega: float = 1.0
) -> EngineConfig:
    """Eigenstate measurement in the energy basis; one branch lifts the
    weight a full quantum, the other does nothing."""
    return _eigenstate_engine("example_I", ctx, q, N, omega)


def _example_II(
    ctx: ThermoContext, q: float = 0.5, N: int = 50, omega: float = 1.0
) -> EngineConfig:
    """Eigenstate measurement whose post states are balanced superpositions;
    both branches extract close to half a quantum at large N."""
    s = 1.0 / math.sqrt(2.0)
    return _superposition_engine("example_II", ctx, q, N, omega, s, s)


def _degenerate_circumvention(
    ctx: ThermoContext,
    d: int = 4,
    ranks: Sequence[int] = (2, 2),
    N: int = 10,
    omega: float = 1.0,
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
    weight = build_oscillator_weight(omega, N, dim=N + d + 2)
    _check_joint_dim(weight.dim, d, len(ranks))
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
    instr = build_degenerate_instrument(target, data)
    dw = weight.dim
    swap = [[0.0, 1.0], [1.0, 0.0]]
    unitaries = []
    for label, t in zip(labels, tops):
        # every top is at least 1: trade |n, top> with |n + top, ground>
        n = np.arange(dw - t)
        unitaries.append((label, _plane_stroke(dw * d, n * d + t, (n + t) * d, swap)))
    rho_s = thermal_state(h_s.entries, ctx.beta)
    return EngineConfig(
        rho_s=rho_s,
        h_s=h_s,
        measurement=instr,
        feedback=FeedbackScheme(tuple(unitaries)),
        weight=weight,
        thermo=ctx,
        degenerate_target=True,
        label="degenerate_circumvention",
    )


def _reservoir_circumvention(
    ctx: ThermoContext,
    dim_R: int = 16,
    theta: float = math.pi / 2,
    q: float = 0.5,
    N: int = 30,
    omega: float = 0.25,
) -> EngineConfig:
    """Fully degenerate system: feedback partially swaps reservoir quanta
    into the weight conditioned on the record, extracting work from heat at
    the price of a growing weight entropy."""
    _check_range("theta", theta, 0.0, math.pi)
    if dim_R < 2:
        raise ValueError(f"parameter 'dim_R' = {dim_R} must be at least 2")
    if N < 2:
        raise ValueError(f"parameter 'N' = {N} must be at least 2")
    weight = build_oscillator_weight(omega, N)
    dw = weight.dim
    _check_joint_dim(dw, 2, dim_R, 2)
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
        strokes.append(_plane_stroke(dw * 2 * dim_R, i, j, block))
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
        h_r,
    )


def _null_engine(ctx: ThermoContext, omega: float = 1.0) -> EngineConfig:
    """Trivial single-outcome measurement and identity feedback."""
    h_s = Operator(np.diag([omega / 2, -omega / 2]))
    instr = Instrument((("0", (Operator(np.eye(2)),)),))
    weight = build_oscillator_weight(omega, 4)
    rho_s = thermal_state(h_s.entries, ctx.beta)
    identity = _plane_stroke(weight.dim * 2, np.arange(0), np.arange(0), np.eye(2))
    return EngineConfig(
        rho_s=rho_s,
        h_s=h_s,
        measurement=instr,
        feedback=FeedbackScheme((("0", identity),)),
        weight=weight,
        thermo=ctx,
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


# how outside input is read for each annotation a scenario parameter has
_PARAM_KINDS = {
    "int": int,
    "float": float,
    "Sequence[int]": [int],
}

# parameters builders name alike, whose range the reader checks too
_NAMED_KINDS = {"omega": _positive}

# the parameters every scenario shares, which the library reads itself
_SHARED = {
    "temperature": (_positive, 1.0),
    "kb": (_positive, 1.0),
    "tol_s": (_non_negative, None),
}


@functools.cache
def _param_table(fn: Callable[..., EngineConfig]) -> dict:
    """A scenario's parameters as a reader block: name -> (kind, default),
    the builder's own (past its leading ``ctx``) and then ``_SHARED``, built
    once per builder and shared: ``_read`` only reads it.  An annotation
    without a kind raises ``KeyError``, so no scenario parameter goes
    unchecked."""
    _, *own = inspect.signature(fn).parameters.values()
    return {
        **{
            p.name: (_NAMED_KINDS.get(p.name) or _PARAM_KINDS[p.annotation], p.default)
            for p in own
        },
        **_SHARED,
    }


# certified library engines by scenario and structure parameters, least
# recently used first
_ENGINES: collections.OrderedDict = collections.OrderedDict()


def _certified_template(config: EngineConfig) -> EngineConfig | None:
    """The memoised library engine whose structure fields are ``config``'s
    own objects, or ``None``."""
    for template in _ENGINES.values():
        if all(getattr(config, f) is getattr(template, f) for f in _STRUCTURE):
            return template
    return None


def scenario_library(name: str, **params) -> EngineConfig:
    """Build one of the named reference engines.

    Unknown names or parameters, and parameters of the wrong type, raise
    ``ValueError`` naming the offender, so front ends can surface precise
    diagnostics.  A ``None`` parameter takes its default.

    Each scenario takes its builder's own parameters and the shared
    ``temperature``, ``kb`` and ``tol_s``.  Every parameter but ``q`` and
    ``tol_s`` is structure.  The first build of a structure makes its
    :class:`~szilard.thermo.ThermoContext`, hands it to the builder, and
    certifies and memoises the engine (at most ``_MODELS_BOUND`` of them,
    least recently used dropped first); a later call with the same
    structure parameters checks ``q``, builds ``diag(q, 1 - q)`` and
    constructs an engine on the memoised structure objects, which shares
    their certification (:class:`EngineConfig`).  A scenario without ``q``
    reuses its memoised system state too.  ``tol_s`` is applied to the
    returned engine, never to the memoised one.  Each call returns a new
    engine.
    """
    if name not in _SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    fn = _SCENARIOS[name]
    args = _read(params, _param_table(fn), "", "parameter")
    tol_s = args.pop("tol_s")
    # repr tells -0.0 from 0.0, which a builder need not treat alike
    key = (name, repr({k: v for k, v in args.items() if k != "q"}))
    template = _ENGINES.get(key)
    if template is None:
        ctx = ThermoContext(args.pop("temperature"), args.pop("kb"))
        template = fn(ctx, **args)
        _remember(_ENGINES, key, template)
        return template if tol_s is None else dataclasses.replace(template, tol_s=tol_s)
    _ENGINES.move_to_end(key)
    rho_s = _qubit_state(args["q"]) if "q" in args else template.rho_s
    return dataclasses.replace(template, rho_s=rho_s, tol_s=tol_s)


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
    stroke = _plane_stroke(dim_w * 2, [m * 2], [(m + 1) * 2 + 1], swap)
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

    @property
    def all_three_count(self) -> int:
        return sum(all(r.triple) for r in self.records)

    @property
    def pattern_counts(self) -> tuple[tuple[tuple[bool, bool, bool], int], ...]:
        seen: dict[tuple[bool, bool, bool], int] = {}
        for r in self.records:
            seen[r.triple] = seen.get(r.triple, 0) + 1
        return tuple(sorted(seen.items(), key=lambda kv: kv[0], reverse=True))


def impossibility_scan(
    count: int, seed: int, thermal_system: bool = False
) -> ScanReport:
    """Run randomized conforming engines and tally their feature patterns.

    Families rotate round-robin so every pattern generator gets a fixed
    share of the draws; the full run is reproducible from the seed.  Each
    cycle passes through the feature-exclusion assertion, so a scan
    completing at all is itself evidence.
    """
    count = _read(count, int, "count", "argument")
    seed = _read(seed, int, "seed", "argument")
    thermal_system = _read(thermal_system, bool, "thermal_system", "argument")
    if count < 1:
        raise ValueError("count must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    names = tuple(SCAN_FAMILIES)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        name = names[i % len(names)]
        config = SCAN_FAMILIES[name](rng, thermal_system)
        result = run_cycle(config)
        report = evaluate_features(result, config)
        records.append(
            ScanRecord(
                family=name,
                triple=report.triple,
                min_work=report.min_work,
                w_net_coarse=result.ledger.w_net_coarse,
                w_net_avg=result.ledger.w_net_avg,
                bound_rhs_coarse=result.ledger.bound_rhs_coarse,
                order_gap=result.objectification_order_gap,
            )
        )
    return ScanReport(count=count, seed=seed, records=tuple(records))
