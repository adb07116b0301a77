"""Measurement models, premeasurement, objectification, and instruments.

A measurement model couples the system to a demon memory through a
premeasurement unitary, so that reading a pointer observable on the memory
reveals the outcome.  Objectification projects the correlated state onto the
pointer subspaces and yields a classical mixture of outcome branches.

The central construction problem solved here is completing a partially
specified isometry (the transition table of a model) to a full unitary that,
when requested, commutes exactly with the additive Hamiltonian of system
plus memory.  The completion works blockwise inside total-energy eigenspaces
and fails loudly when the transition table is incompatible with energy
conservation.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from .qop import (
    EPS_ALG,
    EPS_EIG,
    EPS_EXTEND,
    EPS_FID,
    EPS_GRAM,
    EPS_RANK,
    EPS_SUPPORT,
    ConstructionError,
    DensityMatrix,
    HardAssertionError,
    Operator,
    PureState,
    _check_hermitian,
    _energy_sectors,
    _entries_of,
    _fix_phase,
    _kron,
    commutator_norm,
    dagger,
    operator_norm,
    projector_onto,
)

__all__ = [
    "Observable",
    "Transition",
    "MeasurementModel",
    "Instrument",
    "Branch",
    "Gemenge",
    "build_standard_premeasurement",
    "build_transition_model",
    "premeasure_and_objectify",
    "check_energy_conserving_measurement",
    "check_repeatable",
    "way_witness",
    "build_degenerate_instrument",
    "apply_instrument",
    "EnergyReport",
    "RepeatReport",
    "WayReport",
]


# ---------------------------------------------------------------------------
# domain types


@dataclasses.dataclass(frozen=True, eq=False)
class Observable:
    """Complete family of labelled orthogonal projectors with eigenvalues."""

    outcomes: tuple[tuple[object, float, Operator], ...]

    def __post_init__(self) -> None:
        outs = tuple(
            (label, float(val), p if isinstance(p, Operator) else Operator(p))
            for (label, val, p) in self.outcomes
        )
        if not outs:
            raise ValueError("observable needs at least one outcome")
        labels = [o[0] for o in outs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels not unique: {labels}")
        dim = outs[0][2].dim
        total = np.zeros((dim, dim), dtype=complex)
        for label, _, p in outs:
            if p.dim != dim:
                raise ValueError("projector dimensions inconsistent")
            if not p.is_projector:
                raise ValueError(f"outcome {label!r}: not a projector")
            total += p.entries
        for i, (la, _, pa) in enumerate(outs):
            for lb, _, pb in outs[i + 1 :]:
                if operator_norm(pa.entries @ pb.entries) > EPS_ALG:
                    raise ValueError(f"projectors {la!r} and {lb!r} not orthogonal")
        if operator_norm(total - np.eye(dim)) > EPS_ALG:
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "outcomes", outs)

    @property
    def dim(self) -> int:
        return self.outcomes[0][2].dim

    @property
    def labels(self) -> tuple[object, ...]:
        return tuple(o[0] for o in self.outcomes)

    def projector_for(self, label: object) -> Operator:
        for l, _, p in self.outcomes:
            if l == label:
                return p
        raise ValueError(f"unknown outcome label {label!r}")

    def operator(self) -> np.ndarray:
        """The self-adjoint operator ``sum_x x P_x``."""
        return sum(v * p.entries for _, v, p in self.outcomes)

    @property
    def is_nondegenerate(self) -> bool:
        return all(p.rank_estimate() == 1 for _, _, p in self.outcomes)


@dataclasses.dataclass(frozen=True, eq=False)
class Transition:
    """One row of a model's transition table.

    The premeasurement maps ``sys_in (x) demon_initial`` to
    ``sys_out (x) pointer_out``.  Standard models have one row per outcome;
    coarse-grained models have one row per basis vector of each outcome
    subspace.
    """

    outcome: object
    sys_in: PureState
    sys_out: PureState
    pointer_out: PureState


@dataclasses.dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A demon memory, a premeasurement unitary, and the two observables."""

    demon_initial: PureState
    premeasurement: Operator  # acts on system (x) demon
    pointer: Observable  # on the demon
    target: Observable  # on the system
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        u = self.premeasurement
        dd = self.demon_initial.dim
        if self.pointer.dim != dd:
            raise ValueError("pointer dimension differs from demon dimension")
        ds = self.target.dim
        if u.dim != ds * dd:
            raise ValueError(
                f"premeasurement dimension {u.dim} != system*demon {ds * dd}"
            )
        if not u.is_unitary:
            raise ValueError("premeasurement is not unitary")
        psi = self.demon_initial.amplitudes
        for t in self.transitions:
            if t.outcome not in self.pointer.labels:
                raise ValueError(f"transition outcome {t.outcome!r} not a pointer label")
            src = _kron(t.sys_in.amplitudes, psi)
            dst = _kron(t.sys_out.amplitudes, t.pointer_out.amplitudes)
            got = u.entries @ src
            fid = abs(np.vdot(dst, got)) ** 2
            if fid < 1.0 - EPS_FID:
                raise ValueError(
                    f"transition for outcome {t.outcome!r} reproduced with "
                    f"fidelity {fid:.12f} < 1 - 1e-9"
                )
            p = self.pointer.projector_for(t.outcome).entries
            leak = float(
                np.linalg.norm(
                    (np.eye(dd) - p) @ t.pointer_out.amplitudes
                )
            )
            if leak > EPS_FID:
                raise ValueError(
                    f"pointer record for outcome {t.outcome!r} leaves its "
                    f"subspace (leak {leak:.3e})"
                )

    @property
    def demon_dim(self) -> int:
        return self.demon_initial.dim

    @property
    def system_dim(self) -> int:
        return self.target.dim

    @property
    def post_states(self) -> dict | None:
        """Outcome to post-state map, when the model has one row per outcome."""
        seen: dict = {}
        for t in self.transitions:
            if t.outcome in seen:
                return None
            seen[t.outcome] = t.sys_out
        return seen


@dataclasses.dataclass(frozen=True, eq=False)
class Instrument:
    """Kraus decomposition of a measurement, grouped by outcome."""

    kraus: tuple[tuple[object, tuple[Operator, ...]], ...]

    def __post_init__(self) -> None:
        groups = tuple(
            (label, tuple(k if isinstance(k, Operator) else Operator(k) for k in ops))
            for label, ops in self.kraus
        )
        if not groups:
            raise ValueError("instrument needs at least one outcome")
        labels = [g[0] for g in groups]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels not unique: {labels}")
        dim = groups[0][1][0].dim
        total = np.zeros((dim, dim), dtype=complex)
        for _, ops in groups:
            for k in ops:
                if k.dim != dim:
                    raise ValueError("Kraus dimensions inconsistent")
                total += dagger(k.entries) @ k.entries
        dev = operator_norm(total - np.eye(dim))
        if dev > EPS_ALG:
            raise ValueError(f"Kraus completeness violated by {dev:.3e}")
        object.__setattr__(self, "kraus", groups)

    @property
    def dim(self) -> int:
        return self.kraus[0][1][0].dim

    @property
    def labels(self) -> tuple[object, ...]:
        return tuple(g[0] for g in self.kraus)

    def kraus_for(self, label: object) -> tuple[Operator, ...]:
        for l, ops in self.kraus:
            if l == label:
                return ops
        raise ValueError(f"unknown outcome label {label!r}")


@dataclasses.dataclass(frozen=True, eq=False)
class Branch:
    outcome: object
    probability: float
    state: DensityMatrix | None  # None marks a branch with p <= EPS_EIG


@dataclasses.dataclass(frozen=True, eq=False)
class Gemenge:
    """Proper mixture of outcome-labelled states with classical weights."""

    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        bs = tuple(self.branches)
        if not bs:
            raise ValueError("empty branch list")
        total = 0.0
        for b in bs:
            if b.probability < -EPS_ALG:
                raise ValueError(f"negative probability {b.probability}")
            if b.probability > EPS_EIG and b.state is None:
                raise ValueError(
                    f"branch {b.outcome!r} with weight {b.probability} has no state"
                )
            total += b.probability
        if abs(total - 1.0) > EPS_ALG:
            raise ValueError(f"branch probabilities sum to {total}")
        object.__setattr__(self, "branches", bs)

    def probability_for(self, label: object) -> float:
        for b in self.branches:
            if b.outcome == label:
                return b.probability
        raise ValueError(f"unknown outcome label {label!r}")


# ---------------------------------------------------------------------------
# unitary completion


def _orthonormal_extension(columns: np.ndarray, dim: int) -> np.ndarray:
    """Extend orthonormal columns to a full basis, deterministically.

    Candidate vectors are the canonical basis in index order; each is
    orthogonalised twice against the running basis for numerical stability
    and kept when a significant residual survives.
    """
    cols = [columns[:, i] for i in range(columns.shape[1])]
    for i in range(dim):
        if len(cols) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[i] = 1.0
        for _ in range(2):
            for c in cols:
                v = v - c * np.vdot(c, v)
        n = float(np.linalg.norm(v))
        if n > EPS_EXTEND:
            cols.append(v / n)
    if len(cols) != dim:
        raise ConstructionError("failed to extend basis (degenerate input)")
    return np.stack(cols, axis=1)


def _unitary_from_pairs(
    vecs_in: np.ndarray, vecs_out: np.ndarray, dim: int
) -> np.ndarray:
    """A unitary mapping each in-column to the matching out-column.

    Exists iff the two Gram matrices agree; rank-deficient input is rejected.
    """
    k = vecs_in.shape[1]
    if k == 0:
        return np.eye(dim, dtype=complex)
    g_in = dagger(vecs_in) @ vecs_in
    g_out = dagger(vecs_out) @ vecs_out
    if operator_norm(g_in - g_out) > EPS_GRAM:
        raise ConstructionError(
            "transition table is not compatible with an isometry "
            "(Gram matrices differ)"
        )
    u_svd, s, vh = np.linalg.svd(vecs_in, full_matrices=False)
    if np.any(s < EPS_RANK):
        raise ConstructionError("isometry inputs are linearly dependent")
    # orthonormal domain basis q_j and its image p_j under the pair map
    coef = dagger(vh) @ np.diag(1.0 / s)
    q = vecs_in @ coef
    p = vecs_out @ coef
    qf = _orthonormal_extension(q, dim)
    pf = _orthonormal_extension(p, dim)
    return pf @ dagger(qf)


def complete_unitary(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    dim: int,
    hamiltonian: np.ndarray | None = None,
) -> np.ndarray:
    """Extend the map ``in_i -> out_i`` to a unitary on the whole space.

    With a Hamiltonian the extension is performed separately inside each
    of its energy sectors, which forces the result to commute with it; pairs
    whose in and out vectors distribute differently over the sectors are
    rejected as incompatible with conservation.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    x = np.stack([np.asarray(a, dtype=complex) for a, _ in pairs], axis=1)
    y = np.stack([np.asarray(b, dtype=complex) for _, b in pairs], axis=1)
    if x.shape[0] != dim or y.shape[0] != dim:
        raise ValueError("pair vectors do not match the requested dimension")
    if hamiltonian is None:
        return _unitary_from_pairs(x, y, dim)

    h = np.asarray(hamiltonian, dtype=complex)
    # eigh reads one triangle only, so a non-Hermitian H must stop here
    _check_hermitian(
        h, "energy-conserving completion needs a Hermitian Hamiltonian"
    )
    ev, vec = np.linalg.eigh(h)
    blocks = np.zeros((dim, dim), dtype=complex)
    cx = dagger(vec) @ x
    cy = dagger(vec) @ y
    for sector in _energy_sectors(ev):
        # the pairs with a component in this sector
        keep = (np.linalg.norm(cx[sector], axis=0) > EPS_SUPPORT) | (
            np.linalg.norm(cy[sector], axis=0) > EPS_SUPPORT
        )
        xs = cx[sector][:, keep]
        ys = cy[sector][:, keep]
        if operator_norm(dagger(xs) @ xs - dagger(ys) @ ys) > EPS_GRAM:
            raise ConstructionError(
                "transition table moves amplitude between energy sectors; "
                "no energy-conserving completion exists"
            )
        blocks[np.ix_(sector, sector)] = _unitary_from_pairs(xs, ys, len(sector))
    u = vec @ blocks @ dagger(vec)
    if commutator_norm(u, h) > EPS_ALG:
        raise HardAssertionError("blockwise completion failed to commute")
    return u


# ---------------------------------------------------------------------------
# model builders


def _vector_from_projector(p: Operator) -> np.ndarray:
    """Deterministic unit vector in the range of a projector of any rank."""
    m = p.entries
    j = int(np.argmax(np.linalg.norm(m, axis=0)))
    v = m[:, j]
    return _fix_phase(v / np.linalg.norm(v))


def build_transition_model(
    target: Observable,
    pointer: Observable,
    demon_initial: PureState,
    transitions: Sequence[Transition],
    hamiltonians: tuple[object, object] | None = None,
) -> MeasurementModel:
    """Assemble a model from an explicit transition table.

    When ``hamiltonians = (H_S, H_D)`` is given, the premeasurement is
    completed blockwise inside the eigenspaces of ``H_S + H_D`` and is
    therefore exactly energy conserving (or the construction fails).
    """
    ds, dd = target.dim, pointer.dim
    psi = demon_initial.amplitudes
    pairs = []
    for t in transitions:
        src = _kron(t.sys_in.amplitudes, psi)
        dst = _kron(t.sys_out.amplitudes, t.pointer_out.amplitudes)
        pairs.append((src, dst))
    h = None
    if hamiltonians is not None:
        hs = _entries_of(hamiltonians[0])
        hd = _entries_of(hamiltonians[1])
        h = _kron(hs, np.eye(dd)) + _kron(np.eye(ds), hd)
    u = complete_unitary(pairs, ds * dd, h)
    return MeasurementModel(
        demon_initial=demon_initial,
        premeasurement=Operator(u),
        pointer=pointer,
        target=target,
        transitions=tuple(transitions),
    )


def build_standard_premeasurement(
    target: Observable,
    post_states: Mapping[object, PureState],
    pointer: Observable,
    demon_initial: PureState,
    hamiltonians: tuple[object, object] | None = None,
) -> MeasurementModel:
    """Standard model: one post state and one pointer record per outcome.

    The target must be non-degenerate.  Pointer records are taken as
    deterministic unit vectors inside each pointer subspace.
    """
    if not target.is_nondegenerate:
        raise ValueError("standard premeasurement needs a non-degenerate target")
    if set(post_states) != set(target.labels):
        raise ValueError(
            f"post_states labels {sorted(map(str, post_states))} do not match "
            f"target labels {sorted(map(str, target.labels))}"
        )
    transitions = []
    for label, _, proj in target.outcomes:
        phi = _vector_from_projector(proj)
        post = post_states[label]
        if not isinstance(post, PureState):
            post = PureState(post)  # raises ValueError when not normalised
        rec = _vector_from_projector(pointer.projector_for(label))
        transitions.append(
            Transition(
                outcome=label,
                sys_in=PureState(phi),
                sys_out=post,
                pointer_out=PureState(rec),
            )
        )
    return build_transition_model(
        target, pointer, demon_initial, transitions, hamiltonians
    )


# ---------------------------------------------------------------------------
# premeasurement and objectification


def premeasure_and_objectify(
    model: MeasurementModel, rho_s: DensityMatrix
) -> tuple[DensityMatrix, Gemenge]:
    """Couple the system to the memory, then project onto pointer subspaces.

    Returns the correlated system+demon state and the classical mixture of
    outcome branches (branch states live on system+demon).
    """
    if rho_s.dim != model.system_dim:
        raise ValueError(
            f"state dimension {rho_s.dim} != system dimension {model.system_dim}"
        )
    dd = model.demon_dim
    u = model.premeasurement.entries
    joint = _kron(rho_s.entries, projector_onto(model.demon_initial))
    sigma = u @ joint @ dagger(u)
    branches = []
    for label in model.pointer.labels:
        proj = _kron(np.eye(model.system_dim), model.pointer.projector_for(label).entries)
        block = proj @ sigma @ proj
        p = float(np.trace(block).real)
        if p > EPS_EIG:
            branches.append(Branch(label, p, DensityMatrix._derived(block / p)))
        else:
            branches.append(Branch(label, max(p, 0.0), None))
    gem = Gemenge(tuple(branches))
    if model.target.is_nondegenerate:
        for label, _, proj in model.target.outcomes:
            born = float(np.trace(proj.entries @ rho_s.entries).real)
            if abs(gem.probability_for(label) - born) > EPS_FID:
                raise HardAssertionError(
                    f"branch probability for {label!r} deviates from the "
                    f"projection rule by more than 1e-9"
                )
    return DensityMatrix._derived(sigma), gem


# ---------------------------------------------------------------------------
# certification reports


@dataclasses.dataclass(frozen=True)
class EnergyReport:
    passed: bool
    premeasurement_commutator: float
    pointer_commutator: float


def check_energy_conserving_measurement(
    model: MeasurementModel, h_s: object, h_d: object
) -> EnergyReport:
    """Both conditions: the coupling conserves ``H_S + H_D`` and the pointer
    observable commutes with ``H_D``."""
    hs = _entries_of(h_s)
    hd = _entries_of(h_d)
    htot = _kron(hs, np.eye(model.demon_dim)) + _kron(
        np.eye(model.system_dim), hd
    )
    c1 = commutator_norm(model.premeasurement.entries, htot)
    zd = model.pointer.operator()
    c2 = commutator_norm(zd, hd)
    return EnergyReport(
        passed=(c1 <= EPS_ALG and c2 <= EPS_ALG),
        premeasurement_commutator=c1,
        pointer_commutator=c2,
    )


@dataclasses.dataclass(frozen=True)
class RepeatReport:
    passed: bool
    fidelities: tuple[tuple[object, float], ...]


def check_repeatable(model: MeasurementModel) -> RepeatReport:
    """Would an immediate second measurement reproduce the outcome?

    Non-degenerate targets: per-outcome fidelity between the post state and
    the measured eigenstate.  Degenerate targets: the post state must have
    support inside its outcome subspace; the reported number is the weight
    of the post state inside that subspace.
    """
    fids = []
    ok = True
    for t in model.transitions:
        proj = model.target.projector_for(t.outcome).entries
        w = float(
            np.vdot(t.sys_out.amplitudes, proj @ t.sys_out.amplitudes).real
        )
        fids.append((t.outcome, w))
        if w < 1.0 - EPS_FID:
            ok = False
    return RepeatReport(passed=ok, fidelities=tuple(fids))


@dataclasses.dataclass(frozen=True)
class WayReport:
    energy_ok: bool
    repeatable_or_pointer_commuting: bool
    observable_commutes: bool
    premeasurement_commutator: float
    pointer_commutator: float
    target_commutator: float


def way_witness(model: MeasurementModel, h_s: object, h_d: object) -> WayReport:
    """Conservation-law restriction on measurable observables.

    For an energy-conserving model that is repeatable (or whose pointer
    commutes with the memory Hamiltonian), the target observable must
    commute with the system Hamiltonian.  A violation of that implication
    cannot arise from physics and raises a hard failure.
    """
    return _way_report(
        model,
        h_s,
        check_energy_conserving_measurement(model, h_s, h_d),
        check_repeatable(model),
    )


def _way_report(
    model: MeasurementModel, h_s: object, en: EnergyReport, rep: RepeatReport
) -> WayReport:
    """The WAY implication, given the model's energy and repeatability
    reports, so a caller that already holds them need not recompute them."""
    tc = commutator_norm(model.target.operator(), h_s)
    commutes = tc <= EPS_ALG
    hyp2 = rep.passed or (en.pointer_commutator <= EPS_ALG)
    if en.passed and hyp2 and not commutes:
        raise HardAssertionError(
            "energy-conserving repeatable model measures an observable that "
            f"fails to commute with the system Hamiltonian (norm {tc:.3e})"
        )
    return WayReport(
        energy_ok=en.passed,
        repeatable_or_pointer_commuting=hyp2,
        observable_commutes=commutes,
        premeasurement_commutator=en.premeasurement_commutator,
        pointer_commutator=en.pointer_commutator,
        target_commutator=tc,
    )


# ---------------------------------------------------------------------------
# instruments


def build_degenerate_instrument(
    kind: str,
    target: Observable,
    data: Mapping[object, object],
    repeatable: bool = True,
) -> Instrument:
    """Instruments for a degenerate target observable.

    ``strong_value_correlation``: one unitary per outcome acting inside the
    outcome subspace; single Kraus operator ``V_x P_x`` per outcome, so pure
    inputs give pure branch states.

    ``coarse_grained``: per outcome, a list of ``(basis_vec, post_vec)``
    pairs; Kraus set ``{|post><basis|}``.  This models merging the outcomes
    of a finer measurement and is deliberately inefficient: branch states
    are mixtures even for pure inputs.
    """
    if set(data) != set(target.labels):
        raise ValueError("data labels do not match target labels")
    groups = []
    if kind == "strong_value_correlation":
        for label, _, proj in target.outcomes:
            v = _entries_of(data[label])
            k = v @ proj.entries
            if repeatable:
                leak = operator_norm((np.eye(target.dim) - proj.entries) @ k)
                if leak > EPS_FID:
                    raise ConstructionError(
                        f"outcome {label!r}: post map leaves the outcome subspace"
                    )
            groups.append((label, (Operator(k),)))
    elif kind == "coarse_grained":
        for label, _, proj in target.outcomes:
            ops = []
            for basis_vec, post_vec in data[label]:
                b = np.asarray(getattr(basis_vec, "amplitudes", basis_vec), complex)
                f = np.asarray(getattr(post_vec, "amplitudes", post_vec), complex)
                if abs(np.linalg.norm(f) - 1.0) > EPS_ALG:
                    raise ValueError(f"outcome {label!r}: post vector not normalised")
                if repeatable:
                    leak = float(
                        np.linalg.norm((np.eye(target.dim) - proj.entries) @ f)
                    )
                    if leak > EPS_FID:
                        raise ConstructionError(
                            f"outcome {label!r}: post vector outside its subspace"
                        )
                ops.append(Operator(np.outer(f, b.conj())))
            groups.append((label, tuple(ops)))
    else:
        raise ValueError(f"unknown instrument kind {kind!r}")
    return Instrument(tuple(groups))


def apply_instrument(instr: Instrument, rho_s: DensityMatrix) -> Gemenge:
    """Branch mixture ``x -> sum_k K_xk rho K_xk^dag`` with its weights."""
    if rho_s.dim != instr.dim:
        raise ValueError(f"state dimension {rho_s.dim} != instrument {instr.dim}")
    branches = []
    for label, ops in instr.kraus:
        block = np.zeros((instr.dim, instr.dim), dtype=complex)
        for k in ops:
            block += k.entries @ rho_s.entries @ dagger(k.entries)
        p = float(np.trace(block).real)
        if p > EPS_EIG:
            branches.append(Branch(label, p, DensityMatrix._derived(block / p)))
        else:
            branches.append(Branch(label, max(p, 0.0), None))
    return Gemenge(tuple(branches))


def instrument_from_model(model: MeasurementModel) -> Instrument:
    """The system-side Kraus description induced by a transition table."""
    groups: dict = {}
    for t in model.transitions:
        groups.setdefault(t.outcome, []).append(
            Operator(np.outer(t.sys_out.amplitudes, t.sys_in.amplitudes.conj()))
        )
    return Instrument(tuple((l, tuple(ops)) for l, ops in groups.items()))
