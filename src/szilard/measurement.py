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
import functools
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
    _additive_hamiltonian,
    _check_hermitian,
    _coerce,
    _conservation_residual,
    _diagonal_of,
    _energy_sectors,
    _kron,
    _within_eps,
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
            (label, float(val), _coerce(Operator, p))
            for (label, val, p) in self.outcomes
        )
        if not outs:
            raise ValueError("observable needs at least one outcome")
        labels = [o[0] for o in outs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels not unique: {labels}")
        dim = outs[0][2].dim
        for label, _, p in outs:
            if p.dim != dim:
                raise ValueError("projector dimensions inconsistent")
            if not p.is_projector:
                raise ValueError(f"outcome {label!r}: not a projector")
        diagonals = [p._diagonal for _, _, p in outs]
        if all(d is not None for d in diagonals):
            # the products and the sum of diagonal projectors are diagonal,
            # and a diagonal matrix's operator norm is its largest |entry|
            d = np.array(diagonals)
            orth = [np.abs(a * d[i + 1 :]).max(1) <= EPS_ALG for i, a in enumerate(d)]
            complete = float(np.abs(d.sum(axis=0) - 1.0).max()) <= EPS_ALG
        else:
            m = [p.entries for _, _, p in outs]
            orth = [[_within_eps(a @ b) for b in m[i + 1 :]] for i, a in enumerate(m)]
            complete = _within_eps(sum(m) - np.eye(dim))
        for i, row in enumerate(orth):
            for j, ok in enumerate(row, start=i + 1):
                if not ok:
                    raise ValueError(
                        f"projectors {outs[i][0]!r} and {outs[j][0]!r} not orthogonal"
                    )
        if not complete:
            raise ValueError("projectors do not sum to the identity")
        for label, _, p in outs:
            if p.rank_estimate() == 0:
                raise ValueError(f"outcome {label!r}: projector is zero")
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

    @functools.cached_property
    def _zero_one_diagonals(self) -> tuple[np.ndarray, ...] | None:
        """The real diagonal of each projector, in outcome order, when every
        one is a diagonal of exact 0s and 1s, else ``None``."""
        out = []
        for _, _, p in self.outcomes:
            d = p._diagonal
            if d is None or not np.all((d == 0) | (d == 1)):
                return None
            out.append(d.real)  # a read-only view, as the diagonal is
        return tuple(out)


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
            (label, tuple(_coerce(Operator, k) for k in ops))
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
        total -= np.eye(dim)
        if not _within_eps(total):
            raise ValueError(
                f"Kraus completeness violated by {operator_norm(total):.3e}"
            )
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

    Exists iff the two Gram matrices agree, which the caller checks;
    rank-deficient input is rejected.
    """
    k = vecs_in.shape[1]
    if k == 0:
        return np.eye(dim, dtype=complex)
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


def _eigh_order(d: np.ndarray) -> np.ndarray:
    """The order ``eigh`` gives the entries of a real diagonal: LAPACK's
    closing selection sort, which swaps the first smallest remaining entry
    into each place in turn, and so can reorder equal entries where a
    stable sort would not (``[1, 0, 1, 0]`` gives ``[1, 3, 2, 0]``)."""
    d = d.copy()
    order = np.arange(d.size)
    for i in range(d.size - 1):
        k = i + int(np.argmin(d[i:]))
        if d[k] < d[i]:
            d[[i, k]] = d[[k, i]]
            order[[i, k]] = order[[k, i]]
    return order


def complete_unitary(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    dim: int,
    hamiltonian: np.ndarray,
) -> np.ndarray:
    """Extend the map ``in_i -> out_i`` to a unitary on the whole space.

    The extension is performed separately inside each energy sector of
    ``hamiltonian``, which forces the result to commute with it; pairs
    whose in and out vectors distribute differently over the sectors are
    rejected as incompatible with conservation.  A zero Hamiltonian has one
    sector and leaves the extension unconstrained.

    A general Hamiltonian's sectors come from ``eigh``, and the pairs are
    rotated into its eigenbasis and the blocks back out of it.  A diagonal
    Hamiltonian's eigenbasis is the standard basis, in the order
    :func:`_eigh_order` reads from the real part of its diagonal, so the
    sectors are read from that order and each block is placed by index: no
    ``eigh`` and no rotation.  ``eigh``'s eigenvectors of a diagonal matrix
    are exactly that permutation, so both routes give the same bits, and
    the result depends on a diagonal Hamiltonian only through the order
    and sector partition of its diagonal.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    x = np.stack([np.asarray(a, dtype=complex) for a, _ in pairs], axis=1)
    y = np.stack([np.asarray(b, dtype=complex) for _, b in pairs], axis=1)
    if x.shape[0] != dim or y.shape[0] != dim:
        raise ValueError("pair vectors do not match the requested dimension")
    h = np.asarray(hamiltonian, dtype=complex)
    # eigh reads one triangle only, so a non-Hermitian H must stop here
    _check_hermitian(
        h, "energy-conserving completion needs a Hermitian Hamiltonian"
    )
    diagonal = _diagonal_of(h)
    if diagonal is None:
        ev, vec = np.linalg.eigh(h)
        cx = dagger(vec) @ x
        cy = dagger(vec) @ y
    else:
        order = _eigh_order(diagonal.real)
        ev = diagonal.real[order]
        cx = x[order]
        cy = y[order]
    blocks = np.zeros((dim, dim), dtype=complex)
    for sector in _energy_sectors(ev):
        # the pairs with a component in this sector
        keep = (np.linalg.norm(cx[sector], axis=0) > EPS_SUPPORT) | (
            np.linalg.norm(cy[sector], axis=0) > EPS_SUPPORT
        )
        xs = cx[sector][:, keep]
        ys = cy[sector][:, keep]
        if not _within_eps(dagger(xs) @ xs - dagger(ys) @ ys, EPS_GRAM):
            raise ConstructionError(
                "transition table moves amplitude between energy sectors; "
                "no energy-conserving completion exists"
            )
        blocks[np.ix_(sector, sector)] = _unitary_from_pairs(xs, ys, len(sector))
    if diagonal is None:
        u = vec @ blocks @ dagger(vec)
    else:
        u = np.empty_like(blocks)
        u[np.ix_(order, order)] = blocks
    if commutator_norm(u, h) > EPS_ALG:
        raise HardAssertionError("blockwise completion failed to commute")
    return u


# ---------------------------------------------------------------------------
# model builders


def build_transition_model(
    target: Observable,
    pointer: Observable,
    demon_initial: PureState,
    transitions: Sequence[Transition],
    hamiltonians: tuple[object, object],
) -> MeasurementModel:
    """Assemble a model from an explicit transition table.

    With ``hamiltonians = (H_S, H_D)`` the premeasurement is completed
    blockwise inside the eigenspaces of ``H_S + H_D`` and is therefore
    exactly energy conserving (or the construction fails).
    """
    ds, dd = target.dim, pointer.dim
    psi = demon_initial.amplitudes
    pairs = []
    for t in transitions:
        src = _kron(t.sys_in.amplitudes, psi)
        dst = _kron(t.sys_out.amplitudes, t.pointer_out.amplitudes)
        pairs.append((src, dst))
    law = _additive_hamiltonian(*hamiltonians, dims=(ds, dd))
    u = complete_unitary(pairs, ds * dd, np.diag(law) if law.ndim == 1 else law)
    return MeasurementModel(
        demon_initial=demon_initial,
        premeasurement=Operator(u),
        pointer=pointer,
        target=target,
        transitions=tuple(transitions),
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
    law = _additive_hamiltonian(h_s, h_d, dims=(model.system_dim, model.demon_dim))
    c1 = _conservation_residual(model.premeasurement.entries, law)
    c2 = commutator_norm(model.pointer.operator(), h_d)
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
    """The WAY implication and the energy and repeatability reports its
    hypotheses were read from."""

    energy: EnergyReport
    repeatability: RepeatReport
    repeatable_or_pointer_commuting: bool
    observable_commutes: bool
    target_commutator: float


def way_witness(model: MeasurementModel, h_s: object, h_d: object) -> WayReport:
    """Conservation-law restriction on measurable observables.

    For an energy-conserving model that is repeatable (or whose pointer
    commutes with the memory Hamiltonian), the target observable must
    commute with the system Hamiltonian.  A violation of that implication
    cannot arise from physics and raises a hard failure.
    """
    en = check_energy_conserving_measurement(model, h_s, h_d)
    rep = check_repeatable(model)
    tc = commutator_norm(model.target.operator(), h_s)
    commutes = tc <= EPS_ALG
    hyp2 = rep.passed or (en.pointer_commutator <= EPS_ALG)
    if en.passed and hyp2 and not commutes:
        raise HardAssertionError(
            "energy-conserving repeatable model measures an observable that "
            f"fails to commute with the system Hamiltonian (norm {tc:.3e})"
        )
    return WayReport(
        energy=en,
        repeatability=rep,
        repeatable_or_pointer_commuting=hyp2,
        observable_commutes=commutes,
        target_commutator=tc,
    )


# ---------------------------------------------------------------------------
# instruments


def build_degenerate_instrument(
    target: Observable, data: Mapping[object, object]
) -> Instrument:
    """A coarse-grained instrument for a degenerate target observable.

    ``data`` maps each outcome to a list of ``(basis_vec, post_vec)``
    pairs; the Kraus set is ``{|post><basis|}``, and every post vector must
    lie in its outcome subspace.  This models merging the outcomes of a
    finer measurement and is deliberately inefficient: branch states are
    mixtures even for pure inputs.
    """
    if set(data) != set(target.labels):
        raise ValueError("data labels do not match target labels")
    groups = []
    for label, _, proj in target.outcomes:
        ops = []
        for basis_vec, post_vec in data[label]:
            b = np.asarray(getattr(basis_vec, "amplitudes", basis_vec), complex)
            f = np.asarray(getattr(post_vec, "amplitudes", post_vec), complex)
            if abs(np.linalg.norm(f) - 1.0) > EPS_ALG:
                raise ValueError(f"outcome {label!r}: post vector not normalised")
            leak = float(np.linalg.norm((np.eye(target.dim) - proj.entries) @ f))
            if leak > EPS_FID:
                raise ConstructionError(
                    f"outcome {label!r}: post vector outside its subspace"
                )
            ops.append(Operator(np.outer(f, b.conj())))
        groups.append((label, tuple(ops)))
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
