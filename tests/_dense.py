"""Dense references for the cycle's factored stages.

``joint_consistency`` forms the full weight-system-demon(-reservoir) state
as an n x n matrix and pushes it through the composed feedback unitary on
both sides, exactly as ``run_cycle`` did before the check moved onto a
low-rank factor; it takes the same arguments as
``szilard.engine._joint_consistency`` and raises the same
``HardAssertionError``.  ``conditional_feedback_map`` is the dense branch
map ``U rho U^dag`` that ``szilard.feedback.conditional_feedback_map``
replaced with a factored one, and ``entropy`` / ``free_energy`` price its
outputs from a fresh ``eigvalsh``.  ``shift_stroke``, ``top_swap``,
``reservoir_swap`` and ``harvest_plane`` are the element-by-element loops
that built the feedback strokes before they went through
``szilard.feedback._plane_stroke``, and ``plane_stroke`` is that loop for
any planes.  ``complete_unitary`` is the
premeasurement completion through ``eigh`` that
``szilard.measurement.complete_unitary`` replaced on diagonal Hamiltonians,
``observable_fault`` judges a projector family on dense products, and
``is_unitary`` forms the full product ``U^dag U``, the verdict a plane
stroke reaches on its 2x2 block.  The arithmetic is numpy only, with no package helpers, so each is an independent route for
differential tests.
"""

from __future__ import annotations

import math

import numpy as np

from szilard import EPS_ALG, ConstructionError, HardAssertionError

TOL = 1e-9


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def is_unitary(u: np.ndarray) -> bool:
    """``||U^dag U - 1||_2 <= EPS_ALG`` from the full n x n product."""
    u = np.asarray(u, dtype=complex)
    return _norm(u.conj().T @ u - np.eye(u.shape[0])) <= EPS_ALG


def _ptrace(rho: np.ndarray, dims, keep: int) -> np.ndarray:
    n = len(dims)
    t = rho.reshape(list(dims) * 2)
    for i in sorted(set(range(n)) - {keep}, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    return t


def _pinch_demon(x: np.ndarray, branch_dim: int, projs) -> np.ndarray:
    dd = projs[0].shape[0]
    t = x.reshape(branch_dim, dd, branch_dim, dd)
    out = np.zeros_like(t)
    for p in projs:
        out += np.einsum("ab,ibjc,cd->iajd", p, t, p)
    return out.reshape(branch_dim * dd, branch_dim * dd)


def joint_consistency(
    config,
    sigma_sd,
    gem,
    rho_w,
    rho_s_after,
    rho_w_after,
    rho_d_after,
    rho_r_after,
) -> tuple[float, float]:
    """Order-of-objectification gap and largest marginal deviation, dense."""
    dw = rho_w.dim
    ds = config.rho_s.dim
    dd = config.demon_dim
    if sigma_sd is not None:
        joint = np.kron(rho_w.entries, sigma_sd.entries)  # (W, S, D)
    else:
        joint = np.zeros((dw * ds * dd,) * 2, dtype=complex)
        for b in gem.branches:
            if b.probability <= 1e-12 or b.state is None:
                continue
            rec = np.zeros((dd, dd), dtype=complex)
            idx = list(config.outcome_labels).index(b.outcome)
            rec[idx, idx] = 1.0
            joint += b.probability * np.kron(
                np.kron(rho_w.entries, b.state.entries), rec
            )
    dims = [dw, ds, dd]
    if config.tau_r is not None:
        dr = config.tau_r.dim
        joint = np.kron(joint, config.tau_r.entries)  # (W,S,D,R)
        t = joint.reshape([dw, ds, dd, dr] * 2)
        t = t.transpose([0, 1, 3, 2, 4, 5, 7, 6])
        joint = t.reshape(dw * ds * dr * dd, -1)
        dims = [dw, ds, dr, dd]
    branch_dim = int(np.prod(dims[:-1]))
    v = sum(
        np.kron(config.feedback.unitary_for(l).entries, p.entries)
        for l, _, p in config.records.outcomes
    )
    vh = v.conj().T
    projs = [p.entries for _, _, p in config.records.outcomes]
    pinch_last = _pinch_demon(v @ joint @ vh, branch_dim, projs)
    pinch_first = v @ _pinch_demon(joint, branch_dim, projs) @ vh
    gap = _norm(pinch_first - pinch_last)

    marginals = [rho_w_after, rho_s_after]
    axes = [0, 1]
    if config.tau_r is not None:
        marginals.append(rho_r_after)
        axes.append(2)
    marginals.append(rho_d_after)
    axes.append(len(dims) - 1)
    dev = 0.0
    for m, ax in zip(marginals, axes):
        got = _ptrace(pinch_first, dims, ax)
        dev = max(dev, _norm(got - m.entries))
    if dev > TOL:
        raise HardAssertionError(
            f"mixture marginals deviate from the joint evolution by {dev}"
        )
    return gap, dev


def conditional_feedback_map(
    scheme, outcome, rho_weight, rho_system, rho_reservoir=None
):
    """Weight, system and reservoir (or None) marginals of one branch,
    ``U (rho_W (x) rho_S [(x) tau_R]) U^dag`` formed as a dense matrix."""
    u = scheme.unitary_for(outcome).entries
    joint = np.kron(rho_weight.entries, rho_system.entries)
    dims = [rho_weight.dim, rho_system.dim]
    if rho_reservoir is not None:
        joint = np.kron(joint, rho_reservoir.entries)
        dims.append(rho_reservoir.dim)
    out = u @ joint @ u.conj().T
    marginals = [_ptrace(out, dims, ax) for ax in range(len(dims))]
    if rho_reservoir is None:
        marginals.append(None)
    return tuple(marginals)


def entropy(rho: np.ndarray) -> float:
    """``-tr[rho ln rho]`` from a fresh ``eigvalsh``, populations at or
    below 1e-12 dropped."""
    ev = np.linalg.eigvalsh(rho)
    ev = ev[ev > 1e-12]
    return float(-(ev * np.log(ev)).sum())


def free_energy(rho: np.ndarray, h: np.ndarray, kt: float) -> float:
    return float(np.trace(h @ rho).real) - kt * entropy(rho)


# ---------------------------------------------------------------------------
# feedback strokes, one plane at a time


def shift_stroke(dw: int, post) -> np.ndarray:
    """The ladder shift for a qubit post state: the 2x2 block taking the
    post to the ground state (weight up one rung) in each plane
    ``span{|k, e0>, |k+1, e1>}``, ``k = 1 .. dw-2``."""
    vpost = np.asarray(post, dtype=complex)
    vperp = np.array([-np.conj(vpost[1]), np.conj(vpost[0])])
    for a in vperp:  # first amplitude above 1e-8 made real positive
        if abs(a) > 1e-8:
            vperp = vperp * (abs(a) / a)
            break
    g = np.outer([0.0, 1.0], np.conj(vpost)) + np.outer([1.0, 0.0], np.conj(vperp))
    u = np.eye(2 * dw, dtype=complex)
    for k in range(1, dw - 1):
        i_stay = 2 * k  # |k, e0>
        i_up = 2 * (k + 1) + 1  # |k+1, e1>
        u[np.ix_([i_stay, i_up], [i_stay, i_up])] = g
    return u


def top_swap(dw: int, d: int, t: int) -> np.ndarray:
    """Swap ``|n, top> <-> |n + top, ground>`` on a ladder times a d-level
    system, the stroke of ``degenerate_circumvention``."""
    u = np.eye(dw * d, dtype=complex)
    if t > 0:
        for n in range(dw - t):
            a = n * d + t  # |n, top>
            b = (n + t) * d + 0  # |n + top, ground>
            u[a, a] = u[b, b] = 0.0
            u[a, b] = u[b, a] = 1.0
    return u


def reservoir_swap(dw: int, dim_r: int, theta: float, s_in: int) -> np.ndarray:
    """Partial swap of one reservoir quantum into one weight quantum while
    the system flips from ``s_in``, the stroke of ``reservoir_circumvention``."""
    u = np.eye(dw * 2 * dim_r, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    for n in range(dw - 1):
        for k in range(1, dim_r):
            i = (n * 2 + s_in) * dim_r + k
            j = ((n + 1) * 2 + (1 - s_in)) * dim_r + (k - 1)
            u[i, i] = u[j, j] = c
            u[i, j] = u[j, i] = -1j * s
    return u


def plane_stroke(dim: int, i, j, block) -> np.ndarray:
    """The identity with the 2x2 ``block`` set on each plane
    ``(i[k], j[k])`` in turn."""
    u = np.eye(dim, dtype=complex)
    for a, b in zip(i, j):
        u[np.ix_([a, b], [a, b])] = block
    return u


def harvest_plane(dim_w: int, m: int) -> np.ndarray:
    """Swap ``|m, excited> <-> |m+1, ground>``, the ``entropy_harvest``
    stroke."""
    u = np.eye(dim_w * 2, dtype=complex)
    a = m * 2 + 0  # |m, excited>
    b = (m + 1) * 2 + 1  # |m+1, ground>
    u[a, a] = u[b, b] = 0.0
    u[a, b] = u[b, a] = 1.0
    return u


# ---------------------------------------------------------------------------
# measurement construction


def _sectors(ev: np.ndarray) -> list[np.ndarray]:
    """Index groups of ascending ``ev``, split where neighbours differ by
    more than ``1e-8 * (1 + max|ev|)``."""
    tol = 1e-8 * (1.0 + float(np.abs(ev).max()))
    return np.split(np.arange(ev.size), np.flatnonzero(np.diff(ev) > tol) + 1)


def _extend(columns: np.ndarray, dim: int) -> np.ndarray:
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
        if n > 1e-7:
            cols.append(v / n)
    if len(cols) != dim:
        raise ConstructionError("failed to extend basis")
    return np.stack(cols, axis=1)


def complete_unitary(pairs, dim: int, hamiltonian) -> np.ndarray:
    """The energy-conserving completion through ``eigh`` for every
    Hamiltonian, diagonal or not: in and out vectors rotated into the
    eigenbasis, each sector's pairs extended to a unitary block, and the
    blocks rotated back with two dense products.  A non-Hermitian
    Hamiltonian raises ``ValueError``, pairs that admit no completion
    ``ConstructionError``, and a result that fails to commute with
    the Hamiltonian raises ``HardAssertionError``."""
    x = np.stack([np.asarray(a, dtype=complex) for a, _ in pairs], axis=1)
    y = np.stack([np.asarray(b, dtype=complex) for _, b in pairs], axis=1)
    h = np.asarray(hamiltonian, dtype=complex)
    if _norm(h - h.conj().T) > 1e-10:
        raise ValueError("Hamiltonian is not Hermitian")
    ev, vec = np.linalg.eigh(h)
    blocks = np.zeros((dim, dim), dtype=complex)
    cx = vec.conj().T @ x
    cy = vec.conj().T @ y
    for sector in _sectors(ev):
        keep = (np.linalg.norm(cx[sector], axis=0) > 1e-12) | (
            np.linalg.norm(cy[sector], axis=0) > 1e-12
        )
        xs = cx[sector][:, keep]
        ys = cy[sector][:, keep]
        n = len(sector)
        if _norm(xs.conj().T @ xs - ys.conj().T @ ys) > 1e-8:
            raise ConstructionError("pairs move amplitude between energy sectors")
        if xs.shape[1] == 0:
            blocks[np.ix_(sector, sector)] = np.eye(n, dtype=complex)
            continue
        _, s, vh = np.linalg.svd(xs, full_matrices=False)
        if np.any(s < 1e-8):
            raise ConstructionError("pair inputs are linearly dependent")
        coef = vh.conj().T @ np.diag(1.0 / s)
        qf = _extend(xs @ coef, n)
        pf = _extend(ys @ coef, n)
        blocks[np.ix_(sector, sector)] = pf @ qf.conj().T
    u = vec @ blocks @ vec.conj().T
    if _norm(u @ h - h @ u) > 1e-10:
        raise HardAssertionError("blockwise completion failed to commute")
    return u


def observable_fault(outcomes) -> str | None:
    """The first fault of a labelled projector family, in the order an
    observable checks them, or ``None`` for a valid family: ``"projector
    <label>"`` (not Hermitian or not idempotent), ``"orthogonal <a> <b>"``,
    ``"identity"`` or ``"zero <label>"``, each decided on the exact spectral
    norm (a projector is zero when that norm is below 1/2)."""
    mats = [np.asarray(p, dtype=complex) for _, p in outcomes]
    for (label, _), m in zip(outcomes, mats):
        if _norm(m - m.conj().T) > 1e-10 or _norm(m @ m - m) > 1e-10:
            return f"projector {label}"
    for i, (la, _) in enumerate(outcomes):
        for j in range(i + 1, len(outcomes)):
            if _norm(mats[i] @ mats[j]) > 1e-10:
                return f"orthogonal {la} {outcomes[j][0]}"
    if _norm(sum(mats) - np.eye(mats[0].shape[0])) > 1e-10:
        return "identity"
    for (label, _), m in zip(outcomes, mats):
        if _norm(m) < 0.5:
            return f"zero {label}"
    return None
