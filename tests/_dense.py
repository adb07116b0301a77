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
``szilard.feedback._plane_stroke``.  The arithmetic is numpy only, with no
package helpers, so each is an independent route for differential tests.
"""

from __future__ import annotations

import math

import numpy as np

from szilard import HardAssertionError

TOL = 1e-9


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


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
    if config.reservoir is not None:
        dr = config.reservoir.state.dim
        joint = np.kron(joint, config.reservoir.state.entries)  # (W,S,D,R)
        t = joint.reshape([dw, ds, dd, dr] * 2)
        t = t.transpose([0, 1, 3, 2, 4, 5, 7, 6])
        joint = t.reshape(dw * ds * dr * dd, -1)
        dims = [dw, ds, dr, dd]
    branch_dim = int(np.prod(dims[:-1]))
    v = sum(
        np.kron(config.feedback.unitary_for(l).entries, p.entries)
        for l, p in config.feedback.demon_projectors
    )
    vh = v.conj().T
    projs = [p.entries for _, p in config.feedback.demon_projectors]
    pinch_last = _pinch_demon(v @ joint @ vh, branch_dim, projs)
    pinch_first = v @ _pinch_demon(joint, branch_dim, projs) @ vh
    gap = _norm(pinch_first - pinch_last)

    marginals = [rho_w_after, rho_s_after]
    axes = [0, 1]
    if config.reservoir is not None:
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


def harvest_plane(dim_w: int, m: int) -> np.ndarray:
    """Swap ``|m, excited> <-> |m+1, ground>``, the ``entropy_harvest``
    stroke."""
    u = np.eye(dim_w * 2, dtype=complex)
    a = m * 2 + 0  # |m, excited>
    b = (m + 1) * 2 + 1  # |m+1, ground>
    u[a, a] = u[b, b] = 0.0
    u[a, b] = u[b, a] = 1.0
    return u
