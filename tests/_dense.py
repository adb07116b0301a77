"""Dense references for the cycle's factored stages.

``joint_consistency`` forms the full weight-system-demon(-reservoir) state
as an n x n matrix and pushes it through the composed feedback unitary on
both sides, exactly as ``run_cycle`` did before the check moved onto a
low-rank factor; it takes the same arguments as
``szilard.engine._joint_consistency`` and raises the same
``HardAssertionError``.  ``conditional_feedback_map`` is the dense branch
map ``U rho U^dag`` that ``szilard.feedback.conditional_feedback_map``
replaced with a factored one, and ``entropy`` / ``free_energy`` price its
outputs from a fresh ``eigvalsh``.  The arithmetic is numpy only, with no
package helpers, so each is an independent route for differential tests.
"""

from __future__ import annotations

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
    if scheme.includes_reservoir:
        joint = np.kron(joint, rho_reservoir.entries)
        dims.append(rho_reservoir.dim)
    out = u @ joint @ u.conj().T
    marginals = [_ptrace(out, dims, ax) for ax in range(len(dims))]
    if not scheme.includes_reservoir:
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
