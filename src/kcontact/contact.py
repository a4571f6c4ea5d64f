"""Contact-geometric objects at a phase point.

Energy, contact one-form coefficients, Legendre map, velocity Hessian
with a regularity verdict, and Reeb vector fields, all assembled from
the exact Jet2 blocks -- nothing here differentiates numerically.  Batch
axes of stacked points trail every array, as in `Jet2`.

Index conventions: the velocity pair (i, a) flattens to i*k + a, and the
contact coefficients satisfy eta^a = ds^a - p[i, a] dq^i with
p[i, a] = dLdv[i, a].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRegularError
from .jet import Jet2, MomentumPoint, PhasePoint

RANK_TOL = 1e-10


@dataclass(frozen=True)
class HessianW:
    """Velocity Hessian in flat (i*k + a) indexing with regularity data,
    one verdict and condition number per point."""

    W: np.ndarray        # (nk, nk, *B)
    regular: np.ndarray  # (*B,) bool
    cond: np.ndarray     # (*B,)


def energy(jet: Jet2, z: PhasePoint):
    """Lagrangian energy: scaling of L along velocities minus L."""
    return np.sum(z.v * jet.dLdv, axis=(0, 1)) - jet.L


def legendre(jet: Jet2, z: PhasePoint) -> MomentumPoint:
    """Fibre derivative: (q, v, s) -> (q, dL/dv, s)."""
    return MomentumPoint(q=z.q.copy(), p=np.array(jet.dLdv), s=z.s.copy())


def hessian(jet: Jet2) -> HessianW:
    """Flatten the v-v block and decide regularity by singular values
    (regular when the smallest exceeds RANK_TOL times the largest).
    The SVDs run over the block's own batch shape (once for a
    batch-constant block); the results broadcast to the point batch.
    They run once per jet: the result is kept on the jet, so `reeb`,
    `assemble_sopde` and the Newton solve of the same jet reuse it."""
    hw = vars(jet).get("_hessian")
    if hw is not None:
        return hw
    n, k = jet.dLdv.shape[:2]
    batch = jet.dLdv.shape[2:]
    W = jet.d2Ldvdv.reshape((n * k, n * k) + jet.d2Ldvdv.shape[4:])
    W = 0.5 * (W + W.swapaxes(0, 1))
    sv = np.linalg.svd(np.moveaxis(W, (0, 1), (-2, -1)), compute_uv=False)
    smax, smin = sv[..., 0], sv[..., -1]
    regular = smin > RANK_TOL * np.maximum(smax, 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smin > 0, smax / smin, np.inf)
    hw = HessianW(W=np.broadcast_to(W, W.shape[:2] + batch),
                  regular=np.broadcast_to(regular, batch),
                  cond=np.broadcast_to(cond, batch))
    object.__setattr__(jet, "_hessian", hw)
    return hw


def solve_batch(W, b, what: str) -> np.ndarray:
    """Solve W x = b at every batch point: W (r, r, *BW), b (r, c, *B)
    with BW broadcasting against B -> x (r, c, *batch).  A W with one
    batch element is factored once, against all columns of b.  The one
    place that hands velocity-Hessian systems to LAPACK; a singular
    system raises NotRegularError(what).

    A 1x1 system is divided out instead, as LAPACK does it: by b / W
    when one LAPACK call would get a single right-hand side, by
    b * (1 / W) when it would get several."""
    r, c = b.shape[:2]
    const = W.size == r * r
    if r == 1:
        if np.count_nonzero(W) < W.size:
            raise NotRegularError(what)
        if W.ndim < b.ndim:
            W = W.reshape(W.shape[:2] + (1,) * (b.ndim - W.ndim) + W.shape[2:])
        elif b.ndim < W.ndim:
            b = b.reshape(b.shape[:2] + (1,) * (W.ndim - b.ndim) + b.shape[2:])
        return b * (1 / W) if (b[0].size if const else c) > 1 else b / W
    batch = np.broadcast_shapes(W.shape[2:], b.shape[2:])
    try:
        if const:
            x = np.linalg.solve(W.reshape(r, r),
                                np.broadcast_to(b, (r, c) + batch)
                                .reshape(r, -1))
            return x.reshape((r, c) + batch)
        # ndarray.transpose, not np.moveaxis: at a single point each
        # moveaxis call costs about as much as the solve itself
        Wb = np.broadcast_to(W, (r, r) + batch).reshape(r, r, -1)
        bb = np.broadcast_to(b, (r, c) + batch).reshape(r, c, -1)
        x = np.linalg.solve(Wb.transpose(2, 0, 1), bb.transpose(2, 0, 1))
    except np.linalg.LinAlgError:
        raise NotRegularError(what)
    return x.transpose(1, 2, 0).reshape((r, c) + batch)


def reeb(jet: Jet2) -> np.ndarray:
    """Reeb fields (R_L)_a = d/ds^a + vcomp[a, i, b] d/dv^i_b of a
    regular Lagrangian: vcomp (k, n, k, *B), a read-only view broadcast
    to the points, solves W vcomp_a = -d2L/dvds^a.  Raises
    NotRegularError unless `hessian` finds every point regular."""
    if not np.all(hessian(jet).regular):
        raise NotRegularError("Lagrangian not regular")
    n, k = jet.dLdv.shape[:2]
    hb = jet.d2Ldvdv.shape[4:]
    X = solve_batch(jet.d2Ldvdv.reshape((n * k, n * k) + hb),
                    jet.d2Ldvds.reshape((n * k, k) + hb),
                    "Lagrangian not regular")
    return np.broadcast_to(-X.swapaxes(0, 1).reshape((k, n, k) + hb),
                           (k, n, k) + jet.dLdv.shape[2:])


def verify_reeb(jet: Jet2, vcomp):
    """Residuals of the defining Reeb relations at the points of `jet`,
    one per point, for the Reeb fields `vcomp` that `reeb` solved there.

    i(R_b) eta^a - delta^a_b is algebraically zero (Reeb fields have no
    d/dq component); i(R_b) d(eta^a) is contracted from the Jet2 blocks
    of the momenta, with no numerical differentiation.
    """
    # i(R_b) d(eta^a) = -[dp^a_i(R_b)] dq^i with
    # dp^a_i(R_b) = d2Ldvds[i,a,b] + sum_{j,g} d2Ldvdv[i,a,j,g] vcomp[b,j,g]
    res_deta = (jet.d2Ldvds
                + np.einsum("iajg...,bjg...->iab...", jet.d2Ldvdv, vcomp))
    deta = np.max(np.abs(res_deta), axis=(0, 1, 2))
    # i(R_b) eta^a = delta^a_b - p[i, a] * (R_b)^{q,i} and (R_b)^q = 0
    return {"eta": np.zeros_like(deta), "deta": deta}


def _stored_sum(shape, terms):
    """An array of `shape` with each (index, term) of `terms` added, in
    order, into its entry `index`, from +0.0: the contraction over a
    jet's stored block entries that `_el_operator` explains, which
    equals the dense einsum bit for bit on batched operands."""
    part = np.zeros(shape)
    for at, term in terms:
        part[at] += term
    return part


def _energy_gradients(jet: Jet2, v):
    """dE/ds and dE/dv from Jet2 blocks (batched shapes allowed): the
    contractions v[j, g] d2Ldvds[j, g, a] and v[j, g] d2Ldvdv[j, g, i, b]
    over the stored entries only, by `_stored_sum`."""
    n, k = jet.dLdv.shape[:2]
    batch = jet.L.shape
    dEds = _stored_sum((k,) + batch, ((a, v[j, g] * jet.d2Ldvds[j, g, a])
                                      for j, g, a in jet.layout.vs))
    dEdv = _stored_sum((n, k) + batch,
                       (((i, b), v[j, g] * jet.d2Ldvdv[j, g, i, b])
                        for j, g, i, b in jet.layout.vv))
    return dEds - jet.dLds, dEdv


def reeb_derivative_of_energy(jet: Jet2, v, vcomp) -> np.ndarray:
    """R_a(E) = dE/ds^a + vcomp[a, i, b] dE/dv^i_b, the derivative of the
    energy along each Reeb field `vcomp` at the points of `jet`, whose
    velocities are v; batch axes trail."""
    dEds, dEdv = _energy_gradients(jet, v)
    return dEds + np.einsum("aib...,ib...->a...", vcomp, dEdv)
