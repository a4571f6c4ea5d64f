"""Legendre-transformed side: inverse Legendre map, Hamiltonian values,
and Hamilton-De Donder-Weyl residuals along discrete momentum paths.

All Hamiltonian derivatives are taken through the Legendre duality
identities (dH/dp = v, dH/dq = -dL/dq, dH/ds = -dL/ds at the velocity
preimage); only path derivatives are finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import energy, solve_batch
from .errors import NewtonError
from .jet import (Jet2, LagrangianModel, MomentumPoint, PhasePoint,
                  evaluate_jet, evaluate_jet_batch)
from .sim import _trace_d1, _trace_div, _trace_trim

NEWTON_TOL = 1e-10
NEWTON_MAXITER = 50


def _newton_batch(model, q, p, s, v0, jet=None):
    """Batched Newton solve of dLdv(q, v, s) = p.  Shapes: q (n, *B),
    p/v0 (n, k, *B), s (k, *B).  A point stops once max |dLdv - p| over
    its (i, a) entries is at most NEWTON_TOL; later iterations evaluate
    jets and solve at the other points only, so every preimage is the
    one a single-point solve gives.  `jet`, if given, is the jet at
    (q, v0, s), which the first iteration then does not evaluate again.
    Returns v, with the same shape as p, and the jet at (q, v, s), or
    None where its last evaluation covered only some of the points."""
    n, k = model.n, model.k
    nk = n * k
    v = np.array(v0, dtype=float)
    at = ()  # indices of the unconverged points into B; () while all are
    last = np.inf
    for _ in range(NEWTON_MAXITER):
        pick = (Ellipsis,) + at
        if jet is None:
            jet = evaluate_jet_batch(model, q[pick], v[pick], s[pick])
        r = jet.dLdv - p[pick]
        err = np.max(np.abs(r), axis=(0, 1))
        last = float(np.max(err))
        if not np.isfinite(last):
            raise NewtonError("Legendre inversion diverged",
                              residual=last)
        todo = err > NEWTON_TOL
        if not todo.any():
            return v, jet if at == () else None
        W = jet.d2Ldvdv.reshape((nk, nk) + jet.d2Ldvdv.shape[4:])
        if not todo.all():
            keep = (Ellipsis,) + np.nonzero(todo)
            r = r[keep]
            W = (W.reshape(nk, nk, 1) if W[0, 0].size == 1
                 else np.broadcast_to(W, (nk, nk) + todo.shape)[keep])
            at = (np.nonzero(todo) if at == ()
                  else tuple(i[todo] for i in at))
            pick = (Ellipsis,) + at
        batch = r.shape[2:]
        step = solve_batch(
            W, r.reshape((nk, 1) + batch),
            "singular velocity Hessian during Legendre inversion")
        v[pick] = v[pick] - step.reshape((n, k) + batch)
        jet = None
    raise NewtonError(
        f"Legendre inversion did not converge in {NEWTON_MAXITER} "
        f"iterations (last residual {last:.3e})", residual=last)


def legendre_inverse(model: LagrangianModel, mp: MomentumPoint,
                     v0=None) -> PhasePoint:
    """Newton inversion of the Legendre map at a momentum point, or at a
    stack of them (batch axes trail, as in `PhasePoint`).

    The default initial guess v0 = p is exact for the free model.
    """
    if mp.p.shape[:2] != (model.n, model.k):
        raise ValueError("momentum point dims do not match model")
    v, _ = _newton_batch(model, mp.q, mp.p, mp.s,
                         mp.p if v0 is None else v0)
    return PhasePoint(q=mp.q.copy(), v=v, s=mp.s.copy())


def hamiltonian_value(model: LagrangianModel, mp: MomentumPoint):
    """H = Lagrangian energy at the Legendre preimage, one per point."""
    z = legendre_inverse(model, mp)
    return energy(evaluate_jet(model, z), z)


@dataclass(frozen=True)
class MomentumPath:
    """A discrete map t -> momentum bundle on a uniform grid in the k
    independent variables.  q: (n, *G), p: (n, k, *G), s: (k, *G),
    spacings: (k,) grid steps per direction."""

    q: np.ndarray
    p: np.ndarray
    s: np.ndarray
    spacings: np.ndarray


def momentum_path_from_arrays(jet: Jet2, q, s, spacings) -> MomentumPath:
    """Push a (batched) velocity path through the Legendre map; `jet` is
    the jet along the path, whose coordinates are q and s."""
    return MomentumPath(q=np.asarray(q, dtype=float), p=np.array(jet.dLdv),
                        s=np.asarray(s, dtype=float),
                        spacings=np.asarray(spacings, dtype=float))


@dataclass(frozen=True)
class HdwResiduals:
    """Pointwise Hamilton-De Donder-Weyl residuals on the path interior."""

    r_q: np.ndarray   # (n, k, *Gint)   dq/dt^a - dH/dp^a
    r_p: np.ndarray   # (n, *Gint)      div p + dH/dq + p dH/ds
    r_s: np.ndarray   # (*Gint,)        div s - (p dH/dp - H)

    def max(self) -> float:
        return float(max(np.max(np.abs(self.r_q)),
                         np.max(np.abs(self.r_p)),
                         np.max(np.abs(self.r_s))))


def hdw_residual(model: LagrangianModel, path: MomentumPath,
                 v0=None, jet=None) -> HdwResiduals:
    """Residuals of the canonical HDW equations along a discrete path.

    Path derivatives and the interior the residuals are reported on are
    those of the trace suites (`sim._trace_d1`, `sim._trace_trim`);
    Hamiltonian derivatives come from the duality identities at the
    batched Legendre preimage.  `jet`, the jet at (path.q, v0, path.s)
    if already evaluated, starts the Newton solve for that preimage.
    """
    k = model.k
    h = path.spacings
    if h.shape != (k,):
        raise ValueError("path spacings must have one entry per direction")
    v, jet = _newton_batch(model, path.q, path.p, path.s,
                           path.p if v0 is None else v0, jet)
    if jet is None:
        jet = evaluate_jet_batch(model, path.q, v, path.s)
    r_q = np.stack([_trace_d1(path.q, h, a) for a in range(k)], axis=1) - v
    r_p = (_trace_div(path.p, h)
           - jet.dLdq
           - np.einsum("ia...,a...->i...", path.p, jet.dLds))
    H = np.einsum("ia...,ia...->...", v, jet.dLdv) - jet.L
    pv = np.einsum("ia...,ia...->...", path.p, v)
    r_s = _trace_div(path.s, h) - (pv - H)
    return HdwResiduals(*(_trace_trim(r, k) for r in (r_q, r_p, r_s)))
