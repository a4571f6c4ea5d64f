"""Infinitesimal symmetries, dissipated quantities, dissipation laws.

A `SymmetryField` is a vector field on the phase bundle given by its
components along dq, dv, ds.  The Lie derivative of the contact forms is
assembled analytically from the Jet2 blocks and the field's Jacobian,
which a first-order pass of the Taylor kernel gives exactly; only
solution traces are ever differenced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contact import _energy_gradients, hessian, reeb
from .errors import NotRegularError
from .jet import Jet2, LagrangianModel, PhasePoint, evaluate_jet
from .sim import _map_slabs, _trace_div, _trace_trim
from .taylor import T2, TaylorContext, variables


def _block(entries, lead, tail, leaf=None):
    """One component as an array of shape lead + tail.  `entries` is the
    nested list a component callable returned; `leaf` maps each entry
    first.  When every entry is a constant the result is a broadcast
    view, so constant fields never allocate batch-sized arrays."""
    flat = ([x for row in entries for x in row] if len(lead) == 2
            else list(entries))
    if len(flat) != math.prod(lead):
        raise ValueError(f"symmetry field component must have shape {lead}")
    if leaf is not None:
        flat = [leaf(x) for x in flat]
    if all(np.ndim(x) == 0 for x in flat):
        const = np.array(flat, dtype=float).reshape(lead + (1,) * len(tail))
        return np.broadcast_to(const, lead + tail)
    return np.stack([np.broadcast_to(x, tail) for x in flat]).reshape(
        lead + tail)


@dataclass(frozen=True)
class SymmetryJacobian:
    """First derivatives of the components with respect to the flat
    coordinate vector (q | v | s) of length m = n + n*k + k."""

    dYq: np.ndarray  # (n, m, *B)
    dYv: np.ndarray  # (n, k, m, *B)
    dYs: np.ndarray  # (k, m, *B)


@dataclass(frozen=True)
class SymmetryField:
    """Vector field Yq d/dq + Yv d/dv + Ys d/ds.

    Like `LagrangianModel.lagrangian`, each component callable receives
    the coordinates as nested lists (q[i], v[i][a], s[a]) of either numpy
    arrays or T2 values and combines them with overloaded arithmetic
    only.  Yq returns n entries, Yv an n x k nested list and Ys k entries;
    an entry may be a plain number.  The Jacobian comes from evaluating
    the components on Taylor values, so it is exact.
    """

    n: int
    k: int
    Yq: Callable
    Yv: Callable
    Ys: Callable
    name: str = ""

    def _blocks(self, coords, tail, leaf=None):
        n, k = self.n, self.k
        return tuple(_block(Y(*coords), lead, tail, leaf)
                     for Y, lead in ((self.Yq, (n,)), (self.Yv, (n, k)),
                                     (self.Ys, (k,))))

    def components(self, q, v, s):
        q, v, s = (np.asarray(x, dtype=float) for x in (q, v, s))
        coords = (list(q), [list(row) for row in v], list(s))
        return self._blocks(coords, q.shape[1:])

    def jacobian_blocks(self, q, v, s) -> SymmetryJacobian:
        q, v, s = (np.asarray(x, dtype=float) for x in (q, v, s))
        ctx = TaylorContext(self.n, self.k)
        dYq, dYv, dYs = self._blocks(
            variables(ctx, q, v, s), (ctx.m,) + q.shape[1:],
            lambda x: x.dense()[0] if isinstance(x, T2) else 0.0)
        return SymmetryJacobian(dYq=dYq, dYv=dYv, dYs=dYs)


def constant_field(model: LagrangianModel, Yq=None, Yv=None, Ys=None,
                   name: str = "") -> SymmetryField:
    """Constant-coefficient vector field; its Jacobian is exactly zero."""
    n, k = model.n, model.k
    cq = np.zeros(n) if Yq is None else np.asarray(Yq, dtype=float)
    cv = np.zeros((n, k)) if Yv is None else np.asarray(Yv, dtype=float)
    cs = np.zeros(k) if Ys is None else np.asarray(Ys, dtype=float)
    return SymmetryField(n=n, k=k, Yq=lambda q, v, s: cq.tolist(),
                         Yv=lambda q, v, s: cv.tolist(),
                         Ys=lambda q, v, s: cs.tolist(), name=name)


def builtin_symmetry_field(model: LagrangianModel,
                           name: str) -> SymmetryField:
    """Named vector fields used by the verification suites.

    'du'      translation of the first field coordinate;
    'scaling' the field-scaling q d/dq (generically not a symmetry);
    'paperY'  the lifted rotation of a two-field model
              (-q1, q0) d/dq + (-v1, v0) d/dv.
    """
    n, k = model.n, model.k
    if name == "du":
        return constant_field(model, Yq=np.eye(n)[0], name="du")
    if name == "scaling":
        return SymmetryField(n=n, k=k, Yq=lambda q, v, s: q,
                             Yv=lambda q, v, s: [[0.0] * k] * n,
                             Ys=lambda q, v, s: [0.0] * k, name="scaling")
    if name == "paperY":
        if n != 2:
            raise ValueError("the rotation field needs exactly two fields")
        return SymmetryField(
            n=n, k=k, Yq=lambda q, v, s: [-q[1], q[0]],
            Yv=lambda q, v, s: [[-x for x in v[1]], v[0]],
            Ys=lambda q, v, s: [0.0] * k, name="paperY")
    raise ValueError(f"unknown symmetry field '{name}'")


@dataclass(frozen=True)
class DissipatedQuantity:
    """The current F^a = -i(Y) eta^a = p^a_i Yq^i - Ys^a of a field Y."""

    Y: SymmetryField

    def __call__(self, jet: Jet2, q, v, s) -> np.ndarray:
        """F at the points (q, v, s), whose jet is `jet`."""
        Yq, _, Ys = self.Y.components(q, v, s)
        return np.einsum("ia...,i...->a...", jet.dLdv, Yq) - Ys


def dissipated_quantity(Y: SymmetryField) -> DissipatedQuantity:
    return DissipatedQuantity(Y=Y)


def lie_derivative_eta(jet: Jet2, Y: SymmetryField, q, v, s):
    """Coordinate components of L_Y eta^a, and Y(E_L), at the batched
    points (q, v, s), whose jet is `jet`, from one evaluation of the
    components of Y.

    Returns ((coef_dq (k, n, *B), coef_dv (k, n, k, *B),
    coef_ds (k, k, *B)), Y(E_L) (*B,)).
    """
    n, k = jet.dLdv.shape[:2]
    Yq, Yv, Ys = Y.components(q, v, s)
    jac = Y.jacobian_blocks(q, v, s)
    p = jet.dLdv  # (n, k, *B)
    # directional derivative of the momenta along Y
    Yp = (np.einsum("l...,ial...->ia...", Yq, jet.d2Ldvdq)
          + np.einsum("lg...,ialg...->ia...", Yv, jet.d2Ldvdv)
          + np.einsum("g...,iag...->ia...", Ys, jet.d2Ldvds))
    dYq_q = jac.dYq[:, :n]
    dYq_v = jac.dYq[:, n:n + n * k].reshape((n, n, k) + np.shape(q)[1:])
    dYq_s = jac.dYq[:, n + n * k:]
    dYs_q = jac.dYs[:, :n]
    dYs_v = jac.dYs[:, n:n + n * k].reshape((k, n, k) + np.shape(q)[1:])
    dYs_s = jac.dYs[:, n + n * k:]
    coef_dq = (dYs_q
               - np.moveaxis(Yp, 1, 0)
               - np.einsum("ia...,ij...->aj...", p, dYq_q))
    coef_dv = dYs_v - np.einsum("ia...,ijb...->ajb...", p, dYq_v)
    coef_ds = dYs_s - np.einsum("ia...,ib...->ab...", p, dYq_s)
    # Y(E_L)
    dEdq = (np.einsum("ia...,iaj...->j...", v, jet.d2Ldvdq) - jet.dLdq)
    dEds, dEdv = _energy_gradients(jet, v)
    return (coef_dq, coef_dv, coef_ds), (
        np.einsum("j...,j...->...", Yq, dEdq)
        + np.einsum("ib...,ib...->...", Yv, dEdv)
        + np.einsum("b...,b...->...", Ys, dEds))


def check_contact_symmetry(jet: Jet2, Y: SymmetryField, z: PhasePoint,
                           tol: float = 1e-9) -> dict:
    """Evaluate L_Y eta^a and Y(E_L) at the sample points stacked in z
    (see `stack_points`), whose jet is `jet`.  Returns a report with the
    overall max residual and the verdict max <= tol.
    """
    (cdq, cdv, cds), YE = lie_derivative_eta(jet, Y, z.q, z.v, z.s)
    res_eta = max(np.max(np.abs(cdq)), np.max(np.abs(cdv)),
                  np.max(np.abs(cds)))
    res_E = float(np.max(np.abs(YE)))
    worst = float(max(res_eta, res_E))
    return {"is_symmetry": worst <= tol, "max_residual": worst,
            "eta_residual": float(res_eta), "energy_residual": res_E}


def reeb_bracket_check(model: LagrangianModel, Y: SymmetryField,
                       z: PhasePoint, h: float = 1e-5) -> float:
    """Max component of [Y, (R_L)_a] at the sample points stacked in z.

    The derivative of the Reeb velocity components along Y is a central
    difference of the Reeb construction (it involves third derivatives
    of L, which the jet does not carry)."""
    n, k = model.n, model.k
    batch = z.q.shape[1:]
    # flat direction vectors direction[:, a] of (R_L)_a
    direction = np.zeros((n + n * k + k, k) + batch)
    direction[n:n + n * k] = np.moveaxis(
        reeb(evaluate_jet(model, z)).reshape((k, n * k) + batch), 0, 1)
    direction[n + n * k:] = np.eye(k).reshape((k, k) + (1,) * len(batch))
    jac = Y.jacobian_blocks(z.q, z.v, z.s)
    dYq = np.einsum("im...,ma...->ai...", jac.dYq, direction)
    dYv = np.einsum("ibm...,ma...->aib...", jac.dYv, direction)
    dYs = np.einsum("cm...,ma...->ac...", jac.dYs, direction)
    # Y(vcomp) by central differences along Y
    Yq, Yv, Ys = Y.components(z.q, z.v, z.s)
    zp = PhasePoint(q=z.q + h * Yq, v=z.v + h * Yv, s=z.s + h * Ys)
    zm = PhasePoint(q=z.q - h * Yq, v=z.v - h * Yv, s=z.s - h * Ys)
    dv = (reeb(evaluate_jet(model, zp))
          - reeb(evaluate_jet(model, zm))) / (2 * h)
    return float(max(np.max(np.abs(dYq)), np.max(np.abs(dYs)),
                     np.max(np.abs(dv - dYv))))


def _dissipation_law(Fvals, jet, spacings, halo) -> np.ndarray:
    """div(F o sigma) + R_a(E_L) F^a o sigma on a trace slab's interior,
    from F's values (k, T, *S) and the slab's jet, by the identity
    R_a(E_L) = -dL/ds^a that the Reeb equations give a regular L."""
    return _trace_div(Fvals, spacings, halo) - np.einsum(
        "a...,a...->...", *(_trace_trim(x, len(spacings), halo)
                            for x in (jet.dLds, Fvals)))


def momentum_dissipation_check(model: LagrangianModel, i: int,
                               trace) -> float:
    """Residual of the momentum dissipation identity along a trace:

        div(p_i o sigma) = sum_a dL/ds^a * p_i^a  on solutions,

    valid when q^i is cyclic: `_dissipation_law` of p_i over the trace
    interior, walked slab by slab.  Raises if |dL/dq^i| exceeds 1e-9 at
    any sample the residual reads (every frame but the first and last)."""
    def maximum(q, v, s, spacings, jet):
        if np.max(np.abs(jet.dLdq[i])) > 1e-9:
            raise ValueError(f"coordinate {i} not cyclic")
        return np.max(np.abs(_dissipation_law(jet.dLdv[i], jet, spacings, 1)))

    return float(np.max(_map_slabs(maximum, model, trace)))


def _dissipation_residual(F: DissipatedQuantity, q, v, s, spacings, jet,
                          halo) -> np.ndarray:
    """`_dissipation_law` of F over one slab of a trace walk: R_a(E_L) =
    -dL/ds^a holds for a regular L only, so a slab where `hessian` finds
    L not regular is refused, by the verdict `reeb` applies."""
    if not np.all(hessian(jet).regular):
        raise NotRegularError("Lagrangian not regular")
    return _dissipation_law(F(jet, q, v, s), jet, spacings, halo)


def dissipation_law_check(model: LagrangianModel, F: DissipatedQuantity,
                          trace) -> np.ndarray:
    """`_dissipation_residual` over the trace interior, walked slab by
    slab (in memory independent of the frame count) and joined in time."""
    return np.concatenate(_map_slabs(
        lambda *slab: _dissipation_residual(F, *slab, halo=1), model, trace),
        axis=-model.k)
