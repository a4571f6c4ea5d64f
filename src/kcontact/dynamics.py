"""Euler-Lagrange field equation assembly.

Three views of the same equations, all evaluated by one Euler-Lagrange
operator: pointwise PDE residuals for candidate second jets, an explicit
evolution form (solve for the time-time second derivatives) used by the
simulator, and the coefficients of a second-order k-vector field.  The
evolution form and the k-vector field fix the dissipation velocities by
the evolution-concentrated gauge g = diag(L, 0, ..., 0).

Direction 0 is always the evolution direction t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import hessian, solve_batch
from .errors import NotRegularError
from .jet import LagrangianModel, PhasePoint, evaluate_jet, evaluate_jet_batch


@dataclass(frozen=True)
class SecondJet:
    """A candidate solution jet: point, field second derivatives
    a[i, alpha, beta] (symmetric in the direction pair) and the
    s-derivative matrix dsdt[alpha, beta] = d s^beta / d t^alpha."""

    z: PhasePoint
    a: np.ndarray     # (n, k, k)
    dsdt: np.ndarray  # (k, k)

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "dsdt", np.asarray(self.dsdt, dtype=float))
        n, k = self.z.n, self.z.k
        if self.a.shape != (n, k, k) or self.dsdt.shape != (k, k):
            raise ValueError("second jet shapes do not match the point")
        if np.max(np.abs(self.a - np.swapaxes(self.a, 1, 2))) > 1e-12 * max(
                1.0, np.max(np.abs(self.a))):
            raise ValueError("field second derivatives must be symmetric")


@dataclass(frozen=True)
class SopdeData:
    """Second-order coefficients Gamma[i, alpha, beta] (symmetric) and
    dissipation velocities g[beta, alpha] of an Euler-Lagrange field."""

    Gamma: np.ndarray  # (n, k, k, *B)
    g: np.ndarray      # (k, k, *B)


def _el_operator(jet, v, a, dsdt, evolution=False):
    """Euler-Lagrange operator at second-jet data (a, dsdt) over `jet`,
    rEL[i] = W[i,a,j,b] a[j,b,a] + Q[i,a,j] v[j,a] + S[i,a,b] dsdt[a,b]
    - dLdq[i] - dLds[a] dLdv[i,a] with (W, Q, S) the blocks d2Ldvdv,
    d2Ldvdq and d2Ldvds; batch axes, if any, trail every array.

    Only the entries the jet's masks mark as stored are multiplied.  Each
    of the three contractions sums from +0.0 in the label order of its
    block, (a, j, b), (a, j) and (a, b), and the terms add in the order
    above.  That is how einsum sums batched C-ordered operands, and a
    skipped entry would only add a +-0 product to a sum that is never -0,
    so on such operands the result equals the dense einsums bit for bit.
    (At a single point einsum orders its sums differently, and a skipped
    entry does not turn an inf operand into NaN.)

    With `evolution`, a[:, 0, 0] reads as 0 and dsdt[0, 0] as L, whatever
    the arrays hold; nothing is written into them.
    """
    n = jet.dLdv.shape[0]
    mask_vv = jet.mask_vv
    if evolution:  # a[:, 0, 0] = 0 drops the W[:, 0, :, 0] terms
        mask_vv = mask_vv.copy()
        mask_vv[:, 0, :, 0] = False

    def dsdt_entry(c, b):
        return jet.L if evolution and b == c == 0 else dsdt[c, b]

    rEL = np.zeros((n,) + jet.L.shape)
    for block, mask, operand in (
            (jet.d2Ldvdv, mask_vv, lambda c, j, b: a[j, b, c]),
            (jet.d2Ldvdq, jet.mask_vq, lambda c, j: v[j, c]),
            (jet.d2Ldvds, jet.mask_vs, dsdt_entry)):
        # the stored entries in C order, as tuples of ints
        entries = list(zip(*(x.tolist() for x in mask.nonzero())))
        if entries:
            part = np.zeros(rEL.shape)  # sums from +0.0, never -0
            for i, *idx in entries:
                part[i] += block[(i, *idx)] * operand(*idx)
            rEL += part
    rEL -= jet.dLdq
    rEL -= np.einsum("a...,ia...->i...", jet.dLds, jet.dLdv)
    return rEL


def _divergence_residual(jet, dsdt):
    """trace(dsdt) - L, the divergence condition of the field equations."""
    return np.einsum("aa...->...", dsdt) - jet.L


def el_residual(model: LagrangianModel, sj: SecondJet):
    """Residuals of the Euler-Lagrange equations at a second jet.

    Returns (rEL, rS): rEL[i] is the field equation residual, rS the
    divergence condition residual trace(dsdt) - L.  Both vanish exactly
    on solutions.
    """
    jet = evaluate_jet(model, sj.z)
    return (_el_operator(jet, sj.z.v, sj.a, sj.dsdt),
            float(_divergence_residual(jet, sj.dsdt)))


def el_residual_batch(model: LagrangianModel, q, v, s, a, dsdt, jet=None):
    """Batched `el_residual`; batch axes trail every array.  `jet`, if
    given, is the jet at (q, v, s), which is then not evaluated again."""
    if jet is None:
        jet = evaluate_jet_batch(model, q, v, s)
    return _el_operator(jet, v, a, dsdt), _divergence_residual(jet, dsdt)


def evolution_rhs(model: LagrangianModel, sj: SecondJet) -> np.ndarray:
    """Solve the field equations for the time-time second derivatives.

    The spatial and mixed entries of `sj.a` and the spatial derivatives
    dsdt[x, 0] of s^1 are inputs; a[:, 0, 0] and dsdt[0, 0] are ignored
    (see `evolution_rhs_batch`).  Requires an invertible time-time
    Hessian block.
    """
    z = sj.z
    model.check_point(z)
    return evolution_rhs_batch(model, z.q, z.v, z.s, sj.a, sj.dsdt)[0]


def evolution_rhs_batch(model: LagrangianModel, q, v, s, a, dsdt,
                        jet=None):
    """Batched evolution solve; returns (accel, L) with batch trailing.

    The Euler-Lagrange operator is linear in the time-time entries
    a[:, 0, 0], so they solve W11 accel = -rEL with rEL evaluated at
    a[:, 0, 0] = 0.  The evolution gauge (s^a = 0 for a >= 2) turns the
    divergence condition into dsdt[0, 0] = L.  Both entries of the
    given arrays are ignored, and the arrays are not written.  Only the
    entries of a and dsdt that a stored entry of the jet multiplies are
    read (see `_el_operator`).  `jet`, if given, is the jet at (q, v, s),
    which is then not evaluated again.  accel has shape (n, *B); L is
    returned because the simulator needs the density for the s^1
    equation and the jet is already in hand.
    """
    if jet is None:
        jet = evaluate_jet_batch(model, q, v, s)
    rEL = _el_operator(jet, v, a, dsdt, evolution=True)
    accel = solve_batch(jet.d2Ldvdv[:, 0, :, 0], -rEL[:, None],
                        "not hyperbolic-evolvable in direction t")
    return accel[:, 0], jet.L


def gauge_s_velocities(L, k: int) -> np.ndarray:
    """Evolution-concentrated gauge g = diag(L, 0, ..., 0) per point."""
    g = np.zeros((k, k) + np.shape(L))
    g[0, 0] = L
    return g


def _symmetric_basis(k: int):
    """Orthonormal basis (Frobenius) of symmetric k x k matrices,
    stacked to shape (M, k, k): diagonal units, then off-diagonal pairs."""
    pairs = [(a, a) for a in range(k)] + list(zip(*np.triu_indices(k, 1)))
    basis = np.zeros((len(pairs), k, k))
    for m, (a, b) in enumerate(pairs):
        basis[m, a, b] = basis[m, b, a] = 1.0 if a == b else 1 / np.sqrt(2.0)
    return basis


def assemble_sopde(model: LagrangianModel, z: PhasePoint) -> SopdeData:
    """Coefficients of an Euler-Lagrange k-vector field at z.

    The SOPDE condition fixes the q-components to the velocities; the
    dissipation velocities follow the evolution-concentrated gauge; the
    symmetric Gamma solves the contracted field equations with minimal
    Frobenius norm (the system is underdetermined for k > 1), through
    the pseudo-inverse of the system at each point.
    """
    jet = evaluate_jet(model, z)
    if not np.all(hessian(jet).regular):
        raise NotRegularError("Lagrangian not regular")
    n, k = model.n, model.k
    batch = z.q.shape[1:]
    g = gauge_s_velocities(jet.L, k)
    b = -_el_operator(jet, z.v, np.zeros((n, k, k) + batch),
                      g.swapaxes(0, 1))
    basis = _symmetric_basis(k)
    # columns: contraction of W with each (j, basis-matrix) pair
    A = np.einsum("iajb...,mab->...ijm", jet.d2Ldvdv, basis)
    A = A.reshape(A.shape[:-3] + (n, -1))  # batch axes of the W block
    coeffs = np.linalg.pinv(A) @ np.moveaxis(b, 0, -1)[..., None]
    Gamma = np.einsum("...jm,mab->jab...",
                      coeffs.reshape(batch + (n, -1)), basis)
    return SopdeData(Gamma=Gamma, g=g)


def verify_sopde(model: LagrangianModel, z: PhasePoint,
                 sopde: SopdeData) -> float:
    """Max residual of the k-vector-field equations for given
    coefficients, one per point.

    Under the SOPDE condition the velocity-difference equations hold
    identically; what remains are the contracted second-order equations
    and the trace condition on the dissipation velocities, i.e. the
    Euler-Lagrange operator at a = Gamma, dsdt = g^T.
    """
    jet = evaluate_jet(model, z)
    dsdt = sopde.g.swapaxes(0, 1)
    rEL = _el_operator(jet, z.v, sopde.Gamma, dsdt)
    rS = _divergence_residual(jet, dsdt)
    return np.maximum(np.max(np.abs(rEL), axis=0), np.abs(rS))
