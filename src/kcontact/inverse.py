"""Inverse problem: build a k-contact Lagrangian for a prescribed PDE

    A^{ab} u_{ab} + D^a u_a + G(u) = 0

with A constant symmetric invertible and D constant.  The matching
Lagrangian is L = (1/2) A^{ab} u_a u_b - (A^{-1} D)_a s^a - gbar(u),
where gbar is an antiderivative of G normalized by gbar(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contact import RANK_TOL
from .dynamics import SecondJet, el_residual_batch
from .errors import ConfigError
from .jet import LagrangianModel, evaluate_jet_batch


@dataclass(frozen=True)
class PdeSpec:
    """Coefficients of the target PDE.

    G is a scalar callable (or None for G = 0); gbar, required with G,
    is its antiderivative with gbar(0) = 0, written with overloaded
    arithmetic so that the Taylor kernel differentiates it exactly.
    """

    A: np.ndarray
    D: np.ndarray
    G: Callable | None = None
    gbar: Callable | None = None
    g_poly: tuple | None = None  # polynomial coefficients of G, if known

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "D", np.asarray(self.D, dtype=float))
        if self.D.ndim != 1 or self.A.shape != 2 * self.D.shape:
            raise ValueError("A must be k x k and D length k")
        if not (np.isfinite(self.A).all() and np.isfinite(self.D).all()):
            raise ValueError("A and D must be finite")
        if np.max(np.abs(self.A - self.A.T)) > 1e-12 * max(
                1.0, np.max(np.abs(self.A))):
            raise ValueError("A must be symmetric")
        if self.G is not None and self.gbar is None:
            raise ValueError("a spec with G needs its antiderivative gbar")

    @property
    def k(self) -> int:
        return self.A.shape[0]

    @classmethod
    def from_dict(cls, data: dict) -> "PdeSpec":
        """Load from the CLI config format: {'A': [[...]], 'D': [...],
        'G': {'poly': [c0, c1, ...]} optional polynomial coefficients}.
        Raises ConfigError for a malformed spec."""
        if not isinstance(data, dict):
            raise ConfigError("a PDE spec must be a JSON object")
        unknown = set(data) - {"A", "D", "G"}
        if unknown:
            raise ConfigError(f"unknown PDE spec keys: {sorted(unknown)}")
        gspec = data.get("G")
        G = gbar = coeffs = None
        try:
            if gspec is not None:
                if not (isinstance(gspec, dict)
                        and isinstance(gspec.get("poly"), list)):
                    raise ConfigError("G must be {'poly': [c0, c1, ...]}")
                coeffs = tuple(float(c) for c in gspec["poly"])
                if not np.isfinite(coeffs).all():
                    raise ValueError("G coefficients must be finite")

                def G(u, _c=coeffs):
                    out = 0.0
                    pw = 1.0
                    for c in _c:
                        out = out + c * pw
                        pw = pw * u
                    return out

                def gbar(u, _c=coeffs):
                    out = 0.0
                    pw = u
                    for j, c in enumerate(_c):
                        out = out + c / (j + 1) * pw
                        pw = pw * u
                    return out

            return cls(A=data["A"], D=data["D"], G=G, gbar=gbar,
                       g_poly=coeffs)
        except KeyError as exc:
            raise ConfigError(f"PDE spec lacks the key {exc}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad PDE spec: {exc}")


def build_lagrangian(spec: PdeSpec) -> LagrangianModel:
    """The matching Lagrangian as an n=1 model with k directions."""
    sv = np.linalg.svd(spec.A, compute_uv=False)
    if sv[-1] <= RANK_TOL * max(sv[0], 1e-300):
        raise ConfigError("parabolic spec not representable")
    k = spec.k
    A = spec.A
    c = np.linalg.solve(A, spec.D)  # (A^{-1} D)_a

    def lag(q, v, s):
        u = q[0]
        total = 0.0
        for a in range(k):
            for b in range(k):
                if A[a, b] != 0.0:
                    total = total + 0.5 * A[a, b] * v[0][a] * v[0][b]
        for a in range(k):
            if c[a] != 0.0:
                total = total - c[a] * s[a]
        if spec.gbar is not None:
            total = total - spec.gbar(u)
        return total

    return LagrangianModel(n=1, k=k, name="inverse", lagrangian=lag,
                           params={"A": A.tolist(), "D": spec.D.tolist(),
                                   "has_G": spec.G is not None})


def direct_residual(spec: PdeSpec, sj: SecondJet) -> float:
    """Direct evaluation of the target PDE at a second jet (the oracle)."""
    return _pde_residual(spec, float(sj.z.q[0]), sj.z.v[0], sj.a[0])


def _pde_residual(spec: PdeSpec, u: float, du, d2u) -> float:
    """A^{ab} d2u[a, b] + D^a du[a] + G(u) for one field."""
    G = spec.G(u) if spec.G is not None else 0.0
    return float(np.einsum("ab,ab->", spec.A, d2u) + spec.D @ du + G)


def roundtrip_check(spec: PdeSpec, n_samples: int = 100,
                    rng=None) -> float:
    """Max discrepancy between the built model's Euler-Lagrange residual
    and the prescribed PDE over random second jets, every entry uniform
    in [-1, 1].  One draw gives each sample's row q | v | s | a | dsdt,
    in the stream order of per-sample draws.  The model side is
    evaluated once over all samples; the oracle, one sample at a time."""
    rng = np.random.default_rng(0) if rng is None else rng
    model = build_lagrangian(spec)
    k = spec.k
    x = rng.uniform(-1.0, 1.0, (n_samples, 1 + 2 * k + 2 * k * k))
    at = slice(1 + 2 * k, 1 + 2 * k + k * k)
    a = x[:, at].reshape(n_samples, k, k)
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    x[:, at] = a.reshape(n_samples, k * k)
    direct = [_pde_residual(spec, u, du, d2u)
              for u, du, d2u in zip(x[:, 0].tolist(), x[:, 1:1 + k], a)]
    # batch-last C-contiguous columns, as stacking the samples lays them
    cols = np.ascontiguousarray(x.T)
    v = cols[1:1 + k].reshape(1, k, n_samples)
    rEL, _ = el_residual_batch(
        evaluate_jet_batch(model, cols[:1], v, cols[1 + k:1 + 2 * k]), v,
        cols[at].reshape(1, k, k, n_samples),
        cols[at.stop:].reshape(k, k, n_samples))
    return float(np.max(np.abs(rEL[0] - direct)))


_DIRECTION_NAMES = ("t", "x", "y", "z")


def render_lagrangian(spec: PdeSpec) -> str:
    """Human-readable L with the spec's numbers substituted."""
    k = spec.k
    names = (_DIRECTION_NAMES[:k] if k <= len(_DIRECTION_NAMES)
             else tuple(f"t{a + 1}" for a in range(k)))
    terms = []
    for a in range(k):
        for b in range(a, k):
            coeff = 0.5 * spec.A[a, b] if a == b else spec.A[a, b]
            if coeff != 0.0:
                terms.append(f"{float(coeff)!r}*u_{names[a]}*u_{names[b]}")
    c = np.linalg.solve(spec.A, spec.D)
    for a in range(k):
        if c[a] != 0.0:
            terms.append(f"{float(-c[a])!r}*s_{names[a]}")
    if spec.g_poly is not None:
        for j, coeff in enumerate(spec.g_poly):
            if coeff != 0.0:
                pw = "u" if j == 0 else f"u^{j + 1}"
                terms.append(f"{float(-coeff / (j + 1))!r}*{pw}")
    elif spec.G is not None:
        terms.append("-gbar(u)")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def membrane_spec(mu: float, gamma: float) -> PdeSpec:
    """The damped-membrane instance of the inverse problem."""
    return PdeSpec(A=np.diag([1.0, -mu ** 2, -mu ** 2]),
                   D=np.array([gamma, 0.0, 0.0]))


def telegraph_spec(c: float, m: float) -> PdeSpec:
    """u_tt - u_zz + c u_z + m u = 0 (telegraph-like)."""
    return PdeSpec(A=np.diag([1.0, -1.0]), D=np.array([0.0, c]),
                   G=lambda u: m * u, gbar=lambda u: 0.5 * m * u * u,
                   g_poly=(0.0, m))
