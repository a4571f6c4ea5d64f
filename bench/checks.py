"""Output checks of the benchmark workloads, made apart from kcontact.

Every reference here is a closed-form solution or a derivative written
out by hand with numpy alone, so a fault in the program cannot move the
reference it is checked against.  No check compares against a stored
copy of the program's output.  Each check raises `CheckFailed`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# damped membrane of the acceptance reference run:
#   u_tt - mu^2 (u_xx + u_yy) + gamma u_t = 0 on (0, pi)^2
MU, GAMMA = 1.0, 0.2
MEMBRANE_TOL = 1e-3
# second-order refinement property: halving h divides the error by 4
REFINEMENT_BAND = (3.5, 4.5)
# final error of the Born-Infeld wave and of its s1, in units of h^2
WAVE_TOL_H2 = 0.5
# derivatives of quadratic densities are exact up to rounding
JET_TOL = 1e-12
# the CLI suites' default tolerances for the pointwise identities
IDENTITY_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its independent reference."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- closed forms ----------------------------------------------------------

def membrane_amplitude(t, mu=MU, gamma=GAMMA):
    """Amplitude a(t) of the mode u = a(t) sin x sin y with u_t(0) = 0."""
    beta = gamma / 2
    omega = math.sqrt(2 * mu ** 2 - beta ** 2)
    return np.exp(-beta * t) * (np.cos(omega * t)
                                + beta / omega * np.sin(omega * t))


def membrane_amplitude_rate(t, mu=MU, gamma=GAMMA):
    """a'(t) = -(omega + beta^2 / omega) e^(-beta t) sin(omega t)."""
    beta = gamma / 2
    omega = math.sqrt(2 * mu ** 2 - beta ** 2)
    return -(omega + beta ** 2 / omega) * np.exp(-beta * t) * np.sin(
        omega * t)


def travelling_wave(x, t, amplitude, phase):
    """u = A sin(x - t + phase): an exact Born-Infeld solution with L = 0."""
    return amplitude * np.sin(x - t + phase)


def string_jet(q, v, s, rho, tau, lam, gamma, B):
    """Momenta p (2, 2), flat velocity Hessian W (4, 4) and energy of

        L = rho/2 (x_t^2 + y_t^2) - tau/2 (x_z^2 + y_z^2)
            + lam (A1 x_t + A2 y_t) + gamma s^t,  A1 = -B y / 2, A2 = B x / 2.
    """
    x, y = q
    (xt, xz), (yt, yz) = v
    p = np.array([[rho * xt - lam * B * y / 2, -tau * xz],
                  [rho * yt + lam * B * x / 2, -tau * yz]])
    W = np.diag([rho, -tau, rho, -tau])
    # the magnetic terms are linear in the velocities and drop out of E
    E = (rho / 2 * (xt ** 2 + yt ** 2) - tau / 2 * (xz ** 2 + yz ** 2)
         - gamma * s[0])
    return p, W, E


def membrane_jet(q, v, s, mu, gamma):
    """Momenta p (1, 3), Hessian W (3, 3) and energy of
    L = u_t^2 / 2 - mu^2 / 2 (u_x^2 + u_y^2) - gamma s^t."""
    ut, ux, uy = v[0]
    p = np.array([[ut, -mu ** 2 * ux, -mu ** 2 * uy]])
    W = np.diag([1.0, -mu ** 2, -mu ** 2])
    E = ut ** 2 / 2 - mu ** 2 / 2 * (ux ** 2 + uy ** 2) + gamma * s[0]
    return p, W, E


# -- workload checks ---------------------------------------------------------

def check_membrane_trace(directory, counts, frames, t_final,
                         tol=MEMBRANE_TOL):
    """Exported membrane trace: columns and frame count agree with the
    manifest and with the run's configuration, and the final frame is the
    closed-form damped mode within `tol`."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    columns = ["t", "x1", "x2", "phi0", "phidot0", "s1"]
    lines = (directory / "trace.csv").read_bytes().splitlines()
    header = lines[0].decode().split(",")
    _require(header == columns, f"trace columns {header} != {columns}")
    _require(manifest["columns"] == header,
             f"manifest columns {manifest['columns']} != {header}")
    points = counts[0] * counts[1]
    rows = len(lines) - 1
    _require(manifest["frames"] == frames and rows == frames * points,
             f"{rows} rows / manifest {manifest['frames']} frames, expected "
             f"{frames} frames of {points} points")
    last = np.array([row.split(b",") for row in lines[-points:]],
                    dtype=float)
    t, x, y, u = last[:, 0], last[:, 1], last[:, 2], last[:, 3]
    _require(np.all(np.abs(t - t_final) <= 1e-9 * max(1.0, t_final)),
             f"final frame time {t[0]!r} != {t_final!r}")
    exact = membrane_amplitude(t_final) * np.sin(x) * np.sin(y)
    err = float(np.max(np.abs(u - exact)))
    _require(err <= tol, f"final frame error {err:.3e} > {tol:g}")
    return err


def check_travelling_wave(x, u, s1, t, t_expected, amplitude, phase, h,
                          tol_h2=WAVE_TOL_H2):
    """Final Born-Infeld field against A sin(x - t + phase), and s1 = O(h^2)
    because L vanishes on the exact wave."""
    _require(abs(t - t_expected) <= 1e-9 * max(1.0, t_expected),
             f"final time {t!r} != {t_expected!r}")
    tol = tol_h2 * h ** 2
    err = float(np.max(np.abs(u - travelling_wave(x, t_expected, amplitude,
                                                  phase))))
    _require(err <= tol, f"wave error {err:.3e} > {tol:.3e}")
    s_err = float(np.max(np.abs(s1)))
    _require(s_err <= tol, f"|s1| {s_err:.3e} > {tol:.3e}")
    return err, s_err


def check_refinement_report(report, suites=("dissipation", "hdw"),
                            band=REFINEMENT_BAND):
    """`verify` report over a refinement pair: every suite passes and its
    residual ratio shows second order."""
    by_name = {entry["suite"]: entry for entry in report["suites"]}
    _require(sorted(by_name) == sorted(suites),
             f"suites {sorted(by_name)} != {sorted(suites)}")
    ratios = {}
    for name in suites:
        entry = by_name[name]
        ratio = entry.get("refinement_ratio")
        _require(entry["pass"] and ratio is not None
                 and band[0] <= ratio <= band[1],
                 f"{name}: pass={entry['pass']} ratio={ratio} outside "
                 f"{band}")
        ratios[name] = ratio
    _require(report["pass"], "verify report does not pass")
    return ratios


def check_derive_report(report, points, jet_fn, n, k, tol=JET_TOL):
    """`derive` report: each entry's momenta, velocity Hessian and energy
    match `jet_fn(q, v, s)`, and its Reeb and SOPDE identities hold."""
    entries = report["points"]
    _require(len(entries) == len(points) and report["n"] == n
             and report["k"] == k,
             f"{len(entries)} entries for {len(points)} points")
    for (q, v, s), entry in zip(points, entries):
        got = entry["point"]
        _require(np.array_equal(got["q"], q) and np.array_equal(got["v"], v)
                 and np.array_equal(got["s"], s),
                 f"entry point {got} != input point")
        p, W, E = jet_fn(q, v, s)
        for label, value, ref in (("p", entry["p"], p), ("W", entry["W"], W),
                                  ("energy", entry["energy"], E)):
            err = float(np.max(np.abs(np.asarray(value) - ref)))
            scale = max(1.0, float(np.max(np.abs(ref))))
            _require(err <= tol * scale, f"{label} off by {err:.3e}")
        _require(entry["regular"], "regular point reported singular")
        reeb = entry["verify_reeb"]
        worst = max(reeb["eta"], reeb["deta"], entry["sopde"]["residual"])
        _require(worst <= IDENTITY_TOL,
                 f"Reeb/SOPDE residual {worst:.3e} > {IDENTITY_TOL:g}")


def check_verify_report(report, suites):
    """`verify` report: exactly the requested suites, each passing."""
    names = [entry["suite"] for entry in report["suites"]]
    _require(names == list(suites), f"suites {names} != {list(suites)}")
    for entry in report["suites"]:
        _require(entry["pass"], f"suite {entry['suite']} fails: {entry}")
    _require(report["pass"], "verify report does not pass")


def check_inverse_report(report, k, tol=IDENTITY_TOL):
    """`inverse` report: a one-field model in k directions whose
    Euler-Lagrange equation reproduces the PDE."""
    _require(report["n"] == 1 and report["k"] == k,
             f"inverse model has n={report['n']}, k={report['k']}")
    residual = report["roundtrip_residual"]
    _require(report["pass"] and residual <= tol,
             f"roundtrip residual {residual:.3e} > {tol:g}")
