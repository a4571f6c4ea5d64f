"""Built-in Lagrangian models.

Every factory returns a `LagrangianModel` whose density works on both
plain arrays and Taylor values, so the same definition feeds the exact
differentiation kernel and the grid simulator.
"""

from __future__ import annotations

from .errors import ConfigError
from .inverse import PdeSpec, build_lagrangian
from .jet import LagrangianModel


def free(n: int = 1, k: int = 2) -> LagrangianModel:
    """L = (1/2) sum_{i,a} (v^i_a)^2; the identity Legendre map."""

    def lag(q, v, s):
        total = 0.0
        for i in range(n):
            for a in range(k):
                total = total + 0.5 * v[i][a] * v[i][a]
        return total

    return LagrangianModel(n=n, k=k, name="free", lagrangian=lag,
                           params={"n": n, "k": k})


def membrane(mu: float = 1.0, gamma: float = 0.2) -> LagrangianModel:
    """Damped vibrating membrane, n=1, k=3 with directions (t, x, y):

        L = (1/2) u_t^2 - (mu^2/2)(u_x^2 + u_y^2) - gamma * s^t

    whose field equation is u_tt - mu^2 (u_xx + u_yy) + gamma u_t = 0.
    """

    def lag(q, v, s):
        ut, ux, uy = v[0]
        return (0.5 * ut * ut - 0.5 * mu ** 2 * (ux * ux + uy * uy)
                - gamma * s[0])

    return LagrangianModel(n=1, k=3, name="membrane", lagrangian=lag,
                           params={"mu": mu, "gamma": gamma})


def string(rho: float = 1.0, tau: float = 1.0, lam: float = 0.0,
           gamma: float = 0.0, B: float = 0.0, phi=None) -> LagrangianModel:
    """Charged vibrating string in the plane, n=2, k=2, directions (t, z).

    Gauge potentials A1 = -B*y/2, A2 = B*x/2 give a constant magnetic
    field B; `phi` is an optional scalar potential phi(x, y) written with
    overloaded arithmetic (default 0).

        L = (rho/2)(x_t^2 + y_t^2) - (tau/2)(x_z^2 + y_z^2)
            - lam * (phi - A1 x_t - A2 y_t) + gamma * s^t
    """

    def lag(q, v, s):
        x, y = q
        xt, xz = v[0]
        yt, yz = v[1]
        A1 = -0.5 * B * y
        A2 = 0.5 * B * x
        pot = phi(x, y) if phi is not None else 0.0
        return (0.5 * rho * (xt * xt + yt * yt)
                - 0.5 * tau * (xz * xz + yz * yz)
                - lam * (pot - A1 * xt - A2 * yt)
                + gamma * s[0])

    return LagrangianModel(n=2, k=2, name="string", lagrangian=lag,
                           params={"rho": rho, "tau": tau, "lam": lam,
                                   "gamma": gamma, "B": B})


def sv_coupling(eps: float = 0.1) -> LagrangianModel:
    """n=k=1 fixture with velocity-dissipation coupling: L = v^2/2 + eps*s*v."""

    def lag(q, v, s):
        return 0.5 * v[0][0] * v[0][0] + eps * s[0] * v[0][0]

    return LagrangianModel(n=1, k=1, name="svcoupling", lagrangian=lag,
                           params={"eps": eps})


def damped_oscillator(gamma: float = 0.1, omega: float = 1.0
                      ) -> LagrangianModel:
    """k=1 contact mechanics: L = v^2/2 - omega^2 q^2 / 2 - gamma*s,
    giving the damped oscillator  q'' + gamma q' + omega^2 q = 0."""

    def lag(q, v, s):
        return (0.5 * v[0][0] * v[0][0]
                - 0.5 * omega ** 2 * q[0] * q[0] - gamma * s[0])

    return LagrangianModel(n=1, k=1, name="oscillator", lagrangian=lag,
                           params={"gamma": gamma, "omega": omega})


def builtin_models():
    """Representative instances used by the property-test sweeps."""
    return [
        free(n=1, k=2),
        free(n=2, k=3),
        membrane(mu=2.0, gamma=0.5),
        string(rho=1.0, tau=1.0, lam=0.1, gamma=0.3, B=1.0),
        sv_coupling(eps=0.1),
        damped_oscillator(gamma=0.2, omega=1.5),
    ]


# name -> (factory, {parameter: type}) of every built-in model with
# numeric parameters; their defaults are the factories'
MODELS = {
    "free": (free, {"n": int, "k": int}),
    "membrane": (membrane, {"mu": float, "gamma": float}),
    "string": (string, {"rho": float, "tau": float, "lam": float,
                        "gamma": float, "B": float}),
    "svcoupling": (sv_coupling, {"eps": float}),
    "oscillator": (damped_oscillator, {"gamma": float, "omega": float}),
}
MODEL_NAMES = (*MODELS, "inverse")  # inverse: built from a PDE spec
MODEL_PARAMS = {param: kind for _, kinds in MODELS.values()
                for param, kind in kinds.items()}


def build_model(name: str, params: dict) -> LagrangianModel:
    """Model registry used by the CLI: the MODELS entry `name` with the
    given parameters, or "inverse" built from the PDE spec dict
    params["spec"] (see `PdeSpec.from_dict`).  Raises ConfigError on bad
    input."""
    params = dict(params)
    if name == "inverse":
        model = build_lagrangian(PdeSpec.from_dict(params.pop("spec", None)))
    elif name in MODELS:
        factory, kinds = MODELS[name]
        try:
            model = factory(**{key: kinds[key](params.pop(key))
                               for key in list(params) if key in kinds})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad parameters for model '{name}': {exc}")
    else:
        raise ConfigError(f"unknown model '{name}'")
    if params:
        raise ConfigError(
            f"unknown parameters for model '{name}': {sorted(params)}")
    return model
