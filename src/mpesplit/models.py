"""The six benchmark problems: parameters, initial data, diagnostics, exact
solutions where available, and the binding of each model to its A/B flows.

All models live on periodic boxes. The A flow is always the spectral linear
propagator; the B flow is a closed form where one exists and SSP-RK(10,4)
otherwise. Coordinates are grid nodes shifted by the model's origin, so
centered domains like (-1, 1)^2 sample the printed formulas directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flows import (
    RkConfig,
    conservative_rhs,
    fkpp_constant,
    flow_double_well,
    flow_phase,
    flow_tanh,
    ssprk104,
    truncate_double_well,
    truncate_fkpp,
)
from .grid import SpectralGrid, linear_propagate, make_grid
from .schemes import FlowPair


@dataclass
class ModelSpec:
    id: str
    n_default: int
    length: float
    x0: float
    scalar_kind: str
    params: dict
    M: float | None = None
    components: int = 1


_DEFAULTS = {
    "toy": dict(n=1024, length=2 * math.pi, x0=0.0, kind="real",
                params=dict(eps=0.1, lam=1.0)),
    "ac": dict(n=400, length=2 * math.pi, x0=0.0, kind="real",
               params=dict(eps=0.1), M=6.0),
    "cac": dict(n=256, length=2.0, x0=-1.0, kind="real",
                params=dict(eps=0.02), M=6.0),
    "fkpp": dict(n=512, length=1.0, x0=0.0, kind="real",
                 params=dict(D=0.001, p=5, q=5), M=6.0),
    "nls_linear": dict(n=400, length=16 * math.pi, x0=-8 * math.pi, kind="complex",
                       params=dict(eps=1.0, rho=0.0)),
    "nls_nonlinear": dict(n=400, length=2 * math.pi, x0=-math.pi, kind="complex",
                          params=dict(eps=0.5, rho=-1.0)),
    "rd_system": dict(n=1024, length=2.0, x0=-1.0, kind="real",
                      params=dict(k1_plus=1.0, k1_minus=0.1, D_u=0.2, D_v=0.1), M=6.0),
}

_ALIASES = {"rd": "rd_system"}


def model_names():
    return list(_DEFAULTS)


def make_model(model_id: str, **overrides) -> ModelSpec:
    model_id = _ALIASES.get(model_id, model_id)
    if model_id not in _DEFAULTS:
        raise KeyError(f"unknown model {model_id!r}; known: {', '.join(_DEFAULTS)}")
    d = _DEFAULTS[model_id]
    params = dict(d["params"])
    M = d.get("M")
    n = d["n"]
    for key, val in overrides.items():
        if key == "n":
            n = int(val)
        elif key == "M":
            M = val
        elif key in params:
            params[key] = val
        else:
            raise KeyError(f"model {model_id} has no parameter {key!r}")
    return ModelSpec(
        id=model_id,
        n_default=n,
        length=d["length"],
        x0=d["x0"],
        scalar_kind=d["kind"],
        params=params,
        M=M,
        components=2 if model_id == "rd_system" else 1,
    )


def default_grid(model: ModelSpec, n: int | None = None) -> SpectralGrid:
    return make_grid(2, n or model.n_default, model.length)


def model_nu(model: ModelSpec):
    """Linear coefficient(s) for the spectral propagator."""
    p = model.params
    if model.id in ("toy", "ac", "cac"):
        return p["eps"] ** 2
    if model.id == "fkpp":
        return p["D"]
    if model.id in ("nls_linear", "nls_nonlinear"):
        return 1j * p["eps"]
    if model.id == "rd_system":
        return (p["D_u"], p["D_v"])
    raise KeyError(model.id)


def _coords(model: ModelSpec, grid: SpectralGrid):
    X, Y = grid.nodes()
    return X + model.x0, Y + model.x0


def initial_condition(model: ModelSpec, grid: SpectralGrid) -> np.ndarray:
    X, Y = _coords(model, grid)
    if model.id == "toy":
        return 0.5 * np.sin(X) * np.sin(Y)
    if model.id == "ac":
        eps = model.params["eps"]
        circles = [
            (math.pi / 2, math.pi / 2, math.pi / 5),
            (math.pi / 4, 3 * math.pi / 4, 2 * math.pi / 15),
            (math.pi / 2, 5 * math.pi / 4, 2 * math.pi / 15),
            (math.pi, math.pi / 4, math.pi / 10),
            (3 * math.pi / 2, math.pi / 4, math.pi / 10),
            (math.pi, math.pi, math.pi / 4),
            (3 * math.pi / 2, 3 * math.pi / 2, math.pi / 4),
        ]
        u = -np.ones_like(X)
        for cx, cy, r in circles:
            s = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2) - r
            # mollifier bump f0(s) = 2 exp(-eps^2/s^2) for s < 0, else 0
            with np.errstate(divide="ignore"):
                u += np.where(s < 0, 2.0 * np.exp(-(eps**2) / np.where(s >= 0, np.inf, s) ** 2), 0.0)
        return u
    if model.id == "cac":
        eps = model.params["eps"]
        r2 = 0.2**2
        return -(
            np.tanh(((X - 0.3) ** 2 + Y**2 - r2) / eps)
            * np.tanh(((X + 0.3) ** 2 + Y**2 - r2) / eps)
            * np.tanh((X**2 + (Y - 0.3) ** 2 - r2) / eps)
            * np.tanh((X**2 + (Y + 0.3) ** 2 - r2) / eps)
        )
    if model.id == "fkpp":
        return 0.45 * np.cos(2 * math.pi * X) * np.cos(2 * math.pi * Y) + 0.5
    if model.id in ("nls_linear", "nls_nonlinear"):
        return exact_solution(model, 0.0, grid)
    if model.id == "rd_system":
        prof = np.tanh(10.0 * np.sqrt(X**2 + Y**2) - 4.0) / 2.0
        return np.stack((1.5 - prof, 1.5 + prof))
    raise KeyError(model.id)


def exact_solution(model: ModelSpec, t: float, grid: SpectralGrid) -> np.ndarray:
    X, Y = _coords(model, grid)
    if model.id == "nls_linear":
        return 1j * np.exp(1j * t) / (np.cosh(X) * np.cosh(Y))
    if model.id == "nls_nonlinear":
        return np.sin(X) * np.sin(Y) * np.exp(-2j * t)
    raise ValueError(f"model {model.id} has no exact solution")


def potential(model: ModelSpec, grid: SpectralGrid) -> np.ndarray:
    X, Y = _coords(model, grid)
    if model.id == "nls_linear":
        return 3.0 - 2.0 * np.tanh(X) ** 2 - 2.0 * np.tanh(Y) ** 2
    if model.id == "nls_nonlinear":
        # the product form; it is the one the printed exact solution solves
        return np.sin(X) ** 2 * np.sin(Y) ** 2 - 1.0
    raise ValueError(f"model {model.id} has no potential")


def energy(model: ModelSpec, state: np.ndarray, grid: SpectralGrid) -> float:
    if model.id in ("ac", "cac"):
        eps = model.params["eps"]
        well = 0.25 * (state**2 - 1.0) ** 2
        return float(0.5 * eps**2 * grid.grad_sq_integral(state) + grid.integrate(well))
    if model.id in ("nls_linear", "nls_nonlinear"):
        eps = model.params["eps"]
        rho = model.params["rho"]
        omega = potential(model, grid)
        lap = grid.inverse(-grid.laplacian_symbols * grid.forward(state))
        mod2 = state.real**2 + state.imag**2
        dens = -eps * np.conj(state) * lap - omega * mod2 - 0.5 * rho * mod2**2
        val = grid.integrate(dens)
        if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
            raise ValueError(f"nls energy has imaginary residue {val.imag}")
        return float(val.real)
    if model.id == "rd_system":
        u, v = state[0], state[1]
        if u.min() <= 0 or v.min() <= 0:
            raise ValueError(
                f"rd energy needs positive densities; min u = {u.min()}, min v = {v.min()}"
            )
        Uu = math.log(model.params["k1_plus"])
        Uv = math.log(model.params["k1_minus"])
        dens = u * (np.log(u) - 1.0 + Uu) + v * (np.log(v) - 1.0 + Uv)
        return float(grid.integrate(dens))
    return float("nan")


def mass(model: ModelSpec, state: np.ndarray, grid: SpectralGrid) -> float:
    if model.id in ("nls_linear", "nls_nonlinear"):
        return float(grid.integrate(state.real**2 + state.imag**2))
    if model.id == "rd_system":
        return float(grid.integrate(state[0] + state[1]))
    return float(grid.integrate(state))


def max_norm(state: np.ndarray) -> float:
    return float(np.max(np.abs(state)))


def _workspace(state) -> np.ndarray:
    """A float scratch array shaped like state, for a right-hand side to write
    into. Each B-flow call allocates its own, so calls share no buffers."""
    return np.empty(np.shape(state), dtype=float)


def flow_pair(model: ModelSpec, grid: SpectralGrid, rk_substeps: int = 4,
              allow_backward: bool = False) -> FlowPair:
    nu = model_nu(model)
    cfg = RkConfig(rk_substeps)

    if model.id == "rd_system":
        nu_u, nu_v = nu

        def a_flow(tau, s):
            return np.stack((
                linear_propagate(s[0], nu_u, tau, grid=grid, allow_backward=allow_backward),
                linear_propagate(s[1], nu_v, tau, grid=grid, allow_backward=allow_backward),
            ))

        k1p = model.params["k1_plus"]
        k1m = model.params["k1_minus"]

        def b_flow(tau, s):
            buf, work = _workspace(s), _workspace(s[0])

            def rhs(x):
                # f = k1p u v^2 - k1m v^3 in buf[1] and -f in buf[0], so the
                # two components cancel exactly in the total density
                u, v = x[0], x[1]
                f = buf[1]
                np.multiply(u, k1p, out=f)
                f *= v
                f *= v
                np.multiply(v, k1m, out=work)
                np.multiply(work, v, out=work)
                np.multiply(work, v, out=work)
                f -= work
                np.negative(f, out=buf[0])
                return buf

            return ssprk104(rhs, s, tau, cfg)

        return FlowPair(a_flow, b_flow)

    def a_flow(tau, u):
        return linear_propagate(u, nu, tau, grid=grid, allow_backward=allow_backward)

    if model.id == "toy":
        lam = model.params["lam"]

        def b_flow(tau, u):
            return flow_tanh(u, lam, tau)

    elif model.id == "ac":
        M = model.M

        def b_flow(tau, u):
            # closed form while the solution sits inside the truncation window,
            # RK on the truncated nonlinearity once it leaves it
            if np.max(np.abs(u)) <= M:
                return flow_double_well(u, tau)
            out, work = _workspace(u), _workspace(u)
            return ssprk104(lambda x: truncate_double_well(x, M, out, work), u, tau, cfg)

    elif model.id == "cac":
        M = model.M

        def b_flow(tau, u):
            out, work = _workspace(u), _workspace(u)

            def rhs(x):
                return conservative_rhs(lambda y: truncate_double_well(y, M, out, work), x, out)

            return ssprk104(rhs, u, tau, cfg)

    elif model.id == "fkpp":
        M = model.M
        p = model.params["p"]
        q = model.params["q"]
        K = fkpp_constant(p, q)

        def b_flow(tau, u):
            out, work = _workspace(u), _workspace(u)
            return ssprk104(lambda x: truncate_fkpp(x, M, p, q, K, out, work), u, tau, cfg)

    elif model.id in ("nls_linear", "nls_nonlinear"):
        omega = potential(model, grid)
        rho = model.params["rho"]

        def b_flow(tau, u):
            return flow_phase(u, omega, rho, tau)

    else:
        raise KeyError(model.id)

    return FlowPair(a_flow, b_flow)
