"""The seven benchmark problems: parameters, initial data, diagnostics, exact
solutions where available, and the binding of each model to its A/B flows.

All models live on periodic boxes. The A flow is always the spectral linear
propagator; the B flow is a closed form where one exists and SSP-RK(10,4)
otherwise. Coordinates are grid nodes shifted by the model's origin, so
centered domains like (-1, 1)^2 sample the printed formulas directly.

Everything that differs between models is one `ModelSpec` record: its
defaults and its own functions. `_MODELS` holds one record per model,
`make_model` returns a copy with its overrides applied, and the public
functions below call the functions of the record they are given.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .flows import (
    conservative_rhs,
    distinct_values,
    flow_double_well,
    flow_phase,
    flow_tanh,
    in_window,
    rotation,
    ssprk104,
    truncate_double_well,
    truncate_fkpp,
)
from .grid import SpectralGrid, forward_spectrum, linear_propagate, propagate_spectrum
from .schemes import FlowPair


@dataclass(frozen=True)
class ModelSpec:
    """A model's defaults and its own functions. X, Y are node coordinates
    shifted by the model's origin, as meshgrids; x, y are those of one axis.
    `params` is a dict that belongs to this record alone (see `make_model`)."""
    id: str
    n_default: int
    length: float
    x0: float
    params: dict
    nu: Callable  # params -> nu, or a tuple with one nu per component
    initial: Callable  # (model, x, y) -> state, x and y the shifted nodes of each axis
    b_flow: Callable  # (model, grid, RK substeps) -> B flow (tau, state) -> state
    M: float | None = None
    energy: Callable | None = None  # (model, state, grid) -> float; NaN if absent
    mass: Callable | None = None  # (state, grid) -> float; integral of the state if absent
    exact: Callable | None = None  # (t, X, Y) -> state
    potential: Callable | None = None  # (X, Y) -> array
    monitor: Callable | None = None  # (model, step, max norm) -> reason to stop, or None


def _workspace(state) -> np.ndarray:
    """A float scratch array shaped like state, for a right-hand side to write
    into. Each B-flow call allocates its own, so calls share no buffers."""
    return np.empty(np.shape(state), dtype=float)


def _eps_squared(p):
    return p["eps"] ** 2


def _double_well_energy(model, state, grid):
    """eps^2/2 integral |grad u|^2 + integral (u^2 - 1)^2 / 4, the well term
    in one buffer allocated after the gradient term has freed its own."""
    eps = model.params["eps"]
    gradient = 0.5 * eps**2 * grid.grad_sq_integral(state)
    well = np.multiply(state, state)
    well -= 1.0
    well *= well
    well *= 0.25
    return float(gradient + grid.integrate(well))


def _tanh_b_flow(model, grid, substeps):
    lam = model.params["lam"]
    return lambda tau, u: flow_tanh(u, lam, tau)


def _on_mesh(formula):
    """An initial state given by a formula in the meshgrids X, Y."""
    return lambda model, x, y: formula(model, *np.meshgrid(x, y, indexing="ij"))


# (center x, center y, radius) of the seven circles of the ac initial state
_AC_CIRCLES = (
    (math.pi / 2, math.pi / 2, math.pi / 5),
    (math.pi / 4, 3 * math.pi / 4, 2 * math.pi / 15),
    (math.pi / 2, 5 * math.pi / 4, 2 * math.pi / 15),
    (math.pi, math.pi / 4, math.pi / 10),
    (3 * math.pi / 2, math.pi / 4, math.pi / 10),
    (math.pi, math.pi, math.pi / 4),
    (3 * math.pi / 2, 3 * math.pi / 2, math.pi / 4),
)


def _within(x, c, r):
    """The slice of the sorted nodes x with |x - c| < r, as rounded."""
    inside = np.flatnonzero(np.abs(x - c) < r)
    return slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0)


def _ac_initial(model, x, y):
    """-1 plus a mollifier bump f0(s) = 2 exp(-eps^2/s^2) for each circle,
    s the distance to its center minus its radius; f0 is 0 for s >= 0, so
    each bump is evaluated on its circle's bounding box only. A node off
    the box has s >= 0 as rounded too, so the sum is the full-grid one."""
    eps = model.params["eps"]
    u = np.full((x.size, y.size), -1.0)
    for cx, cy, r in _AC_CIRCLES:
        bx, by = _within(x, cx, r), _within(y, cy, r)
        s = np.sqrt((x[bx, None] - cx) ** 2 + (y[None, by] - cy) ** 2) - r
        with np.errstate(divide="ignore"):
            u[bx, by] += np.where(s < 0, 2.0 * np.exp(-(eps**2) / np.where(s >= 0, np.inf, s) ** 2),
                                  0.0)
    return u


def _cac_initial(model, X, Y):
    eps = model.params["eps"]
    r2 = 0.2**2
    return -(
        np.tanh(((X - 0.3) ** 2 + Y**2 - r2) / eps)
        * np.tanh(((X + 0.3) ** 2 + Y**2 - r2) / eps)
        * np.tanh((X**2 + (Y - 0.3) ** 2 - r2) / eps)
        * np.tanh((X**2 + (Y + 0.3) ** 2 - r2) / eps)
    )


def _truncated_b_flow(truncate, closed_form=None, conservative=False):
    """The B flow of a model whose right-hand side is the truncation
    `truncate(u, M, out, work, test_window)`, less its grid mean when
    `conservative`. A call tests its input against [-M, M] once: inside,
    `closed_form(u, tau)` is the flow where there is one; otherwise SSP-RK
    integrates the truncation, whose stages get that test's result as
    `test_window` (see `truncate_double_well`). A NaN fails the test."""

    def build(model, grid, substeps):
        M = model.M

        def b_flow(tau, u):
            inside = in_window(u, M)
            if inside and closed_form is not None:
                return closed_form(u, tau)
            out, work = _workspace(u), _workspace(u)

            def rhs(x):
                fv = truncate(x, M, out, work, inside)
                return conservative_rhs(fv, out) if conservative else fv

            return ssprk104(rhs, u, tau, substeps)

        return b_flow

    return build


def _fkpp_b_flow(model, grid, substeps):
    p, q = model.params["p"], model.params["q"]
    if (p, q) != (5, 5):  # --param values arrive as floats; 5.0 passes
        raise ValueError(f"fkpp truncation is printed for p = q = 5 only, got p={p}, q={q}")
    return _truncated_b_flow(truncate_fkpp)(model, grid, substeps)


def _nls_initial(model, X, Y):
    return model.exact(0.0, X, Y)


def _nls_energy(model, state, grid):
    """eps * integral |grad u|^2 - integral (omega |u|^2 + rho |u|^4 / 2).

    The gradient term is -eps * integral conj(u) Laplacian(u), taken by
    Parseval from one forward transform as eps * h^d / N^d * sum lam |u_k|^2,
    so every term is real by construction."""
    eps = model.params["eps"]
    rho = model.params["rho"]
    omega = potential(model, grid)
    spec = grid.forward(state)
    power = spec.real**2 + spec.imag**2
    kinetic = eps * grid.integrate(grid.laplacian_symbols * power) / state.size
    mod2 = state.real**2 + state.imag**2
    return float(kinetic + grid.integrate(-omega * mod2 - 0.5 * rho * mod2**2))


# at rho = 0, a kept rotation times u is u's `flow_phase` when every real and
# imaginary part of the product lies within +-this bound: |u| is then below
# 1.5e150, so |u|^2 cannot overflow
_PHASE_WINDOW = 1e150


def _phase_b_flow(model, grid, substeps):
    """`flow_phase` with the model's potential omega.

    At rho = 0 the angle tau * (omega + rho * |u|^2) is
    tau * (omega + rho * 0.0) wherever |u|^2 is finite, so the rotation
    depends on tau alone. Each thread keeps its last rotation, keyed by tau
    and tau's sign (-0.0 == 0.0, but their sines differ), and a call returns
    that rotation times u in a new array; the kept rotation is never written
    or returned. A Richardson term repeats its B coefficient, so an `s6`
    step evaluates 3 rotations instead of 6. The product is `flow_phase`'s
    result bit for bit when every real and imaginary part of it lies within
    +-`_PHASE_WINDOW`; for any other state, a NaN included, the call returns
    `flow_phase` itself. rho != 0 always takes `flow_phase`.

    A rotation is `rotation` of tau times each distinct value of
    omega + rho * 0.0 (`distinct_values`, told apart by their bits),
    gathered back onto the grid. Each element goes through the same
    multiply and the same cosine and sine of the same double, so it is the
    rotation of the whole grid bit for bit. The computed nls_linear
    potential takes 7 % distinct values at 256^2 and 10 % at 400^2; a
    potential with no repeated value costs one gather more per rotation.
    The table is made once per flow pair, on the first call, under a lock,
    so setting a flow pair up does not sort the potential.
    """
    omega = potential(model, grid)
    rho = model.params["rho"]
    if rho != 0:
        return lambda tau, u: flow_phase(u, omega, rho, tau)
    omega0 = omega + rho * 0.0  # -0.0 + 0.0 is +0.0, as in omega + 0.0 * |u|^2
    table = []  # [distinct_values(omega0)] once made
    lock = threading.Lock()
    last = threading.local()

    def b_flow(tau, u):
        key = (tau, math.copysign(1.0, tau))
        if getattr(last, "key", None) != key:
            if not table:
                with lock:
                    if not table:
                        table.append(distinct_values(omega0))
            values, index = table[0]
            last.rot, last.key = rotation(tau * values)[index], key
        out = last.rot * u
        if in_window(out.view(float), _PHASE_WINDOW):
            return out
        return flow_phase(u, omega, rho, tau)

    return b_flow


def _rd_initial(model, X, Y):
    prof = np.tanh(10.0 * np.sqrt(X**2 + Y**2) - 4.0) / 2.0
    return np.stack((1.5 - prof, 1.5 + prof))


def _rd_energy(model, state, grid):
    u, v = state[0], state[1]
    if u.min() <= 0 or v.min() <= 0:
        raise ValueError(
            f"rd energy needs positive densities; min u = {u.min()}, min v = {v.min()}"
        )
    Uu = math.log(model.params["k1_plus"])
    Uv = math.log(model.params["k1_minus"])
    dens = u * (np.log(u) - 1.0 + Uu) + v * (np.log(v) - 1.0 + Uv)
    return float(grid.integrate(dens))


def _reaction_b_flow(model, grid, substeps):
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

        return ssprk104(rhs, s, tau, substeps)

    return b_flow


def _rd_monitor(model, step, peak):
    if peak > model.M:
        return f"rd_system monitor: max norm exceeded M={model.M} at step {step}"
    return None


# the two Schroedinger models differ only in defaults, exact solution and potential
_NLS = dict(nu=lambda p: 1j * p["eps"], initial=_on_mesh(_nls_initial),
            b_flow=_phase_b_flow, energy=_nls_energy,
            mass=lambda u, grid: float(grid.integrate(u.real**2 + u.imag**2)))

_MODELS = {model.id: model for model in (
    ModelSpec(
        "toy", n_default=1024, length=2 * math.pi, x0=0.0,
        params=dict(eps=0.1, lam=1.0), nu=_eps_squared, b_flow=_tanh_b_flow,
        initial=_on_mesh(lambda m, X, Y: 0.5 * np.sin(X) * np.sin(Y)),
    ),
    ModelSpec(
        "ac", n_default=400, length=2 * math.pi, x0=0.0,
        params=dict(eps=0.1), M=6.0,
        nu=_eps_squared, initial=_ac_initial, energy=_double_well_energy,
        b_flow=_truncated_b_flow(truncate_double_well, closed_form=flow_double_well),
    ),
    ModelSpec(
        "cac", n_default=256, length=2.0, x0=-1.0,
        params=dict(eps=0.02), M=6.0,
        nu=_eps_squared, initial=_on_mesh(_cac_initial), energy=_double_well_energy,
        b_flow=_truncated_b_flow(truncate_double_well, conservative=True),
    ),
    ModelSpec(
        "fkpp", n_default=512, length=1.0, x0=0.0,
        params=dict(D=0.001, p=5, q=5), M=6.0,
        nu=lambda p: p["D"], b_flow=_fkpp_b_flow,
        initial=_on_mesh(lambda m, X, Y: 0.45 * np.cos(2 * math.pi * X)
                         * np.cos(2 * math.pi * Y) + 0.5),
    ),
    ModelSpec(
        "nls_linear", n_default=400, length=16 * math.pi, x0=-8 * math.pi,
        params=dict(eps=1.0, rho=0.0), **_NLS,
        exact=lambda t, X, Y: 1j * np.exp(1j * t) / (np.cosh(X) * np.cosh(Y)),
        potential=lambda X, Y: 3.0 - 2.0 * np.tanh(X) ** 2 - 2.0 * np.tanh(Y) ** 2,
    ),
    ModelSpec(
        "nls_nonlinear", n_default=400, length=2 * math.pi, x0=-math.pi,
        params=dict(eps=0.5, rho=-1.0), **_NLS,
        exact=lambda t, X, Y: np.sin(X) * np.sin(Y) * np.exp(-2j * t),
        # the product form; it is the one the printed exact solution solves
        potential=lambda X, Y: np.sin(X) ** 2 * np.sin(Y) ** 2 - 1.0,
    ),
    ModelSpec(
        "rd_system", n_default=1024, length=2.0, x0=-1.0,
        params=dict(k1_plus=1.0, k1_minus=0.1, D_u=0.2, D_v=0.1), M=6.0,
        nu=lambda p: (p["D_u"], p["D_v"]), initial=_on_mesh(_rd_initial),
        b_flow=_reaction_b_flow,
        energy=_rd_energy, mass=lambda s, grid: float(grid.integrate(s[0] + s[1])),
        monitor=_rd_monitor,
    ),
)}

_ALIASES = {"rd": "rd_system"}
DEFAULT_MODEL = "toy"  # the model of a run configuration that names none


def model_names():
    return list(_MODELS)


def make_model(model_id: str, **overrides) -> ModelSpec:
    """A copy of the model's record with overrides of `n`, `M` or any of its
    parameters. The copy gets a dict of its own for `params`, so overrides
    never reach the record."""
    model_id = _ALIASES.get(model_id, model_id)
    if model_id not in _MODELS:
        raise KeyError(f"unknown model {model_id!r}; known: {', '.join(_MODELS)}")
    record = _MODELS[model_id]
    params, changes = dict(record.params), {}
    for key, val in overrides.items():
        if key == "n":
            changes["n_default"] = int(val)
        elif key == "M":
            changes["M"] = val
        elif key in params:
            params[key] = val
        else:
            raise KeyError(f"model {model_id} has no parameter {key!r}")
    return replace(record, params=params, **changes)


def default_grid(model: ModelSpec, n: int | None = None) -> SpectralGrid:
    """The model's grid with n points per axis; None means its default. An
    n that is not even and at least 2 raises ValueError."""
    return SpectralGrid(model.n_default if n is None else n, model.length)


def model_nu(model: ModelSpec):
    """Linear coefficient(s) for the spectral propagator."""
    return model.nu(model.params)


def _coords(model: ModelSpec, grid: SpectralGrid):
    x = grid.axis_points() + model.x0
    return np.meshgrid(x, x, indexing="ij")


def initial_condition(model: ModelSpec, grid: SpectralGrid) -> np.ndarray:
    x = grid.axis_points() + model.x0
    return model.initial(model, x, x)


def exact_solution(model: ModelSpec, t: float, grid: SpectralGrid) -> np.ndarray:
    if model.exact is None:
        raise ValueError(f"model {model.id} has no exact solution")
    return model.exact(t, *_coords(model, grid))


def potential(model: ModelSpec, grid: SpectralGrid) -> np.ndarray:
    if model.potential is None:
        raise ValueError(f"model {model.id} has no potential")
    return model.potential(*_coords(model, grid))


def energy(model: ModelSpec, state: np.ndarray, grid: SpectralGrid) -> float:
    return float("nan") if model.energy is None else model.energy(model, state, grid)


def mass(model: ModelSpec, state: np.ndarray, grid: SpectralGrid) -> float:
    return float(grid.integrate(state)) if model.mass is None else model.mass(state, grid)


def max_norm(state: np.ndarray) -> float:
    """max |u|; NaN if the state holds one. A real state is read twice
    instead of through a copy of its absolute values; `abs` turns the -0.0
    of an all-zero state, and the sign of a NaN, into those of |u|."""
    if np.iscomplexobj(state):
        return float(np.max(np.abs(state)))
    return abs(float(np.maximum(state.max(), -state.min())))


def flow_pair(model: ModelSpec, grid: SpectralGrid, rk_substeps: int = 4,
              allow_backward: bool = False) -> FlowPair:
    """The A flow propagates each component with its own nu, all components
    in one transform; the B flow is the model's, with `rk_substeps` SSP-RK
    substeps per call where it integrates (at least 1; `harness.check_config`
    checks the count of a run for every model, whether or not its B flow
    runs RK). The pair also carries the A flow's two pieces, so
    `schemes.apply` can transform a step's input once for the terms that
    start with an A substep."""
    nu = model_nu(model)
    b_flow = model.b_flow(model, grid, rk_substeps)

    def a_flow(tau, u):
        return linear_propagate(u, nu, tau, grid, allow_backward=allow_backward)

    def a_forward(u):
        return forward_spectrum(u, nu, grid)

    def a_finish(tau, spectrum):
        return propagate_spectrum(spectrum, nu, tau, grid, allow_backward)

    return FlowPair(a_flow, b_flow, a_forward, a_finish)
