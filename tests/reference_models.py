"""Reference implementations of the model layer, for differential tests: the
ac initial state evaluated over two full meshgrids, and the diagnostics as
plain expressions, each allocating a fresh array per operation."""

import math

import numpy as np
from scipy import fft as _fft


def ac_initial_on_mesh(eps, X, Y):
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


def grad_sq_integral(grid, values):
    spec = _fft.rfftn(values)
    power = spec.real**2 + spec.imag**2
    return float(np.sum(grid._grad_sq_half * power)) * (grid.h / grid.n) ** 2


def double_well_energy(eps, state, grid):
    well = 0.25 * (state**2 - 1.0) ** 2
    return float(0.5 * eps**2 * grad_sq_integral(grid, state) + grid.integrate(well))


def max_norm(state):
    return float(np.max(np.abs(state)))
