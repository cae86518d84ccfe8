"""Reference implementations of the spectral layer, for differential tests.

The linear propagator with its multiplier exp(-tau*nu*lambda) built on the
whole grid from the wavenumbers and applied through the full complex
transform, the NLS energy with its gradient term integrated as
-eps * conj(u) * Laplacian(u) on the grid, the spectral gradient through
the full complex transform, the inverse real transform of a half spectrum
in one `irfftn` call, and the propagator of one state in its own
transform, called once per component of a system. Also the node
coordinates as one meshgrid with its origin at 0, and a complex state's
file bytes with each part copied into alternate slots on its own.
"""

import math

import numpy as np
from scipy import fft as _fft


def laplacian_on_grid(grid):
    """lambda = sum over axes of (2 pi p / L)^2, on the whole grid."""
    k = 2.0 * math.pi / grid.length * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return kx**2 + ky**2


def propagate_full(values, nu, tau, grid):
    """ifftn(exp(-tau nu lambda) fftn(values)); the real part for a real
    state with real nu, as the propagator returns it."""
    mult = np.exp(-tau * complex(nu) * laplacian_on_grid(grid))
    out = np.fft.ifftn(mult * np.fft.fftn(values))
    if np.isrealobj(values) and complex(nu).imag == 0:
        return out.real
    return out


def nls_energy_on_grid(eps, rho, omega, state, grid):
    """eps * integral |grad u|^2 - integral (omega |u|^2 + rho |u|^4 / 2), the
    gradient term as -eps * conj(u) Laplacian(u); returns the complex
    integral, whose imaginary part is round-off."""
    lap = np.fft.ifftn(-laplacian_on_grid(grid) * np.fft.fftn(state))
    mod2 = state.real**2 + state.imag**2
    dens = -eps * np.conj(state) * lap - omega * mod2 - 0.5 * rho * mod2**2
    return grid.h**2 * dens.sum()


def gradient(grid, values):
    """(d/dx, d/dy) of a 2-D state by the full complex transform, each
    axis's Nyquist mode zeroed (an odd operator on an even grid); real
    parts for a real state."""
    k = 2.0 * math.pi / grid.length * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k[grid.n // 2] = 0.0
    spec = _fft.fftn(values)
    out = []
    for mult in (1j * k[:, None], 1j * k[None, :]):
        d = _fft.ifftn(mult * spec)
        out.append(d.real if np.isrealobj(values) else d)
    return tuple(out)


def inverse_real(spec, n_last):
    """irfftn of a half spectrum whose last axis has n_last // 2 + 1 columns."""
    return _fft.irfftn(spec, s=spec.shape[:-1] + (n_last,))


def propagate_one(values, nu, tau, grid):
    """The propagator of one state in its own transform, scaled by one 1-D
    factor per axis: `rfftn` of the whole state and one `irfftn` for a
    real state with real nu, `fftn` and `ifftn` otherwise."""
    nu = complex(nu)
    real = np.isrealobj(values) and nu.imag == 0
    c = -tau * (nu.real if real else nu)
    spec = _fft.rfftn(values) if real else _fft.fftn(values)
    spec *= np.exp(c * grid._k2)[:, None]
    spec *= np.exp(c * (grid._k2_half if real else grid._k2))
    return _fft.irfftn(spec, s=np.shape(values)) if real else _fft.ifftn(spec)


def propagate_each_component(values, nus, tau, grid):
    """`propagate_one` of each component with its own nu, stacked along the
    leading axis."""
    return np.stack([propagate_one(c, nu, tau, grid) for c, nu in zip(values, nus)])


def nodes(grid):
    """Meshgrid of node coordinates, ij indexing, origin at 0."""
    x = grid.axis_points()
    return np.meshgrid(x, x, indexing="ij")


def interleaved(values):
    """A complex state as little-endian float64 bytes, the real and the
    imaginary part of each value side by side, each part copied on its own."""
    flat = np.empty(2 * values.size, dtype="<f8")
    flat[0::2] = values.ravel().real
    flat[1::2] = values.ravel().imag
    return flat.tobytes()
