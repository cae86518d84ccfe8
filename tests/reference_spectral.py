"""Reference implementations of the spectral layer, for differential tests.

The linear propagator with its multiplier exp(-tau*nu*lambda) built on the
whole grid from the wavenumbers and applied through the full complex
transform, the NLS energy with its gradient term integrated as
-eps * conj(u) * Laplacian(u) on the grid, and the inverse real transform
of a half spectrum in one `irfftn` call.
"""

import math

import numpy as np
from scipy import fft as _fft


def laplacian_on_grid(grid):
    """lambda = sum over axes of (2 pi p / L)^2, on the whole grid."""
    k = 2.0 * math.pi / grid.length * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    axes = np.meshgrid(*([k] * grid.dim), indexing="ij")
    return sum(kx**2 for kx in axes)


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
    return grid.h**grid.dim * dens.sum()


def inverse_real(spec, n_last):
    """irfftn of a half spectrum whose last axis has n_last // 2 + 1 columns."""
    return _fft.irfftn(spec, s=spec.shape[:-1] + (n_last,))
