"""Periodic uniform 2-D grids, Fourier transforms, the exact linear
propagator, and the files a state is saved in.

The linear half of every model here is u_t = nu * Laplacian(u) on a periodic
square box, solved exactly in Fourier space: each coefficient is multiplied
by exp(-tau * nu * lambda) where lambda = (2*pi*p/L)**2 + (2*pi*q/L)**2.

The symbol is a sum over axes, so the multiplier is the outer product of
one 1-D exponential per axis. `linear_propagate` never builds it on the
grid: it scales the fresh spectrum in place by each axis's factor, so a
step size that never repeats costs exponentials of 1-D arrays and not of
the whole grid, and then inverts that spectrum, its own temporary, with
`overwrite_x=True`. The state it is given is never written. A real
state's inverse runs one axis at a time (`_inverse_real`), so it holds no
second copy of the spectrum and is still bit-identical to `irfftn`. A
system's components, stacked along a leading axis with one coefficient
each, go through one transform over the grid's axes, each component's
spectrum scaled by its own factors.
"""

from __future__ import annotations

import json
import math
import os
from functools import cached_property

import numpy as np
from scipy import fft as _fft


class SpectralGrid:
    """Uniform periodic grid on [0, L)^2 with precomputed Fourier symbols.

    Wavenumber layout per axis follows the standard FFT order
    0, 1, ..., N/2-1, -N/2, -N/2+1, ..., -1 (the Nyquist slot holds -N/2).
    The Laplacian symbol treats Nyquist like any other mode; a first
    derivative has none there (odd operator on an even grid).

    Real states use the half spectrum of `rfftn`, whose last axis holds
    wavenumbers 0, 1, ..., N/2 with the Nyquist column last at +N/2. The
    Laplacian symbol is even in k, so its half-spectrum copy is the full one
    restricted to those columns. The squared-gradient symbol used by
    `grad_sq_integral` zeroes each derivative's Nyquist mode and weights the
    interior columns 1..N/2-1 by 2 because each stands for itself and its
    conjugate partner; columns 0 and N/2 count once.

    The Laplacian symbol is kx^2 + ky^2, so the propagator keeps only the
    1-D squared wavenumbers: `_k2` along a full axis and `_k2_half` along
    the half axis of `rfftn`. `laplacian_symbols` is the full symbol on the
    grid, for the diagnostics that need it; it is built on first use.
    """

    def __init__(self, n_per_axis: int, length: float):
        if n_per_axis < 2 or n_per_axis % 2 != 0:
            raise ValueError(f"n_per_axis must be even and >= 2, got {n_per_axis}")
        if not (length > 0):
            raise ValueError(f"length must be positive, got {length}")
        self.n = int(n_per_axis)
        self.length = float(length)
        self.h = self.length / self.n
        scale = 2.0 * math.pi / self.length
        k1 = scale * np.fft.fftfreq(self.n, d=1.0 / self.n)
        kh = scale * np.fft.rfftfreq(self.n, d=1.0 / self.n)
        kd = k1.copy()
        kd[self.n // 2] = 0.0
        khd = kh.copy()
        khd[-1] = 0.0
        weight = np.full(kh.shape, 2.0)
        weight[0] = weight[-1] = 1.0
        self._k2 = k1**2
        self._k2_half = kh**2
        self._grad_sq_half = weight[None, :] * ((kd**2)[:, None] + (khd**2)[None, :])

    @property
    def shape(self):
        return (self.n, self.n)

    @cached_property
    def laplacian_symbols(self):
        return self._k2[:, None] + self._k2[None, :]

    def axis_points(self) -> np.ndarray:
        """Nodes of one axis, starting at 0."""
        return self.h * np.arange(self.n)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized forward DFT."""
        return _fft.fftn(values)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Rectangle rule h^2 * sum, spectrally accurate for periodic data."""
        return self.h**2 * values.sum()

    def grad_sq_integral(self, values: np.ndarray) -> float:
        """Integral of |grad u|^2 for a real state, by Parseval from one real
        transform; equal to integrating the squares of the spectral first
        derivatives, Nyquist zeroed, up to round-off. The power spectrum is
        built in one buffer beside the spectrum, whose imaginary part is
        squared in place."""
        spec = _fft.rfftn(values)
        np.square(spec.imag, out=spec.imag)
        power = np.square(spec.real)
        power += spec.imag
        power *= self._grad_sq_half
        return float(np.sum(power)) * (self.h / self.n) ** 2

    def __eq__(self, other):
        return (
            isinstance(other, SpectralGrid)
            and self.n == other.n
            and self.length == other.length
        )

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, length={self.length})"


def _scale_by_axes(spec: np.ndarray, c: complex, k2_first: np.ndarray,
                   k2_last: np.ndarray) -> None:
    """spec *= exp(c * lambda) in place, one 1-D factor per axis."""
    spec *= np.exp(c * k2_first)[:, None]
    spec *= np.exp(c * k2_last)


def _inverse_real(spec: np.ndarray, n_last: int) -> np.ndarray:
    """`irfftn` over the last two axes of a half spectrum, bit-identical to
    it, without the full copy of the spectrum `irfftn` makes internally:
    the unscaled inverse along the first grid axis overwrites spec, the
    unscaled real inverse along the last axis makes the output, and that is
    then scaled by 1/N^2 rounded from long double, as pocketfft rounds it.
    Axes before the last two index separate transforms."""
    spec = _fft.ifftn(spec, axes=(-2,), norm="forward", overwrite_x=True)
    out = _fft.irfftn(spec, s=(n_last,), axes=(-1,), norm="forward")
    out *= float(np.longdouble(1) / np.longdouble(n_last**2))
    return out


def linear_propagate(values: np.ndarray, nu, tau: float, grid: SpectralGrid,
                     allow_backward: bool = False) -> np.ndarray:
    """Apply exp(tau * nu * Laplacian) via the Fourier multiplier exp(-tau*nu*lambda).

    nu is one coefficient, or a tuple of one per component for a system
    whose components are stacked along a leading axis; all components go
    through one transform over the grid's axes, each spectrum scaled by its
    own factors.

    A real state with real nu goes through `rfftn`/`irfftn` and the half
    axis's wavenumbers, Nyquist column included; the symbol is even in k,
    so this equals the full complex transform's real part up to round-off.
    Complex states, or complex nu, use the full complex transform. Either
    way the multiplier is applied axis by axis to the spectrum in place (see
    the module docstring); it equals the full-grid multiplier up to the
    rounding of tau*lambda.

    For real nu > 0 a negative tau grows every mode without bound, so it is
    rejected unless allow_backward is set (the negative-coefficient scheme
    needs it, and accepts the consequences).
    """
    stacked = isinstance(nu, tuple)
    nus = [complex(c) for c in (nu if stacked else (nu,))]
    if tau < 0 and not allow_backward and any(c.real > 0 and c.imag == 0 for c in nus):
        raise ValueError("backward step with dissipative nu requires allow_backward")
    shape = (len(nus),) + grid.shape if stacked else grid.shape
    if np.shape(values) != shape:
        raise ValueError(f"state shape {np.shape(values)} does not match grid {grid.shape}"
                         + (f" with {len(nus)} components" if stacked else ""))
    # scipy.fft spends about 5 us on an explicit axes argument, a sixth of
    # a 64^2 real transform, so a single state transforms all its axes
    axes = (-2, -1) if stacked else None
    if np.isrealobj(values) and all(c.imag == 0 for c in nus):
        spec = _fft.rfftn(values, axes=axes)
        for part, c in zip(spec if stacked else (spec,), nus):
            _scale_by_axes(part, -tau * c.real, grid._k2, grid._k2_half)
        return _inverse_real(spec, values.shape[-1])
    spec = _fft.fftn(values, axes=axes)
    for part, c in zip(spec if stacked else (spec,), nus):
        _scale_by_axes(part, -tau * c, grid._k2, grid._k2)
    return _fft.ifftn(spec, axes=axes, overwrite_x=True)


# ---------------------------------------------------------------------------
# serialization: flat little-endian binary + JSON sidecar

def save_field(basepath: str, grid: SpectralGrid, values: np.ndarray) -> None:
    """Write <basepath>.bin (LE float64, re/im interleaved when complex) and
    <basepath>.json with {dim, n, length, scalar_kind}; the kind is that of
    the values' dtype."""
    kind = "complex" if np.iscomplexobj(values) else "real"
    flat = np.ascontiguousarray(values, dtype="<c16" if kind == "complex" else "<f8")
    with open(basepath + ".bin", "wb") as fh:
        fh.write(flat.tobytes())
    sidecar = {"dim": 2, "n": grid.n, "length": grid.length, "scalar_kind": kind}
    with open(basepath + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")


def load_field(basepath: str) -> tuple[SpectralGrid, np.ndarray]:
    """(grid, values) of a state `save_field` wrote. The files come from
    outside the program, so a sidecar that names no 2-D grid or no known
    kind, or a .bin whose length does not fit them, raises ValueError."""
    with open(basepath + ".json") as fh:
        meta = json.load(fh)
    if meta["dim"] != 2:
        raise ValueError(f"dim must be 2, got {meta['dim']}")
    grid = SpectralGrid(meta["n"], meta["length"])
    kind = meta["scalar_kind"]
    if kind not in ("real", "complex"):
        raise ValueError(f"bad scalar_kind {kind!r} in {basepath}.json")
    expected = 8 * grid.n**2 * (2 if kind == "complex" else 1)
    size = os.path.getsize(basepath + ".bin")
    if size != expected:
        raise ValueError(f"{basepath}.bin holds {size} bytes, "
                         f"expected {expected} for a {kind} {grid.n}x{grid.n} state")
    raw = np.fromfile(basepath + ".bin", dtype="<f8")
    # the interleaved pairs are complex128's own layout, so a view keeps
    # every bit, signed zeros and NaN payloads included
    values = raw.view("<c16") if kind == "complex" else raw
    return grid, values.reshape(grid.shape)
