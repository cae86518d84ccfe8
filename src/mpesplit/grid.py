"""Periodic uniform 2-D grids, Fourier transforms, the exact linear
propagator, and the files a state is saved in.

The linear half of every model here is u_t = nu * Laplacian(u) on a periodic
square box, solved exactly in Fourier space: each coefficient is multiplied
by exp(-tau * nu * lambda) where lambda = (2*pi*p/L)**2 + (2*pi*q/L)**2.

The symbol is a sum over axes, so the multiplier is the outer product of
one 1-D exponential per axis. `linear_propagate` never builds it on the
grid: it scales the fresh spectrum in place by each axis's factor, so a
step size that never repeats costs exponentials of 1-D arrays and not of
the whole grid, and then inverts that spectrum, its own temporary, in
place. The state it is given is never written. A system's components,
stacked along a leading axis with one coefficient each, go through one
transform over the grid's axes, each component's spectrum scaled by its
own factors.

`linear_propagate` is two pieces, which a caller can also run apart:
`forward_spectrum` transforms a state, and `propagate_spectrum` scales and
inverts that spectrum for one step size, spending it. The terms of a
splitting step that all start from one state with a linear substep share
one forward transform this way, each scaling a copy of the spectrum but
the last (see `schemes`).

The transforms are numpy's 1-D pocketfft passes, called in the order and
with the scaling of `scipy.fft`'s n-D transforms (see "the FFT layer"
below), so they give scipy's bytes without importing scipy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
        return _fft2(values)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Rectangle rule h^2 * sum, spectrally accurate for periodic data."""
        return self.h**2 * values.sum()

    def grad_sq_integral(self, values: np.ndarray) -> float:
        """Integral of |grad u|^2 for a real state, by Parseval from one real
        transform; equal to integrating the squares of the spectral first
        derivatives, Nyquist zeroed, up to round-off. The power spectrum is
        built in one buffer beside the spectrum, whose imaginary part is
        squared in place."""
        spec = _rfft2(values)
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


# ---------------------------------------------------------------------------
# the FFT layer
#
# Every transform is over the last two axes; axes before them index separate
# transforms. Each is numpy's 1-D passes in the order and with the scaling
# of the matching `scipy.fft` n-D call, which runs the same pocketfft, so on
# finite values the bytes are scipy's:
#   `_rfft2`  = rfftn: the real pass along the last axis, then the complex
#               pass along the first grid axis, in place;
#   `_fft2`   = fftn: the first grid axis, then the last. numpy's own `fftn`
#               runs the last axis first and rounds differently. A real
#               input is taken as complex, so its bytes are those of
#               scipy's transform of the input converted to complex;
#   `_ifft2`  = ifftn: the unscaled inverse along the first grid axis, a
#               scaling by 1/N^2 rounded from long double, then the unscaled
#               inverse along the last axis, all in place;
#   `_inverse_real` = irfftn: the unscaled inverse along the first grid
#               axis in place, the unscaled real inverse along the last, then
#               the same scaling.
# Where a value is NaN the sign and payload of the NaNs that come out may
# differ from scipy's, since IEEE 754 does not fix them; every other bit,
# infinities and signed zeros included, is the same. This holds in double
# precision, which every state of a run is; numpy's single-precision passes
# keep the dtype but round apart from scipy's.


def _inverse_scale(points: int) -> float:
    """1 / points, rounded from long double, as pocketfft rounds its
    normalisation factor."""
    return float(np.longdouble(1) / np.longdouble(points))


def _rfft2(values: np.ndarray) -> np.ndarray:
    """Half spectrum of a real array, as `scipy.fft.rfftn` over the last two
    axes."""
    spec = np.fft.rfft(values, axis=-1)
    return np.fft.fft(spec, axis=-2, out=spec)


def _fft2(values: np.ndarray) -> np.ndarray:
    """Full spectrum, as `scipy.fft.fftn` over the last two axes; a real
    input is taken as complex."""
    spec = np.fft.fft(values, axis=-2)
    return np.fft.fft(spec, axis=-1, out=spec)


def _ifft2(spec: np.ndarray) -> np.ndarray:
    """Inverse of a full spectrum over itself, as `scipy.fft.ifftn` over the
    last two axes with `overwrite_x`."""
    np.fft.ifft(spec, axis=-2, norm="forward", out=spec)
    # each part on its own, as pocketfft scales: a complex product would
    # add a NaN for inf * 0 and could turn a -0.0 part into +0.0
    parts = spec.view(spec.real.dtype)
    parts *= _inverse_scale(spec.shape[-2] * spec.shape[-1])
    return np.fft.ifft(spec, axis=-1, norm="forward", out=spec)


def _inverse_real(spec: np.ndarray, n_last: int) -> np.ndarray:
    """Real inverse of a half spectrum, as `scipy.fft.irfftn` over the last
    two axes with output length n_last along the last, without the full
    copy of the spectrum `irfftn` makes: the spectrum is spent, and the
    output is the only new array."""
    np.fft.ifft(spec, axis=-2, norm="forward", out=spec)
    out = np.fft.irfft(spec, n=n_last, axis=-1, norm="forward")
    out *= _inverse_scale(spec.shape[-2] * n_last)
    return out


def _scale_by_axes(spec: np.ndarray, c: complex, k2_first: np.ndarray,
                   k2_last: np.ndarray) -> None:
    """spec *= exp(c * lambda) in place, one 1-D factor per axis."""
    spec *= np.exp(c * k2_first)[:, None]
    spec *= np.exp(c * k2_last)


def _coefficients(nu) -> list:
    """nu as a list of complex coefficients, one per component."""
    return [complex(c) for c in (nu if isinstance(nu, tuple) else (nu,))]


def _check_direction(nus, tau: float, allow_backward: bool) -> None:
    """For real nu > 0 a negative tau grows every mode without bound, so it
    is rejected unless allow_backward is set (the negative-coefficient
    scheme needs it, and accepts the consequences)."""
    if tau < 0 and not allow_backward and any(c.real > 0 and c.imag == 0 for c in nus):
        raise ValueError("backward step with dissipative nu requires allow_backward")


@dataclass(frozen=True)
class Spectrum:
    """A state's forward transform, as `forward_spectrum` makes it: the half
    spectrum of `rfftn` when `half`, else the full spectrum of `fftn`."""
    values: np.ndarray
    half: bool

    def copy(self) -> Spectrum:
        return Spectrum(self.values.copy(), self.half)


def forward_spectrum(values: np.ndarray, nu, grid: SpectralGrid) -> Spectrum:
    """The forward piece of `linear_propagate`: the spectrum of a state of
    the grid's shape, over the grid's axes. A real state with real nu gets
    the half spectrum, any other state the full spectrum, a real one taken
    as complex; the state is not written."""
    stacked = isinstance(nu, tuple)
    nus = _coefficients(nu)
    shape = (len(nus),) + grid.shape if stacked else grid.shape
    if np.shape(values) != shape:
        raise ValueError(f"state shape {np.shape(values)} does not match grid {grid.shape}"
                         + (f" with {len(nus)} components" if stacked else ""))
    if np.isrealobj(values) and all(c.imag == 0 for c in nus):
        return Spectrum(_rfft2(values), True)
    return Spectrum(_fft2(values), False)


def propagate_spectrum(spectrum: Spectrum, nu, tau: float, grid: SpectralGrid,
                       allow_backward: bool = False) -> np.ndarray:
    """The scale-and-invert piece of `linear_propagate`: the propagated
    state of a spectrum `forward_spectrum` made with the same nu. The
    spectrum is scaled in place and inverted over itself, so it is spent."""
    nus = _coefficients(nu)
    _check_direction(nus, tau, allow_backward)
    stacked = isinstance(nu, tuple)
    spec = spectrum.values
    parts = spec if stacked else (spec,)
    if spectrum.half:
        for part, c in zip(parts, nus):
            _scale_by_axes(part, -tau * c.real, grid._k2, grid._k2_half)
        return _inverse_real(spec, grid.n)
    for part, c in zip(parts, nus):
        _scale_by_axes(part, -tau * c, grid._k2, grid._k2)
    return _ifft2(spec)


def linear_propagate(values: np.ndarray, nu, tau: float, grid: SpectralGrid,
                     allow_backward: bool = False) -> np.ndarray:
    """Apply exp(tau * nu * Laplacian) via the Fourier multiplier exp(-tau*nu*lambda):
    `forward_spectrum`, then `propagate_spectrum`.

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

    A backward step of a dissipative nu is refused (`_check_direction`)
    before the state's shape is checked.
    """
    _check_direction(_coefficients(nu), tau, allow_backward)
    return propagate_spectrum(forward_spectrum(values, nu, grid), nu, tau, grid, allow_backward)


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
