"""Periodic uniform grids, Fourier transforms, and the exact linear propagator.

The linear half of every model here is u_t = nu * Laplacian(u) on a periodic
box, solved exactly in Fourier space: each coefficient is multiplied by
exp(-tau * nu * lambda) where lambda = (2*pi*p/L)**2 + (2*pi*q/L)**2.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft


class SpectralGrid:
    """Uniform periodic grid on [0, L)^dim with precomputed Fourier symbols.

    Wavenumber layout per axis follows the standard FFT order
    0, 1, ..., N/2-1, -N/2, -N/2+1, ..., -1 (the Nyquist slot holds -N/2).
    The Laplacian symbol treats Nyquist like any other mode; the first
    derivative multiplier zeroes it (odd operator on an even grid).

    Real states use the half spectrum of `rfftn`, whose last axis holds
    wavenumbers 0, 1, ..., N/2 with the Nyquist column last at +N/2. The
    Laplacian symbol is even in k, so its half-spectrum copy is the full one
    restricted to those columns. The squared-gradient symbol used by
    `grad_sq_integral` zeroes each derivative's Nyquist mode, as `gradient`
    does, and weights the interior columns 1..N/2-1 by 2 because each stands
    for itself and its conjugate partner; columns 0 and N/2 count once.

    The Laplacian symbol is kx^2 + ky^2, so the propagator keeps only the
    1-D squared wavenumbers: `_k2` along a full axis and `_k2_half` along
    the half axis of `rfftn`. `laplacian_symbols` is the full symbol on the
    grid, for the diagnostics that need it; it is built on first use.
    """

    def __init__(self, dim: int, n_per_axis: int, length: float):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if n_per_axis < 2 or n_per_axis % 2 != 0:
            raise ValueError(f"n_per_axis must be even and >= 2, got {n_per_axis}")
        if not (length > 0):
            raise ValueError(f"length must be positive, got {length}")
        self.dim = dim
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
        if dim == 1:
            self._deriv = (1j * kd,)
            self._grad_sq_half = weight * khd**2
        else:
            self._deriv = (1j * kd[:, None], 1j * kd[None, :])
            self._grad_sq_half = weight[None, :] * ((kd**2)[:, None] + (khd**2)[None, :])

    @property
    def shape(self):
        return (self.n,) * self.dim

    @cached_property
    def laplacian_symbols(self):
        if self.dim == 1:
            return self._k2
        return self._k2[:, None] + self._k2[None, :]

    def axis_points(self) -> np.ndarray:
        """Nodes of one axis, starting at 0."""
        return self.h * np.arange(self.n)

    def nodes(self):
        """Meshgrid of node coordinates, ij indexing, origin at 0."""
        x = self.axis_points()
        if self.dim == 1:
            return (x,)
        return np.meshgrid(x, x, indexing="ij")

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Unnormalized forward DFT."""
        return _fft.fftn(values)

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse DFT carrying the 1/N^dim factor."""
        return _fft.ifftn(spectrum)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Rectangle rule h^dim * sum, spectrally accurate for periodic data."""
        return self.h**self.dim * values.sum()

    def gradient(self, values: np.ndarray):
        """Spectral first derivatives along each axis, Nyquist zeroed."""
        spec = self.forward(values)
        out = []
        for mult in self._deriv:
            g = self.inverse(mult * spec)
            out.append(g.real if np.isrealobj(values) else g)
        return tuple(out)

    def grad_sq_integral(self, values: np.ndarray) -> float:
        """Integral of |grad u|^2 for a real state, by Parseval from one real
        transform; equal to integrating the squares of `gradient` up to
        round-off. The power spectrum is built in one buffer beside the
        spectrum, whose imaginary part is squared in place."""
        spec = _fft.rfftn(values)
        np.square(spec.imag, out=spec.imag)
        power = np.square(spec.real)
        power += spec.imag
        power *= self._grad_sq_half
        return float(np.sum(power)) * (self.h / self.n) ** self.dim

    def __eq__(self, other):
        return (
            isinstance(other, SpectralGrid)
            and self.dim == other.dim
            and self.n == other.n
            and self.length == other.length
        )

    def __repr__(self):
        return f"SpectralGrid(dim={self.dim}, n={self.n}, length={self.length})"


def make_grid(dim: int, n_per_axis: int, length: float) -> SpectralGrid:
    return SpectralGrid(dim, n_per_axis, length)


@dataclass
class Field:
    """A state with its grid, as `save_field` writes and `load_field` reads it."""
    grid: SpectralGrid
    values: np.ndarray
    scalar_kind: str = "real"  # "real" | "complex"

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.scalar_kind not in ("real", "complex"):
            raise ValueError(f"bad scalar_kind {self.scalar_kind!r}")


def laplacian_symbol(grid: SpectralGrid, index) -> float:
    """Symbol lambda at a signed wavenumber multi-index.

    Valid single-axis indices run from -N/2 to N/2-1.
    """
    if grid.dim == 1 and isinstance(index, int):
        index = (index,)
    index = tuple(index)
    if len(index) != grid.dim:
        raise ValueError(f"index {index} has wrong dimension for {grid}")
    half = grid.n // 2
    for p in index:
        if not (-half <= p <= half - 1):
            raise ValueError(f"wavenumber {p} out of range [-{half}, {half - 1}]")
    return float(sum((2.0 * math.pi * p / grid.length) ** 2 for p in index))


def _scale_by_axes(spec: np.ndarray, c: complex, k2_first: np.ndarray,
                   k2_last: np.ndarray) -> None:
    """spec *= exp(c * lambda) in place, one 1-D factor per axis."""
    if spec.ndim == 2:
        spec *= np.exp(c * k2_first)[:, None]
    spec *= np.exp(c * k2_last)


def _inverse_real(spec: np.ndarray, n_last: int, dim: int) -> np.ndarray:
    """`irfftn` over the last `dim` axes of a half spectrum, bit-identical to
    it, without the full copy of the spectrum `irfftn` makes internally on a
    2-D grid: the unscaled inverse along the first grid axis overwrites
    spec, the unscaled real inverse along the last axis makes the output,
    and that is then scaled by 1/N^d rounded from long double, as pocketfft
    rounds it. Axes before the last `dim` index separate transforms."""
    if dim == 2:
        spec = _fft.ifftn(spec, axes=(-2,), norm="forward", overwrite_x=True)
    out = _fft.irfftn(spec, s=(n_last,), axes=(-1,), norm="forward")
    out *= float(np.longdouble(1) / np.longdouble(n_last**dim))
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
    axes = tuple(range(-grid.dim, 0)) if stacked else None
    if np.isrealobj(values) and all(c.imag == 0 for c in nus):
        spec = _fft.rfftn(values, axes=axes)
        for part, c in zip(spec if stacked else (spec,), nus):
            _scale_by_axes(part, -tau * c.real, grid._k2, grid._k2_half)
        return _inverse_real(spec, values.shape[-1], grid.dim)
    spec = _fft.fftn(values, axes=axes)
    for part, c in zip(spec if stacked else (spec,), nus):
        _scale_by_axes(part, -tau * c, grid._k2, grid._k2)
    return _fft.ifftn(spec, axes=axes, overwrite_x=True)


# ---------------------------------------------------------------------------
# serialization: flat little-endian binary + JSON sidecar, and CSV export

def save_field(field: Field, basepath: str) -> None:
    """Write <basepath>.bin (LE float64, re/im interleaved when complex) and
    <basepath>.json with {dim, n, length, scalar_kind}."""
    v = field.values
    if field.scalar_kind == "complex":
        flat = np.empty(2 * v.size, dtype="<f8")
        flat[0::2] = v.ravel().real
        flat[1::2] = v.ravel().imag
    else:
        flat = np.ascontiguousarray(v.ravel().real, dtype="<f8")
    with open(basepath + ".bin", "wb") as fh:
        fh.write(flat.tobytes())
    sidecar = {
        "dim": field.grid.dim,
        "n": field.grid.n,
        "length": field.grid.length,
        "scalar_kind": field.scalar_kind,
    }
    with open(basepath + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")


def load_field(basepath: str) -> Field:
    with open(basepath + ".json") as fh:
        meta = json.load(fh)
    grid = make_grid(meta["dim"], meta["n"], meta["length"])
    raw = np.fromfile(basepath + ".bin", dtype="<f8")
    if meta["scalar_kind"] == "complex":
        values = (raw[0::2] + 1j * raw[1::2]).reshape(grid.shape)
    else:
        values = raw.reshape(grid.shape)
    return Field(grid, values, meta["scalar_kind"])


def field_to_csv(field: Field, path: str) -> None:
    """Node table for plotting: x[,y] columns then value (re/im for complex)."""
    coords = field.grid.nodes()
    cols = [c.ravel() for c in coords]
    names = ["x", "y"][: field.grid.dim]
    v = field.values.ravel()
    if field.scalar_kind == "complex":
        names += ["value_re", "value_im"]
        cols += [v.real, v.imag]
    else:
        names += ["value"]
        cols += [v.real]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
