import json
import math

import numpy as np
import pytest
from scipy import fft as sfft

from mpesplit import harness
from mpesplit.grid import (
    SpectralGrid,
    _fft2,
    _ifft2,
    _inverse_real,
    _rfft2,
    linear_propagate,
    load_field,
    save_field,
)
from reference_spectral import (
    gradient,
    interleaved,
    inverse_real,
    nodes,
    propagate_each_component,
    propagate_full,
    propagate_one,
)

# grid sizes that appear in the model registry
CATALOG_SIZES = [1024, 400, 256, 512]


def square(n):
    """The test id of an n x n grid."""
    return f"2-{n}"


def nan_canonical(values):
    """The bytes of values with each NaN, in the real and the imaginary part
    on its own, replaced by `np.nan`: IEEE 754 fixes neither the sign nor
    the payload of a NaN an operation returns. Every other bit is kept, so
    on values without NaN these are their own bytes."""
    out = np.array(values)
    for part in (out.real, out.imag) if np.iscomplexobj(out) else (out,):
        part[np.isnan(part)] = np.nan
    return out.tobytes()


def rand_field(grid, rng, complex_=False):
    v = rng.standard_normal(grid.shape)
    if complex_:
        v = v + 1j * rng.standard_normal(grid.shape)
    return v


class TestConstruction:
    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            SpectralGrid(127, 2 * math.pi)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            SpectralGrid(16, 0.0)
        with pytest.raises(ValueError):
            SpectralGrid(16, -1.0)

    def test_smallest_even_grid(self):
        g = SpectralGrid(2, 2 * math.pi)
        lam = g.laplacian_symbols
        assert lam[0, 0] == 0.0
        # the only other slot per axis is the Nyquist mode at |p| = 1
        assert lam[1, 0] == lam[0, 1] == pytest.approx(1.0)
        assert lam[1, 1] == pytest.approx(2.0)

    def test_spacing(self):
        g = SpectralGrid(256, 2.0)
        assert g.h == pytest.approx(2.0 / 256)


class TestLaplacianSymbol:
    """`laplacian_symbols` at signed wavenumbers: the FFT order puts p and
    p - N in the same slot, so a negative index reads its own mode."""

    def test_zero_mode(self):
        g = SpectralGrid(64, 2 * math.pi)
        assert g.laplacian_symbols[0, 0] == 0.0

    def test_unit_mode_on_2pi(self):
        g = SpectralGrid(64, 2 * math.pi)
        assert g.laplacian_symbols[1, 0] == pytest.approx(1.0)

    def test_mixed_mode_on_16pi(self):
        # independent scalar evaluation of (2 p pi / L)^2 + (2 q pi / L)^2
        L = 16 * math.pi
        expected = (2 * 3 * math.pi / L) ** 2 + (2 * 4 * math.pi / L) ** 2
        assert expected == pytest.approx(25.0 / 64.0)
        g = SpectralGrid(128, L)
        assert g.laplacian_symbols[3, 4] == pytest.approx(25.0 / 64.0, rel=1e-14)

    def test_negative_indices(self):
        g = SpectralGrid(64, 2 * math.pi)
        assert g.laplacian_symbols[-3, 2] == pytest.approx(13.0)
        # the Nyquist slot holds -N/2
        assert g.laplacian_symbols[-32, 0] == g.laplacian_symbols[32, 0] == pytest.approx(1024.0)

    def test_out_of_range(self):
        g = SpectralGrid(64, 2 * math.pi)
        assert g.laplacian_symbols.shape == (64, 64)
        with pytest.raises(IndexError):
            g.laplacian_symbols[64, 0]
        with pytest.raises(IndexError):
            g.laplacian_symbols[0, -65]


class TestTransforms:
    @pytest.mark.parametrize("n", CATALOG_SIZES)
    def test_roundtrip_real(self, n):
        g = SpectralGrid(n, 2 * math.pi)
        rng = np.random.default_rng(1)
        u = rand_field(g, rng)
        back = np.fft.ifftn(g.forward(u)).real
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))

    def test_roundtrip_complex(self):
        g = SpectralGrid(256, 2.0)
        rng = np.random.default_rng(2)
        u = rand_field(g, rng, complex_=True)
        back = np.fft.ifftn(g.forward(u))
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))

    def test_integrate_constant(self):
        g = SpectralGrid(32, 2 * math.pi)
        assert g.integrate(np.ones(g.shape)) == pytest.approx(4 * math.pi ** 2)

    def test_gradient_of_sine(self):
        g = SpectralGrid(64, 2 * math.pi)
        X, Y = nodes(g)
        gx, gy = gradient(g, np.sin(X))
        assert np.max(np.abs(gx - np.cos(X))) < 1e-12
        assert np.max(np.abs(gy)) < 1e-12


class TestPropagate:
    def test_constant_unchanged(self):
        g = SpectralGrid(32, 2 * math.pi)
        u = np.full(g.shape, 1.7)
        out = linear_propagate(u, 0.3 + 0.1j, 2.0, grid=g)
        assert np.max(np.abs(out - 1.7)) < 1e-13

    def test_single_mode_heat_decay(self):
        g = SpectralGrid(64, 2 * math.pi)
        X, _ = nodes(g)
        out = linear_propagate(np.sin(X), 1.0, 0.5, grid=g)
        assert np.max(np.abs(out - math.exp(-0.5) * np.sin(X))) < 1e-13

    def test_imaginary_nu_preserves_mode_magnitudes(self):
        g = SpectralGrid(64, 2 * math.pi)
        X, Y = nodes(g)
        u = np.sin(X) * np.sin(Y) + 0j
        out = linear_propagate(u, 0.5j, 0.37, grid=g)
        before = np.abs(g.forward(u))
        after = np.abs(g.forward(out))
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(before)

    def test_semigroup(self):
        g = SpectralGrid(48, 2.0)
        rng = np.random.default_rng(3)
        u = rand_field(g, rng)
        one = linear_propagate(u, 0.04, 0.7, grid=g)
        two = linear_propagate(linear_propagate(u, 0.04, 0.3, grid=g), 0.04, 0.4, grid=g)
        assert np.max(np.abs(one - two)) <= 1e-12 * np.max(np.abs(one))

    def test_l2_contraction_real_nu(self):
        g = SpectralGrid(48, 2.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = rand_field(g, rng)
            out = linear_propagate(u, 0.01, 0.2, grid=g)
            assert np.linalg.norm(out) <= np.linalg.norm(u) * (1 + 1e-14)

    def test_real_in_real_out(self):
        g = SpectralGrid(48, 2 * math.pi)
        rng = np.random.default_rng(5)
        u = rand_field(g, rng)
        out = linear_propagate(u, 0.05, 0.3, grid=g)
        assert not np.iscomplexobj(out) or (
            np.max(np.abs(out.imag)) <= 1e-12 * np.linalg.norm(out)
        )

    def test_backward_rejected_for_dissipative_nu(self):
        g = SpectralGrid(16, 2 * math.pi)
        u = np.sin(nodes(g)[0])
        with pytest.raises(ValueError):
            linear_propagate(u, 1.0, -0.1, grid=g)
        # explicitly allowed for the backward-substep schemes
        out = linear_propagate(u, 1.0, -0.1, grid=g, allow_backward=True)
        assert np.max(np.abs(out)) > np.max(np.abs(u))

    def test_backward_fine_for_unitary_nu(self):
        g = SpectralGrid(16, 2 * math.pi)
        u = np.sin(nodes(g)[0]) + 0j
        out = linear_propagate(u, 1j, -0.1, grid=g)
        assert np.max(np.abs(out)) == pytest.approx(np.max(np.abs(u)), rel=1e-12)

    def test_field_wrapper_and_grid_mismatch(self):
        g = SpectralGrid(16, 2 * math.pi)
        other = SpectralGrid(32, 2 * math.pi)
        with pytest.raises(ValueError):
            linear_propagate(np.zeros(other.shape), 1.0, 0.1, grid=g)
        # shapes that broadcast against the grid's factors are rejected too
        for state in (np.zeros(16), np.zeros((1, 16, 16)), np.zeros(16, dtype=complex),
                      np.zeros((1, 16, 16), dtype=complex)):
            with pytest.raises(ValueError, match="shape"):
                linear_propagate(state, 1.0, 0.1, grid=g)
            with pytest.raises(ValueError, match="shape"):
                linear_propagate(state, 1j, 0.1, grid=g)


class TestHalfSpectrum:
    """The real-state fast paths against the full complex transform."""

    @pytest.mark.parametrize("n", [2, 48, 256], ids=square)
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_propagator_matches_complex_path(self, n, direction):
        g = SpectralGrid(n, 2.0)
        nu = 0.04
        # backward steps are allowed up to a growth of e in the stiffest mode
        tau = 0.3 if direction > 0 else -1.0 / (nu * np.max(g.laplacian_symbols))
        rng = np.random.default_rng(8)
        for _ in range(3):
            u = rand_field(g, rng)
            fast = linear_propagate(u, nu, tau, grid=g, allow_backward=True)
            ref = linear_propagate(u + 0j, nu, tau, grid=g, allow_backward=True)
            assert fast.dtype == np.float64 and fast.shape == u.shape
            assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("n", [4, 48, 256], ids=square)
    def test_grad_sq_integral_matches_gradient(self, n):
        g = SpectralGrid(n, 2.0)
        rng = np.random.default_rng(9)
        for _ in range(3):
            u = rand_field(g, rng)
            ref = g.integrate(sum(d**2 for d in gradient(g, u)))
            assert g.grad_sq_integral(u) == pytest.approx(ref, rel=1e-12)

    def test_grad_sq_integral_keeps_nyquist_zeroed(self):
        # the Nyquist mode has no first derivative on an even grid
        g = SpectralGrid(16, 2 * math.pi)
        X, Y = nodes(g)
        assert g.grad_sq_integral(np.cos(8 * X) + np.cos(8 * Y)) < 1e-24
        # but counts through the other axis's derivative: d/dx of cos(x) cos(8y),
        # where cos(8y) is +-1 on the nodes
        u = np.cos(X) * np.cos(8 * Y)
        assert g.grad_sq_integral(u) == pytest.approx(2 * math.pi**2, rel=1e-13)
        gx, gy = gradient(g, u)
        assert g.integrate(gx**2 + gy**2) == pytest.approx(2 * math.pi**2, rel=1e-13)


class TestSeparableMultiplier:
    """The propagator's axis-by-axis, in-place multiplier against the
    multiplier built on the whole grid and the full complex transform."""

    @pytest.mark.parametrize("n", [2, 48, 256], ids=square)
    @pytest.mark.parametrize("complex_state,nu", [
        (False, 0.04), (True, 0.04), (True, 0.5j), (False, 0.5j), (False, 0.04 + 0.5j),
    ])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_matches_full_multiplier(self, n, complex_state, nu, direction):
        g = SpectralGrid(n, 2.0)
        # a phase of 20 rad forward, a growth of at most e backward, in the
        # stiffest mode, so the rounding of tau*lambda stays far below 1e-12
        scale = abs(nu) * np.max(g.laplacian_symbols)
        tau = 20.0 / scale if direction > 0 else -1.0 / scale
        rng = np.random.default_rng(11)
        for _ in range(3):
            u = rand_field(g, rng, complex_state)
            before = u.copy()
            out = linear_propagate(u, nu, tau, grid=g, allow_backward=True)
            ref = propagate_full(u, nu, tau, g)
            assert np.array_equal(u, before)  # the caller's state is never written
            assert out.shape == u.shape and out.dtype == ref.dtype
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFftLayer:
    """Each transform of the grid's FFT layer against the `scipy.fft` n-D
    call it stands for, over the last two axes of a single and of a stacked
    array: byte for byte on finite values, signed zeros included, and after
    `nan_canonical` where the input holds NaN and inf."""

    @staticmethod
    def inputs(kind, shape, rng):
        """A real array, a complex one, and a half spectrum of it."""
        if kind == "signed_zeros":
            real = np.full(shape, -0.0)
            full = np.full(shape, complex(-0.0, -0.0))
        else:
            real = rng.standard_normal(shape)
            full = real + 1j * rng.standard_normal(shape)
        half = full[..., :shape[-1] // 2 + 1].copy()
        if kind == "nonfinite":
            for a in (real, full, half):
                a.flat[1], a.flat[2], a.flat[-1] = np.nan, -np.nan, np.inf
            for a in (full, half):
                a.imag.flat[3], a.real.flat[-2] = np.nan, -np.inf
        return real, full, half

    @pytest.mark.parametrize("n", [2, 6, 48, 250, 400, 1024], ids=square)
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stacked"])
    @pytest.mark.parametrize("kind", ["finite", "signed_zeros", "nonfinite"])
    def test_matches_scipy(self, n, lead, kind):
        real, full, half = self.inputs(kind, lead + (n, n), np.random.default_rng(n))
        before = real.tobytes(), full.tobytes()
        with np.errstate(all="ignore"):
            cases = self.cases(real, full, half)
        assert (real.tobytes(), full.tobytes()) == before
        for name, (out, ref) in cases.items():
            assert out.shape == ref.shape and out.dtype == ref.dtype, name
            if kind == "nonfinite":
                assert nan_canonical(out) == nan_canonical(ref), name
            else:
                assert out.tobytes() == ref.tobytes(), name

    @staticmethod
    def cases(real, full, half):
        """Each transform of the layer beside the scipy call it stands for."""
        n, axes = real.shape[-1], (-2, -1)
        return {
            "rfftn": (_rfft2(real), sfft.rfftn(real, axes=axes)),
            "fftn": (_fft2(full), sfft.fftn(full, axes=axes)),
            "fftn of real": (_fft2(real),
                             sfft.fftn(real.astype(np.result_type(real, 1j)), axes=axes)),
            "ifftn": (_ifft2(full.copy()), sfft.ifftn(full, axes=axes)),
            "irfftn": (_inverse_real(half.copy(), n), sfft.irfftn(half, s=(n, n), axes=axes)),
        }

    @pytest.mark.parametrize("n", [2, 6, 48], ids=square)
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "stacked"])
    def test_single_precision(self, n, lead):
        # numpy's float32 passes round apart from scipy's, so this pins the
        # dtype and float32 accuracy, not bytes
        real, full, half = self.inputs("finite", lead + (n, n), np.random.default_rng(n))
        real = real.astype(np.float32)
        full, half = full.astype(np.complex64), half.astype(np.complex64)
        for name, (out, ref) in self.cases(real, full, half).items():
            assert out.shape == ref.shape and out.dtype == ref.dtype, name
            assert np.max(np.abs(out - ref)) <= 1e-6 * np.max(np.abs(ref)), name

    def test_inverses_spend_their_input(self):
        rng = np.random.default_rng(3)
        spec = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
        assert _ifft2(spec) is spec


class TestInverseReal:
    """The propagator's axis-by-axis inverse real transform against one
    `irfftn` call, byte for byte after `nan_canonical`: the spectrum holds a
    NaN and an inf."""

    @pytest.mark.parametrize("n", [2, 6, 48, 250, 400, 1024], ids=square)
    def test_bit_identical_to_irfftn(self, n):
        rng = np.random.default_rng(n)
        shape = (n, n // 2 + 1)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec.flat[1] = np.nan
        spec.flat[-1] = np.inf
        ref = inverse_real(spec, n)
        out = _inverse_real(spec.copy(), n)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert nan_canonical(out) == nan_canonical(ref)


class TestStackedComponents:
    """Components stacked on a leading axis, one nu each, in one transform,
    against one `linear_propagate` call per component, byte for byte."""

    # the backward step grows the stiffest mode by at most e^65, so every
    # value stays finite; NaN and inf carry no byte-level promise
    @pytest.mark.parametrize("n", [16, 64, 128, 256], ids=square)
    @pytest.mark.parametrize("tau", [1e-3, -1e-3])
    def test_bit_identical_to_one_call_each(self, n, tau):
        g = SpectralGrid(n, 2.0)
        rng = np.random.default_rng(n)
        nus = (0.2, 0.1)
        state = rng.uniform(0.5, 2.5, (2,) + g.shape)
        before = state.copy()
        out = linear_propagate(state, nus, tau, g, allow_backward=True)
        ref = propagate_each_component(state, nus, tau, g)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out[0].tobytes() == ref[0].tobytes() and out[1].tobytes() == ref[1].tobytes()
        assert np.array_equal(state, before)

    @pytest.mark.parametrize("n", [16, 128, 1024], ids=square)
    @pytest.mark.parametrize("complex_state,nu", [
        (False, 0.2), (True, 0.2), (True, 0.5j), (False, 0.3 + 0.1j),
    ])
    def test_one_coefficient_is_one_component(self, n, complex_state, nu):
        # a scalar nu runs as a stack of one component; its bytes are those
        # of the state in its own transform, non-finite values included, up
        # to the sign and payload of NaNs
        g = SpectralGrid(n, 2.0)
        rng = np.random.default_rng(n)
        u = rand_field(g, rng, complex_state)
        bad = u.copy()
        bad.flat[3], bad.flat[5], bad.flat[7] = np.nan, -np.nan, np.inf
        with np.errstate(all="ignore"):
            for state in (u, bad):
                for tau in (1e-3, -1e-3):
                    out = linear_propagate(state, nu, tau, g, allow_backward=True)
                    ref = propagate_one(state, nu, tau, g)
                    assert out.shape == ref.shape and out.dtype == ref.dtype
                    assert nan_canonical(out) == nan_canonical(ref)

    def test_complex_components(self):
        g = SpectralGrid(32, 2.0)
        rng = np.random.default_rng(6)
        state = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
        for nus in ((0.2, 0.5j, 0.1), (0.2, 0.3, 0.1)):
            out = linear_propagate(state, nus, -0.1, g, allow_backward=True)
            assert out.tobytes() == propagate_each_component(state, nus, -0.1, g).tobytes()

    def test_backward_and_shape_checked(self):
        g = SpectralGrid(16, 2.0)
        state = np.ones((2,) + g.shape)
        with pytest.raises(ValueError, match="allow_backward"):
            linear_propagate(state, (0.2, 0.1), -0.1, g)
        with pytest.raises(ValueError, match="shape"):
            linear_propagate(state, (0.2, 0.1, 0.3), 0.1, g)
        with pytest.raises(ValueError, match="shape"):
            linear_propagate(state[0], (0.2,), 0.1, g)


class TestLaplacianSymbols:
    def test_built_on_first_use(self):
        g = SpectralGrid(16, 2 * math.pi)
        assert "laplacian_symbols" not in vars(g)
        lam = g.laplacian_symbols
        expected = g._k2[:, None] + g._k2[None, :]
        assert lam.shape == g.shape and np.array_equal(lam, expected)
        assert g.laplacian_symbols is lam

    def test_ac_run_never_builds_it(self, monkeypatch):
        built = []
        monkeypatch.setattr(SpectralGrid, "laplacian_symbols",
                            property(lambda g: built.append(g) or g._k2[:, None] + g._k2[None, :]))
        harness.run(harness.RunConfig(model="ac", scheme="s4_4", nx=16, tau=0.1, t_final=0.2))
        assert built == []
        # the NLS energy does read it, so the probe sees a use when there is one
        harness.run(harness.RunConfig(model="nls_linear", nx=16, tau=0.1, t_final=0.1))
        assert built


class TestSerialization:
    """State files: written from a bare array, the kind taken from its dtype,
    and read back as (grid, values), bit for bit."""

    SPECIAL = [-0.0, np.nan, np.inf, -np.inf]

    def test_roundtrip_real(self, tmp_path):
        g = SpectralGrid(16, 2.0)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(g.shape)
        v.flat[:4] = self.SPECIAL
        base = str(tmp_path / "state")
        save_field(base, g, v)
        back_grid, back = load_field(base)
        assert back_grid == g
        assert back.dtype == np.float64 and back.shape == g.shape
        assert back.tobytes() == v.tobytes()
        assert json.loads((tmp_path / "state.json").read_text())["scalar_kind"] == "real"

    def test_roundtrip_complex(self, tmp_path):
        g = SpectralGrid(32, 6.0)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        # signed zeros, NaN and infinities in both parts, each also beside
        # a finite value in the other part
        v.real.flat[:4] = self.SPECIAL
        v.imag.flat[2:6] = self.SPECIAL
        base = str(tmp_path / "state")
        save_field(base, g, v)
        back_grid, back = load_field(base)
        assert back_grid == g
        assert back.dtype == np.complex128 and back.shape == g.shape
        assert back.tobytes() == v.tobytes()
        assert json.loads((tmp_path / "state.json").read_text())["scalar_kind"] == "complex"

    def test_sidecar_contents(self, tmp_path):
        g = SpectralGrid(16, 2.0)
        base = str(tmp_path / "state")
        save_field(base, g, np.zeros(g.shape))
        doc = json.loads((tmp_path / "state.json").read_text())
        assert doc == {"dim": 2, "n": 16, "length": 2.0, "scalar_kind": "real"}

    def test_binary_is_little_endian_f64(self, tmp_path):
        g = SpectralGrid(2, 1.0)
        vals = np.array([[1.0, -2.0], [3.5, 0.25]])
        save_field(str(tmp_path / "s"), g, vals)
        raw = np.frombuffer((tmp_path / "s.bin").read_bytes(), dtype="<f8")
        assert np.array_equal(raw, vals.ravel())
        save_field(str(tmp_path / "c"), g, vals * (1 + 2j))
        raw = np.frombuffer((tmp_path / "c.bin").read_bytes(), dtype="<f8")
        assert np.array_equal(raw[0::2], vals.ravel()) and np.array_equal(raw[1::2], 2 * vals.ravel())

    def test_complex_bytes_are_interleaved_parts(self, tmp_path):
        # the state written as complex128 against its real and imaginary
        # parts copied into alternate slots, with signed zeros, infinities,
        # quiet and signalling NaNs carrying payloads, and subnormals set
        # bit by bit in both parts
        g = SpectralGrid(8, 1.0)
        bits = np.random.default_rng(12).standard_normal(2 * g.n**2).view(np.uint64)
        special = [0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                   0xFFF0000000000000, 0x7FF8000000000001, 0xFFF80000DEADBEEF,
                   0x7FF4000000000000, 0xFFF0000000000ABC, 0x0000000000000001,
                   0x800FFFFFFFFFFFFF]
        bits[:len(special)] = special  # in pairs: real, imaginary, real, ...
        bits[41:41 + len(special)] = special  # each value in the other part too
        v = bits.view("<c16").reshape(g.shape)
        save_field(str(tmp_path / "c"), g, v)
        assert (tmp_path / "c.bin").read_bytes() == interleaved(v)
        assert load_field(str(tmp_path / "c"))[1].tobytes() == v.tobytes()

    @pytest.mark.parametrize("change,match", [
        (dict(dim=1), "dim must be 2"),
        (dict(scalar_kind="quaternion"), "scalar_kind"),
        (dict(scalar_kind="complex"), "expected 4096"),
        (dict(n=8), "expected 512"),
    ])
    def test_load_rejects_bad_sidecar(self, tmp_path, change, match):
        g = SpectralGrid(16, 2.0)
        base = str(tmp_path / "state")
        save_field(base, g, np.zeros(g.shape))
        doc = json.loads((tmp_path / "state.json").read_text())
        (tmp_path / "state.json").write_text(json.dumps({**doc, **change}))
        with pytest.raises(ValueError, match=match):
            load_field(base)

    @pytest.mark.parametrize("complex_state", [False, True])
    def test_load_rejects_wrong_length(self, tmp_path, complex_state):
        g = SpectralGrid(16, 2.0)
        base = str(tmp_path / "state")
        save_field(base, g, np.zeros(g.shape, dtype=complex if complex_state else float))
        raw = (tmp_path / "state.bin").read_bytes()
        # whole values missing or extra, and a partial one
        for cut in (raw[:-8], raw + raw[:8], b"", raw[:-1], raw + b"\0"):
            (tmp_path / "state.bin").write_bytes(cut)
            with pytest.raises(ValueError, match="bytes, expected"):
                load_field(base)
