import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpesplit.flows import (
    FKPP_K,
    conservative_rhs,
    flow_double_well,
    flow_phase,
    flow_tanh,
    ssprk104,
    truncate_double_well,
    truncate_fkpp,
)
from mpesplit import flows, harness, models
from mpesplit.models import default_grid, flow_pair, initial_condition, make_model, potential
from reference_flows import (
    conservative_rhs_mean,
    double_well_branches,
    double_well_with_tail,
    double_well_expression,
    fkpp_branches,
    fkpp_with_tails,
    inside_window,
    phase_rotation,
    ssprk104_loop,
    tanh_branches,
)

# finite values of both signs and sizes, signed zeros, infinities and a NaN
SPECIAL_VALUES = np.array([0.5, -0.75, 1.0, -1.0, 3.0, -6.0, 1e-300, 1e155, -1e200,
                           0.0, -0.0, np.inf, -np.inf, np.nan])

# 50-digit evaluation of arcsinh(e * sinh 1), the closed tanh flow at
# v = 1, lambda = 1, tau = 1
TANH_FLOW_1_1_1 = 1.8782301658116513


class TestFlowTanh:
    def test_zero_stays_zero(self):
        v = np.zeros((4, 4))
        assert np.all(flow_tanh(v, 3.0, 2.0) == 0.0)

    def test_identity_at_tau_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((8, 8))
        assert np.max(np.abs(flow_tanh(v, 1.0, 0.0) - v)) <= 1e-15

    def test_high_precision_scalar_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        expected = float(mp.asinh(mp.e * mp.sinh(1)))
        assert expected == pytest.approx(TANH_FLOW_1_1_1, abs=1e-15)
        got = flow_tanh(np.array([1.0]), 1.0, 1.0)[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_overflow_safe_for_large_arguments(self):
        # sinh overflows beyond ~710; the log-form branch must take over.
        # arcsinh(sinh(500) e^300) = 800 + log((1 - e^-1000)/2) + log 2 -> 800
        out = flow_tanh(np.array([500.0, -500.0, 0.0]), 1.0, 300.0)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(800.0, abs=1e-9)
        assert out[1] == pytest.approx(-800.0, abs=1e-9)
        assert out[2] == 0.0

    def test_semigroup(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(-3, 3, (16, 16))
        one = flow_tanh(v, 0.7, 0.9)
        two = flow_tanh(flow_tanh(v, 0.7, 0.4), 0.7, 0.5)
        assert np.max(np.abs(one - two)) < 1e-11

    def test_matches_rk_on_tanh_ode(self):
        # the printed closed form must be the flow of u' = lambda tanh u
        rng = np.random.default_rng(2)
        v = rng.uniform(-2, 2, (8, 8))
        lam = 1.3
        rk = ssprk104(lambda u: lam * np.tanh(u), v, 0.5, substeps=64)
        assert np.max(np.abs(rk - flow_tanh(v, lam, 0.5))) < 1e-10


def _up(x):
    return np.nextafter(x, np.inf)


# float64 NaNs with payloads, both signs, quiet and signalling
_TANH_NANS = np.array([0x7FF8000000000123, 0xFFF8000000ABC000, 0x7FF4000000000001],
                      dtype=np.uint64).view(float)


def _tanh_cases():
    """(state, lam*tau): signed zeros and subnormals; values at, just inside
    and just outside 700 and the bound 29 - lam*tau; lam*tau near 700,
    negative and -inf; NaNs and infinities, alone and among window values."""
    rng = np.random.default_rng(3)
    small = rng.standard_normal(40)
    cases = []
    for lt in [0.0, -0.0, 1e-3, 0.5, -0.5, 28.9, 29.0, 29.5, 35.0, -671.0, -671.5, -1e6,
               699.0, 700.0, _up(700.0), 1e300, -np.inf, np.nan]:
        bound = min(700.0, 29.0 - lt)
        edge = [bound, -bound, _up(bound), -_up(bound), np.nextafter(bound, -np.inf)]
        cases += [(np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]), lt), (small, lt),
                  (np.array(edge[:2] + edge[4:]), lt), (np.array(edge), lt),
                  (np.array([700.0, -700.0, _up(700.0), 710.0, -1e300]), lt)]
        for special in [*_TANH_NANS, np.nan, -np.nan, np.inf, -np.inf]:
            cases += [(np.array([special]), lt), (np.append(small, special), lt)]
    return cases


class TestFlowTanhWindow:
    """flow_tanh's direct form alone, inside its window, against the three
    branches evaluated everywhere, byte for byte."""

    @pytest.mark.parametrize("split", ["lam", "tau", "negated"])
    def test_bit_identical_to_three_branches(self, split):
        for x, lt in _tanh_cases():
            lam, tau = {"lam": (lt, 1.0), "tau": (1.0, lt), "negated": (-1.0, -lt)}[split]
            assert lam * tau == lt or np.isnan(lt)
            got = flow_tanh(x, lam, tau)
            assert got.tobytes() == tanh_branches(x, lam, tau).tobytes(), (x, lt)

    def test_two_dimensional_and_scalar_states(self):
        v = np.random.default_rng(4).uniform(-3, 3, (16, 16))
        assert flow_tanh(v, 0.7, 0.9).tobytes() == tanh_branches(v, 0.7, 0.9).tobytes()
        assert flow_tanh(1.0, 1.0, 1.0).tobytes() == tanh_branches(1.0, 1.0, 1.0).tobytes()
        assert flow_tanh(np.zeros(0), 1.0, 1.0).shape == (0,)

    @pytest.mark.parametrize("x,lt,full", [
        ([28.5, -28.5], 0.5, False),
        ([_up(28.5)], 0.5, True),
        ([-_up(28.5)], 0.5, True),
        ([700.0, -700.0], -671.0, False),
        ([_up(700.0)], -1e6, True),
        ([0.0], 700.0, True),  # the bound is -671, so no state is inside
        ([0.0], _up(700.0), True),
        ([0.5, np.nan], 0.1, True),
        ([0.5, -np.inf], 0.1, True),
        ([0.5, 1e-3], -np.inf, False),
        ([0.5], np.nan, True),
    ])
    def test_window_edges(self, x, lt, full, monkeypatch):
        """Which states take the three branches: exactly those with a value
        beyond min(700, 29 - lam*tau), a NaN, or lam*tau above 700."""
        calls = []
        branches = flows._tanh_branches
        monkeypatch.setattr(flows, "_tanh_branches",
                            lambda *a: calls.append(a) or branches(*a))
        flow_tanh(np.array(x), lt, 1.0)
        assert bool(calls) == full


class TestFlowDoubleWell:
    def test_fixed_points(self):
        for val in (0.0, 1.0, -1.0):
            v = np.full((4, 4), val)
            out = flow_double_well(v, 0.8)
            assert np.max(np.abs(out - val)) < 1e-14

    def test_identity_at_tau_zero(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, (8, 8))
        assert np.array_equal(flow_double_well(v, 0.0), v)

    def test_against_rk_oracle(self):
        v = np.full((4, 4), 0.5)
        rk = ssprk104(lambda u: u - u ** 3, v, 0.3, substeps=64)
        assert np.max(np.abs(rk - flow_double_well(v, 0.3))) <= 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-1.5, 1.5, (16, 16))
        one = flow_double_well(v, 0.9)
        two = flow_double_well(flow_double_well(v, 0.5), 0.4)
        assert np.max(np.abs(one - two)) < 1e-11

    def test_lipschitz_stability_truncated(self):
        # one-sided Lipschitz bound e^{kappa tau} with kappa = 3 M^2 - 1 = 107
        rng = np.random.default_rng(5)
        kappa = 107.0
        for tau in (1e-3, 1e-2):
            for _ in range(20):
                v = rng.uniform(-2, 2, (32, 32))
                w = v + rng.normal(0, 0.05, (32, 32))
                dv = np.linalg.norm(w - v)
                dvi = np.max(np.abs(w - v))
                out = flow_double_well(w, tau) - flow_double_well(v, tau)
                assert np.linalg.norm(out) <= math.exp(kappa * tau) * dv
                assert np.max(np.abs(out)) <= math.exp(kappa * tau) * dvi

    def test_flow_minus_identity_bound(self):
        # || (E_B(tau) - I) w || <= (e^{kappa tau} - 1) ||w|| when f(0) = 0
        rng = np.random.default_rng(6)
        kappa = 107.0
        for tau in (1e-3, 1e-2):
            w = rng.uniform(-2, 2, (32, 32))
            diff = flow_double_well(w, tau) - w
            bound = (math.exp(kappa * tau) - 1) * np.max(np.abs(w))
            assert np.max(np.abs(diff)) <= bound


class TestDoubleWellBuffers:
    """The two-buffer closed double-well flow and the ac B flow's window test
    against their one-expression forms, byte for byte."""

    @pytest.mark.parametrize("tau", [0.3, -0.3, 1e-3, -1e-3, 0.0, 5.0, -5.0])
    def test_bit_identical_to_expression(self, tau):
        rng = np.random.default_rng(21)
        v = np.concatenate([SPECIAL_VALUES, rng.uniform(-2.0, 2.0, 50)]).reshape(8, 8)
        with np.errstate(divide="ignore"):
            out = flow_double_well(v, tau)
            ref = double_well_expression(v, tau)
        assert out.dtype == ref.dtype and out.shape == v.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("special", list(SPECIAL_VALUES) + [6.0, -6.0, 6.5, -6.5])
    @pytest.mark.parametrize("tau", [0.01, -0.01])
    def test_ac_window_as_max_abs(self, monkeypatch, special, tau):
        m = make_model("ac")
        g = default_grid(m, 8)
        u = np.full(g.shape, 0.25)
        u[3, 5] = special
        rk_calls = []

        def fake_rk(f, v, t, cfg=None):
            rk_calls.append(t)
            return np.zeros_like(v)

        monkeypatch.setattr(models, "ssprk104", fake_rk)
        with np.errstate(divide="ignore"):
            out = flow_pair(m, g, allow_backward=True).b_flow(tau, u)
            if inside_window(u, m.M):
                assert rk_calls == []
                assert out.tobytes() == double_well_expression(u, tau).tobytes()
            else:
                assert rk_calls == [tau]


class TestFlowPhase:
    def test_zero_stays_zero(self):
        v = np.zeros((4, 4), dtype=complex)
        omega = np.ones((4, 4))
        assert np.all(flow_phase(v, omega, -1.0, 0.7) == 0.0)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        omega = rng.standard_normal((16, 16))
        out = flow_phase(v, omega, -1.0, 0.31)
        assert np.max(np.abs(np.abs(out) - np.abs(v))) <= 1e-12 * np.max(np.abs(v))

    def test_pure_phase_value(self):
        v = np.ones((2, 2), dtype=complex)
        omega = np.zeros((2, 2))
        out = flow_phase(v, omega, -1.0, math.pi)
        # exp(i pi (0 + (-1)*1)) = -1
        assert np.max(np.abs(out - (-1.0))) < 1e-12

    def test_identity_at_tau_zero(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = flow_phase(v, np.zeros((4, 4)), -1.0, 0.0)
        assert np.array_equal(out, v)

    def test_semigroup(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        omega = rng.standard_normal((8, 8))
        one = flow_phase(v, omega, -1.0, 0.9)
        two = flow_phase(flow_phase(v, omega, -1.0, 0.4), omega, -1.0, 0.5)
        assert np.max(np.abs(one - two)) < 1e-11

    @pytest.mark.parametrize("model_id", ["nls_linear", "nls_nonlinear"])
    @pytest.mark.parametrize("tau", [0.37, -0.37, 1e-3, -25.0])
    def test_bit_identical_to_complex_exponential(self, model_id, tau):
        m = make_model(model_id)
        g = default_grid(m, 64)
        omega, rho = potential(m, g), m.params["rho"]
        rng = np.random.default_rng(12)
        noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        for v in (initial_condition(m, g), noise):
            out = flow_phase(v, omega, rho, tau)
            assert out.tobytes() == phase_rotation(v, omega, rho, tau).tobytes()


class TestSsprk104:
    def test_zero_rhs(self):
        v = np.arange(6.0)
        out = ssprk104(lambda u: np.zeros_like(u), v, 1.0)
        assert np.max(np.abs(out - v)) < 1e-15

    def test_linear_growth(self):
        v = np.ones((3,))
        out = ssprk104(lambda u: u, v, 1.0, substeps=8)
        assert abs(out[0] - math.e) <= 1e-6

    def test_substep_validation(self):
        # checked at set-up, also for toy, whose B flow never runs RK
        for model_id in ("toy", "ac", "fkpp", "rd_system"):
            with pytest.raises(ValueError, match="substeps must be >= 1"):
                harness._setup(harness.RunConfig(model=model_id, nx=16, rk_substeps=0))

    def test_fourth_order_in_substeps(self):
        # error vs the closed double-well flow decays with slope 4 in the
        # substep count
        v = np.full((4,), 0.5)
        ref = flow_double_well(v, 0.4)
        errs = []
        ladder = [1, 2, 4, 8]
        for m in ladder:
            out = ssprk104(lambda u: u - u ** 3, v, 0.4, substeps=m)
            errs.append(np.max(np.abs(out - ref)))
        slope = -np.polyfit(np.log(ladder), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)

    def test_system_shape(self):
        v = np.zeros((2, 4, 4))
        v[0] = 1.0
        v[1] = 2.0

        def f(s):
            return np.stack([s[1] - s[0], s[0] - s[1]])

        out = ssprk104(f, v, 0.1, substeps=2)
        assert out.shape == v.shape
        # mass of the pair is conserved by this rhs
        assert np.max(np.abs(out[0] + out[1] - 3.0)) < 1e-12


class TestTruncations:
    def test_double_well_middle_branch(self):
        assert truncate_double_well(0.5, 6.0) == pytest.approx(0.375)

    def test_double_well_continuity_at_knot(self):
        M = 6.0
        below = truncate_double_well(M - 1e-12, M)
        at = truncate_double_well(M, M)
        above = truncate_double_well(M + 1e-12, M)
        assert at == pytest.approx(M - M ** 3, rel=1e-12)
        assert below == pytest.approx(at, rel=1e-9)
        assert above == pytest.approx(at, rel=1e-9)

    def test_double_well_lipschitz_constant_by_sampling(self):
        # kappa = sup |f'| = 3 M^2 - 1 = 107 for M = 6, measured on a lattice
        M = 6.0
        u = np.linspace(-60, 60, 240001)
        f = truncate_double_well(u, M)
        slopes = np.abs(np.diff(f) / np.diff(u))
        assert np.max(slopes) <= 107.0 + 1e-6
        assert np.max(slopes) == pytest.approx(107.0, abs=1e-2)

    def test_fkpp_constant_exact(self):
        # K_55 = Gamma(12) / (Gamma(6) Gamma(6)) evaluated in exact integers
        expected = math.factorial(11) // (math.factorial(5) * math.factorial(5))
        assert expected == 2772
        assert FKPP_K == 2772

    def test_fkpp_middle_branch(self):
        assert truncate_fkpp(0.5, 6.0) == pytest.approx(2772 * 0.5 ** 10)

    def test_fkpp_continuity_at_knot(self):
        # the middle and continuation branch formulas evaluated at u = M
        M, K = 6.0, 2772.0
        mid = K * M ** 5 * (1.0 - M) ** 5
        upper = (5 * K * M ** 4 * (1 - M) ** 4 * (1 - 2 * M)) * M + K * M ** 4 * (
            1 - M
        ) ** 4 * (9 * M * M - 4 * M)
        assert upper == pytest.approx(mid, rel=1e-9)
        assert truncate_fkpp(M, M) == pytest.approx(mid, rel=1e-12)
        lower = (5 * K * M ** 4 * (1 + M) ** 4 * (1 + 2 * M)) * (-M) + K * M ** 4 * (
            1 + M
        ) ** 4 * (9 * M * M + 4 * M)
        mid_neg = K * (-M) ** 5 * (1.0 + M) ** 5
        assert lower == pytest.approx(mid_neg, rel=1e-9)

    def test_fkpp_tails_linear_and_derivative_bounded(self):
        u = np.linspace(-60, 60, 240001)
        f = truncate_fkpp(u, 6.0)
        slopes = np.diff(f) / np.diff(u)
        assert np.all(np.isfinite(slopes))
        # the continuations outside [-M, M] are straight lines: their sampled
        # slope is constant to rounding
        h = u[1] - u[0]
        upper = slopes[u[:-1] > 6.0 + h]
        lower = slopes[u[1:] < -6.0 - h]
        assert np.ptp(upper) <= 1e-6 * np.abs(upper).max()
        assert np.ptp(lower) <= 1e-6 * np.abs(lower).max()


class TestConservativeRhs:
    def test_constant_output_removed(self):
        u = np.full((16, 16), 0.3)
        out = conservative_rhs(np.full_like(u, 2.5))
        assert np.max(np.abs(out)) < 1e-14

    def test_fixed_point_of_double_well(self):
        u = np.ones((16, 16))
        out = conservative_rhs(u - u ** 3)
        assert np.max(np.abs(out)) < 1e-14

    def test_zero_mean(self):
        rng = np.random.default_rng(10)
        u = rng.uniform(-1, 1, (16, 16))
        out = conservative_rhs(u - u ** 3)
        assert abs(float(np.mean(out))) <= 1e-13


def knot_points(M):
    """The knots +-M, one ulp either side of each, and M +- 1."""
    pts = []
    for knot in (M, -M):
        pts += [knot, np.nextafter(knot, np.inf), np.nextafter(knot, -np.inf)]
    return pts + [M - 1.0, M + 1.0, -M - 1.0, -M + 1.0]


class TestTruncationFastPaths:
    """Clip-plus-tail truncations against the printed branch formulas."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        M=st.floats(0.5, 8.0),
        fractions=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
    )
    def test_match_printed_branches(self, M, fractions):
        u = np.array([M * x for x in fractions] + knot_points(M))
        for fast, ref in (
            (truncate_double_well(u, M), double_well_branches(u, M)),
            (truncate_fkpp(u, M), fkpp_branches(u, M)),
        ):
            assert np.all(np.abs(fast - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_tail_term_vanishes_inside_window(self):
        # inside [-M, M] the result is f(c) with c = u, with nothing added
        M = 6.0
        u = np.linspace(-M, M, 1001)
        assert np.array_equal(truncate_double_well(u, M), u - u * u * u)
        w = u - u * u
        w2 = w * w
        assert np.array_equal(truncate_fkpp(u, M), w * (w2 * w2) * 2772.0)

    def test_buffers_written_and_returned(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(-12.0, 12.0, (8, 8))
        before = u.copy()
        for fn in (lambda x, **kw: truncate_double_well(x, 6.0, **kw),
                   lambda x, **kw: truncate_fkpp(x, 6.0, **kw)):
            out, work = np.empty_like(u), np.empty_like(u)
            got = fn(u, out=out, work=work)
            assert got is out
            assert np.array_equal(got, fn(u))
            assert np.array_equal(u, before)

    def test_integer_input(self):
        assert float(truncate_double_well(2, 6.0)) == -6.0
        assert float(truncate_fkpp(2, 6.0)) == -2772.0 * 32


class TestRhsShortcuts:
    """The truncations, which skip their clip and tails inside the window,
    against the forms that always take them, and the conservative mean
    against `ndarray.mean`, byte for byte."""

    @staticmethod
    def _edge_values(M):
        """Signed zeros, values that underflow in the powers, and the knots."""
        small = [x for x in (1e-300, 5e-324, 1e-160, 0.5, 1.0 - 1e-16, 1.0) if x <= M]
        edge = [0.0] + small + [M, np.nextafter(M, 0.0)]
        return np.array(edge + [-x for x in edge])

    @staticmethod
    def _pairs(M, K=2772.0):
        """(package, reference) pairs of the two truncations."""
        return [(lambda u, **kw: truncate_double_well(u, M, **kw),
                 lambda u: double_well_with_tail(u, M)),
                (lambda u, **kw: truncate_fkpp(u, M, **kw),
                 lambda u: fkpp_with_tails(u, M, K))]

    # M = 0.3: the double-well slope and both FKPP slopes are positive;
    # K < 0 with M = 0.3 makes both FKPP slopes negative, so the tails add -0.
    # No model has K < 0; it is patched in to check the skip on that sign too
    @pytest.mark.parametrize("M,K", [(0.3, 2772.0), (0.3, -1.5), (0.5, 2772.0),
                                     (1.0, 2772.0), (6.0, 2772.0)])
    def test_inside_window_bytes(self, M, K, monkeypatch):
        monkeypatch.setattr(flows, "FKPP_K", K)
        rng = np.random.default_rng(20)
        inside = np.concatenate([self._edge_values(M), rng.uniform(-M, M, 400_000)])
        assert inside.max() <= M and inside.min() >= -M
        for fast, ref in self._pairs(M, K):
            out = fast(inside)
            assert out.tobytes() == ref(inside).tobytes()

    @pytest.mark.parametrize("M", [0.5, 6.0])
    @pytest.mark.parametrize("extra", [np.nan, np.inf, -np.inf, 7.0, -6.5])
    def test_outside_window_bytes(self, M, extra):
        rng = np.random.default_rng(21)
        u = np.concatenate([self._edge_values(M), rng.uniform(-M, M, 1000), [extra]])
        for fast, ref in self._pairs(M):
            out, work = np.empty_like(u), np.empty_like(u)
            with np.errstate(invalid="ignore"):
                got = fast(u, out=out, work=work)
                expected = ref(u)
            assert got is out and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M", [0.0, -0.0])
    def test_zero_window_bytes(self, M):
        # every nonzero value lies outside [-M, M] and clips to a signed
        # zero; a state of signed zeros alone lies inside and skips the clip.
        # A test of its own: the uniform draws above refuse M = -0.0
        nans = np.array([0x7FF8000000000123, 0xFFF8000000ABC000, 0x7FF4000000000001],
                        dtype=np.uint64).view(float)
        rng = np.random.default_rng(24)
        zeros = np.where(rng.random(40) < 0.5, 0.0, -0.0)
        outside = np.concatenate([zeros, [0.5, -0.5, 7.0, -7.0, 5e-324, -5e-324, 1e300,
                                          -1e300, np.inf, -np.inf], nans])
        for u in (zeros, outside):
            for fast, ref in self._pairs(M):
                with np.errstate(invalid="ignore", over="ignore"):
                    expected = ref(u)
                    for test_window in (True, False):
                        got = fast(u, test_window=test_window)
                        assert got.tobytes() == expected.tobytes(), test_window

    @pytest.mark.parametrize("M", [0.5, 6.0])
    def test_untested_window_bytes(self, M):
        # test_window=False always clips and adds the tails, inside the
        # window too, with the bytes of the tail forms
        rng = np.random.default_rng(23)
        edge = self._edge_values(M)
        for u in (np.concatenate([edge, rng.uniform(-M, M, 1000)]),
                  np.concatenate([edge, [M + 1.0, -M - 0.5]])):
            for fast, ref in self._pairs(M):
                assert fast(u, test_window=False).tobytes() == ref(u).tobytes()

    @pytest.mark.parametrize("model_id", ["ac", "cac", "fkpp"])
    def test_b_flow_tests_window_once_outside(self, model_id, monkeypatch):
        # a B flow whose input has left the window runs its RK stages
        # without testing it again; from inside the window the stages test
        m = make_model(model_id)
        g = default_grid(m, 8)
        u = np.full(g.shape, 0.25)
        calls = []
        window = flows.in_window
        monkeypatch.setattr(flows, "in_window", lambda *args: calls.append(1) or window(*args))
        flow_pair(m, g).b_flow(0.01, u)
        assert bool(calls) == (model_id != "ac")  # ac's closed form needs no RK
        u[3, 5] = m.M + 0.5  # the FKPP tails overflow from here
        with np.errstate(over="ignore", invalid="ignore"):
            ref = flow_pair(m, g).b_flow(0.01, u)
            monkeypatch.setattr(flows, "in_window", lambda *args: pytest.fail("window tested"))
            assert flow_pair(m, g).b_flow(0.01, u).tobytes() == ref.tobytes()

    def test_overflowing_slope_takes_the_tails(self):
        # the slopes overflow to inf, so a tail of 0 * inf is NaN
        u = np.array([0.25, -0.5, 0.0])
        with np.errstate(invalid="ignore", over="ignore"):
            got, ref = truncate_fkpp(u, 1e70), fkpp_with_tails(u, 1e70)
            assert np.all(np.isnan(ref)) and got.tobytes() == ref.tobytes()
            got, ref = truncate_double_well(u, 1e200), double_well_with_tail(u, 1e200)
            assert np.all(np.isnan(ref)) and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64), (2, 8, 8), (5,), (7, 9), (48, 48)])
    def test_conservative_mean_bytes(self, shape):
        rng = np.random.default_rng(22)
        for _ in range(5):
            u = rng.uniform(-8.0, 8.0, shape)
            for base in (lambda s: truncate_double_well(s, 6.0), lambda s: s * s * s):
                ref = conservative_rhs_mean(base, u)
                assert conservative_rhs(base(u)).tobytes() == ref.tobytes()
                buf = np.empty_like(u)
                assert conservative_rhs(base(u), out=buf).tobytes() == ref.tobytes()


def _real_state():
    return np.random.default_rng(12).uniform(-1.5, 1.5, (16, 16))


def _complex_state():
    rng = np.random.default_rng(13)
    return rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))


def _stacked_state():
    return np.random.default_rng(14).uniform(0.5, 2.0, (2, 8, 8))


def _pair_rhs(s):
    f = s[0] * s[1] * s[1] - 0.1 * s[1] * s[1] * s[1]
    return np.stack((-f, f))


RK_CASES = {
    "real": (_real_state, lambda u: truncate_double_well(u, 6.0)),
    "complex": (_complex_state, lambda u: 1j * (u.real * u.real + u.imag * u.imag) * u - 0.3 * u),
    "stacked": (_stacked_state, _pair_rhs),
}


class TestSsprk104Registers:
    """The buffered integrator against the allocating two-register loop."""

    @pytest.mark.parametrize("case", sorted(RK_CASES))
    @pytest.mark.parametrize("substeps", [1, 4])
    def test_matches_reference_loop(self, case, substeps):
        make, f = RK_CASES[case]
        v = make()
        before = v.copy()
        got = ssprk104(f, v, 0.05, substeps)
        ref = ssprk104_loop(f, v, 0.05, substeps)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(v))
        assert np.array_equal(v, before)

    @pytest.mark.parametrize("case", sorted(RK_CASES))
    def test_rhs_returning_input_or_view(self, case):
        v = RK_CASES[case][0]()
        before = v.copy()
        for f in (lambda u: u, lambda u: u[...]):
            got = ssprk104(f, v, 0.3)
            assert np.max(np.abs(got - ssprk104_loop(f, v, 0.3))) <= 1e-14 * np.max(np.abs(v))
        assert np.array_equal(v, before)

    @pytest.mark.parametrize("case", sorted(RK_CASES))
    def test_rhs_reusing_one_buffer(self, case):
        make, f_ref = RK_CASES[case]
        v = make()
        before = v.copy()
        buf = np.empty_like(v)

        def f(u):
            buf[...] = f_ref(u)
            return buf

        got = ssprk104(f, v, 0.05)
        assert np.max(np.abs(got - ssprk104_loop(f_ref, v, 0.05))) <= 1e-14 * np.max(np.abs(v))
        assert np.array_equal(v, before)


class TestConservativeRhsOwnership:
    def test_does_not_modify_base_output(self):
        rng = np.random.default_rng(15)
        u = rng.uniform(-1, 1, (8, 8))
        before = u.copy()
        out = conservative_rhs(u)
        assert np.array_equal(u, before)
        assert np.allclose(out, u - u.mean(), rtol=0, atol=1e-15)

    def test_writes_into_out(self):
        rng = np.random.default_rng(16)
        u = rng.uniform(-1, 1, (8, 8))
        buf = np.empty_like(u)

        def base(s):
            np.multiply(s, 2.0, out=buf)
            return buf

        out = conservative_rhs(base(u), out=buf)  # out is the array itself
        assert out is buf
        assert np.array_equal(out, 2.0 * u - (2.0 * u).mean())
