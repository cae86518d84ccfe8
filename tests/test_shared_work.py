"""The work one multi-term step shares, byte for byte against the paths that
share nothing: one forward transform of the step's input for the terms that
start with an A substep, one phase rotation per B coefficient at rho = 0,
and the compensated combine, run in place in the term results on one or
two threads, against one that allocates an array per operation."""

import dataclasses
import math
import sys
import threading
import weakref
from fractions import Fraction as F

import numpy as np
import pytest

from mpesplit import models, schemes
from mpesplit.flows import distinct_values, flow_phase, rotation
from mpesplit.grid import SpectralGrid, forward_spectrum, linear_propagate, propagate_spectrum
from mpesplit.models import (
    default_grid,
    flow_pair,
    initial_condition,
    make_model,
    model_names,
    potential,
)
from mpesplit.order import matrix_flows
from mpesplit.schemes import (
    FlowPair,
    _combine,
    _term_buffers,
    apply,
    catalog,
    catalog_names,
    richardson_scheme,
)
from reference_schemes import apply_allocating, combine_allocating

SCHEMES = [catalog(n) for n in catalog_names()] + [richardson_scheme((1, 2, 3, 4))]


@pytest.fixture(params=["serial", "two_bins"])
def path(request, monkeypatch):
    """Each multi-term step on the calling thread alone, or on the two bins."""
    if request.param == "two_bins":
        monkeypatch.setattr(schemes, "SERIAL_MAX_BYTES", 0)
    return request.param


def _counting(flows):
    """flows with its A-flow callables counting their calls, and the counts."""
    calls = {"a_flow": 0, "a_forward": 0, "a_finish": 0}
    lock = threading.Lock()

    def counted(name):
        fn = getattr(flows, name)

        def call(*args):
            with lock:
                calls[name] += 1
            return fn(*args)

        return call

    return dataclasses.replace(flows, **{k: counted(k) for k in calls}), calls


def _without_pieces(flows):
    return FlowPair(flows.a_flow, flows.b_flow)


def _sharing(scheme, path):
    """The terms of each group that runs together which share one forward
    transform: those of `plan.a_first`, where a group has two or more."""
    plan = scheme.plan
    groups = plan.bins if path == "two_bins" and plan.bins[1] else [range(len(plan.terms))]
    users = [[ti for ti in group if ti in plan.a_first] for group in groups]
    return [u for u in users if len(u) > 1]


class TestSpectralPieces:
    @pytest.mark.parametrize("nu,complex_state", [
        (0.2, False), (0.2, True), (0.5j, True), (0.3 + 0.1j, False), ((0.2, 0.1), False),
    ])
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_pieces_compose_to_linear_propagate(self, nu, complex_state, n):
        g = SpectralGrid(n, 2.0)
        rng = np.random.default_rng(n)
        shape = ((len(nu),) if isinstance(nu, tuple) else ()) + g.shape
        u = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_state else 0)
        before = u.copy()
        for tau in (0.01, -0.01):
            spectrum = forward_spectrum(u, nu, g)
            copy = spectrum.copy()
            out = propagate_spectrum(spectrum, nu, tau, g, allow_backward=True)
            ref = linear_propagate(u, nu, tau, g, allow_backward=True)
            assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
            assert propagate_spectrum(copy, nu, tau, g, True).tobytes() == ref.tobytes()
        assert u.tobytes() == before.tobytes()

    def test_checks_stay_with_their_piece(self):
        g = SpectralGrid(16, 2.0)
        u = np.ones(g.shape)
        with pytest.raises(ValueError, match="shape"):
            forward_spectrum(np.ones((8, 8)), 0.2, g)
        with pytest.raises(ValueError, match="allow_backward"):
            propagate_spectrum(forward_spectrum(u, 0.2, g), 0.2, -0.1, g)
        # linear_propagate refuses the backward step before it looks at the state
        with pytest.raises(ValueError, match="allow_backward"):
            linear_propagate(np.ones((8, 8)), 0.2, -0.1, g)


class TestSharedForward:
    """apply, whose terms that start with an A substep share one forward
    transform of the input, against the engine that shares nothing."""

    @pytest.mark.parametrize("model_id", model_names())
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_bit_identical_to_reference(self, model_id, scheme, path):
        m = make_model(model_id)
        g = default_grid(m, 16)
        state = initial_condition(m, g)
        before = state.copy()
        for tau in (0.05, -0.05):
            backward = tau < 0 or scheme.scheme_class == "spe_negative"
            flows, calls = _counting(flow_pair(m, g, allow_backward=backward))
            with np.errstate(all="ignore"):
                out = apply(scheme, flows, tau, state)
                ref = apply_allocating(scheme, flows, tau, state)
            assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
            shared = _sharing(scheme, path)
            finished = sum(len(u) for u in shared)
            a_substeps = sum(a != 0 for t in scheme.terms for a, _ in t.stages)
            # the reference made a_substeps calls of a_flow, apply the rest
            assert calls == {"a_flow": 2 * a_substeps - finished,
                             "a_forward": len(shared), "a_finish": finished}
        assert np.array_equal(state, before)

    def test_terms_that_share(self):
        assert catalog("s3_2").plan.a_first == ()
        assert catalog("strang_a").plan.a_first == (0,)
        # serial, two bins: s6's bins are (2,) and (0, 1), s4_2's (0, 2) and
        # (1, 3), s4_4's (1,) and (0,), s10's (0, 1, 4) and (2, 3), s3_1's
        # (0, 3) and (1, 2), s4_1's (1, 2) and (0, 3)
        for name, serial, two_bins in [
            ("s6", [[0, 1, 2]], [[0, 1]]),
            ("s3_1", [[0, 3]], [[0, 3]]),
            ("s4_1", [[1, 2]], [[1, 2]]),
            ("s4_2", [[0, 2]], [[0, 2]]),
            ("s4_4", [[0, 1]], []),
            ("s10", [[0, 1, 2, 3, 4]], [[0, 1, 4], [2, 3]]),
            ("strang_a", [], []),
        ]:
            assert _sharing(catalog(name), "serial") == serial, name
            assert _sharing(catalog(name), "two_bins") == two_bins, name

    @pytest.mark.parametrize("name", ["s6", "s4_2", "s4_4", "s10"])
    def test_no_spectrum_outlives_its_first_substep(self, name, path):
        # the B substep after each shared first substep finds every spectrum
        # its thread handed to a_finish gone: the caller and the bins keep none
        m = make_model("ac")
        g = default_grid(m, 32)
        flows = flow_pair(m, g)
        spent, alive = [], []

        def a_finish(tau, spectrum):
            spent.append((threading.current_thread(), weakref.ref(spectrum)))
            return flows.a_finish(tau, spectrum)

        def b_flow(tau, u):
            here = threading.current_thread()
            alive.extend(r for t, r in spent if t is here and r() is not None)
            return flows.b_flow(tau, u)

        pieces = dataclasses.replace(flows, a_finish=a_finish, b_flow=b_flow)
        u = initial_condition(m, g)
        out = apply(catalog(name), pieces, 0.05, u)
        assert out.tobytes() == apply_allocating(catalog(name), flows, 0.05, u).tobytes()
        assert len(spent) == sum(len(u) for u in _sharing(catalog(name), path))
        assert alive == []

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_matrix_flows_run_unshared(self, oracle, scheme, path):
        flows = matrix_flows(oracle)
        assert flows.a_forward is None and flows.a_finish is None
        x = np.linspace(-1.0, 1.0, oracle.dimension)
        out = apply(scheme, flows, 0.1, x)
        assert out.tobytes() == apply_allocating(scheme, flows, 0.1, x).tobytes()


class TestSharedForwardErrors:
    """A step with shared work names the term and stage of a failure as
    the step that shares nothing does."""

    @staticmethod
    def _message(scheme, flows, tau, state):
        with pytest.raises(RuntimeError) as ei:
            apply(scheme, flows, tau, state)
        return str(ei.value), type(ei.value.__cause__)

    def test_forward_transform_that_raises(self, path):
        # a failure at stage 0 of s4_2's terms 0 and 2; terms 1 and 3 start with B
        m = make_model("nls_linear")
        g = default_grid(m, 16)
        flows = flow_pair(m, g)

        def a_forward(u):
            raise ValueError("no spectrum")

        def a_flow(tau, u):
            raise ValueError("no spectrum")

        broken = dataclasses.replace(flows, a_forward=a_forward)
        u = initial_condition(m, g)
        got = self._message(catalog("s4_2"), broken, 0.1, u)
        assert got == ("scheme s4_2 term 0 stage 0: no spectrum", ValueError)
        assert got == self._message(catalog("s4_2"), FlowPair(a_flow, flows.b_flow), 0.1, u)

    @pytest.mark.parametrize("name", ["s4_4", "s6", "s4_2"])
    def test_backward_step_refused(self, name, path):
        m = make_model("ac")
        g = default_grid(m, 16)
        flows = flow_pair(m, g)
        u = initial_condition(m, g)
        got = self._message(catalog(name), flows, -0.1, u)
        assert got[0].startswith(f"scheme {name} term 0 stage 0: backward step")
        assert got == self._message(catalog(name), _without_pieces(flows), -0.1, u)

    @pytest.mark.parametrize("failing", ["a_finish", "b_flow"])
    def test_bin_1_failure(self, failing, monkeypatch):
        # s6's bins are (2,) and (0, 1); term 1 alone has a = 1/4 and b = 1/2
        # first, and it runs on the helper, where it spends the spectrum that
        # term 0 transformed
        monkeypatch.setattr(schemes, "SERIAL_MAX_BYTES", 0)
        assert catalog("s6").plan.bins == ((2,), (0, 1))
        m = make_model("nls_linear")
        g = default_grid(m, 16)
        flows = flow_pair(m, g)
        coefficient = F(1, 4) if failing == "a_finish" else F(1, 2)
        raised_on = []

        def guard(fn):
            def call(tau, x):
                if tau == float(coefficient) * 0.1:
                    raised_on.append(threading.current_thread())
                    raise ArithmeticError("boom")
                return fn(tau, x)
            return call

        broken = dataclasses.replace(flows, **{failing: guard(getattr(flows, failing))})
        u = initial_condition(m, g)
        got = self._message(catalog("s6"), broken, 0.1, u)
        assert got == ("scheme s6 term 1 stage 0: boom", ArithmeticError)
        assert raised_on[0] is not threading.current_thread()
        if failing == "b_flow":
            unshared = FlowPair(flows.a_flow, guard(flows.b_flow))
            assert got == self._message(catalog("s6"), unshared, 0.1, u)


def _phase_flow(omega, rho=0.0):
    """The B flow of nls_linear on the n x n grid of the potential omega, and omega."""
    m = dataclasses.replace(make_model("nls_linear", rho=rho),
                            potential=lambda X, Y: np.array(omega, dtype=float))
    g = default_grid(m, np.shape(omega)[0])
    return flow_pair(m, g).b_flow, potential(m, g)


# +-0.0 and finite, non-finite and huge values in each part
_PARTS = [0.0, -0.0, 1.0, -2.5, np.nan, np.inf, -np.inf, 0.99e150, 1.01e150, 1e200]


class TestPhaseRotation:
    """The nls B flow at rho = 0, which keeps one rotation per thread and
    tau, against `flow_phase` itself, byte for byte."""

    @pytest.mark.parametrize("rho", [0.0, -0.0])
    @pytest.mark.parametrize("omega", [0.0, -0.0, [0.0, -0.0, 1.5, -2.0]])
    def test_signed_zeros(self, rho, omega):
        b_flow, om = _phase_flow(np.broadcast_to(omega, (4, 4)), rho)
        parts = (0.0, -0.0, 1.0, -1.0)
        u = np.array([complex(a, b) for a in parts for b in parts]).reshape(4, 4)
        for tau in (0.0, -0.0, 0.3, -0.7, 0.0, 0.3, -0.0):
            out = b_flow(tau, u)
            assert out.tobytes() == flow_phase(u, om, rho, tau).tobytes(), tau

    @pytest.mark.parametrize("re", _PARTS)
    def test_non_finite_and_huge_values(self, re):
        b_flow, om = _phase_flow(np.linspace(-3.0, 3.0, 16).reshape(4, 4))
        u = np.full((4, 4), 0.5 - 0.25j)
        u.flat[:len(_PARTS)] = [complex(re, im) for im in _PARTS]
        with np.errstate(all="ignore"):
            for tau in (0.4, 0.4, -0.2):
                assert b_flow(tau, u).tobytes() == flow_phase(u, om, 0.0, tau).tobytes()

    def test_kept_rotation_is_never_written_or_returned(self):
        b_flow, om = _phase_flow(np.linspace(-3.0, 3.0, 16).reshape(4, 4))
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        first = b_flow(0.3, u)
        first *= 7.0  # a caller owns what it gets back
        assert b_flow(0.3, v).tobytes() == flow_phase(v, om, 0.0, 0.3).tobytes()
        assert b_flow(0.3, u).tobytes() == flow_phase(u, om, 0.0, 0.3).tobytes()

    def test_alternating_steps_on_two_threads(self):
        m = make_model("nls_linear")
        g = default_grid(m, 32)
        b_flow = flow_pair(m, g).b_flow
        om = potential(m, g)
        u = initial_condition(m, g)
        taus = [(0.1, -0.0, 0.1, 0.05, 0.0), (0.05, 0.05, -0.1, 0.0, 0.1)]
        expected = {tau: flow_phase(u, om, 0.0, tau).tobytes() for ts in taus for tau in ts}
        wrong = []

        def worker(ts):
            for _ in range(40):
                for tau in ts:
                    if b_flow(tau, u).tobytes() != expected[tau]:
                        wrong.append(tau)

        threads = [threading.Thread(target=worker, args=(ts,)) for ts in taus]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and wrong == []

    def test_nonzero_rho_is_flow_phase(self):
        m = make_model("nls_nonlinear")
        g = default_grid(m, 16)
        u = initial_condition(m, g)
        out = flow_pair(m, g).b_flow(0.2, u)
        assert out.tobytes() == flow_phase(u, potential(m, g), -1.0, 0.2).tobytes()


# signed zeros, small to huge step sizes, and one whose angles are far past 2 pi
_TABLE_TAUS = (0.0, -0.0, 1e-3, 0.37, -2.5, 1e5, 1e12, 1e200)


def _no_fallback(*args):
    raise AssertionError("flow_phase called: the product left the window")


class TestPhaseTable:
    """The rho = 0 rotation made from the table of the potential's distinct
    values, against `rotation` and `flow_phase` over the whole grid, byte
    for byte."""

    @pytest.mark.parametrize("n", [4, 64, 256, 400])
    @pytest.mark.parametrize("model_id,rho", [("nls_linear", 0.0), ("nls_linear", -0.0),
                                              ("nls_nonlinear", 0.0)])
    def test_models(self, model_id, rho, n, monkeypatch):
        m = make_model(model_id, rho=rho)
        g = default_grid(m, n)
        b_flow = flow_pair(m, g).b_flow
        om = potential(m, g)
        u = initial_condition(m, g)
        expected = {tau: flow_phase(u, om, rho, tau).tobytes() for tau in _TABLE_TAUS}
        monkeypatch.setattr(models, "flow_phase", _no_fallback)  # every call is the table's
        for tau in _TABLE_TAUS + _TABLE_TAUS[::-1]:
            assert b_flow(tau, u).tobytes() == expected[tau], tau
        if n >= 64:  # the grid repeats values, which is what the table saves
            assert distinct_values(om + rho * 0.0)[0].size < om.size / 5

    def test_potential_of_distinct_values(self, monkeypatch):
        om = np.random.default_rng(4).uniform(-3.0, 3.0, (64, 64))
        assert distinct_values(om)[0].size == om.size
        b_flow, om = _phase_flow(om)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(om.shape) + 1j * rng.standard_normal(om.shape)
        expected = {tau: flow_phase(u, om, 0.0, tau).tobytes() for tau in _TABLE_TAUS}
        monkeypatch.setattr(models, "flow_phase", _no_fallback)
        for tau in _TABLE_TAUS:
            assert b_flow(tau, u).tobytes() == expected[tau], tau

    @pytest.mark.parametrize("rho", [0.0, -0.0])
    def test_special_potential(self, rho):
        # the rotation of a NaN or an infinity is NaN, so b_flow returns
        # flow_phase itself; the table's own rotation is checked as well
        om = np.tile(np.concatenate([SPECIALS, [1.5, -2.0]]), 5)[:64].reshape(8, 8)
        u = np.full(om.shape, 0.5 - 0.25j)
        with np.errstate(all="ignore"):
            b_flow, om = _phase_flow(om, rho)
            om0 = om + rho * 0.0
            values, index = distinct_values(om0)
            assert values[index].tobytes() == om0.tobytes()
            # the 14 SPECIALS, 1.5 and -2.0 keep their bits under + -0.0,
            # apart from the signalling NaNs, which turn quiet with their
            # payloads; + 0.0 also turns -0.0 into +0.0
            assert values.size == (16 if math.copysign(1.0, rho) < 0 else 15)
            for tau in _TABLE_TAUS:
                assert rotation(tau * values)[index].tobytes() == rotation(tau * om0).tobytes()
                assert b_flow(tau, u).tobytes() == flow_phase(u, om, rho, tau).tobytes()

    def test_flow_pairs_keep_their_own_tables(self, monkeypatch):
        # the same shape with another potential, and another shape, called in turn
        pairs = []
        for model_id, n in (("nls_linear", 64), ("nls_nonlinear", 64), ("nls_linear", 32)):
            m = make_model(model_id, rho=0.0)
            g = default_grid(m, n)
            pairs.append((flow_pair(m, g).b_flow, potential(m, g), initial_condition(m, g)))
        expected = [{tau: flow_phase(u, om, 0.0, tau).tobytes() for tau in _TABLE_TAUS}
                    for _, om, u in pairs]
        monkeypatch.setattr(models, "flow_phase", _no_fallback)
        for tau in _TABLE_TAUS:
            for (b_flow, _, u), bytes_of in zip(pairs, expected):
                assert b_flow(tau, u).tobytes() == bytes_of[tau], tau

    def test_made_once_per_flow_pair_on_first_call(self, monkeypatch):
        made = []
        monkeypatch.setattr(models, "distinct_values", lambda x: made.append(1) or distinct_values(x))
        m = make_model("nls_linear")
        g = default_grid(m, 16)
        b_flow = flow_pair(m, g).b_flow
        assert made == []  # setting the pair up sorts nothing
        u = initial_condition(m, g)
        for tau in (0.1, 0.2, 0.1):
            b_flow(tau, u)
        worker = threading.Thread(target=b_flow, args=(0.3, u))
        worker.start()
        worker.join(timeout=60)
        assert made == [1]
        flow_pair(make_model("nls_nonlinear"), g).b_flow(0.1, u)  # rho != 0 takes none
        assert made == [1]

    def test_threads_start_together(self, monkeypatch):
        # four threads, more than the cores, with a short switch interval,
        # each asking a new pair for its first rotation at once
        m = make_model("nls_linear")
        g = default_grid(m, 64)
        om = potential(m, g)
        u = initial_condition(m, g)
        expected = {tau: flow_phase(u, om, 0.0, tau).tobytes() for tau in _TABLE_TAUS}
        made, wrong = [], []
        monkeypatch.setattr(models, "distinct_values", lambda x: made.append(1) or distinct_values(x))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                b_flow = flow_pair(m, g).b_flow
                start = threading.Barrier(4)

                def worker(taus):
                    start.wait()
                    for _ in range(3):
                        for tau in taus:
                            if b_flow(tau, u).tobytes() != expected[tau]:
                                wrong.append(tau)

                threads = [threading.Thread(target=worker, args=(ts,))
                           for ts in (_TABLE_TAUS, _TABLE_TAUS[::-1]) * 2]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and made == [1] * 5


# signed zeros, infinities, subnormals, +-1e308 (twice that overflows) and
# quiet and signalling NaNs of both signs with payloads
_NAN_BITS = [0x7FF8000000000123, 0xFFF8000000ABC000, 0x7FF4000000000001, 0xFFF0000000000F00]
SPECIALS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1e308],
    np.array(_NAN_BITS, dtype=np.uint64).view(float),
])

# one scheme of each term count: 2, 3, 4 and 5 terms
COMBINED = ["s4_4", "s6", "s4_2", "s10"]


def _special_state(complex_state, n=96):
    """Random values with every `SPECIALS` value planted at spread-out
    places, and a run of zeros of random signs, in both parts when complex."""
    rng = np.random.default_rng(7)

    def part():
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        x[::7][:SPECIALS.size] = SPECIALS
        x[-24:] = np.where(rng.random(24) < 0.5, 0.0, -0.0)
        return x

    if not complex_state:
        return part()
    x = np.empty(n, dtype=complex)
    x.real, x.imag = part(), part()
    return x


def _rolling_b(t, u):
    return np.roll(u, 1) * (1.0 + t)


def _rolling_flows():
    """A flows as u * t, B as u moved by one place times (1 + t): a term's
    result has each value moved by its count of B substeps, so the terms put
    different values at one index."""
    return FlowPair(lambda t, u: u * t, _rolling_b)


class TestInPlaceCombine:
    """apply's compensated combine, in place in the term results and one
    more array, byte for byte against `apply_allocating` and
    `combine_allocating`, which allocate an array per operation."""

    @pytest.fixture(autouse=True)
    def _no_float_warnings(self):
        with np.errstate(all="ignore"):
            yield

    @pytest.mark.parametrize("tau", [1.0, -0.75])
    @pytest.mark.parametrize("complex_state", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("name", COMBINED)
    def test_special_values(self, name, complex_state, tau, path):
        state = _special_state(complex_state)
        before = state.tobytes()
        out = apply(catalog(name), _rolling_flows(), tau, state)
        ref = apply_allocating(catalog(name), _rolling_flows(), tau, state)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert state.tobytes() == before

    @pytest.mark.parametrize("name", COMBINED)
    def test_every_sign_of_zero(self, name, path):
        """Index j holds a zero in each term whose sign is bit i of j times
        the sign of weight i, so one index sums k products -0.0; a sum that
        starts from +0.0 is +0.0 at every index."""
        weights = catalog(name).plan.weights
        k = len(weights)
        j = np.arange(2 ** k)
        results = [np.where((j >> i) & 1, -0.0, 0.0) * np.sign(w) for i, w in enumerate(weights)]
        ref = combine_allocating(weights, results)
        assert not np.signbit(ref).any()
        terms = _term_buffers(results, None)
        _combine(weights, results, terms, np.empty(j.size))
        assert terms[-1].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("complex_state", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("name", COMBINED)
    def test_identity_flows_return_the_state(self, name, complex_state, path):
        """Every result is the state itself: the sum goes into new arrays."""
        identity = FlowPair(lambda t, u: u, lambda t, u: u)
        state = _special_state(complex_state).reshape(8, 12)
        before = state.tobytes()
        out = apply(catalog(name), identity, 0.5, state)
        assert out.tobytes() == apply_allocating(catalog(name), identity, 0.5, state).tobytes()
        assert state.tobytes() == before and not np.shares_memory(out, state)

    def test_two_terms_return_one_array(self, path):
        """s4_2's terms 1 and 3 end with a B substep, which returns one array."""
        shared = _special_state(False)
        kept = shared.tobytes()
        flows = FlowPair(lambda t, u: u * t, lambda t, u: shared)
        state = _special_state(True).real.copy()
        before = state.tobytes()
        out = apply(catalog("s4_2"), flows, 0.5, state)
        assert out.tobytes() == apply_allocating(catalog("s4_2"), flows, 0.5, state).tobytes()
        assert shared.tobytes() == kept and state.tobytes() == before

    @pytest.mark.parametrize("result", ["float32", "read_only", "fortran_order", "view_of_state"])
    @pytest.mark.parametrize("name", COMBINED)
    def test_results_the_step_does_not_own(self, name, result, path):
        state = _special_state(False).reshape(8, 12)
        before = state.tobytes()
        if result == "float32":
            flows = FlowPair(lambda t, u: (u * t).astype(np.float32), _rolling_b)
        elif result == "read_only":
            def b_flow(t, u):
                out = _rolling_b(t, u)
                out.flags.writeable = False
                return out
            flows = FlowPair(lambda t, u: u * t, b_flow)
        elif result == "fortran_order":
            flows = FlowPair(lambda t, u: np.asfortranarray(u * t), _rolling_b)
        else:  # a view of the input from A, and from B at t = tau / 2
            flows = FlowPair(lambda t, u: u[:],
                             lambda t, u: u[:] if t == 0.25 else _rolling_b(t, u))
        out = apply(catalog(name), flows, 0.5, state)
        ref = apply_allocating(catalog(name), flows, 0.5, state)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert state.tobytes() == before

    def test_term_buffers(self):
        state = np.zeros(4)
        fresh, other = np.ones(4), np.ones(4)
        read_only = np.ones(4)
        read_only.flags.writeable = False
        results = [fresh, state, read_only, np.ones(8)[::2], np.ones(4, np.float32),
                   other, other, state[1:]]
        terms = _term_buffers(results, state)
        assert terms[0] is fresh
        for r, t in zip(results[1:], terms[1:]):
            assert t is not r and not np.may_share_memory(t, r)
            assert t.dtype == float and t.shape == (4,) and t.flags.c_contiguous
        assert len({id(t) for t in terms}) == len(terms)


class TestSplitCombine:
    """The in-place combine over two parts of the flat indices, as after a
    two-bin step, against `combine_allocating` over all of them."""

    @pytest.mark.parametrize("size", [1, 3, 7, 255, 1001])
    @pytest.mark.parametrize("name", ["s4_2", "s6", "s10"])
    def test_halves_bit_identical(self, size, name):
        rng = np.random.default_rng(size)
        weights = catalog(name).plan.weights
        results = [rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
                   for _ in weights]
        ref = combine_allocating(weights, results)
        terms, comp = _term_buffers(results, None), np.empty(size)
        _combine(weights, results, terms, comp, slice(size // 2, None))
        _combine(weights, results, terms, comp, slice(0, size // 2))
        assert terms[-1].tobytes() == ref.tobytes()

    def test_two_dimensional_complex_results(self, monkeypatch):
        monkeypatch.setattr(schemes, "SERIAL_MAX_BYTES", 0)
        rng = np.random.default_rng(5)
        state = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        out = apply(catalog("s8"), _rolling_flows(), 0.5, state)
        ref = apply_allocating(catalog("s8"), _rolling_flows(), 0.5, state)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()
