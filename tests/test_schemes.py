import math
import multiprocessing
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpesplit import harness, schemes
from mpesplit.models import default_grid, flow_pair, initial_condition, make_model, model_names
from mpesplit.schemes import (
    FlowPair,
    SplitScheme,
    Term,
    apply,
    catalog,
    catalog_names,
    richardson_scheme,
    richardson_weights,
    scheme_from_json,
    scheme_stats,
    scheme_to_json,
)
from reference_harness import run_serial
from reference_schemes import apply_allocating
from wordseries import certified_order

F = Fraction

# name -> (claimed order, class); the catalog's published contents
CATALOG_TABLE = {
    "lie1": (1, "spe"),
    "lie2": (1, "spe"),
    "strang_a": (2, "spe"),
    "strang_b": (2, "spe"),
    "sws2": (2, "mpe_positive"),
    "s3_1": (3, "mpe_positive"),
    "s3_2": (3, "mpe_positive"),
    "s4_1": (4, "mpe_positive"),
    "s4_2": (4, "mpe_positive"),
    "s4_3": (4, "mpe_positive"),
    "s4_4": (4, "mpe_positive"),
    "s6": (6, "mpe_positive"),
    "s8": (8, "mpe_positive"),
    "s10": (10, "mpe_positive"),
    "s4_neg": (4, "spe_negative"),
}


def identity_flows():
    return FlowPair(lambda tau, s: s, lambda tau, s: s)


def linear_flows(ka, kb):
    # commuting scalar flows: exact answer is exp(tau (ka + kb)) * state
    return FlowPair(
        lambda tau, s: math.exp(ka * tau) * s,
        lambda tau, s: math.exp(kb * tau) * s,
    )


class TestCatalog:
    def test_published_names(self):
        assert set(catalog_names()) == set(CATALOG_TABLE)

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_order_and_class(self, name):
        order, klass = CATALOG_TABLE[name]
        s = catalog(name)
        assert s.claimed_order == order
        assert s.scheme_class == klass

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("s12")

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_weights_sum_to_one_exactly(self, name):
        s = catalog(name)
        assert sum((t.weight for t in s.terms), F(0)) == 1

    @pytest.mark.parametrize(
        "name", [n for n, (_, k) in CATALOG_TABLE.items() if k == "mpe_positive"]
    )
    def test_mpe_positive_hypotheses(self, name):
        # stability theorem hypotheses: a, b >= 0 and per-term sum(a) = 1
        for term in catalog(name).terms:
            assert all(a >= 0 and b >= 0 for a, b in term.stages)
            assert sum((a for a, _ in term.stages), F(0)) == 1

    def test_spe_negative_shape(self):
        s = catalog("s4_neg")
        assert len(s.terms) == 1
        assert s.terms[0].weight == 1
        assert any(a < 0 for a, _ in s.terms[0].stages)
        assert not s.exact

    def test_negative_weight_witness(self):
        # order >= 3 multi-product schemes all carry a negative weight
        for name, (order, klass) in CATALOG_TABLE.items():
            if klass == "mpe_positive" and order >= 3:
                assert min(t.weight for t in catalog(name).terms) < 0, name

    def test_lie1_simplest(self):
        s = catalog("lie1")
        assert len(s.terms) == 1 and s.terms[0].weight == 1
        assert sum(a for a, _ in s.terms[0].stages) == 1
        assert sum(b for _, b in s.terms[0].stages) == 1

    def test_s3_2_printed_weights(self):
        s = catalog("s3_2")
        assert sorted(t.weight for t in s.terms) == [F(-1, 8), F(9, 8)]
        main = next(t for t in s.terms if t.weight == F(9, 8))
        assert main.stages == ((F(0), F(1, 3)), (F(2, 3), F(2, 3)), (F(1, 3), F(0)))


class TestWordSeriesCertification:
    """Exact formal-series oracle: every catalog scheme has local defect
    exactly at word length claimed_order + 1, no higher, no lower."""

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_certified_order_matches_claim(self, name):
        s = catalog(name)
        tol = F(0) if s.exact else F(1, 10 ** 20)
        assert certified_order(s, s.claimed_order + 1, tol) == s.claimed_order


class TestRichardson:
    def test_weight_examples(self):
        assert richardson_weights((1,)) == [F(1)]
        assert richardson_weights((1, 2)) == [F(-1, 3), F(4, 3)]
        assert richardson_weights((1, 2, 3, 4)) == [
            F(-1, 360), F(16, 45), F(-729, 280), F(1024, 315),
        ]

    def test_weights_sum_to_one(self):
        for gammas in [(1, 2), (1, 2, 3), (2, 5, 7), (1, 2, 3, 4, 5)]:
            assert sum(richardson_weights(gammas), F(0)) == 1

    def test_vandermonde_identity(self):
        # sum_i c_i gamma_i^(-2j) = delta_j0 for j = 0..k-1, exactly
        for gammas in [(1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4, 5), (2, 3, 7)]:
            cs = richardson_weights(gammas)
            for j in range(len(gammas)):
                total = sum(
                    c * F(1, g ** (2 * j)) for c, g in zip(cs, gammas)
                )
                assert total == (1 if j == 0 else 0), (gammas, j)

    @settings(derandomize=True, max_examples=60)
    @given(st.sets(st.integers(min_value=1, max_value=15), min_size=1, max_size=5))
    def test_vandermonde_identity_any_gammas(self, gamma_set):
        gammas = tuple(sorted(gamma_set))
        cs = richardson_weights(gammas)
        for j in range(len(gammas)):
            total = sum(c * F(1, g ** (2 * j)) for c, g in zip(cs, gammas))
            assert total == (1 if j == 0 else 0)

    def test_duplicate_gamma_rejected(self):
        with pytest.raises(ValueError):
            richardson_weights((1, 2, 2))
        with pytest.raises(ValueError):
            richardson_scheme((3, 3))

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            richardson_weights((0, 1))

    def test_single_gamma_is_strang(self):
        assert richardson_scheme((1,)).terms == catalog("strang_a").terms

    def test_merged_stage_counts(self):
        s = richardson_scheme((1, 2, 3))
        by_gamma = {len(t.stages): t for t in s.terms}
        # gamma stage chains merge to gamma + 1 pairs
        assert sorted(by_gamma) == [2, 3, 4]
        g3 = by_gamma[4]
        assert g3.stages == (
            (F(1, 6), F(1, 3)), (F(1, 3), F(1, 3)), (F(1, 3), F(1, 3)), (F(1, 6), F(0)),
        )

    def test_catalog_richardson_entries(self):
        assert catalog("s4_4").terms == richardson_scheme((1, 2)).terms
        assert catalog("s6").terms == richardson_scheme((1, 2, 3)).terms
        assert catalog("s8").terms == richardson_scheme((1, 2, 3, 4)).terms
        assert catalog("s10").terms == richardson_scheme((1, 2, 3, 4, 5)).terms

    def test_s10_printed_weights(self):
        assert [t.weight for t in catalog("s10").terms] == [
            F(1, 8640), F(-64, 945), F(6561, 4480), F(-16384, 2835), F(390625, 72576),
        ]


class TestStats:
    def test_s3_1(self):
        st = scheme_stats(catalog("s3_1"))
        assert st["sum_c_abs"] == F(5, 3)

    def test_lie1(self):
        st = scheme_stats(catalog("lie1"))
        assert st["sum_c_abs"] == 1
        assert st["b_max"] == 1

    def test_s4_4(self):
        st = scheme_stats(catalog("s4_4"))
        assert st["sum_c_abs"] == F(5, 3)
        assert st["b_max"] == 1

    def test_stage_count(self):
        assert scheme_stats(catalog("lie1"))["stage_count"] == 2
        assert scheme_stats(catalog("s6"))["stage_count"] == 2 + 3 + 4


class TestApply:
    def test_identity_flows_single_term(self):
        state = np.arange(12.0).reshape(3, 4)
        out = apply(catalog("lie1"), identity_flows(), 0.3, state)
        assert np.array_equal(out, state)

    def test_weighted_sum_with_identity_flows(self):
        # with identity flows every term returns the state, so the output is
        # (sum c_i) * state = state for any scheme
        state = np.arange(6.0)
        for name in ("s3_1", "s6", "s4_2"):
            out = apply(catalog(name), identity_flows(), 0.1, state)
            assert np.max(np.abs(out - state)) < 1e-13

    def test_commuting_flows_exact(self):
        # commuting scalar flows: any scheme with per-term sum(a)=sum(b)=1
        # reproduces exp(tau (ka + kb)) up to rounding
        state = np.array([1.0, -2.0, 0.5])
        exact = math.exp(0.7 * (0.3 + 1.1)) * state
        for name in ("lie1", "strang_b", "s3_2", "s4_3", "s6"):
            out = apply(catalog(name), linear_flows(0.3, 1.1), 0.7, state)
            assert np.max(np.abs(out - exact)) <= 1e-12 * np.max(np.abs(exact)), name

    def test_linearity_in_weights(self):
        # applying the scheme equals the weighted sum of per-term applications
        flows = linear_flows(0.4, -0.2)
        state = np.linspace(-1, 1, 17)
        for name in ("s3_1", "s4_4", "s8"):
            s = catalog(name)
            total = np.zeros_like(state)
            for term in s.terms:
                single = SplitScheme("one", 1, (Term(F(1), term.stages),), "spe")
                total = total + float(term.weight) * apply(single, flows, 0.23, state)
            out = apply(s, flows, 0.23, state)
            assert np.max(np.abs(out - total)) <= 1e-14 * max(1.0, np.max(np.abs(out)))

    def test_terms_restart_from_input(self):
        # each term's stage chain starts from the original input, never from
        # another term's output
        flows = FlowPair(lambda tau, s: s + 1.0, lambda tau, s: s)
        state = np.zeros(4)
        out = apply(catalog("sws2"), flows, 0.1, state)
        # sws2 terms each apply the A flow exactly once; contamination would
        # give state+1.5 instead
        assert np.max(np.abs(out - 1.0)) < 1e-15
        assert np.array_equal(state, np.zeros(4))

    def test_flow_errors_carry_term_and_stage(self):
        def bad_b(tau, s):
            raise ValueError("boom")

        flows = FlowPair(lambda tau, s: s, bad_b)
        with pytest.raises(RuntimeError, match="term 0 stage 0") as ei:
            apply(catalog("lie1"), flows, 0.1, np.ones(3))
        assert isinstance(ei.value.__cause__, ValueError)

    def test_flow_error_index_points_at_failing_stage(self):
        # s3_2 term 0 has stages [(0,1/3),(2/3,2/3),(1/3,0)]: a is skipped at
        # stage 0, so its second a call, the only one with a = 1/3, is term 0
        # stage 2; term 1 calls a once, with a = 1. The flow fails on that
        # coefficient, whichever thread runs which term first.
        calls = []

        def flaky_a(tau, s):
            calls.append(tau)
            if tau == float(F(1, 3)) * 0.1:
                raise ArithmeticError("overflow")
            return s

        flows = FlowPair(flaky_a, lambda tau, s: s)
        with pytest.raises(RuntimeError, match="term 0 stage 2"):
            apply(catalog("s3_2"), flows, 0.1, np.ones(3))
        assert sorted(calls) == sorted([float(F(2, 3)) * 0.1, float(F(1, 3)) * 0.1, 0.1])

    def test_zero_tau_identity(self):
        rng = np.random.default_rng(0)
        state = rng.standard_normal(8)
        out = apply(catalog("s4_2"), linear_flows(2.0, -1.0), 0.0, state)
        assert np.max(np.abs(out - state)) < 1e-15


class TestCompensatedCombine:
    """apply's buffered combine against a fresh array per operation."""

    @pytest.mark.parametrize("model_id", ["toy", "nls_nonlinear", "rd_system"])
    @pytest.mark.parametrize("name", [n for n in sorted(CATALOG_TABLE)
                                      if len(catalog(n).terms) > 1])
    def test_bit_identical_to_allocating_combine(self, model_id, name):
        m = make_model(model_id)
        g = default_grid(m, 16)
        flows = flow_pair(m, g)
        state = initial_condition(m, g)
        out = apply(catalog(name), flows, 0.05, state)
        ref = apply_allocating(catalog(name), flows, 0.05, state)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


class TestPlan:
    def test_bins_balance_substep_counts(self):
        # s6: terms of 3, 5 and 7 substeps; s4_2: 5, 5, 3 and 3
        s6, s4_2 = catalog("s6").plan, catalog("s4_2").plan
        assert [len(t) for t in s6.terms] == [3, 5, 7]
        assert s6.bins == ((2,), (0, 1))
        assert [len(t) for t in s4_2.terms] == [5, 5, 3, 3]
        assert s4_2.bins == ((0, 2), (1, 3))
        assert catalog("s4_4").plan.bins == ((1,), (0,))

    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_every_term_in_one_bin(self, name):
        plan = catalog(name).plan
        assert sorted(plan.bins[0] + plan.bins[1]) == list(range(len(plan.terms)))
        assert all(list(b) == sorted(b) for b in plan.bins)
        single = len(plan.terms) == 1
        assert plan.single == single and (plan.bins[1] == ()) == single

    def test_substeps_drop_zero_coefficients(self):
        # s3_2 term 0: stages (0, 1/3), (2/3, 2/3), (1/3, 0); flow 0 is A, 1 is B
        assert catalog("s3_2").plan.terms[0] == (
            (0, 1, 1 / 3), (1, 0, 2 / 3), (1, 1, 2 / 3), (2, 0, 1 / 3))
        assert catalog("s3_2").plan.weights == (9 / 8, -1 / 8)

    def test_built_once_per_scheme(self):
        assert catalog("s6").plan is catalog("s6").plan


def _raising_on(coefficients, tau):
    """A B flow raising ValueError at the given stage coefficients, and the
    threads it raised on."""
    raised_on = []

    def b_flow(t, s):
        if any(t == float(c) * tau for c in coefficients):
            raised_on.append(threading.current_thread())
            raise ValueError(f"boom at {t}")
        return s

    return b_flow, raised_on


def _s6_step():
    return apply(catalog("s6"), linear_flows(1.0, -0.5), 0.1, np.ones(3)).tobytes()


class TestTwoThreadStep:
    """apply, with its terms split over two threads, against the serial
    reference engine."""

    @pytest.mark.parametrize("model_id", model_names())
    @pytest.mark.parametrize("scheme", [catalog(n) for n in sorted(CATALOG_TABLE)]
                             + [richardson_scheme((1, 2, 3, 4))], ids=lambda s: s.name)
    def test_bit_identical_to_serial(self, model_id, scheme):
        m = make_model(model_id)
        g = default_grid(m, 16)
        state = initial_condition(m, g)
        before = state.copy()
        for tau in (0.05, -0.05):
            backward = tau < 0 or scheme.scheme_class == "spe_negative"
            flows = flow_pair(m, g, allow_backward=backward)
            with np.errstate(all="ignore"):
                out = apply(scheme, flows, tau, state)
                ref = apply_allocating(scheme, flows, tau, state)
            assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()
        assert np.array_equal(state, before)

    def test_helper_error_surfaces_on_caller(self):
        # s4_4 runs term 1 here and term 0, the only one with b = 1, on the helper
        b_flow, raised_on = _raising_on([1], 0.1)
        with pytest.raises(RuntimeError, match=r"^scheme s4_4 term 0 stage 0: boom") as ei:
            apply(catalog("s4_4"), FlowPair(lambda t, s: s, b_flow), 0.1, np.ones(4))
        assert isinstance(ei.value.__cause__, ValueError)
        assert str(ei.value.__cause__) == "boom at 0.1"
        assert raised_on and raised_on[0] is not threading.current_thread()

    def test_lowest_failing_term_surfaces(self):
        # s4_2's bins are (0, 2) and (1, 3); term 1 opens with b = 1/4 on the
        # helper, term 2 with b = 1 here, and the serial loop meets term 1 first
        b_flow, raised_on = _raising_on([F(1, 4), 1], 0.1)
        with pytest.raises(RuntimeError, match=r"^scheme s4_2 term 1 stage 0: boom"):
            apply(catalog("s4_2"), FlowPair(lambda t, s: s, b_flow), 0.1, np.ones(4))
        assert len(raised_on) == 2

    def test_caller_error_state_applies_on_helper(self):
        # only s4_4's term 0, on the helper, has b = 1 and overflows
        def b_flow(t, s):
            return s * (1e300 if t == 0.1 else 1.0)

        flows = FlowPair(lambda t, s: s, b_flow)
        with np.errstate(over="raise"):
            with pytest.raises(RuntimeError, match="term 0 stage 0") as ei:
                apply(catalog("s4_4"), flows, 0.1, np.full(4, 1e10))
            assert isinstance(ei.value.__cause__, FloatingPointError)
            with np.errstate(over="ignore", invalid="ignore"):
                out = apply(catalog("s4_4"), flows, 0.1, np.full(4, 1e10))
            assert not np.any(np.isfinite(out))

    def test_concurrent_callers(self):
        m = make_model("toy")
        g = default_grid(m, 16)
        flows = flow_pair(m, g)
        base = initial_condition(m, g)
        states = [base * (1.0 + 0.1 * i) for i in range(4)]
        expected = [apply_allocating(catalog("s6"), flows, 0.05, u) for u in states]
        outcomes = [[] for _ in states]

        def caller(i):
            for _ in range(25):
                outcomes[i].append(apply(catalog("s6"), flows, 0.05, states[i]).tobytes())

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(states))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, ref in zip(outcomes, expected):
            assert got == [ref.tobytes()] * 25

    def test_forked_child_starts_its_own_helper(self):
        expected = _s6_step()  # the helper thread now runs in this process
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_s6_step).get(timeout=60) == expected

    def test_helper_starts_with_warm_up(self, monkeypatch):
        schemes._warm_up()
        ran_on = []
        monkeypatch.setattr(schemes, "_warm_up", lambda: ran_on.append(threading.current_thread()))
        monkeypatch.setattr(schemes, "_helper_pool", None)
        pool = schemes._helper()
        try:
            assert len(ran_on) == 1 and ran_on[0] is not threading.current_thread()
            assert schemes._helper() is pool and len(ran_on) == 1
        finally:
            pool.shutdown()

    def test_single_term_schemes_stay_on_caller(self, monkeypatch):
        def no_helper():
            raise AssertionError("a single-term scheme used the helper thread")

        with monkeypatch.context() as patched:
            patched.setattr(schemes, "_helper", no_helper)
            flows = linear_flows(1.0, -0.5)
            for name in ("lie1", "lie2", "strang_a", "strang_b", "s4_neg"):
                apply(catalog(name), flows, 0.1, np.ones(3))
        # a run hands its rows to the helper (harness imports `submit`), but
        # its steps, which reach the helper through `schemes.submit`, never do
        submitted = []
        monkeypatch.setattr(schemes, "submit", lambda fn, *args: submitted.append(fn))
        config = harness.RunConfig(model="ac", scheme="strang_a", nx=16, tau=0.1, t_final=0.2)
        record = harness.run(config)
        assert record.status == "ok" and submitted == []
        ref = run_serial(config)
        assert np.asarray(record.rows).tobytes() == np.asarray(ref.rows).tobytes()
        assert record.final_state.tobytes() == ref.final_state.tobytes()


class TestJsonRoundtrip:
    @pytest.mark.parametrize("name", sorted(CATALOG_TABLE))
    def test_roundtrip_exact(self, name):
        s = catalog(name)
        back = scheme_from_json(scheme_to_json(s))
        assert back.name == s.name
        assert back.claimed_order == s.claimed_order
        assert back.scheme_class == s.scheme_class
        assert back.exact == s.exact
        assert back.terms == s.terms  # Fraction equality, exact

    def test_exact_flag_written_and_read(self):
        import dataclasses
        import json

        foil = catalog("s4_neg")
        assert json.loads(scheme_to_json(foil))["exact"] is False
        renamed = dataclasses.replace(foil, name="foil_copy")
        assert scheme_from_json(scheme_to_json(renamed)).exact is False
        # a document without the key falls back to the name
        for name, expected in (("s4_neg", False), ("foil_copy", True)):
            doc = json.loads(scheme_to_json(dataclasses.replace(foil, name=name)))
            del doc["exact"]
            assert scheme_from_json(json.dumps(doc)).exact is expected

    def test_rationals_are_strings(self):
        import json

        doc = json.loads(scheme_to_json(catalog("s3_2")))
        assert doc["name"] == "s3_2"
        assert doc["terms"][0]["c"] in ("9/8", "-1/8")
        for term in doc["terms"]:
            for a, b in term["stages"]:
                Fraction(a), Fraction(b)  # parseable exact rationals
