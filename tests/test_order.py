import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mpesplit.order import (
    FLOAT_CONDITION_TOL,
    MatrixOraclePair,
    _expm_pade,
    empirical_order,
    make_matrix_oracle,
    matrix_flows,
    reversibility_defect,
    verify_conditions,
)
from mpesplit.schemes import FlowPair, SplitScheme, Term, apply, catalog, catalog_names
from reference_schemes import reversibility_defect_by_hand
from wordseries import defect_length

F = Fraction


def by_id(reports):
    return {r.condition_id: r for r in reports}


def passes_order(scheme, k):
    """Every printed condition through level min(k, 3) is satisfied."""
    return all(r.satisfied for r in verify_conditions(scheme, min(k, 3)))


def expm_series(M):
    """Scaling-and-squaring Taylor exponential, independent of the Pade route."""
    M = np.asarray(M, dtype=float)
    norm = np.linalg.norm(M, np.inf)
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    X = M / (2**s)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 60):
        term = term @ X / k
        out = out + term
        if np.linalg.norm(term, np.inf) < 1e-18 * np.linalg.norm(out, np.inf):
            break
    for _ in range(s):
        out = out @ out
    return out


def series_flows(oracle):
    """The flows of `matrix_flows`, each exponential taken by `expm_series`."""
    return FlowPair(lambda tau, x: expm_series(tau * oracle.A) @ x,
                    lambda tau, x: expm_series(tau * oracle.B) @ x)


class TestConditionTable:
    def test_report_counts(self):
        assert len(verify_conditions(catalog("s3_1"), up_to=1)) == 3
        assert len(verify_conditions(catalog("s3_1"), up_to=2)) == 7
        assert len(verify_conditions(catalog("s3_1"), up_to=3)) == 15

    def test_bad_level(self):
        with pytest.raises(ValueError):
            verify_conditions(catalog("lie1"), up_to=0)
        with pytest.raises(ValueError):
            verify_conditions(catalog("lie1"), up_to=4)

    def test_right_hand_sides(self):
        r = by_id(verify_conditions(catalog("s3_1")))
        assert r["1"].rhs == 1 and r["A"].rhs == 1 and r["B"].rhs == 1
        assert r["AA"].rhs == 1 and r["BB"].rhs == 1
        assert r["AB"].rhs == F(1, 2) and r["BA"].rhs == F(1, 2)
        assert r["AAA"].rhs == 1 and r["BBB"].rhs == 1
        for cid in ("AAB", "BAA", "ABB", "BBA"):
            assert r[cid].rhs == F(1, 3)
        assert r["ABA"].rhs == F(1, 6) and r["BAB"].rhs == F(1, 6)

    def test_satisfied_means_exact_equality(self):
        for name in catalog_names():
            s = catalog(name)
            if not s.exact:
                continue
            for r in verify_conditions(s):
                assert r.satisfied == (r.lhs == r.rhs), (name, r.condition_id)

    def test_lie1_pattern(self):
        # B applied first, so the scheme has all its A-before-B mass at zero
        r = by_id(verify_conditions(catalog("lie1")))
        assert all(r[c].satisfied for c in ("1", "A", "B"))
        assert r["AB"].lhs == 0 and not r["AB"].satisfied
        assert r["BA"].lhs == 1 and not r["BA"].satisfied
        assert r["AA"].satisfied and r["BB"].satisfied

    def test_lie2_mirror_pattern(self):
        r = by_id(verify_conditions(catalog("lie2")))
        assert r["AB"].lhs == 1 and not r["AB"].satisfied
        assert r["BA"].lhs == 0 and not r["BA"].satisfied

    def test_strang_a_fails_only_at_level_three(self):
        r = by_id(verify_conditions(catalog("strang_a")))
        for level_1_2 in ("1", "A", "B", "AA", "BB", "AB", "BA"):
            assert r[level_1_2].satisfied
        assert r["AAB"].lhs == F(1, 4) and not r["AAB"].satisfied
        assert r["ABA"].lhs == F(1, 4) and not r["ABA"].satisfied

    def test_sws2_fails_only_at_level_three(self):
        reports = verify_conditions(catalog("sws2"))
        for r in reports:
            if r.order_level <= 2:
                assert r.satisfied, r.condition_id
        assert not all(r.satisfied for r in reports if r.order_level == 3)

    @pytest.mark.parametrize("name", ["s3_1", "s3_2", "s4_1", "s4_2", "s4_3",
                                      "s4_4", "s6", "s8", "s10"])
    def test_high_order_schemes_pass_all_fifteen(self, name):
        assert all(r.satisfied for r in verify_conditions(catalog(name)))

    def test_s4_neg_float_path(self):
        s = catalog("s4_neg")
        reports = verify_conditions(s)
        assert all(r.satisfied for r in reports)
        for r in reports:
            assert isinstance(r.lhs, float)
            assert abs(r.lhs - r.rhs) <= FLOAT_CONDITION_TOL


class TestPassesOrder:
    def test_lie_pair(self):
        assert passes_order(catalog("lie1"), 1)
        assert not passes_order(catalog("lie1"), 2)
        assert passes_order(catalog("lie2"), 1)
        assert not passes_order(catalog("lie2"), 2)

    def test_strang(self):
        assert passes_order(catalog("strang_a"), 2)
        assert not passes_order(catalog("strang_a"), 3)

    def test_catalog_claims(self):
        for name in catalog_names():
            s = catalog(name)
            k = min(s.claimed_order, 3)
            assert passes_order(s, k), name
            if s.claimed_order < 3:
                assert not passes_order(s, s.claimed_order + 1), name


def conditions_order(scheme):
    """Largest level in 0..3 through which every condition is satisfied."""
    reports = verify_conditions(scheme, up_to=3)
    order = 0
    for level in (1, 2, 3):
        if all(r.satisfied for r in reports if r.order_level == level):
            order = level
        else:
            break
    return order


def word_order_capped(scheme):
    """Word-series local order, clamped to the 0..4 window the condition
    tables can see.  A defect at word length 0 (weights not summing to 1)
    lands in the same bucket as a length-1 defect: not even order 1."""
    n = defect_length(scheme, 4)
    return 4 if n is None else max(0, n - 1)


class TestConditionsAgainstWordSeries:
    """The condition tables and the formal word-series expansion are
    independent routes to the same local order; they must agree through
    level 3 on any scheme, not just the published ones."""

    @pytest.mark.parametrize("name", sorted(catalog_names()))
    def test_catalog_agreement(self, name):
        s = catalog(name)
        if s.exact:
            assert conditions_order(s) == min(3, word_order_capped(s))
        else:
            # decimal-truncated coefficients: compare with a tolerance far
            # below any genuine defect
            n = defect_length(s, 4, tol=F(1, 10 ** 20))
            word = 4 if n is None else max(0, n - 1)
            assert conditions_order(s) == min(3, word)

    def test_broken_weight_agreement(self):
        base = catalog("s3_1")
        terms = list(base.terms)
        terms[0] = Term(terms[0].weight * F(101, 100), terms[0].stages)
        broken = SplitScheme("broken", 1, tuple(terms), "mpe_positive")
        assert conditions_order(broken) == word_order_capped(broken) == 0

    def test_skewed_strang_agreement(self):
        skew = SplitScheme(
            "skew", 1,
            (Term(F(1), ((F(2, 5), F(1)), (F(3, 5), F(0)))),),
            "spe",
        )
        assert conditions_order(skew) == word_order_capped(skew) == 1

    def test_weighted_lie_pair_agreement(self):
        # averaging the two Lie schemes restores the level-2 conditions
        avg = SplitScheme(
            "avg", 2,
            (
                Term(F(1, 2), ((F(0), F(1)), (F(1), F(0)))),
                Term(F(1, 2), ((F(1), F(1)),)),
            ),
            "mpe_positive",
        )
        assert conditions_order(avg) == word_order_capped(avg) == 2


class TestMatrixOracle:
    def test_default_shape_and_norms(self, oracle):
        assert oracle.dimension == 6
        assert oracle.A.shape == (6, 6) and oracle.B.shape == (6, 6)
        assert abs(np.linalg.norm(oracle.A, 2) - 1.0) < 1e-12
        assert abs(np.linalg.norm(oracle.B, 2) - 1.0) < 1e-12
        assert abs(np.linalg.norm(oracle.probe) - 1.0) < 1e-12

    def test_noncommuting(self, oracle):
        comm = oracle.A @ oracle.B - oracle.B @ oracle.A
        assert np.linalg.norm(comm, 2) >= 1e-3

    def test_seed_reproducible(self):
        a = make_matrix_oracle(seed=7)
        b = make_matrix_oracle(seed=7)
        c = make_matrix_oracle(seed=8)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
        assert not np.array_equal(a.A, c.A)

    def test_norm_cap(self):
        o = make_matrix_oracle(norm_cap=0.5)
        assert abs(np.linalg.norm(o.A, 2) - 0.5) < 1e-12

    def test_exponential_dual_route(self, oracle):
        # independent Taylor scaling-and-squaring vs the Pade route
        for M in (oracle.A, oracle.B, 0.7 * (oracle.A + oracle.B)):
            d = np.linalg.norm(expm_series(M) - _expm_pade(M), 2)
            assert d <= 1e-12

    def test_exponential_of_zero(self):
        assert np.array_equal(expm_series(np.zeros((4, 4))), np.eye(4))

    def test_exponential_diagonal(self):
        M = np.diag([0.3, -1.2, 2.0])
        out = expm_series(M)
        assert np.allclose(np.diag(out), np.exp([0.3, -1.2, 2.0]), rtol=1e-14)

    def test_flow_cache_consistency(self, oracle):
        flows = matrix_flows(oracle)
        v = oracle.probe
        first = flows.a_flow(0.1, v)
        second = flows.a_flow(0.1, v)
        assert np.array_equal(first, second)

    def test_flow_custom_exponential(self, oracle):
        default = matrix_flows(oracle)
        series = series_flows(oracle)
        v = oracle.probe
        d = np.linalg.norm(default.b_flow(0.4, v) - series.b_flow(0.4, v))
        assert d <= 1e-13


class TestLazyLinalg:
    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import mpesplit.cli; "
                "print('scipy.linalg' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "False"
        from scipy.linalg import expm

        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(_expm_pade(M), expm(M))


class TestCommutingPair:
    def test_splitting_exact_when_flows_commute(self):
        # B a polynomial of A: the splitting error vanishes for any scheme
        # whose terms each satisfy sum(a) = sum(b) = 1
        base = make_matrix_oracle(seed=3)
        A = base.A
        B = A @ A + 0.5 * A
        B = B / np.linalg.norm(B, 2)
        oracle = MatrixOraclePair(6, A, B, seed=3, norm_cap=1.0, probe=base.probe)
        flows = matrix_flows(oracle)
        tau = 0.3
        exact = _expm_pade(tau * (A + B)) @ base.probe
        for name in ("lie1", "strang_a", "s3_2", "s6"):
            out = apply(catalog(name), flows, tau, base.probe)
            assert np.linalg.norm(out - exact) <= 1e-12, name


class TestReversibility:
    def test_strang_is_reversible(self, oracle):
        assert reversibility_defect(catalog("strang_a"), oracle) <= 1e-12
        assert reversibility_defect(catalog("strang_b"), oracle) <= 1e-12

    def test_s4_2_component_chains_are_reversible(self, oracle):
        for term in catalog("s4_2").terms:
            assert reversibility_defect(term, oracle) <= 1e-12

    def test_triple_jump_chain_is_reversible(self, oracle):
        assert reversibility_defect(catalog("s4_neg"), oracle) <= 1e-12

    def test_lie_is_not_reversible(self, oracle):
        assert reversibility_defect(catalog("lie1"), oracle, tau=0.1) > 1e-3

    @pytest.mark.parametrize("tau", [0.1, 0.37, 1e-3])
    def test_matches_chain_by_hand(self, oracle, tau):
        # each single-term scheme, and each term of two multi-term ones
        terms = [catalog(name).terms[0]
                 for name in ("lie1", "lie2", "strang_a", "strang_b", "s4_neg")]
        terms += [*catalog("s4_2").terms, *catalog("s6").terms]
        for term in terms:
            assert (reversibility_defect(term, oracle, tau)
                    == reversibility_defect_by_hand(term.stages, oracle, tau)), term
        assert (reversibility_defect(catalog("s4_neg"), oracle, tau)
                == reversibility_defect_by_hand(catalog("s4_neg").terms[0].stages, oracle, tau))

    def test_multi_term_scheme_rejected(self, oracle):
        with pytest.raises(ValueError):
            reversibility_defect(catalog("s3_1"), oracle)


class TestEmpiricalOrder:
    def test_lie1_slope(self, oracle):
        fit = empirical_order(catalog("lie1"), oracle)
        assert abs(fit.slope - 2.0) <= 0.15
        assert not fit.floored
        assert len(fit.taus) == len(fit.errors) == 8

    def test_strang_slope(self, oracle):
        fit = empirical_order(catalog("strang_a"), oracle)
        assert abs(fit.slope - 3.0) <= 0.2

    def test_s4_2_slope(self, oracle):
        fit = empirical_order(catalog("s4_2"), oracle)
        assert abs(fit.slope - 5.0) <= 0.3

    def test_extended_matches_float64_for_low_order(self, oracle):
        f64 = empirical_order(catalog("lie1"), oracle)
        ext = empirical_order(catalog("lie1"), oracle, precision="extended")
        assert abs(f64.slope - ext.slope) < 0.02
        assert not ext.floored

    def test_s6_needs_extended_precision(self, oracle):
        fit = empirical_order(catalog("s6"), oracle)
        assert abs(fit.slope - 7.0) <= 0.3
        assert not fit.floored

    def test_ladder_below_floor_rejected(self, oracle):
        with pytest.raises(ValueError):
            empirical_order(catalog("s4_2"), oracle, tau_ladder=[1e-7, 3e-8],
                            precision="float64")

    def test_errors_decrease_along_ladder(self, oracle):
        fit = empirical_order(catalog("strang_a"), oracle)
        assert all(e1 > e2 for e1, e2 in zip(fit.errors, fit.errors[1:]))
