"""Order verification: the printed algebraic conditions through order 3,
empirical order measurement against a dense matrix-exponential oracle, and
time-reversibility defects.

The algebraic layer evaluates the 3 + 4 + 8 printed condition sums in exact
rational arithmetic, so "satisfied" means equality, not a small residual.
Schemes with decimal-truncated coefficients are evaluated in floats with a
1e-12 tolerance instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .schemes import FlowPair, SplitScheme, Term, apply

F = Fraction


@dataclass
class ConditionReport:
    order_level: int
    condition_id: str
    lhs: object
    rhs: object
    satisfied: bool


def _term_sums(term: Term, exact: bool):
    conv = (lambda x: x) if exact else float
    a = [conv(s[0]) for s in term.stages]
    b = [conv(s[1]) for s in term.stages]
    return a, b


def _condition_values(scheme: SplitScheme):
    """The 15 printed sums, keyed by word id, plus their right-hand sides."""
    exact = scheme.exact
    zero = F(0) if exact else 0.0
    vals = {k: zero for k in (
        "1", "A", "B", "AA", "BB", "AB", "BA",
        "AAA", "BBB", "AAB", "BAA", "ABA", "ABB", "BBA", "BAB",
    )}
    for term in scheme.terms:
        c = term.weight if exact else float(term.weight)
        a, b = _term_sums(term, exact)
        m = len(a)
        sa, sb = sum(a), sum(b)
        vals["1"] += c
        vals["A"] += c * sa
        vals["B"] += c * sb
        vals["AA"] += c * sa * sa
        vals["BB"] += c * sb * sb
        # prefix sums: A_le[j] = sum_{i <= j} a_i, B_lt[j] = sum_{i < j} b_i
        acc = zero
        A_le = []
        for x in a:
            acc = acc + x
            A_le.append(acc)
        acc = zero
        B_lt = []
        for x in b:
            B_lt.append(acc)
            acc = acc + x
        A_gt = [sa - A_le[j] for j in range(m)]
        B_ge = [sb - B_lt[j] for j in range(m)]
        vals["AB"] += c * sum(a[j] * B_ge[j] for j in range(m))
        vals["BA"] += c * sum(b[j] * A_gt[j] for j in range(m))
        vals["AAA"] += c * sa * sa * sa
        vals["BBB"] += c * sb * sb * sb
        vals["AAB"] += c * sum(b[j] * A_le[j] ** 2 for j in range(m))
        vals["BAA"] += c * sum(b[j] * A_gt[j] ** 2 for j in range(m))
        vals["ABA"] += c * sum(b[j] * A_le[j] * A_gt[j] for j in range(m))
        vals["ABB"] += c * sum(a[j] * B_ge[j] ** 2 for j in range(m))
        vals["BBA"] += c * sum(a[j] * B_lt[j] ** 2 for j in range(m))
        vals["BAB"] += c * sum(a[j] * B_lt[j] * B_ge[j] for j in range(m))
    return vals


_LEVELS = {
    1: [("1", F(1)), ("A", F(1)), ("B", F(1))],
    2: [("AA", F(1)), ("BB", F(1)), ("AB", F(1, 2)), ("BA", F(1, 2))],
    3: [
        ("AAA", F(1)), ("BBB", F(1)),
        ("AAB", F(1, 3)), ("BAA", F(1, 3)), ("ABA", F(1, 6)),
        ("ABB", F(1, 3)), ("BBA", F(1, 3)), ("BAB", F(1, 6)),
    ],
}

FLOAT_CONDITION_TOL = 1e-12


def verify_conditions(scheme: SplitScheme, up_to: int = 3):
    """One ConditionReport per printed condition at levels 1..up_to."""
    if up_to not in (1, 2, 3):
        raise ValueError("up_to must be 1, 2, or 3")
    vals = _condition_values(scheme)
    reports = []
    for level in range(1, up_to + 1):
        for cid, rhs in _LEVELS[level]:
            lhs = vals[cid]
            if scheme.exact:
                ok = lhs == rhs
            else:
                ok = abs(lhs - float(rhs)) <= FLOAT_CONDITION_TOL
            reports.append(ConditionReport(level, cid, lhs, rhs if scheme.exact else float(rhs), ok))
    return reports


def passes_order(scheme: SplitScheme, k: int) -> bool:
    return all(r.satisfied for r in verify_conditions(scheme, min(k, 3)))


# ---------------------------------------------------------------------------
# dense matrix oracle

@dataclass
class MatrixOraclePair:
    dimension: int
    A: np.ndarray
    B: np.ndarray
    seed: int
    norm_cap: float
    probe: np.ndarray = field(default=None)


def make_matrix_oracle(dimension: int = 6, seed: int = 42, norm_cap: float = 1.0) -> MatrixOraclePair:
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (dimension, dimension))
    B = rng.uniform(-1.0, 1.0, (dimension, dimension))
    A *= norm_cap / np.linalg.norm(A, 2)
    B *= norm_cap / np.linalg.norm(B, 2)
    if np.linalg.norm(A @ B - B @ A, 2) < 1e-3:
        raise ValueError(f"oracle pair nearly commutes for seed {seed}")
    v = rng.uniform(-1.0, 1.0, dimension)
    v /= np.linalg.norm(v)
    return MatrixOraclePair(dimension, A, B, seed, norm_cap, v)


def _expm_pade(M: np.ndarray) -> np.ndarray:
    """scipy's Pade matrix exponential; scipy.linalg is imported on the first
    call, so a process that never certifies an order does not load it."""
    from scipy.linalg import expm

    return expm(M)


def expm_series(M: np.ndarray) -> np.ndarray:
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


def matrix_flows(oracle: MatrixOraclePair, expm=_expm_pade) -> FlowPair:
    """Flow pair x -> expm(tau A) x with per-coefficient caching."""
    cache_a, cache_b = {}, {}

    def a_flow(tau, x):
        K = cache_a.get(tau)
        if K is None:
            K = cache_a[tau] = expm(tau * oracle.A)
        return K @ x

    def b_flow(tau, x):
        K = cache_b.get(tau)
        if K is None:
            K = cache_b[tau] = expm(tau * oracle.B)
        return K @ x

    return FlowPair(a_flow, b_flow)


@dataclass
class OrderFit:
    slope: float
    residual: float
    taus: list
    errors: list
    floored: bool


ERROR_FLOOR_FACTOR = 1e2


def _fit_loglog(taus, errors):
    lt = np.log(np.asarray(taus))
    le = np.log(np.asarray(errors))
    slope, intercept = np.polyfit(lt, le, 1)
    resid = float(np.sqrt(np.mean((slope * lt + intercept - le) ** 2)))
    return float(slope), resid


def empirical_order(scheme: SplitScheme, oracle: MatrixOraclePair | None = None,
                    tau_ladder=None, precision: str = "auto") -> OrderFit:
    """Fit the slope of the one-step defect || S(tau) v - e^{tau(A+B)} v ||.

    Expected slope is claimed_order + 1. Orders above 4 sink below the
    float64 round-off floor on this oracle, so they are evaluated in 40-digit
    arithmetic instead; float64 points under the floor are dropped and the
    fit is flagged as floored.
    """
    oracle = oracle or make_matrix_oracle()
    if tau_ladder is None:
        tau_ladder = np.geomspace(5e-2, 3e-3, 8)
    taus = [float(t) for t in tau_ladder]
    if precision == "auto":
        precision = "float64" if scheme.claimed_order <= 4 else "extended"
    if precision == "extended":
        taus_used, errors, floored = _defects_extended(scheme, oracle, taus)
    else:
        v = oracle.probe
        flows = matrix_flows(oracle)
        floor = ERROR_FLOOR_FACTOR * np.finfo(float).eps * np.linalg.norm(v)
        taus_used, errors = [], []
        floored = False
        for t in taus:
            exact = _expm_pade(t * (oracle.A + oracle.B)) @ v
            err = float(np.linalg.norm(apply(scheme, flows, t, v) - exact))
            if err < floor:
                floored = True
                continue
            taus_used.append(t)
            errors.append(err)
    if len(taus_used) < 2:
        raise ValueError("empirical_order: not enough ladder points above the error floor")
    slope, resid = _fit_loglog(taus_used, errors)
    if resid > 0.05 and len(taus_used) >= 4:
        slope, resid = _fit_loglog(taus_used[1:-1], errors[1:-1])
    return OrderFit(slope, resid, taus_used, errors, floored)


def _defects_extended(scheme: SplitScheme, oracle: MatrixOraclePair, taus):
    import mpmath as mp

    def exact_mpf(c):
        # Fractions must survive the conversion exactly; float64 rounding of a
        # stage coefficient injects a ~1e-16 floor that buries high orders.
        if isinstance(c, Fraction):
            return mp.mpf(c.numerator) / c.denominator
        return mp.mpf(c)

    with mp.workdps(40):
        A = mp.matrix(oracle.A.tolist())
        B = mp.matrix(oracle.B.tolist())
        v = mp.matrix([[float(x)] for x in oracle.probe])
        floor = ERROR_FLOOR_FACTOR * mp.mpf(10) ** (-40) * mp.norm(v)
        taus_used, errors = [], []
        floored = False
        for t in taus:
            tm = mp.mpf(t)
            cache = {}

            def flow(mat, key, coeff):
                k = (key, coeff)
                if k not in cache:
                    cache[k] = mp.expm(mat * (exact_mpf(coeff) * tm))
                return cache[k]

            acc = mp.matrix(oracle.dimension, 1)
            for term in scheme.terms:
                work = v
                for a, b in term.stages:
                    if a != 0:
                        work = flow(A, "a", a) * work
                    if b != 0:
                        work = flow(B, "b", b) * work
                acc += exact_mpf(term.weight) * work
            exact = mp.expm((A + B) * tm) * v
            diff = acc - exact
            err = mp.sqrt(sum(x * x for x in diff))
            if err < floor:
                floored = True
                continue
            taus_used.append(t)
            errors.append(float(err))
    return taus_used, errors, floored


def reversibility_defect(term, oracle: MatrixOraclePair | None = None, tau: float = 0.1) -> float:
    """|| S(tau) S(-tau) - I || in the spectral norm, for a single product
    chain: a `Term`, or a scheme with one term. Each S is `apply` of the
    chain alone, with weight 1, to the identity matrix."""
    oracle = oracle or make_matrix_oracle()
    if isinstance(term, SplitScheme):
        if len(term.terms) != 1:
            raise ValueError("reversibility_defect expects a single-term scheme")
        term = term.terms[0]
    chain = SplitScheme("chain", 1, (Term(F(1), term.stages),), "spe")
    flows = matrix_flows(oracle)
    eye = np.eye(oracle.dimension)
    D = apply(chain, flows, tau, eye) @ apply(chain, flows, -tau, eye) - eye
    return float(np.linalg.norm(D, 2))
