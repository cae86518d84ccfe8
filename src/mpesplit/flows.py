"""Closed-form and Runge-Kutta realizations of the nonlinear propagator E_B.

Closed forms exist for the three scalar nonlinearities used by the models
(lambda*tanh(u), u - u**3, and the Schroedinger phase rotation); everything
else goes through a 10-stage 4th-order SSP Runge-Kutta integrator applied
pointwise. Truncated right-hand sides keep the nonlinearity globally
Lipschitz, which is what the stability bounds are stated for.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


# flow_tanh takes its direct form alone when max |v| + lam*tau is at most
# this: 30 less a margin for the rounding of the window's bound
_TANH_DIRECT_MAX = 29.0


def flow_tanh(v, lam: float, tau: float):
    """Exact flow of u' = lam * tanh(u): arcsinh(sinh(v) * exp(lam*tau)).

    sinh overflows for |v| above ~710, and exp(lam*tau) can overflow on its
    own, so large arguments are handled through log(sinh|v|) + lam*tau
    (`_tanh_branches`).

    An element takes the direct form when |v| <= 700, lam*tau <= 700 and
    log(sinh|v|) + lam*tau <= 30, and the computed log(sinh|v|) never
    exceeds |v|. So when lam*tau <= 700 and every |v| is at most
    min(700, 29 - lam*tau), which costs two reductions (`in_window`; a NaN
    in v or in lam*tau fails the test), every element takes the direct form,
    and it alone is evaluated: the result is bit-identical to
    `_tanh_branches`'.
    """
    x = np.asarray(v, dtype=float)
    lt = lam * tau
    if x.size and lt <= 700.0 and in_window(x, min(700.0, _TANH_DIRECT_MAX - lt)):
        return np.arcsinh(np.sinh(x) * np.exp(lt))
    return _tanh_branches(x, lam, tau)


def _tanh_branches(x, lam: float, tau: float):
    """`flow_tanh` of a float array by its direct form, its log form and its
    asymptote, each evaluated everywhere, then one selected per element."""
    av = np.abs(x)
    sign = np.sign(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # log(sinh(av)) = av + log1p(-exp(-2 av)) - log 2; -inf at av = 0 is fine
        log_sinh = av + np.log1p(-np.exp(-2.0 * av)) - LN2
        t = log_sinh + lam * tau  # log of |sinh(v) * exp(lam*tau)|
        direct_ok = (av <= 700.0) & (lam * tau <= 700.0) & (t <= 30.0)
        direct = np.arcsinh(np.sinh(np.where(direct_ok, x, 0.0)) * np.exp(lam * tau))
        via_log = np.arcsinh(sign * np.exp(np.where(t <= 30.0, t, 0.0)))
        asym = sign * (t + LN2)  # arcsinh(x) -> log(2x), error < 1/(4 x^2)
    return np.where(direct_ok, direct, np.where(t <= 30.0, via_log, asym))


def flow_double_well(v, tau: float):
    """Exact flow of u' = u - u**3: exp(tau)*v / sqrt(1 + (exp(2 tau) - 1) v^2).

    Valid for any v when tau >= 0. For tau < 0 the denominator can vanish;
    non-finite output is left to the caller to detect (a diverged run is a
    result, not a crash). Outside the truncation window the closed form no
    longer matches the truncated nonlinearity, so the caller tests the
    window first (see `in_window`).

    Two arrays are allocated, the denominator and the result. The operations
    run in the order of et * v / sqrt(1 + (et * et - 1) * v * v) with
    et = exp(tau), so the result is bit-identical to evaluating that
    expression with a temporary per operation.
    """
    x = np.asarray(v, dtype=float)
    et = math.exp(tau)
    den, out = np.empty_like(x), np.empty_like(x)
    with np.errstate(invalid="ignore", over="ignore"):
        np.multiply(et * et - 1.0, x, out=den)
        den *= x
        den += 1.0
        np.sqrt(den, out=den)
        np.multiply(et, x, out=out)
        out /= den
    return out


def rotation(theta):
    """exp(i*theta) for real theta, with cos(theta) and sin(theta) written
    into the real and imaginary parts of one complex array; no complex
    exponential is evaluated."""
    rot = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    return rot


def distinct_values(x):
    """(values, index): the distinct values of the float array x, told apart
    by their bits, and the place of each element of x among them, shaped
    like x. values[index] is x bit for bit: -0.0 and +0.0, and NaNs with
    different payloads, keep entries of their own, which `np.unique` on the
    values would merge. The index is found by a search of the sorted bits,
    not by `np.unique`'s inverse, whose argsort and cumulative sum hold
    three more index-sized arrays while it runs."""
    bits = np.ascontiguousarray(x, dtype=float).view(np.int64)
    kept = np.unique(bits)
    return kept.view(float), np.searchsorted(kept, bits)


def flow_phase(v, omega, rho: float, tau: float):
    """Exact flow of u' = i*(omega + rho*|u|^2)*u; |u| is pointwise invariant.

    The angle theta = tau*(omega + rho*|u|^2) is real; its `rotation`
    multiplies u in place.
    """
    x = np.asarray(v)
    rot = rotation(tau * (omega + rho * (x.real**2 + x.imag**2)))
    rot *= x
    return rot


def ssprk104(f, v, tau: float, substeps: int = 4):
    """SSP-RK(10,4) in the two-register low-storage form, `substeps` equal
    steps (at least 1; `harness.check_config` checks the count a run asks for).

    f maps an array to an array of the same shape (systems stack components
    along axis 0). No spatial coupling is assumed beyond what f itself does.

    The integrator owns its registers: q1, q2 and the stage increment k are
    allocated once per call and updated in place, q2 carrying the state
    between substeps. It never writes into what f returns, which may be f's
    input or a buffer f reuses, and it never writes into v.
    """
    q2 = np.array(v, dtype=np.result_type(v, float))
    q1 = np.empty_like(q2)
    k = np.empty_like(q2)
    dt = tau / substeps
    h = dt / 6.0
    for _ in range(substeps):
        np.copyto(q1, q2)
        for _ in range(5):
            np.multiply(f(q1), h, out=k)
            q1 += k
        # q2 = (q2 + 9 q1) / 25, then q1 = 15 q2 - 5 q1
        np.multiply(q1, 9.0, out=k)
        q2 += k
        q2 /= 25.0
        np.multiply(q2, 15.0, out=k)
        q1 *= 5.0
        np.subtract(k, q1, out=q1)
        for _ in range(4):
            np.multiply(f(q1), h, out=k)
            q1 += k
        # u = q2 + 0.6 q1 + (dt / 10) f(q1)
        np.multiply(f(q1), dt / 10.0, out=k)
        q1 *= 0.6
        q2 += q1
        q2 += k
    return q2


def _buffers(u, out, work):
    """u as a float array, plus an output and a scratch array shaped like
    it; the ones not supplied are allocated."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u) if out is None else out
    work = np.empty_like(u) if work is None else work
    return u, out, work


def in_window(u, M: float) -> bool:
    """Every value of u lies in [-M, M]; a NaN fails both comparisons."""
    return u.max() <= M and u.min() >= -M


def truncate_double_well(u, M: float, out=None, work=None, test_window: bool = True):
    """f(u) = u - u**3 continued linearly outside [-M, M].

    The slope outside is 1 - 3 M^2, so sup |f'| = 3 M^2 - 1 for M >= 1.

    Evaluated as f(c) + (1 - 3 M^2)(u - c) with c = clip(u, -M, M), the
    continuation being the tangent at the knot; inside [-M, M] the tail term
    is exactly 0. out receives the result and work is one scratch array
    shaped like u; either is allocated when not given.

    When u lies inside the window and the slope is finite, c is u itself
    and the tail is the signed zero +0 * slope, so the clip and the tail's
    passes are skipped. The result is bit-identical: adding a signed zero
    changes only a -0.0, and c - c^3 is never -0.0 (a difference is -0.0
    only for -0.0 minus +0.0, and (-0.0)^3 is -0.0). The test costs one or
    two reductions, so a caller whose states have left the window passes
    test_window=False to clip without it; the bytes are the same.
    """
    u, out, work = _buffers(u, out, work)
    slope = 1.0 - 3.0 * M * M
    inside = test_window and math.isfinite(slope) and in_window(u, M)
    c = u if inside else np.clip(u, -M, M, out=work)
    np.multiply(c, c, out=out)
    out *= c
    np.subtract(c, out, out=out)
    if inside:
        return out
    np.subtract(u, c, out=c)
    c *= slope
    out += c
    return out


def fkpp_constant(p: int = 5, q: int = 5) -> float:
    """K = Gamma(p+q+2) / (Gamma(p+1) Gamma(q+1)), exact in integers."""
    return math.factorial(p + q + 1) // (math.factorial(p) * math.factorial(q))


# K of the printed truncation, whose branches are those of p = q = 5
FKPP_K = fkpp_constant(5, 5)


def truncate_fkpp(u, M: float, out=None, work=None, test_window: bool = True):
    """K u^5 (1-u)^5 continued linearly outside [-M, M], branches as printed,
    with K = `FKPP_K`.

    The linear continuations are specific to p = q = 5. Each is the tangent
    at its knot, slope 5 K M^4 (1-M)^4 (1-2M) above M and
    5 K M^4 (1+M)^4 (1+2M) below -M, so f(u) = f(c) + slope (u - c) with
    c = clip(u, -M, M), and f(c) = K w^5 with w = c - c^2. The tails are
    max(u - M, 0) and min(u + M, 0), exactly 0 inside [-M, M]. out receives
    the result and work is one scratch array shaped like u; either is
    allocated when not given.

    When u lies inside the window, c is u itself and the tails are
    +0 * slope each, so the clip and the tails' passes are skipped and
    their sum is added as one scalar: adding two signed zeros one after the
    other gives what adding their sum gives, so the result is bit-identical.
    (For K > 0 the sum is +0, which turns a result of -0.0 into +0.0, as
    the tails do; a slope that overflowed makes it NaN, as it makes them.)
    test_window=False clips without testing, as in `truncate_double_well`.
    """
    K = FKPP_K
    u, out, w = _buffers(u, out, work)
    m4 = M**4
    slope_up = 5.0 * K * m4 * (1.0 - M) ** 4 * (1.0 - 2.0 * M)
    slope_lo = 5.0 * K * m4 * (1.0 + M) ** 4 * (1.0 + 2.0 * M)
    inside = test_window and in_window(u, M)
    c = u if inside else np.clip(u, -M, M, out=w)
    np.multiply(c, c, out=out)
    np.subtract(c, out, out=out)  # w = c - c^2
    np.multiply(out, out, out=w)
    w *= w
    out *= w
    out *= K  # K w^5
    if inside:
        out += 0.0 * slope_up + 0.0 * slope_lo
        return out
    np.subtract(u, M, out=w)
    np.maximum(w, 0.0, out=w)
    w *= slope_up
    out += w
    np.add(u, M, out=w)
    np.minimum(w, 0.0, out=w)
    w *= slope_lo
    out += w
    return out


def conservative_rhs(f_base, field, out=None):
    """f_base(u) minus its grid mean; on a uniform grid the rectangle-rule
    mean (1/|Omega|) integral is exactly the plain mean of the samples.

    The result goes to out when given, which may be the array f_base
    returned; otherwise to a new array, so f_base's output is never modified.
    The mean is the sum over the size, as `ndarray.mean` computes it,
    without that method's Python-level dispatch.
    """
    fv = np.asarray(f_base(field))
    return np.subtract(fv, np.add.reduce(fv, axis=None) / fv.size, out=out)
