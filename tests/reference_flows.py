"""Reference implementations of the nonlinear layer, for differential tests.

These are the straightforward forms the package's buffered code must agree
with: the truncated nonlinearities evaluated branch by branch from their
printed formulas, the clip-plus-tail truncations that always take the
tails, the SSP-RK(10,4) two-register loop with a fresh array for every
stage, the model right-hand sides written as plain expressions, and the
closed tanh flow with all three of its branches evaluated everywhere.
"""

import math

import numpy as np


LN2 = math.log(2.0)


def tanh_branches(v, lam, tau):
    """arcsinh(sinh(v) exp(lam tau)) by its direct form, its log form and its
    asymptote, each evaluated on every element, then one selected."""
    x = np.asarray(v, dtype=float)
    av = np.abs(x)
    sign = np.sign(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_sinh = av + np.log1p(-np.exp(-2.0 * av)) - LN2
        t = log_sinh + lam * tau
        direct_ok = (av <= 700.0) & (lam * tau <= 700.0) & (t <= 30.0)
        direct = np.arcsinh(np.sinh(np.where(direct_ok, x, 0.0)) * np.exp(lam * tau))
        via_log = np.arcsinh(sign * np.exp(np.where(t <= 30.0, t, 0.0)))
        asym = sign * (t + LN2)
    return np.where(direct_ok, direct, np.where(t <= 30.0, via_log, asym))


def double_well_branches(u, M):
    """u - u**3 inside [-M, M], (1 - 3 M^2) u +- 2 M^3 outside, as printed."""
    u = np.asarray(u, dtype=float)
    upper = (1.0 - 3.0 * M * M) * u + 2.0 * M**3
    lower = (1.0 - 3.0 * M * M) * u - 2.0 * M**3
    return np.where(u > M, upper, np.where(u < -M, lower, u - u**3))


def fkpp_branches(u, M, K=2772.0):
    """K u^5 (1-u)^5 inside [-M, M] and the printed linear continuations."""
    u = np.asarray(u, dtype=float)
    m4 = M**4
    upper = (5.0 * K * m4 * (1.0 - M) ** 4 * (1.0 - 2.0 * M)) * u + K * m4 * (1.0 - M) ** 4 * (
        9.0 * M * M - 4.0 * M
    )
    lower = (5.0 * K * m4 * (1.0 + M) ** 4 * (1.0 + 2.0 * M)) * u + K * m4 * (1.0 + M) ** 4 * (
        9.0 * M * M + 4.0 * M
    )
    return np.where(u > M, upper, np.where(u < -M, lower, K * u**5 * (1.0 - u) ** 5))


def double_well_with_tail(u, M):
    """The clip-plus-tail double-well truncation without the in-window
    shortcut: it always clips and adds the tail (1 - 3 M^2)(u - c)."""
    u = np.asarray(u, dtype=float)
    out, c = np.empty_like(u), np.empty_like(u)
    np.clip(u, -M, M, out=c)
    np.multiply(c, c, out=out)
    out *= c
    np.subtract(c, out, out=out)
    np.subtract(u, c, out=c)
    c *= 1.0 - 3.0 * M * M
    out += c
    return out


def fkpp_with_tails(u, M, K=2772.0):
    """The clip-plus-tail FKPP truncation without the in-window shortcut: it
    always clips and adds both linear tails, max(u - M, 0) and
    min(u + M, 0) times their slopes."""
    u = np.asarray(u, dtype=float)
    out, w = np.empty_like(u), np.empty_like(u)
    m4 = M**4
    slope_up = 5.0 * K * m4 * (1.0 - M) ** 4 * (1.0 - 2.0 * M)
    slope_lo = 5.0 * K * m4 * (1.0 + M) ** 4 * (1.0 + 2.0 * M)
    np.clip(u, -M, M, out=w)
    np.multiply(w, w, out=out)
    np.subtract(w, out, out=out)
    np.multiply(out, out, out=w)
    w *= w
    out *= w
    out *= K
    np.subtract(u, M, out=w)
    np.maximum(w, 0.0, out=w)
    w *= slope_up
    out += w
    np.add(u, M, out=w)
    np.minimum(w, 0.0, out=w)
    w *= slope_lo
    out += w
    return out


def conservative_rhs_mean(f_base, field):
    """f_base(field) minus its mean, taken by `ndarray.mean`."""
    fv = np.asarray(f_base(field))
    return fv - fv.mean()


def ssprk104_loop(f, v, tau, substeps=4):
    """SSP-RK(10,4), two-register low-storage form, new arrays at every stage."""
    u = np.array(v, dtype=np.result_type(v, float))
    dt = tau / substeps
    for _ in range(substeps):
        q1 = u.copy()
        q2 = u.copy()
        for _ in range(5):
            q1 = q1 + (dt / 6.0) * f(q1)
        q2 = (q2 + 9.0 * q1) / 25.0
        q1 = 15.0 * q2 - 5.0 * q1
        for _ in range(4):
            q1 = q1 + (dt / 6.0) * f(q1)
        u = q2 + 0.6 * q1 + (dt / 10.0) * f(q1)
    return u


def reaction_rhs(s, k1p, k1m):
    """The rd_system reaction terms: (-f, f) with f = k1p u v^2 - k1m v^3."""
    u, v = s[0], s[1]
    f = k1p * u * v * v - k1m * v * v * v
    return np.stack((-f, f))


def phase_rotation(v, omega, rho, tau):
    """The NLS phase flow as one complex exponential: exp(i tau (omega + rho |v|^2)) v."""
    x = np.asarray(v)
    return np.exp(1j * tau * (omega + rho * (x.real**2 + x.imag**2))) * x


def double_well_expression(v, tau):
    """The closed double-well flow as one expression, a temporary per
    operation: exp(tau) v / sqrt(1 + (exp(2 tau) - 1) v^2)."""
    x = np.asarray(v, dtype=float)
    et = math.exp(tau)
    with np.errstate(invalid="ignore", over="ignore"):
        return et * x / np.sqrt(1.0 + (et * et - 1.0) * x * x)


def inside_window(u, M):
    """The ac B flow's test for taking the closed form: max |u| <= M, which
    is False when u holds a NaN."""
    return bool(np.max(np.abs(u)) <= M)
