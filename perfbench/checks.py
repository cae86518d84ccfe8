"""Output checks for the benchmark workloads.

Every check works on what the CLI wrote (diagnostics rows, final states,
convergence tables) and compares it with computations made here with NumPy
alone, or with properties the methods must have. Nothing is compared with a
stored copy of earlier output, and nothing here imports `mpesplit`. Each
function returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

# Model and preset parameters the checks rely on, as `mpesplit list-models`
# and `mpesplit preset NAME --dry-run` print them.
AC_LENGTH = 2 * math.pi
AC_EPS = 0.1
CAC_LENGTH = 2.0
RD_LENGTH = 2.0
CAC_TAU_MIN, CAC_TAU_MAX, CAC_ALPHA = 0.01, 0.1, 1e6

# Criterion-5 clauses: the maximum norm may exceed 1 by at most 1e-3 and the
# energy may rise by at most 1e-8 between consecutive rows.
AC_MAX_NORM_SLACK = 1e-3
AC_ENERGY_RISE = 1e-8
# Program against reference after a few steps at 1024^2: both are
# round-off apart (about 1e-14 observed), far below any real defect.
AC_STATE_TOL = 1e-10
AC_ENERGY_RTOL = 1e-9

CAC_MASS_RTOL = 1e-8
RD_MASS_RTOL = 1e-12

# Spatial error floor of nls_linear at 256^2; a ladder must stay at least
# ten times above it, or its slope measures the grid, not the scheme.
NLS_FLOOR = 2.6e-11
SLOPE_TOL_FIXED = 0.3
# The slope on random subdivisions depends on the drawn step sizes: over 25
# seeds of the 8,16,32,64 ladder it ranged 5.50-6.50 (standard deviation
# 0.27), so the bound is wider than on the fixed ladder. A scheme that lost
# two orders would still fail it.
SLOPE_TOL_RANDOM = 1.0


def parse_diagnostics(text: str) -> np.ndarray:
    """Rows (step, t, tau, energy, mass, max_norm) of a diagnostics CSV."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "step,t,tau,energy,mass,max_norm":
        raise ValueError("not a diagnostics table")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def parse_convergence(text: str):
    """(taus, errors) of a convergence CSV."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "tau,error_inf,rate":
        raise ValueError("not a convergence table")
    cols = [ln.split(",") for ln in lines[1:]]
    return np.array([float(c[0]) for c in cols]), np.array([float(c[1]) for c in cols])


def read_state(path: str, nx: int) -> np.ndarray:
    """A real final state as the CLI writes it: little-endian float64, row-major."""
    return np.fromfile(path, dtype="<f8").reshape(nx, nx)


def _wavenumbers(n: int, length: float):
    """Full axis-0 and half (rfft) axis-1 wavenumbers."""
    scale = 2 * math.pi / length
    return scale * np.fft.fftfreq(n, 1.0 / n), scale * np.fft.rfftfreq(n, 1.0 / n)


def ac_reference(u0: np.ndarray, scheme: str, tau: float, steps: int) -> np.ndarray:
    """Allen-Cahn u_t = eps^2 Lap u + u - u^3 advanced with real FFTs.

    A(t) multiplies the half spectrum by exp(-t eps^2 |k|^2); B(t) is the
    exact flow of u' = u - u^3. Strang is A(t/2) B(t) A(t/2), and s4_4 is the
    Richardson combination -1/3 S(tau) + 4/3 S(tau/2)^2.
    """
    kx, ky = _wavenumbers(u0.shape[0], AC_LENGTH)
    lam = kx[:, None] ** 2 + ky[None, :] ** 2
    multipliers = {}

    def a(t, u):
        if t not in multipliers:
            multipliers[t] = np.exp(-t * AC_EPS * AC_EPS * lam)
        return np.fft.irfft2(multipliers[t] * np.fft.rfft2(u), s=u.shape)

    def b(t, u):
        e = math.exp(t)
        return e * u / np.sqrt(1.0 + (e * e - 1.0) * u * u)

    def strang(t, u):
        return a(t / 2, b(t, a(t / 2, u)))

    u = np.array(u0, dtype=float)
    for _ in range(steps):
        if scheme == "strang_a":
            u = strang(tau, u)
        elif scheme == "s4_4":
            u = -strang(tau, u) / 3.0 + 4.0 * strang(tau / 2, strang(tau / 2, u)) / 3.0
        else:
            raise ValueError(f"no reference for scheme {scheme!r}")
    return u


def ac_energy(u: np.ndarray) -> float:
    """Integral of eps^2/2 |grad u|^2 + (u^2 - 1)^2 / 4, spectral gradient
    with the Nyquist mode of each derivative zeroed."""
    n = u.shape[0]
    kx, ky = _wavenumbers(n, AC_LENGTH)
    kx[n // 2] = 0.0
    ky[-1] = 0.0
    spec = np.fft.rfft2(u)
    gx = np.fft.irfft2(1j * kx[:, None] * spec, s=u.shape)
    gy = np.fft.irfft2(1j * ky[None, :] * spec, s=u.shape)
    dens = 0.5 * AC_EPS * AC_EPS * (gx * gx + gy * gy) + 0.25 * (u * u - 1.0) ** 2
    return float((AC_LENGTH / n) ** 2 * dens.sum())


def _rel_drift(values: np.ndarray, base: float) -> float:
    return float(np.max(np.abs(values - base)) / abs(base))


def check_ac(rows, final, u0, scheme, tau, steps) -> list:
    fails = []
    if len(rows) != steps + 1:
        fails.append(f"{len(rows)} rows, want {steps + 1}")
    worst = float(rows[:, 5].max())
    if worst > 1.0 + AC_MAX_NORM_SLACK:
        fails.append(f"max norm {worst} > 1 + {AC_MAX_NORM_SLACK}")
    rise = float(np.diff(rows[:, 3]).max())
    if rise > AC_ENERGY_RISE:
        fails.append(f"energy rose by {rise:.3e} > {AC_ENERGY_RISE} between rows")
    ref = ac_reference(u0, scheme, tau, steps)
    err = float(np.max(np.abs(final - ref)))
    if not err <= AC_STATE_TOL:
        fails.append(f"final state differs from the reference by {err:.3e} > {AC_STATE_TOL}")
    e_ref = ac_energy(final)
    e_err = abs(rows[-1, 3] - e_ref) / abs(e_ref)
    if not e_err <= AC_ENERGY_RTOL:
        fails.append(f"final energy {rows[-1, 3]} vs recomputed {e_ref}: rel {e_err:.3e}")
    return fails


def expected_adaptive_taus(rows, t_final) -> np.ndarray:
    """The step sizes the controller tau = tau_max / sqrt(1 + alpha E'^2),
    clamped to [tau_min, tau_max], must choose from the recorded (t, E)
    rows; E' is the backward difference of the last two rows (0 before the
    second row) and the last step is cut to land on t_final."""
    t, energy = rows[:, 1], rows[:, 3]
    out = []
    for i in range(1, len(rows)):
        slope = 0.0 if i < 2 else (energy[i - 1] - energy[i - 2]) / (t[i - 1] - t[i - 2])
        tau = CAC_TAU_MAX / math.sqrt(1.0 + CAC_ALPHA * slope * slope)
        out.append(min(max(CAC_TAU_MIN, min(CAC_TAU_MAX, tau)), t_final - t[i - 1]))
    return np.array(out)


def check_cac(rows, final, t_final) -> list:
    fails = []
    m0 = rows[0, 4]
    drift = _rel_drift(rows[:, 4], m0)
    if not drift <= CAC_MASS_RTOL:
        fails.append(f"cac mass drift {drift:.3e} > {CAC_MASS_RTOL}")
    h = CAC_LENGTH / final.shape[0]
    final_drift = abs(h * h * final.sum() - m0) / abs(m0)
    if not final_drift <= CAC_MASS_RTOL:
        fails.append(f"cac final-state integral drifts {final_drift:.3e} from row 0")
    taus = rows[1:, 2]
    inner_ok = np.all((taus[:-1] >= CAC_TAU_MIN) & (taus[:-1] <= CAC_TAU_MAX))
    if not (inner_ok and 0.0 < taus[-1] <= CAC_TAU_MAX):
        fails.append(f"adaptive steps outside [{CAC_TAU_MIN}, {CAC_TAU_MAX}]: "
                     f"{taus.min()}..{taus.max()}")
    if abs(taus.sum() - t_final) > 1e-12 * t_final:
        fails.append(f"adaptive steps sum to {taus.sum()!r}, not {t_final}")
    gap = float(np.max(np.abs(taus - expected_adaptive_taus(rows, t_final))))
    if gap > 1e-12 * CAC_TAU_MAX:
        fails.append(f"adaptive steps differ from the controller law by {gap:.3e}")
    return fails


def check_fkpp(rows, final) -> list:
    fails = []
    if rows[:, 5].max() > 1.0:
        fails.append(f"fkpp max norm {rows[:, 5].max()} > 1")
    if final.min() < 0.0 or final.max() > 1.0:
        fails.append(f"fkpp final state outside [0, 1]: {final.min()}..{final.max()}")
    if np.any(np.diff(rows[:, 4]) < 0.0):
        fails.append("fkpp integral of u decreased")
    return fails


def check_rd(rows, u, v) -> list:
    fails = []
    m0 = rows[0, 4]
    drift = _rel_drift(rows[:, 4], m0)
    if not drift <= RD_MASS_RTOL:
        fails.append(f"rd_system mass drift {drift:.3e} > {RD_MASS_RTOL}")
    h = RD_LENGTH / u.shape[0]
    final_drift = abs(h * h * (u.sum() + v.sum()) - m0) / abs(m0)
    if not final_drift <= RD_MASS_RTOL:
        fails.append(f"rd_system final-state integral drifts {final_drift:.3e} from row 0")
    if not (u.min() > 0.0 and v.min() > 0.0):
        fails.append(f"rd_system density not positive: min u {u.min()}, min v {v.min()}")
    return fails


def check_ladder(taus, errors, order, tol) -> list:
    if len(errors) < 3:
        return [f"ladder has {len(errors)} points, need 3"]
    fails = []
    if np.any(np.diff(errors) >= 0.0):
        fails.append(f"errors do not fall along the ladder: {errors.tolist()}")
    if errors.min() < 10 * NLS_FLOOR:
        fails.append(f"smallest error {errors.min():.3e} is within 10x the spatial floor")
    slope = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
    if not abs(slope - order) <= tol:
        fails.append(f"fitted slope {slope:.3f}, want {order} +- {tol}")
    return fails
