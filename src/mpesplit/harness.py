"""Time-stepping driver, adaptive step controller, convergence studies, and
the named experiment presets.

One loop, `_march`, steps every run and every rung of a study; it is the
only code here that calls `schemes.apply` and looks for NaN or Inf in a
state, and it stops a run or a rung as "diverged" at a step that left one
(for the negative-coefficient scheme that outcome is the experiment). A
run's per-step hook hands each kept diagnostics row to the helper thread
(`schemes.submit`), where it is computed while the next step runs, with at
most one row in flight; feeds the adaptive controller, which waits for the
row's energy; and asks the model's monitor (the max-norm bound of
`rd_system`), which stops the run as "monitor" when it returns a reason.
`run_state` marches a fixed-step run with the monitor alone, for a caller
that needs only the state it ends with. A stopped run keeps its rows and
the state of the step it stopped at, and a stopped study the rungs that
finished. Rows and final states are those of a serial loop; a row's error
surfaces at the next wait, so it can come after an error of the step that
followed it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from itertools import accumulate

import numpy as np

from . import models as _models
from .grid import save_field
from .schemes import apply, catalog, submit
from .models import (
    ModelSpec,
    default_grid,
    energy,
    flow_pair,
    initial_condition,
    make_model,
    mass,
    max_norm,
)


FORMATS = ("csv", "json")  # the values of RunConfig.format


@dataclass
class RunConfig:
    model: str = _models.DEFAULT_MODEL
    scheme: str = "strang_a"
    nx: int | None = None
    tau: float = 0.01
    t_final: float = 1.0
    adaptive: bool = False
    tau_min: float = 0.01
    tau_max: float = 0.1
    alpha: float = 1e6
    diagnostics_every: int = 1
    out_dir: str | None = None
    format: str = "csv"
    allow_backward: bool = False
    rk_substeps: int = 4
    overrides: dict = field(default_factory=dict)


@dataclass
class StepController:
    tau_min: float
    tau_max: float
    alpha: float
    history: list = field(default_factory=list)  # (t, E) samples, last two kept

    def record(self, t: float, E: float):
        self.history.append((t, E))
        del self.history[:-2]


def estimate_e_prime(history) -> float:
    """Backward difference over the last two (t, E) samples; 0 before that,
    so the first adaptive step always runs at tau_max."""
    if len(history) < 2:
        return 0.0
    (t0, e0), (t1, e1) = history[-2], history[-1]
    if t1 == t0:
        raise ValueError("zero time gap in energy history")
    return (e1 - e0) / (t1 - t0)


def adaptive_tau(controller: StepController, e_prime: float) -> float:
    tau = controller.tau_max / math.sqrt(1.0 + controller.alpha * e_prime * e_prime)
    return max(controller.tau_min, min(controller.tau_max, tau))


@dataclass
class RunRecord:
    config: RunConfig
    model: ModelSpec
    rows: list  # (step, t, tau, energy, mass, max_norm)
    final_state: np.ndarray
    status: str = "ok"  # "ok" | "diverged" | "monitor"
    diverged_step: int | None = None  # the step a run that is not ok stopped at
    reason: str = ""  # why a run that is not ok stopped


def _diag_row(model, step, t, tau, state, grid):
    return (step, t, tau, energy(model, state, grid), mass(model, state, grid), max_norm(state))


def checked_scheme(config: RunConfig):
    """The catalog scheme config names; the one place a scheme with negative
    coefficients is refused without allow_backward."""
    scheme = catalog(config.scheme)
    if scheme.scheme_class == "spe_negative" and not config.allow_backward:
        raise ValueError(f"scheme {scheme.name} needs allow_backward")
    return scheme


def check_config(config: RunConfig):
    """The one check of a RunConfig's values; raises ValueError at the first
    that fails. The step bounds are checked for an adaptive config only;
    a fixed step size is checked by `_steps_for`, which makes the steps, so
    an adaptive run never reads tau. The model, its parameters and the
    scheme are checked where they are looked up."""
    if not (math.isfinite(config.t_final) and config.t_final >= 0):
        raise ValueError(f"final time must be finite and >= 0, got {config.t_final}")
    if config.diagnostics_every < 1:
        raise ValueError(f"diagnostics_every must be >= 1, got {config.diagnostics_every}")
    if config.rk_substeps < 1:
        raise ValueError("substeps must be >= 1")
    if config.format not in FORMATS:
        raise ValueError(f'format must be "csv" or "json", got {json.dumps(config.format)}')
    if config.nx is not None and (config.nx < 2 or config.nx % 2 != 0):
        raise ValueError(f"n_per_axis must be even and >= 2, got {config.nx}")
    if config.adaptive and not (0 < config.tau_min <= config.tau_max):
        raise ValueError("need 0 < tau_min <= tau_max")


def _setup(config: RunConfig):
    """(model, grid, scheme, flows) of a run or a study, after `check_config`."""
    check_config(config)
    model = make_model(config.model, **config.overrides)
    grid = default_grid(model, config.nx)
    scheme = checked_scheme(config)
    flows = flow_pair(model, grid, config.rk_substeps, config.allow_backward)
    return model, grid, scheme, flows


def _timed(steps, t_end):
    """(tau, t after the step) of each step of a list; the last lands on t_end."""
    return zip(steps, [*accumulate(steps[:-1]), t_end])


def _adaptive_steps(controller: StepController, t_end: float):
    """(tau, t) of each adaptive step, picked when asked for; the last ends at t_end."""
    t = 0.0
    while True:
        tau = min(adaptive_tau(controller, estimate_e_prime(controller.history)), t_end - t)
        t += tau
        yield tau, t


def _march(scheme, flows, state, t_end, steps, hook=None):
    """Step state over the (tau, t) pairs of the iterator steps to t_end;
    before the first step and after each one, hook(step, t, tau, state, last)
    may return a reason to stop. Returns (state, step, t, tau, status, reason)
    where it stopped: "ok" at t_end, "monitor" on a reason, "diverged"."""
    step, t, tau = 0, 0.0, 0.0
    while True:
        last = t >= t_end - 1e-14
        reason = hook(step, t, tau, state, last) if hook is not None else None
        if reason:
            return state, step, t, tau, "monitor", reason
        if last:
            return state, step, t, tau, "ok", ""
        tau, t = next(steps)
        state = apply(scheme, flows, tau, state)
        step += 1
        if not np.all(np.isfinite(state)):
            return state, step, t, tau, "diverged", f"diverged at step {step}"


def _monitor_reason(model, step, state):
    """The model's monitor on the state of a step after the first, on the
    caller: a reason to stop, or None."""
    if step and model.monitor is not None:
        return model.monitor(model, step, max_norm(state))
    return None


def run(config: RunConfig) -> RunRecord:
    model, grid, scheme, flows = _setup(config)
    if config.adaptive:
        controller = StepController(config.tau_min, config.tau_max, config.alpha)
        steps = _adaptive_steps(controller, config.t_final)
    else:
        steps = _timed(_steps_for(config.tau, config.t_final), config.t_final)
    rows, in_flight = [], None  # the future of the last kept row, not yet in rows

    def each_step(step, t, tau, state, last):
        nonlocal in_flight
        keep = step % config.diagnostics_every == 0 or last
        if keep or config.adaptive:
            if in_flight is not None:
                rows.append(in_flight.result())
            in_flight = submit(_diag_row, model, step, t, tau, state, grid)
            if config.adaptive:  # the controller needs the energy before it picks tau
                controller.record(t, in_flight.result()[3])
                if not keep:
                    in_flight = None
        return _monitor_reason(model, step, state)

    state, step, t, tau, status, reason = _march(  # no name here keeps the first state
        scheme, flows, initial_condition(model, grid), config.t_final, steps, each_step)
    if in_flight is not None:
        rows.append(in_flight.result())
    if status == "diverged":
        rows.append((step, t, tau, float("nan"), float("nan"), float("nan")))

    stop = None if status == "ok" else step
    record = RunRecord(config, model, rows, state, status, stop, reason)
    if config.out_dir:
        write_record(record, grid, timestamp=datetime.now(timezone.utc).isoformat())
    return record


def run_state(config: RunConfig):
    """(state, status, reason) where config's fixed-step run stops, as `run`
    would return them, marched with the model's monitor and no diagnostics
    rows; an adaptive config, whose steps need the rows' energies, raises
    ValueError."""
    if config.adaptive:
        raise ValueError("run_state takes fixed steps only, not an adaptive config")
    model, grid, scheme, flows = _setup(config)
    steps = _timed(_steps_for(config.tau, config.t_final), config.t_final)
    state, *_, status, reason = _march(
        scheme, flows, initial_condition(model, grid), config.t_final, steps,
        lambda step, t, tau, state, last: _monitor_reason(model, step, state))
    return state, status, reason


def _fmt(x: float) -> str:
    return repr(float(x))


def diagnostics_csv(record: RunRecord, timestamp: str | None = None) -> str:
    lines = []
    if timestamp:
        lines.append(f"# generated {timestamp}")
    lines.append("step,t,tau,energy,mass,max_norm")
    for step, t, tau, e, m, mx in record.rows:
        lines.append(f"{step},{_fmt(t)},{_fmt(tau)},{_fmt(e)},{_fmt(m)},{_fmt(mx)}")
    if record.status != "ok":
        lines.append(f"# {record.reason}")
    return "\n".join(lines) + "\n"


def record_to_json(record: RunRecord) -> str:
    doc = {
        "config": asdict(record.config),
        "model": record.model.id,
        "status": record.status,
        "diverged_step": record.diverged_step,
        "columns": ["step", "t", "tau", "energy", "mass", "max_norm"],
        "rows": [list(r) for r in record.rows],
    }
    return json.dumps(doc, indent=1)


def write_record(record: RunRecord, grid, timestamp: str | None = None):
    os.makedirs(record.config.out_dir, exist_ok=True)
    base = os.path.join(record.config.out_dir, "diagnostics")
    if record.config.format == "json":
        with open(base + ".json", "w") as fh:
            fh.write(record_to_json(record))
    else:
        with open(base + ".csv", "w") as fh:
            fh.write(diagnostics_csv(record, timestamp))
    state = record.final_state
    if state.ndim == 3:  # a system: one file per component
        for i, component in enumerate(state):
            save_field(os.path.join(record.config.out_dir, f"final_state_{i}"), grid, component)
    else:
        save_field(os.path.join(record.config.out_dir, "final_state"), grid, state)


# ---------------------------------------------------------------------------
# convergence studies

@dataclass
class ConvergenceReport:
    taus: list
    errors_inf: list
    rates: list  # rates[i] = log(e_i/e_{i+1}) / log(tau_i/tau_{i+1})
    errors_l2: list = field(default_factory=list)
    status: str = "ok"  # "ok" | "diverged"; the lists hold the rungs that finished
    reason: str = ""  # why a study that is not ok stopped

    def recompute_rates(self):
        """The rate of each pair of neighbouring rungs; NaN where the two
        errors are not both positive, as when the flows commute, or where
        the two steps are equal."""
        out = []
        for i in range(len(self.taus) - 1):
            e0, e1 = self.errors_inf[i], self.errors_inf[i + 1]
            t0, t1 = self.taus[i], self.taus[i + 1]
            out.append(math.log(e0 / e1) / math.log(t0 / t1)
                       if e0 > 0 and e1 > 0 and t0 != t1 else math.nan)
        return out


def _steps_for(tau, t_final):
    """Steps of size tau covering [0, t_final], the last one shortened when
    tau does not divide t_final, and none when t_final is 0; tau must be
    finite and positive."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"step size tau must be finite and positive, got {tau}")
    n = round(t_final / tau)
    if abs(n * tau - t_final) <= 1e-12 * t_final:
        return [tau] * int(n)
    n = int(math.floor(t_final / tau))
    return [tau] * n + [t_final - n * tau]


def _study(config: RunConfig, taus, step_lists, reference) -> ConvergenceReport:
    """Errors of runs over each step list against the reference; the report
    lists them against taus, up to the first rung that diverged."""
    model, grid, scheme, flows = _setup(config)
    u0 = initial_condition(model, grid)
    if isinstance(reference, str):
        if reference != "exact":
            raise ValueError("reference must be 'exact' or a state array")
        reference = _models.exact_solution(model, config.t_final, grid)
    ref_state = np.asarray(reference)
    if ref_state.shape != u0.shape:
        raise ValueError("reference grid does not match study grid")
    errors_inf, errors_l2, status, reason = [], [], "ok", ""
    for tau, steps in zip(taus, step_lists):
        state, *_, status, reason = _march(scheme, flows, u0, config.t_final,
                                           _timed(steps, config.t_final))
        if status != "ok":
            reason = f"tau {_fmt(tau)}: {reason}"
            break
        diff = np.abs(state - ref_state)
        errors_inf.append(float(diff.max()))
        errors_l2.append(math.sqrt(grid.integrate(diff**2)))
        del state, diff  # the next rung holds only u0 and its own state
    report = ConvergenceReport(taus[:len(errors_inf)], errors_inf, [], errors_l2, status, reason)
    report.rates = report.recompute_rates()
    return report


def convergence_study(config: RunConfig, taus, reference) -> ConvergenceReport:
    """Error ladder at config.t_final, one rung of fixed steps per tau, against
    reference: "exact" (models with a printed solution) or a state array on
    the same grid (no interpolation is done, by design); config.tau is unused."""
    taus = [float(t) for t in taus]
    # a generator, so that _study checks t_final before any step list is made
    return _study(config, taus, (_steps_for(tau, config.t_final) for tau in taus), reference)


def random_subdivisions(t_final: float, n: int, rng) -> list:
    """Random step sequence tau_i = T eps_i / sum(eps), eps_i uniform in (0,1);
    exact endpoints are rejected so every subinterval has positive length."""
    eps = rng.uniform(0.0, 1.0, n)
    while np.any(eps <= 0.0) or np.any(eps >= 1.0):
        bad = (eps <= 0.0) | (eps >= 1.0)
        eps[bad] = rng.uniform(0.0, 1.0, int(bad.sum()))
    taus = (t_final * eps / eps.sum()).tolist()
    taus[-1] = t_final - sum(taus[:-1])  # close the interval exactly
    return taus


def random_grid_study(config: RunConfig, n_ladder, reference, seed: int = 0) -> ConvergenceReport:
    """Convergence on random time grids; tau(N) is the largest subinterval.
    reference is as for convergence_study."""
    rng = np.random.default_rng(seed)
    step_lists = [random_subdivisions(config.t_final, int(n), rng) for n in n_ladder]
    return _study(config, [max(steps) for steps in step_lists], step_lists, reference)


def convergence_csv(report: ConvergenceReport) -> str:
    lines = ["tau,error_inf,rate"]
    for i, (tau, err) in enumerate(zip(report.taus, report.errors_inf)):
        rate = "" if i == 0 else _fmt(report.rates[i - 1])
        lines.append(f"{_fmt(tau)},{_fmt(err)},{rate}")
    if report.status != "ok":
        lines.append(f"# {report.reason}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets: the benchmark experiments at full scale

_PRESETS = {
    "toy_accuracy": dict(model="toy", scheme="s6", tau=1 / 200, t_final=6.0, nx=1024),
    "ac_compare": dict(model="ac", scheme="strang_a", tau=1 / 40, t_final=10.0, nx=400),
    "cac_adaptive": dict(model="cac", scheme="s4_3", adaptive=True, tau_min=0.01,
                         tau_max=0.1, alpha=1e6, t_final=60.0, nx=256, tau=0.01),
    "fkpp": dict(model="fkpp", scheme="s4_1", tau=1e-3, t_final=1.0, nx=512),
    "nls_linear_accuracy": dict(model="nls_linear", scheme="s4_2", tau=0.01, t_final=1.0, nx=400),
    "nls_nonlinear": dict(model="nls_nonlinear", scheme="s4_2", tau=0.01, t_final=1.0, nx=300),
    "rd_system": dict(model="rd_system", scheme="s3_1", tau=0.01, t_final=1.0, nx=1024),
    "rd_accuracy": dict(model="rd_system", scheme="s4_1", tau=1 / 1600, t_final=0.2, nx=1024),
}


def preset_names():
    return list(_PRESETS)


def preset(name: str, **overrides) -> RunConfig:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(_PRESETS)}")
    spec = dict(_PRESETS[name])
    spec.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**spec)
