"""Time-stepping driver, adaptive step controller, convergence studies, and
the named experiment presets.

A run is one loop of scheme steps with diagnostics rows sampled along the
way. The steps follow one another; within a step, `schemes.apply` runs the
terms of a multi-term scheme on two threads. A row is handed to the same
helper thread (`schemes.submit`) and computed while the next step runs on
the caller; before the next row is handed over, the loop waits for this
one, so at most one row is in flight. An adaptive run waits for each row at
once, because the controller needs its energy before it picks the next step
size. Rows and final states are those of a serial loop; an error raised by
a row surfaces at the next wait, so it can come after an error of the step
that followed it.

A run ends with a status and a reason. Divergence (NaN or Inf anywhere in
the state) stops it as "diverged"; for the negative-coefficient scheme that
outcome is the experiment. A model's monitor (the max-norm bound of
`rd_system`) looks at each new state on the calling thread and stops the
run as "monitor" when it returns a reason. Either way the record keeps the
rows and the state of the step it stopped at, and with an out_dir they are
written like those of a run that ended "ok".
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone

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

    def __post_init__(self):
        if not (0 < self.tau_min <= self.tau_max):
            raise ValueError("need 0 < tau_min <= tau_max")

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

    @property
    def times(self):
        return [r[1] for r in self.rows]


def _diag_row(model, step, t, tau, state, grid):
    return (step, t, tau, energy(model, state, grid), mass(model, state, grid), max_norm(state))


def checked_scheme(config: RunConfig):
    """The catalog scheme config names; the one place a scheme with negative
    coefficients is refused without allow_backward."""
    scheme = catalog(config.scheme)
    if scheme.scheme_class == "spe_negative" and not config.allow_backward:
        raise ValueError(f"scheme {scheme.name} needs allow_backward")
    return scheme


def _setup(config: RunConfig):
    """(model, grid, scheme, flows, u0) of a run or a study."""
    if not (math.isfinite(config.t_final) and config.t_final >= 0):
        raise ValueError(f"final time must be finite and >= 0, got {config.t_final}")
    model = make_model(config.model, **config.overrides)
    grid = default_grid(model, config.nx)
    scheme = checked_scheme(config)
    flows = flow_pair(model, grid, config.rk_substeps, config.allow_backward)
    return model, grid, scheme, flows, initial_condition(model, grid)


def run(config: RunConfig) -> RunRecord:
    model, grid, scheme, flows, state = _setup(config)
    adaptive = config.adaptive
    if adaptive:
        controller = StepController(config.tau_min, config.tau_max, config.alpha)
    t_end = config.t_final
    fixed_steps = None if adaptive else _steps_for(config.tau, t_end)
    rows, in_flight = [], None  # the future of the last kept row, not yet in rows
    status, stop_step, reason = "ok", None, ""
    t, tau, step = 0.0, 0.0, 0
    while True:
        last = t >= t_end - 1e-14
        keep = step % config.diagnostics_every == 0 or last
        if keep or adaptive:
            if in_flight is not None:
                rows.append(in_flight.result())
            in_flight = submit(_diag_row, model, step, t, tau, state, grid)
            if adaptive:  # the controller needs the energy before it picks tau
                controller.record(t, in_flight.result()[3])
                if not keep:
                    in_flight = None
        if step and model.monitor is not None:  # the state of each step, on the caller
            reason = model.monitor(model, step, max_norm(state)) or ""
            if reason:
                status, stop_step = "monitor", step
                break
        if last:
            break
        if adaptive:
            tau = adaptive_tau(controller, estimate_e_prime(controller.history))
            tau = min(tau, t_end - t)  # shortened final step, recorded as taken
        else:
            tau = fixed_steps[step]
        state = apply(scheme, flows, tau, state)
        step += 1
        t = t_end if (fixed_steps and step == len(fixed_steps)) else t + tau
        if not np.all(np.isfinite(state)):
            status, stop_step, reason = "diverged", step, f"diverged at step {step}"
            break
    if in_flight is not None:
        rows.append(in_flight.result())
    if status == "diverged":
        rows.append((step, t, tau, float("nan"), float("nan"), float("nan")))

    record = RunRecord(config, model, rows, state, status, stop_step, reason)
    if config.out_dir:
        write_record(record, grid, timestamp=datetime.now(timezone.utc).isoformat())
    return record


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
    if record.model.components == 1:
        save_field(os.path.join(record.config.out_dir, "final_state"), grid, state)
    else:
        for i in range(record.model.components):
            save_field(os.path.join(record.config.out_dir, f"final_state_{i}"), grid, state[i])


# ---------------------------------------------------------------------------
# convergence studies

@dataclass
class ConvergenceReport:
    taus: list
    errors_inf: list
    rates: list  # rates[i] = log(e_i/e_{i+1}) / log(tau_i/tau_{i+1})
    errors_l2: list = field(default_factory=list)

    def recompute_rates(self):
        """The rate of each pair of neighbouring rungs; NaN where the two
        errors are not both positive, as when the flows commute."""
        out = []
        for i in range(len(self.taus) - 1):
            e0, e1 = self.errors_inf[i], self.errors_inf[i + 1]
            out.append(math.log(e0 / e1) / math.log(self.taus[i] / self.taus[i + 1])
                       if e0 > 0 and e1 > 0 else math.nan)
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
    lists them against taus."""
    model, grid, scheme, flows, u0 = _setup(config)
    if isinstance(reference, str):
        if reference != "exact":
            raise ValueError("reference must be 'exact', a RunRecord, or a state array")
        ref_state = _models.exact_solution(model, config.t_final, grid)
    else:
        if isinstance(reference, RunRecord):
            reference = reference.final_state
        ref_state = np.asarray(reference)
        if ref_state.shape != u0.shape:
            raise ValueError("reference grid does not match study grid")
    errors_inf, errors_l2 = [], []
    for steps in step_lists:
        state = u0  # apply never writes into the state it is given
        for tau in steps:
            state = apply(scheme, flows, tau, state)
            if not np.all(np.isfinite(state)):
                raise FloatingPointError("state diverged during convergence run")
        diff = np.abs(state - ref_state)
        errors_inf.append(float(diff.max()))
        errors_l2.append(float(math.sqrt(grid.h**grid.dim * float((diff**2).sum()))))
    report = ConvergenceReport(taus, errors_inf, [], errors_l2)
    report.rates = report.recompute_rates()
    return report


def convergence_study(model_id: str, scheme_name: str, tau_ladder, reference,
                      t_final: float, nx: int | None = None, rk_substeps: int = 4,
                      overrides: dict | None = None,
                      allow_backward: bool = False) -> ConvergenceReport:
    """Error ladder at fixed t_final against a reference.

    reference is either the string "exact" (models with a printed solution)
    or a state array on the same grid (no interpolation is done, by design).
    """
    config = RunConfig(model_id, scheme_name, nx, t_final=t_final, rk_substeps=rk_substeps,
                       overrides=overrides or {}, allow_backward=allow_backward)
    taus = [float(t) for t in tau_ladder]
    # a generator, so that _study checks t_final before any step list is made
    return _study(config, taus, (_steps_for(tau, t_final) for tau in taus), reference)


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


def random_grid_study(model_id: str, scheme_name: str, n_ladder, reference,
                      t_final: float, nx: int | None = None, seed: int = 0,
                      rk_substeps: int = 4, overrides: dict | None = None,
                      allow_backward: bool = False) -> ConvergenceReport:
    """Convergence on random time grids; tau(N) is the largest subinterval.
    reference is as for convergence_study."""
    config = RunConfig(model_id, scheme_name, nx, t_final=t_final, rk_substeps=rk_substeps,
                       overrides=overrides or {}, allow_backward=allow_backward)
    rng = np.random.default_rng(seed)
    step_lists = [random_subdivisions(t_final, int(n), rng) for n in n_ladder]
    return _study(config, [max(steps) for steps in step_lists], step_lists, reference)


def convergence_csv(report: ConvergenceReport) -> str:
    lines = ["tau,error_inf,rate"]
    for i, (tau, err) in enumerate(zip(report.taus, report.errors_inf)):
        rate = "" if i == 0 else _fmt(report.rates[i - 1])
        lines.append(f"{_fmt(tau)},{_fmt(err)},{rate}")
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
