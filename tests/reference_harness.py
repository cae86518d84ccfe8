"""Reference time loops, for differential tests. `run_serial` is
`harness.run` as a serial loop, each step's diagnostics computed on the
calling thread right after the step and before the next one starts, and a
monitor that returns a reason stopping the run before the next step. It
writes no files. `study_serial` is the error ladder of the convergence
studies as a plain loop of steps."""

import math

import numpy as np

from mpesplit import harness
from mpesplit.models import initial_condition


def run_serial(config):
    model, grid, scheme, flows = harness._setup(config)
    state = initial_condition(model, grid)
    monitor = model.monitor

    rows = [harness._diag_row(model, 0, 0.0, 0.0, state, grid)]
    if config.adaptive:
        controller = harness.StepController(config.tau_min, config.tau_max, config.alpha)
        controller.record(0.0, rows[0][3])

    status, stop_step, reason = "ok", None, ""
    t, step = 0.0, 0
    t_end = config.t_final
    fixed_steps = None if config.adaptive else harness._steps_for(config.tau, t_end)
    while t < t_end - 1e-14:
        if config.adaptive:
            tau = harness.adaptive_tau(controller, harness.estimate_e_prime(controller.history))
            tau = min(tau, t_end - t)
        else:
            tau = fixed_steps[step]
        state = harness.apply(scheme, flows, tau, state)
        step += 1
        t = t_end if (fixed_steps and step == len(fixed_steps)) else t + tau
        if not np.all(np.isfinite(state)):
            status, stop_step, reason = "diverged", step, f"diverged at step {step}"
            rows.append((step, t, tau, float("nan"), float("nan"), float("nan")))
            break
        last = t >= t_end - 1e-14
        need_diag = step % config.diagnostics_every == 0 or last
        row = None
        if need_diag or config.adaptive:
            row = harness._diag_row(model, step, t, tau, state, grid)
            if config.adaptive:
                controller.record(t, row[3])
            if need_diag:
                rows.append(row)
        if monitor is not None:
            reason = monitor(model, step, harness.max_norm(state) if row is None else row[5])
            if reason:
                status, stop_step = "monitor", step
                break

    return harness.RunRecord(config, model, rows, state, status, stop_step, reason or "")


def study_serial(config, step_lists, ref_state):
    """(errors_inf, errors_l2) of a plain `apply` loop over each step list
    against ref_state, as the convergence studies compute them."""
    model, grid, scheme, flows = harness._setup(config)
    u0 = initial_condition(model, grid)
    errors_inf, errors_l2 = [], []
    for steps in step_lists:
        state = u0
        for tau in steps:
            state = harness.apply(scheme, flows, tau, state)
        diff = np.abs(state - ref_state)
        errors_inf.append(float(diff.max()))
        errors_l2.append(float(math.sqrt(grid.h**grid.dim * float((diff**2).sum()))))
    return errors_inf, errors_l2
