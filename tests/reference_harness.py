"""Reference time loop, for differential tests: `harness.run` as a serial
loop, each step's diagnostics computed on the calling thread right after
the step and before the next one starts. It writes no files."""

import numpy as np

from mpesplit import harness, models


def run_serial(config):
    model, grid, scheme, flows, state = harness._setup(config)
    monitor = models._MODELS[model.id].monitor

    rows = [harness._diag_row(model, 0, 0.0, 0.0, state, grid)]
    if config.adaptive:
        controller = harness.StepController(config.tau_min, config.tau_max, config.alpha)
        controller.record(0.0, rows[0][3])

    status, diverged_step = "ok", None
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
            status, diverged_step = "diverged", step
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
            monitor(model, step, harness.max_norm(state) if row is None else row[5])

    return harness.RunRecord(config, model, rows, state, status, diverged_step)
