"""One benchmark process: times whole rounds of one workload, then checks
the outputs of the last round.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --probe

`run.py` starts it with `src` on PYTHONPATH and the thread caps set. The last
line of its standard output is a JSON object. With --probe it times one
set-up instead: importing mpesplit plus the public set-up calls of every
operation of the workload. Only standard-library modules are imported at the
top, so the probe's clock starts before numpy is loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import workloads

OUT_DIR = ".perfbench_out"


def probe(workload: str) -> float:
    start = time.perf_counter()
    from mpesplit import models

    for op in workloads.ops(workload, workloads.DEFAULT_SEED, OUT_DIR):
        model = models.make_model(op.case.model)
        grid = models.default_grid(model, op.case.nx)
        models.flow_pair(model, grid)
        models.initial_condition(model, grid)
    return time.perf_counter() - start


def call_cli(main, op) -> tuple:
    """(succeeded, captured stdout) of one CLI invocation."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(op.argv))
    except (Exception, SystemExit):  # a failed operation is counted, not fatal
        traceback.print_exc()
        return False, buf.getvalue()
    if code != 0:
        print(f"{op.kind}: exit status {code}", file=sys.stderr)
    return code == 0, buf.getvalue()


def measure(ops, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds while the elapsed time plus half a median round is
    below `seconds`. With a tracer, rounds alternate untraced and traced,
    starting untraced, and there is at least one of each."""
    from mpesplit import cli

    plain, traced, failed, stdout = [], [], 0, {}
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        main = cli.main
        if trace_this:
            tracer.install()
            main = tracer.wrap("harness.op", cli.main)
        t0 = time.perf_counter()
        for op in ops:
            ok, out = call_cli(main, op)
            stdout[op.kind] = out if ok else None
            failed += not ok
        elapsed = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        (traced if trace_this else plain).append(elapsed)
        rounds = len(plain) + len(traced)
        if tracer is not None and not traced:
            continue
        if time.perf_counter() - start + 0.5 * statistics.median(plain + traced) >= seconds:
            break
    return {"plain": plain, "traced": traced, "failed": failed,
            "attempted": rounds * len(ops), "stdout": stdout}


def check_op(op, stdout) -> tuple:
    """(failure messages, scheme steps) for one operation's output."""
    import checks
    from mpesplit import models

    if op.out is None:
        taus, errors = checks.parse_convergence(stdout)
        if op.kind == "nls_ladder":
            return checks.check_ladder(taus, errors, 4, checks.SLOPE_TOL_FIXED), op.steps
        return checks.check_ladder(taus, errors, 6, checks.SLOPE_TOL_RANDOM), op.steps

    with open(os.path.join(op.out, "diagnostics.csv")) as fh:
        rows = checks.parse_diagnostics(fh.read())

    def state(name):
        return checks.read_state(os.path.join(op.out, name + ".bin"), op.case.nx)

    t_final = float(Fraction(op.arg("--tfinal")))
    if op.kind in ("strang_a", "s4_4"):
        model = models.make_model("ac")
        u0 = models.initial_condition(model, models.default_grid(model, op.case.nx))
        fails = checks.check_ac(rows, state("final_state"), u0, op.kind,
                                float(Fraction(op.arg("--tau"))), op.steps)
    elif op.kind == "cac_adaptive":
        fails = checks.check_cac(rows, state("final_state"), t_final)
    elif op.kind == "fkpp":
        fails = checks.check_fkpp(rows, state("final_state"))
    else:
        fails = checks.check_rd(rows, state("final_state_0"), state("final_state_1"))
    if abs(rows[-1, 1] - t_final) > 1e-12:
        fails.append(f"run ended at t = {rows[-1, 1]!r}, not {t_final!r}")
    return fails, int(rows[-1, 0])


def check_outputs(ops, stdout) -> tuple:
    """(failure messages, scheme steps per op) for the last round's outputs.
    An operation that failed in that round is skipped and counts no steps."""
    fails, steps = [], {}
    for op in ops:
        if stdout[op.kind] is None:
            steps[op.kind] = 0
            continue
        try:
            found, steps[op.kind] = check_op(op, stdout[op.kind])
        except (OSError, ValueError, IndexError) as exc:
            found, steps[op.kind] = [f"unreadable output: {exc!r}"], 0
        fails += [f"{op.kind}: {msg}" for msg in found]
    return fails, steps


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    if args.probe:
        print(json.dumps({"setup_s": probe(args.workload)}))
        return 0

    ops = workloads.ops(args.workload, args.seed, os.path.join(OUT_DIR, args.workload))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    run = measure(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails, steps = check_outputs(ops, run["stdout"])
    print(f"rounds: untraced {run['plain']} traced {run['traced']}", file=sys.stderr)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)

    result = {"correct": not fails, "attempted": run["attempted"], "failed": run["failed"]}
    if tracer is None:
        cell_steps = sum(op.cells * steps[op.kind] for op in ops)
        result["metrics"] = {
            "run_s": statistics.median(run["plain"]),
            "cell_steps_per_s": statistics.median([cell_steps / t for t in run["plain"]]),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        layers = tracer.metrics(len(run["traced"]))
        layers["trace.overhead_s"] = (statistics.median(run["traced"])
                                      - statistics.median(run["plain"]))
        result["metrics"] = layers
        result["unmeasured"] = sorted(tracer.missing)
        result["traced_run_s"] = statistics.median(run["traced"])
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{args.workload}.spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
