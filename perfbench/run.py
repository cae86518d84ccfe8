"""Benchmark entry point for mpesplit, run from the root of a source tree.

    python3 perfbench/run.py --workload ac_spectral --seed 1 --seconds 30 --trace 0

Runs the package from `src` without installing it. With --trace 0 it times
the set-up in fresh processes, then runs the workload in one more process
and prints the end-to-end metrics; with --trace 1 it prints the per-layer
metrics of a traced run instead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the run environment. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20
# the whole run, probes included, must end within this many seconds
DEADLINE_S = 170


def load_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict:
    """Environment for child processes: `src` first on the import path and
    BLAS/OpenMP thread pools capped at the cores this process may use."""
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = cores
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, timeout) -> dict:
    """Run worker.py with args; its last stdout line is JSON. Raises on a
    non-zero exit or a timeout (subprocess.run kills and reaps the child)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, rev = out.stdout.split()
    return rev if os.path.realpath(top) == os.path.realpath(ROOT) else "unknown"


def provenance() -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "cores": len(os.sched_getaffinity(0)),
            "git": git_revision()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mpesplit benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mpesplit", "__init__.py")):
        print(f"no mpesplit sources under {ROOT}/src", file=sys.stderr)
        return 2
    start = time.monotonic()
    units = load_units()
    env_line = provenance()

    common = ["--workload", args.workload]
    setups = []
    if not args.trace:
        setups = [run_child(common + ["--probe"], PROBE_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    result = run_child(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)],
                       DEADLINE_S - (time.monotonic() - start))
    metrics = result.pop("metrics")
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    for extra in ("unmeasured", "traced_run_s"):
        if extra in result:
            env_line[extra] = result.pop(extra)
    print(json.dumps(env_line))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
