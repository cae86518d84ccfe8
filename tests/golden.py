"""Golden digests of command-line outputs: each command of `COMMANDS` runs
in-process through `cli.main`, and its entry in `golden_digests.json` holds
the exit code, the SHA-256 of its standard output and the SHA-256 of every
file it writes under its working directory, apart from the `CONFIGS` files
written there before it runs. `# generated <timestamp>` lines
are left out of both. Standard error is not digested: it holds at most
an `error: ...` line, whose command's exit code is digested, since
`cli.main` switches numpy's floating-point warnings off.

Regenerate the table, after a change that means to change bytes, with

    PYTHONPATH=src python tests/golden.py

which prints the argv of each entry whose digests changed or are new before
it rewrites the table; list each of them in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("golden_digests.json")

NLS = ("--model", "nls_linear", "--nx", "64", "--reference", "exact")

# (preset, --tfinal): each preset at 32^2 for about ten of its steps
PRESETS = (("toy_accuracy", "1/20"), ("ac_compare", "1/4"), ("cac_adaptive", "1/2"),
           ("fkpp", "1/100"), ("nls_linear_accuracy", "1/10"), ("nls_nonlinear", "1/10"),
           ("rd_system", "1/10"), ("rd_accuracy", "1/160"))

# --config files, written into the working directory of a command that names one
CONFIGS = {
    "fixed.json": {"model": "fkpp", "scheme": "s4_2", "nx": 32, "tau": 0.002,
                   "t_final": 0.02, "diagnostics_every": 2},
    "adaptive.json": {"model": "ac", "scheme": "s3_1", "nx": 32, "adaptive": True,
                      "tau_min": 0.01, "tau_max": 0.1, "alpha": 100.0, "t_final": 0.5},
}

# command lines, each run in a fresh empty directory; --out paths are relative
COMMANDS = (
    ("converge", "--scheme", "s4_2", *NLS, "--tfinal", "1/2", "--taus", "1/8,1/16,1/32"),
    ("converge", "--scheme", "s6", *NLS, "--tfinal", "1", "--random-n", "8,16,32", "--seed", "1"),
    ("converge", "--scheme", "s6", *NLS, "--tfinal", "1", "--random-n", "8,16,32", "--seed", "2"),
    ("run", "--model", "ac", "--scheme", "s4_4", "--nx", "64", "--tau", "1/40",
     "--tfinal", "1/2", "--out", "out"),
    ("run", "--model", "nls_nonlinear", "--scheme", "s6", "--nx", "64", "--tau", "1/100",
     "--tfinal", "1/10", "--out", "out"),
    ("run", "--model", "rd_system", "--scheme", "s3_1", "--nx", "64", "--tau", "1/100",
     "--tfinal", "1/10", "--out", "out"),
    ("run", "--model", "cac", "--scheme", "s4_3", "--nx", "64", "--tau", "1/100",
     "--tfinal", "1/10", "--out", "out"),
    ("run", "--model", "ac", "--scheme", "s4_neg", "--allow-backward", "--nx", "32",
     "--tau", "5", "--tfinal", "100", "--out", "out"),
    ("order-check", "--scheme", "s6"),
    *(("preset", name, "--nx", "32", "--tfinal", t, "--out", "out") for name, t in PRESETS),
    ("converge", "--model", "toy", "--scheme", "s4_2", "--nx", "32", "--tfinal", "1/2",
     "--taus", "1/8,1/16", "--reference", "self", "--ref-scheme", "s6", "--ref-tau", "1/64"),
    ("run", "--model", "rd_system", "--scheme", "lie1", "--nx", "32", "--tau", "1e-3",
     "--tfinal", "1/100", "--param", "M=1", "--out", "out"),
    ("order-check", "--scheme", "strang_a"),
    ("order-check", "--scheme", "s4_2"),
    ("run", "--model", "nls_linear", "--scheme", "s4_2", "--nx", "32", "--tau", "1/20",
     "--tfinal", "1/4", "--format", "json"),
    ("run", "--config", "fixed.json"),
    ("run", "--config", "adaptive.json", "--format", "json"),
    # the rho = 0 phase rotation, from rho = -0 and on the nonlinear model
    ("run", "--model", "nls_linear", "--scheme", "s6", "--nx", "64", "--tau", "1/50",
     "--tfinal", "1/10", "--param", "rho=-0", "--out", "out"),
    ("run", "--model", "nls_nonlinear", "--scheme", "s4_2", "--nx", "64", "--tau", "1/50",
     "--tfinal", "1/10", "--param", "rho=0", "--out", "out"),
    # states past the truncation window M, so the truncations clip
    ("preset", "fkpp", "--nx", "32", "--tfinal", "1/100", "--param", "M=0.5", "--out", "out"),
    ("run", "--model", "cac", "--scheme", "s4_3", "--nx", "32", "--tau", "1/100",
     "--tfinal", "1/20", "--param", "M=0.5", "--out", "out"),
    # a finite ac state past the window, so the B flow takes its RK fallback
    ("run", "--model", "ac", "--scheme", "s4_4", "--nx", "32", "--tau", "1/40",
     "--tfinal", "1/4", "--param", "M=0.5", "--out", "out"),
    # a last step shortened to 0.01, as tau does not divide t_final
    ("run", "--model", "toy", "--scheme", "s4_2", "--nx", "16", "--tau", "0.03",
     "--tfinal", "0.1"),
    # the JSON file of a run's record, and the file of a study
    ("run", "--model", "cac", "--scheme", "s4_3", "--nx", "32", "--tau", "1/100",
     "--tfinal", "1/20", "--format", "json", "--out", "out"),
    ("converge", "--scheme", "s4_2", *NLS, "--tfinal", "1/2", "--taus", "1/8,1/16",
     "--out", "out"),
    # a rung that diverges, after a self reference
    ("converge", "--model", "ac", "--scheme", "s4_neg", "--allow-backward", "--nx", "32",
     "--tfinal", "100", "--taus", "5,2.5", "--reference", "self", "--ref-scheme", "strang_a",
     "--ref-tau", "1"),
)


def _sha(data: bytes) -> str:
    kept = (line for line in data.splitlines(keepends=True)
            if not line.startswith(b"# generated "))
    return hashlib.sha256(b"".join(kept)).hexdigest()


def digest(argv, workdir) -> dict:
    """{"exit", "stdout", "files"} of `mpesplit argv` run in workdir."""
    from mpesplit.cli import main

    inputs = [name for name in CONFIGS if name in argv]
    for name in inputs:
        (Path(workdir) / name).write_text(json.dumps(CONFIGS[name]))
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(Path(workdir).rglob("*")):
        if path.is_file() and path.name not in inputs:
            files[path.relative_to(workdir).as_posix()] = _sha(path.read_bytes())
    return {"exit": code, "stdout": _sha(out.getvalue().encode()), "files": files}


def table() -> dict:
    import numpy
    import scipy

    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as workdir:
            entries.append({"argv": list(argv), **digest(argv, workdir)})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "entries": entries}


def changed(old: dict, new: dict) -> list:
    """The argv of each entry of the table new whose digests differ from
    old's entry with that argv, or that old does not have."""
    before = {tuple(e["argv"]): e for e in old.get("entries", [])}
    return [e["argv"] for e in new["entries"] if before.get(tuple(e["argv"])) != e]


if __name__ == "__main__":
    new = table()
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    for argv in changed(old, new):
        print("changed: " + " ".join(argv))
    TABLE.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
