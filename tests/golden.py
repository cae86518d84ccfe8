"""Golden digests of command-line outputs: each command of `COMMANDS` runs
in-process through `cli.main`, and its entry in `golden_digests.json` holds
the exit code, the SHA-256 of its standard output and the SHA-256 of every
file it writes under its working directory. `# generated <timestamp>` lines
are left out of both, and standard error is not digested: the numpy
warnings of a diverged run come from two threads in varying order.

Regenerate the table, after a change that means to change bytes, with

    PYTHONPATH=src python tests/golden.py

and list each changed entry in CHANGES.md.
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
)


def _sha(data: bytes) -> str:
    kept = (line for line in data.splitlines(keepends=True)
            if not line.startswith(b"# generated "))
    return hashlib.sha256(b"".join(kept)).hexdigest()


def digest(argv, workdir) -> dict:
    """{"exit", "stdout", "files"} of `mpesplit argv` run in workdir."""
    from mpesplit.cli import main

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
        if path.is_file():
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


if __name__ == "__main__":
    TABLE.write_text(json.dumps(table(), indent=1) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
