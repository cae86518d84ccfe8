"""The three benchmark workloads as lists of CLI invocations.

Each workload is one round of `mpesplit` command lines (the arguments after
the program name). A benchmark run repeats whole rounds, so every run
attempts the same operations in the same proportions. This module imports
only the standard library: the set-up probe times the import of `mpesplit`
and must not pay for numpy before its clock starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Default seed for the only random input, the `--random-n` subdivisions of
# nls_converge; README.md names the second seed for confirming a claim.
DEFAULT_SEED = 1

AC_NX = 1024
AC_TAU = "1/40"
AC_TFINAL = "3/20"  # 6 steps per run

NLS_NX = 256
NLS_TAUS = "1/8,1/16,1/32"
NLS_RANDOM_N = "8,16,32,64"


@dataclass(frozen=True)
class Case:
    """One model on one grid: what the set-up calls and cell counts need."""
    model: str
    nx: int
    components: int = 1


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `kind` selects the output check; `out` names the
    subdirectory the run writes to (None: the output is read from stdout);
    `steps` is the scheme step count when the command line fixes it (None:
    counted from the diagnostics rows, as for the adaptive controller)."""
    kind: str
    argv: tuple
    case: Case
    out: str | None = None
    steps: int | None = None

    def arg(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    @property
    def cells(self) -> int:
        return self.case.nx * self.case.nx * self.case.components


def _ladder_steps(taus: str, t_final: Fraction) -> int:
    return sum(int(t_final / Fraction(t)) for t in taus.split(","))


def _ac_op(scheme: str, out_dir: str) -> Op:
    out = f"{out_dir}/{scheme}"
    argv = ("run", "--model", "ac", "--scheme", scheme, "--nx", str(AC_NX),
            "--tau", AC_TAU, "--tfinal", AC_TFINAL, "--out", out)
    steps = int(Fraction(AC_TFINAL) / Fraction(AC_TAU))
    return Op(scheme, argv, Case("ac", AC_NX), out, steps)


def _preset_op(name: str, case: Case, t_final: str, out_dir: str) -> Op:
    out = f"{out_dir}/{name}"
    argv = ("preset", name, "--nx", str(case.nx), "--tfinal", t_final, "--out", out)
    return Op(name, argv, case, out)


def ops(workload: str, seed: int, out_dir: str) -> list:
    """The operations of one round of `workload`; output files go under out_dir."""
    if workload == "ac_spectral":
        return [_ac_op("strang_a", out_dir), _ac_op("s4_4", out_dir)]
    if workload == "reaction_rk":
        return [
            _preset_op("cac_adaptive", Case("cac", 64), "3/20", out_dir),
            _preset_op("fkpp", Case("fkpp", 128), "1/50", out_dir),
            _preset_op("rd_system", Case("rd_system", 128, 2), "1/5", out_dir),
        ]
    if workload == "nls_converge":
        common = ("--model", "nls_linear", "--nx", str(NLS_NX), "--reference", "exact")
        case = Case("nls_linear", NLS_NX)
        return [
            Op("nls_ladder", ("converge", "--scheme", "s4_2", *common, "--tfinal", "1/2",
                              "--taus", NLS_TAUS),
               case, None, _ladder_steps(NLS_TAUS, Fraction(1, 2))),
            Op("nls_random", ("converge", "--scheme", "s6", *common, "--tfinal", "1",
                              "--random-n", NLS_RANDOM_N, "--seed", str(seed % 2**32)),
               case, None, sum(int(n) for n in NLS_RANDOM_N.split(","))),
        ]
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("ac_spectral", "reaction_rk", "nls_converge")
