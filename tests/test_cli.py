import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mpesplit
from mpesplit import harness
from mpesplit.cli import _load_config, _parse_number, main
from mpesplit.grid import load_field

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script(name):
    """(argv, env) that start the console script `name`: the installed
    script when one is on the PATH; else the entry point that pyproject.toml
    declares, called the way the installed wrapper calls it, in a child whose
    PYTHONPATH leads with the directory holding the imported package."""
    found = shutil.which(name)
    if found:
        return [found], None
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    root = str(Path(mpesplit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return [sys.executable, "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())"], env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNumberParsing:
    def test_plain(self):
        assert _parse_number("0.025") == 0.025

    def test_fraction(self):
        assert _parse_number("1/40") == 0.025
        assert _parse_number("1/3") == pytest.approx(1 / 3)

    @pytest.mark.parametrize("flag", [("--tau", "1/0"), ("--param", "lam=1/0")])
    def test_zero_denominator_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--model", "toy", *flag])
        assert exc.value.code == 2
        assert "zero denominator in '1/0'" in capsys.readouterr().err


class TestRun:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--model", "toy", "--scheme", "lie1",
                               "--nx", "32", "--tau", "0.1", "--tfinal", "0.2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# generated ")
        assert lines[1] == "step,t,tau,energy,mass,max_norm"
        assert len(lines) == 2 + 3  # initial row plus two steps

    def test_fraction_tau_flag(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--model", "toy", "--scheme", "lie1",
                               "--nx", "32", "--tau", "1/40", "--tfinal", "1/20")
        assert code == 0
        last = out.strip().split("\n")[-1].split(",")
        assert float(last[2]) == 0.025

    def test_out_dir(self, capsys, tmp_path):
        out_dir = str(tmp_path / "r")
        code, out, _ = run_cli(capsys, "run", "--model", "toy", "--scheme", "lie1",
                               "--nx", "32", "--tau", "0.1", "--tfinal", "0.2",
                               "--out", out_dir)
        assert code == 0
        assert "wrote" in out
        assert os.path.exists(os.path.join(out_dir, "diagnostics.csv"))
        assert os.path.exists(os.path.join(out_dir, "final_state.bin"))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--model", "toy", "--scheme", "lie1",
                               "--nx", "32", "--tau", "0.1", "--tfinal", "0.1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["columns"][0] == "step"

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "toy", "scheme": "strang_a", "nx": 32,
                                   "tau": 0.1, "t_final": 0.2}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                               "--scheme", "lie1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["scheme"] == "lie1"  # flag wins
        assert doc["config"]["nx"] == 32  # file survives

    def test_param_override(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--model", "toy", "--scheme", "lie1",
                               "--nx", "32", "--tau", "0.1", "--tfinal", "0.1",
                               "--param", "lam=0.0", "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["overrides"] == {"lam": 0.0}

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "toy", "--param", "lam"])

    def test_unknown_scheme_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--model", "toy", "--scheme", "nope",
                               "--nx", "32", "--tau", "0.1", "--tfinal", "0.1")
        assert code == 2
        assert "error:" in err

    def test_unknown_model_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--model", "kdv", "--scheme", "lie1",
                             "--nx", "32", "--tau", "0.1", "--tfinal", "0.1")
        assert code == 2

    def test_backward_scheme_without_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--model", "ac", "--scheme", "s4_neg",
                               "--nx", "32", "--tau", "0.01", "--tfinal", "0.1")
        assert code == 2
        assert "allow_backward" in err

    def test_divergence_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--model", "ac", "--scheme", "s4_neg",
                               "--allow-backward", "--nx", "32", "--tau", "40",
                               "--tfinal", "80")
        assert code == 3
        assert "# diverged at step" in out

    def test_monitor_stop_exits_3_and_writes_its_files(self, capsys, tmp_path):
        out_dir = str(tmp_path / "rd")
        code, out, err = run_cli(capsys, "run", "--model", "rd_system", "--scheme", "lie1",
                                 "--nx", "32", "--tau", "1e-3", "--tfinal", "0.01",
                                 "--param", "M=1", "--out", out_dir)
        assert (code, err) == (3, "")
        assert out == f"wrote {out_dir} (status: monitor)\n"
        with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == "step,t,tau,energy,mass,max_norm"
        assert [line.split(",")[0] for line in lines[2:4]] == ["0", "1"]
        assert lines[4:] == ["# rd_system monitor: max norm exceeded M=1.0 at step 1"]
        for i in range(2):
            grid, component = load_field(os.path.join(out_dir, f"final_state_{i}"))
            assert grid.shape == (32, 32) and np.all(np.isfinite(component))

    def test_fkpp_default_exponents_as_params(self, capsys):
        # --param values arrive as floats; p = q = 5 are the model's defaults
        code, out, _ = run_cli(capsys, "run", "--model", "fkpp", "--nx", "16", "--tau", "0.01",
                               "--tfinal", "0.02", "--param", "p=5", "--param", "q=5")
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 3

    def test_fixed_step_ignores_controller_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--model", "toy", "--scheme", "lie1",
                               "--nx", "16", "--tau", "0.1", "--tfinal", "0.2",
                               "--tau-min", "0.5", "--tau-max", "0.1", "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_config_file_with_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "toy", "bogus": 1}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bogus" in err

    @pytest.mark.parametrize("text,reason", [
        (None, "No such file or directory"),
        ("{bad", "Expecting property name"),
    ])
    def test_unreadable_config_file_exits_2(self, capsys, tmp_path, text, reason):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert err.startswith(f"error: config {path}: {reason}") and err.count("\n") == 1

    def test_adaptive_flags(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--model", "cac", "--scheme", "s4_3",
                               "--nx", "32", "--adaptive", "--tau-min", "0.05",
                               "--tau-max", "0.2", "--alpha", "1e6",
                               "--tfinal", "0.4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        taus = [row[2] for row in doc["rows"][1:]]
        assert all(t <= 0.2 + 1e-15 for t in taus)


class TestPreset:
    def test_dry_run(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "cac_adaptive", "--dry-run")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "cac" and doc["scheme"] == "s4_3"
        assert doc["adaptive"] is True
        assert doc["tau_min"] == 0.01 and doc["tau_max"] == 0.1

    def test_dry_run_override(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "toy_accuracy", "--dry-run",
                               "--nx", "64", "--tau", "0.1")
        doc = json.loads(out)
        assert code == 0
        assert doc["nx"] == 64 and doc["tau"] == 0.1
        assert doc["t_final"] == 6.0  # untouched

    def test_dry_run_param_and_rk_substeps(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "fkpp", "--dry-run", "--param", "M=1",
                               "--rk-substeps", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["overrides"] == {"M": 1.0} and doc["rk_substeps"] == 2
        assert doc["model"] == "fkpp"

    @pytest.mark.parametrize("name", harness.preset_names())
    @pytest.mark.parametrize("extra", [(), ("--param", "M=2", "--nx", "32", "--out", "d")])
    def test_dry_run_loads_as_config(self, capsys, tmp_path, name, extra):
        code, out, _ = run_cli(capsys, "preset", name, "--dry-run", *extra)
        assert code == 0
        path = tmp_path / "config.json"
        path.write_text(out)
        cfg = harness.preset(name)
        if extra:
            cfg = replace(cfg, overrides={"M": 2.0}, nx=32, out_dir="d")
        assert _load_config(str(path)) == cfg

    def test_model_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "fkpp", "--dry-run", "--model", "ac"])
        assert exc.value.code == 2

    def test_execution(self, capsys):
        code, out, _ = run_cli(capsys, "preset", "nls_nonlinear", "--nx", "32",
                               "--tfinal", "0.05")
        assert code == 0
        assert out.strip().split("\n")[1] == "step,t,tau,energy,mass,max_norm"

    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["preset", "kdv"])


class TestConverge:
    def test_exact_reference(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--model", "nls_linear",
                               "--scheme", "strang_a", "--nx", "64",
                               "--taus", "0.2,0.1", "--reference", "exact",
                               "--tfinal", "0.4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,error_inf,rate"
        assert len(lines) == 3
        assert lines[1].endswith(",")
        assert lines[2].split(",")[2] != ""

    def test_self_reference(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--model", "toy",
                               "--scheme", "lie1", "--nx", "32",
                               "--taus", "0.2,0.1", "--tfinal", "0.4",
                               "--ref-scheme", "s4_2", "--ref-tau", "0.02")
        assert code == 0
        rate = float(out.strip().split("\n")[2].split(",")[2])
        assert 0.5 < rate < 1.5

    def test_self_reference_computes_no_rows(self, capsys, monkeypatch):
        # the table of a study against the final state of a full `run`,
        # while the reference run itself computes no energy
        cfg = harness.RunConfig(model="toy", scheme="lie1", nx=32, t_final=0.4)
        ref = harness.run(replace(cfg, scheme="s4_2", tau=0.02)).final_state
        expected = harness.convergence_csv(harness.convergence_study(cfg, [0.2, 0.1], ref))
        calls = []
        energy = harness.energy
        monkeypatch.setattr(harness, "energy", lambda *a: calls.append(1) or energy(*a))
        code, out, _ = run_cli(capsys, "converge", "--model", "toy",
                               "--scheme", "lie1", "--nx", "32",
                               "--taus", "0.2,0.1", "--tfinal", "0.4",
                               "--ref-scheme", "s4_2", "--ref-tau", "0.02")
        assert (code, out, calls) == (0, expected, [])

    def test_random_grids(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--model", "nls_linear",
                               "--scheme", "strang_a", "--nx", "32",
                               "--random-n", "4,8", "--reference", "exact",
                               "--tfinal", "0.4", "--seed", "2")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_zero_error_gives_nan_rate(self, capsys):
        # with lam = 0 the flows commute, and the 0.05 rung repeats the
        # reference run exactly
        code, out, _ = run_cli(capsys, "converge", "--model", "toy", "--scheme", "strang_a",
                               "--nx", "16", "--taus", "0.1,0.05", "--tfinal", "0.2",
                               "--param", "lam=0", "--ref-scheme", "strang_a",
                               "--ref-tau", "0.05")
        assert code == 0
        assert out.strip().split("\n")[2] == "0.05,0.0,nan"

    def test_monitor_stop_of_self_reference_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "converge", "--model", "rd_system", "--scheme", "lie1",
                                 "--nx", "16", "--taus", "0.01,0.005", "--tfinal", "0.01",
                                 "--param", "M=1", "--ref-scheme", "lie1", "--ref-tau", "1e-3")
        assert (code, out) == (3, "")
        assert err == ("error: reference run rd_system monitor: max norm exceeded M=1.0"
                       " at step 1\n")

    def test_zero_horizon_takes_no_step(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--model", "toy", "--scheme", "lie1",
                               "--nx", "16", "--taus", "0.1,0.05", "--tfinal", "0")
        assert code == 0
        assert out.strip().split("\n")[1:] == ["0.1,0.0,", "0.05,0.0,nan"]

    def test_out_file(self, capsys, tmp_path):
        out_dir = str(tmp_path / "conv")
        code, out, _ = run_cli(capsys, "converge", "--model", "toy",
                               "--scheme", "lie1", "--nx", "32",
                               "--taus", "0.2,0.1", "--tfinal", "0.4",
                               "--ref-scheme", "s4_2", "--ref-tau", "0.02",
                               "--out", out_dir)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "convergence.csv"))

    def test_needs_a_ladder(self):
        with pytest.raises(SystemExit):
            main(["converge", "--model", "toy", "--scheme", "lie1",
                  "--nx", "32", "--tfinal", "0.4"])

    @pytest.mark.parametrize("argv", [
        ("run", "--model", "toy", "--param", "lam"),
        ("converge", "--model", "toy", "--scheme", "lie1", "--nx", "16", "--tfinal", "0.4"),
        ("converge", "--model", "toy", "--scheme", "lie1", "--nx", "16", "--tfinal", "0.4",
         "--taus", "0.2,0.1", "--random-n", "4,8"),
    ])
    def test_rejected_with_exit_2_before_any_run(self, monkeypatch, argv):
        def no_run(*_args, **_kwargs):
            raise AssertionError("integrated before the command line was checked")
        monkeypatch.setattr("mpesplit.harness.run", no_run)
        monkeypatch.setattr("mpesplit.harness.convergence_study", no_run)
        monkeypatch.setattr("mpesplit.harness.random_grid_study", no_run)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_t_final_defaults_to_one(self, capsys):
        argv = ("converge", "--model", "nls_linear", "--scheme", "strang_a", "--nx", "16",
                "--taus", "0.5,0.25", "--reference", "exact")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--tfinal", "1") == (0, out, "")

    def test_backward_scheme_without_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "converge", "--model", "nls_linear",
                               "--scheme", "s4_neg", "--nx", "16", "--taus", "0.2,0.1",
                               "--reference", "exact", "--tfinal", "0.4")
        assert code == 2
        assert "allow_backward" in err

    def test_backward_scheme_refused_before_self_reference(self, capsys, monkeypatch):
        def no_run(*_args, **_kwargs):
            raise AssertionError("reference integrated before the scheme was checked")
        monkeypatch.setattr("mpesplit.harness.run_state", no_run)
        code, _, err = run_cli(capsys, "converge", "--model", "nls_linear",
                               "--scheme", "s4_neg", "--nx", "16", "--taus", "0.2,0.1",
                               "--tfinal", "1", "--reference", "self")
        assert code == 2
        assert err == "error: scheme s4_neg needs allow_backward\n"

    def test_allow_backward_reaches_self_reference(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--model", "ac", "--scheme", "strang_a",
                               "--nx", "16", "--taus", "0.1,0.05", "--tfinal", "0.2",
                               "--ref-scheme", "s4_neg", "--ref-tau", "0.05",
                               "--allow-backward")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize("schemes", [
        # the first rung diverged: a table of no rungs, then the reason
        ("s4_neg", "strang_a", "1", "tau,error_inf,rate\n# tau 40.0: diverged at step 1\n", ""),
        # the self-reference run diverged: one error line
        ("strang_a", "s4_neg", "40", "", "error: reference run diverged at step 1\n"),
    ])
    def test_divergence_exits_3(self, capsys, schemes):
        scheme, ref_scheme, ref_tau, want_out, want_err = schemes
        code, out, err = run_cli(capsys, "converge", "--model", "ac", "--scheme", scheme,
                                 "--allow-backward", "--nx", "32", "--taus", "40,20",
                                 "--tfinal", "80", "--ref-scheme", ref_scheme,
                                 "--ref-tau", ref_tau)
        assert (code, out, err) == (3, want_out, want_err)

    def test_diverged_rung_keeps_the_rungs_before_it(self, capsys, tmp_path):
        argv = ("converge", "--model", "ac", "--scheme", "s4_neg", "--allow-backward",
                "--nx", "16", "--taus", "0.5,0.25,1", "--tfinal", "2",
                "--ref-scheme", "strang_a", "--ref-tau", "0.25")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (3, "")
        lines = out.splitlines()
        assert lines[0] == "tau,error_inf,rate"
        assert [line.split(",")[0] for line in lines[1:3]] == ["0.5", "0.25"]
        assert lines[3:] == ["# tau 1.0: diverged at step 1"]
        out_dir = str(tmp_path / "conv")
        code, printed, _ = run_cli(capsys, *argv, "--out", out_dir)
        path = os.path.join(out_dir, "convergence.csv")
        assert (code, printed) == (3, f"wrote {path}\n")
        with open(path) as fh:
            assert fh.read() == out

    def test_equal_steps_give_nan_rate(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--model", "toy", "--scheme", "lie1",
                               "--nx", "16", "--taus", "0.1,0.1", "--tfinal", "0.2",
                               "--ref-tau", "0.05")
        assert code == 0
        first, second = out.strip().split("\n")[1:]
        assert second == first + "nan"


    @pytest.mark.parametrize("ladder", [("--taus", "0.2,0.1"), ("--random-n", "4,8")])
    def test_rk_substeps_reach_both_studies(self, capsys, ladder):
        code, _, err = run_cli(capsys, "converge", "--model", "nls_linear",
                               "--scheme", "strang_a", "--nx", "16", *ladder,
                               "--reference", "exact", "--tfinal", "0.4",
                               "--rk-substeps", "0")
        assert code == 2
        assert "substeps must be >= 1" in err

    @pytest.mark.parametrize("ladder", [("--taus", "0.1,0.05"), ("--random-n", "2,4")])
    def test_allow_backward_reaches_both_studies(self, capsys, ladder):
        code, out, _ = run_cli(capsys, "converge", "--model", "ac", "--scheme", "s4_neg",
                               "--nx", "16", *ladder, "--tfinal", "0.2",
                               "--ref-scheme", "strang_a", "--ref-tau", "0.05",
                               "--allow-backward")
        assert code == 0
        assert len(out.strip().split("\n")) == 3


class TestRuntimeErrors:
    """A RuntimeError or ValueError raised while running is one error line
    and exit 2."""

    @pytest.mark.parametrize("argv,reason", [
        (("run", "--model", "toy", "--nx", "16", "--tfinal", "inf"), "finite and >= 0"),
        (("converge", "--model", "ac", "--scheme", "s4_neg", "--nx", "16",
          "--taus", "0.1,0.05", "--tfinal", "0.2", "--ref-scheme", "strang_a",
          "--ref-tau", "0.05"), "allow_backward"),
        (("run", "--model", "fkpp", "--nx", "16", "--tau", "0", "--tfinal", "0.1"),
         "finite and positive"),
        (("preset", "fkpp", "--nx", "16", "--tau", "0", "--tfinal", "0.01"),
         "finite and positive"),
        (("run", "--model", "fkpp", "--nx", "16", "--tau", "-0.01", "--tfinal", "0.1"),
         "finite and positive"),
        # toy's B flow never runs RK, and the count is still checked at set-up
        (("run", "--model", "toy", "--nx", "16", "--tau", "0.01", "--tfinal", "0.02",
          "--rk-substeps", "0"), "substeps must be >= 1"),
        (("run", "--model", "fkpp", "--nx", "16", "--tau", "0.01", "--tfinal", "0.02",
          "--rk-substeps", "0"), "substeps must be >= 1"),
        (("run", "--model", "toy", "--nx", "16", "--tfinal", "nan"), "finite and >= 0"),
        (("run", "--model", "cac", "--nx", "16", "--adaptive", "--tfinal", "inf"),
         "finite and >= 0"),
        (("converge", "--model", "toy", "--nx", "16", "--taus", "0.1,0.05", "--tfinal", "-1"),
         "finite and >= 0"),
        (("converge", "--model", "nls_linear", "--nx", "16", "--taus", "0.1,0.05",
          "--reference", "exact", "--tfinal", "inf"), "finite and >= 0"),
        (("run", "--model", "fkpp", "--nx", "16", "--tfinal", "0.02", "--param", "p=4"),
         "p = q = 5"),
        (("run", "--model", "fkpp", "--nx", "16", "--tfinal", "0.02", "--param", "q=5.5"),
         "p = q = 5"),
        (("run", "--config", '{"model": "toy", "nx": 16, "diagnostics_every": 0}'),
         "diagnostics_every must be >= 1"),
        (("run", "--config", '{"model": "toy", "nx": 16, "diagnostics_every": -2}'),
         "diagnostics_every must be >= 1"),
        # a value whose JSON type does not fit its field
        (("run", "--config", '{"model": "toy", "nx": 16, "tau": 0.1, "t_final": 0.6, '
                             '"diagnostics_every": 1.5}'), "diagnostics_every must be an integer"),
        (("run", "--config", '{"diagnostics_every": "3"}'), "diagnostics_every must be an integer"),
        (("run", "--config", '{"t_final": "1"}'), "t_final must be a number"),
        (("run", "--config", '{"tau": "0.1"}'), "tau must be a number"),
        (("run", "--config", '{"nx": "16"}'), "nx must be an integer or null"),
        (("run", "--config", '{"overrides": [1]}'), "overrides must be an object of numbers"),
        (("run", "--config", '{"adaptive": "yes"}'), "adaptive must be true or false"),
        (("run", "--config", '{"nx": true}'), "nx must be an integer or null, got true"),
        (("run", "--config", '{"tau": false}'), "tau must be a number, got false"),
        (("run", "--config", '{"overrides": {"eps": "0.1"}}'),
         'overrides must be an object of numbers, got {"eps": "0.1"}'),
        (("run", "--config", '{"overrides": {"eps": true}}'), "overrides must be"),
        (("run", "--config", '{"model": null}'), "model must be a string, got null"),
        (("run", "--config", '{"out_dir": 3}'), "out_dir must be a string or null"),
        (("run", "--config", '{"rk_substeps": 4.0}'), "rk_substeps must be an integer"),
        # a grid of 0 or fewer points per axis is refused, not the model's default
        (("run", "--model", "toy", "--nx", "0", "--tfinal", "0"), "even and >= 2, got 0"),
        (("run", "--model", "toy", "--nx", "-2", "--tfinal", "0"), "even and >= 2, got -2"),
        (("run", "--config", '{"model": "toy", "nx": 0, "t_final": 0}'), "even and >= 2, got 0"),
        (("converge", "--model", "nls_linear", "--nx", "0", "--taus", "0.1,0.05",
          "--reference", "exact"), "even and >= 2, got 0"),
        (("preset", "fkpp", "--nx", "0", "--tfinal", "0"), "even and >= 2, got 0"),
        # argparse checks --format; a config file's format is checked with the run's values
        (("run", "--config", '{"format": "xml"}'), 'format must be "csv" or "json", got "xml"'),
        (("run", "--config", '{"model": "toy", "nx": 16, "format": "CSV"}'),
         'format must be "csv" or "json", got "CSV"'),
    ])
    def test_reported_and_exit_2(self, capsys, tmp_path, argv, reason):
        if "--config" in argv:  # the JSON text after --config goes to a file
            i = argv.index("--config") + 1
            path = tmp_path / "config.json"
            path.write_text(argv[i])
            argv = (*argv[:i], str(path), *argv[i + 1:])
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err


class TestOrderCheck:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "order-check", "--scheme", "strang_a")
        assert code == 0
        doc = json.loads(out)
        assert doc["scheme"] == "strang_a"
        assert doc["claimed_order"] == 2
        assert len(doc["algebraic"]) == 15
        entry = doc["algebraic"][0]
        assert set(entry) == {"level", "id", "lhs", "rhs", "satisfied"}
        emp = doc["empirical"]
        assert set(emp) == {"slope", "residual", "ladder", "errors", "floored"}
        assert abs(emp["slope"] - 3.0) < 0.3

    def test_up_to_limits_report(self, capsys):
        code, out, _ = run_cli(capsys, "order-check", "--scheme", "lie1",
                               "--up-to", "2")
        doc = json.loads(out)
        assert len(doc["algebraic"]) == 7
        satisfied = [e["satisfied"] for e in doc["algebraic"]]
        assert satisfied[:3] == [True, True, True]
        assert not all(satisfied[3:])

    def test_custom_ladder(self, capsys):
        code, out, _ = run_cli(capsys, "order-check", "--scheme", "lie1",
                               "--ladder", "0.08,0.04,0.02")
        doc = json.loads(out)
        assert doc["empirical"]["ladder"] == [0.08, 0.04, 0.02]

    def test_unknown_scheme(self, capsys):
        code, _, _ = run_cli(capsys, "order-check", "--scheme", "s99")
        assert code == 2


class TestListings:
    def test_list_schemes(self, capsys):
        code, out, _ = run_cli(capsys, "list-schemes")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 15
        assert any(line.startswith("s4_neg") for line in lines)
        assert any("order 10" in line for line in lines)

    def test_list_models(self, capsys):
        code, out, _ = run_cli(capsys, "list-models")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        rd = next(line for line in lines if line.startswith("rd_system"))
        assert "1024" in rd

    def test_console_script_installed(self):
        argv, env = console_script("mpesplit")
        proc = subprocess.run(argv + ["list-models"], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0
        assert "nls_linear" in proc.stdout
