import json
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpesplit import harness, models, schemes
from mpesplit.grid import load_field
from mpesplit.harness import (
    ConvergenceReport,
    RunConfig,
    StepController,
    _steps_for,
    adaptive_tau,
    check_config,
    convergence_csv,
    convergence_study,
    diagnostics_csv,
    estimate_e_prime,
    preset,
    preset_names,
    random_grid_study,
    random_subdivisions,
    record_to_json,
    run,
)
from reference_harness import run_serial, study_serial


class TestStepsFor:
    def test_exact_divisor(self):
        assert _steps_for(0.25, 1.0) == [0.25] * 4

    def test_remainder_step(self):
        steps = _steps_for(0.4, 1.0)
        assert len(steps) == 3
        assert steps[:2] == [0.4, 0.4]
        assert abs(sum(steps) - 1.0) < 1e-15

    def test_tiny_remainder_absorbed(self):
        # 1/0.1 is not an exact float division; no 1e-17 ghost step
        assert len(_steps_for(0.1, 1.0)) == 10

    def test_zero_horizon_has_no_steps(self):
        assert _steps_for(0.1, 0.0) == []

    @pytest.mark.parametrize("tau", [0.0, -0.0, -0.01, math.inf, -math.inf, math.nan])
    def test_rejects_non_positive_or_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="finite and positive"):
            _steps_for(tau, 1.0)

    @settings(derandomize=True, max_examples=100)
    @given(
        tau=st.floats(min_value=1e-3, max_value=10.0),
        t_final=st.floats(min_value=1e-3, max_value=50.0),
    )
    def test_partition_covers_horizon(self, tau, t_final):
        steps = _steps_for(tau, t_final)
        assert steps
        assert all(0.0 < s <= tau * (1 + 1e-9) for s in steps)
        assert math.fsum(steps) == pytest.approx(t_final, rel=1e-9)


class TestController:
    def test_validation(self):
        # the bounds are checked with the rest of an adaptive config
        for lo, hi in ((0.0, 0.1), (0.2, 0.1)):
            with pytest.raises(ValueError, match="need 0 < tau_min <= tau_max"):
                check_config(RunConfig(adaptive=True, tau_min=lo, tau_max=hi))

    def test_history_keeps_last_two(self):
        c = StepController(0.01, 0.1, 1.0)
        for k in range(5):
            c.record(float(k), float(k * k))
        assert c.history == [(3.0, 9.0), (4.0, 16.0)]

    def test_e_prime_before_two_samples(self):
        assert estimate_e_prime([]) == 0.0
        assert estimate_e_prime([(0.0, 1.0)]) == 0.0

    def test_e_prime_backward_difference(self):
        assert estimate_e_prime([(0.0, 1.0), (0.5, -1.5)]) == -5.0

    def test_e_prime_zero_gap(self):
        with pytest.raises(ValueError):
            estimate_e_prime([(1.0, 2.0), (1.0, 3.0)])

    def test_adaptive_tau_limits(self):
        c = StepController(0.01, 0.1, 1e6)
        assert adaptive_tau(c, 0.0) == 0.1
        assert adaptive_tau(c, 1e12) == 0.01

    def test_adaptive_tau_formula(self):
        # tau_max / sqrt(1 + alpha E'^2) with alpha E'^2 = 1
        c = StepController(0.01, 0.1, 1e6)
        assert abs(adaptive_tau(c, 1e-3) - 0.1 / math.sqrt(2.0)) < 1e-15

    def test_adaptive_tau_clamped_inside_band(self):
        c = StepController(0.02, 0.08, 1e4)
        for ep in (0.0, 1e-4, 1e-2, 1.0, 1e3):
            assert 0.02 <= adaptive_tau(c, ep) <= 0.08


class TestCheckConfig:
    """`check_config`, the one check of a RunConfig's values, which every
    run and study makes at set-up."""

    @pytest.mark.parametrize("change,reason", [
        (dict(t_final=math.inf), "final time must be finite and >= 0, got inf"),
        (dict(t_final=-0.5), "final time must be finite and >= 0, got -0.5"),
        (dict(diagnostics_every=0), "diagnostics_every must be >= 1, got 0"),
        (dict(rk_substeps=0), "substeps must be >= 1"),
        (dict(format="xml"), 'format must be "csv" or "json", got "xml"'),
        (dict(nx=0), "n_per_axis must be even and >= 2, got 0"),
        (dict(nx=7), "n_per_axis must be even and >= 2, got 7"),
        (dict(adaptive=True, tau_min=0.2, tau_max=0.1), "need 0 < tau_min <= tau_max"),
    ])
    def test_each_check(self, change, reason):
        config = RunConfig(**{"model": "toy", "nx": 16, "t_final": 0.1, **change})
        with pytest.raises(ValueError) as exc:
            check_config(config)
        assert str(exc.value) == reason
        for entry in (run, harness.run_state,
                      lambda c: convergence_study(c, [0.05], "exact"),
                      lambda c: random_grid_study(c, [2], "exact")):
            if entry is harness.run_state and config.adaptive:
                continue  # refused as adaptive before set-up
            with pytest.raises(ValueError, match=reason):
                entry(replace(config, model="nls_linear"))

    def test_defaults_and_presets_pass(self):
        check_config(RunConfig())
        for name in preset_names():
            check_config(preset(name))

    def test_fixed_steps_ignore_the_bounds(self):
        # a fixed-step run reads neither bound, and an adaptive run never
        # reads tau
        config = RunConfig(model="toy", nx=16, tau=0.1, t_final=0.2, tau_min=0.5, tau_max=0.1)
        check_config(config)
        assert run(config).status == "ok"
        adaptive = RunConfig(model="toy", nx=16, tau=0.0, t_final=0.2, adaptive=True)
        check_config(adaptive)
        assert run(adaptive).status == "ok"


class TestRun:
    def test_zero_horizon(self):
        rec = run(RunConfig(model="toy", scheme="lie1", nx=32, tau=0.01, t_final=0.0))
        assert rec.status == "ok"
        assert len(rec.rows) == 1
        assert rec.rows[0][0] == 0 and rec.rows[0][1] == 0.0
        assert rec.final_state.shape == (32, 32)

    def test_shortened_final_step(self):
        rec = run(RunConfig(model="toy", scheme="strang_a", nx=32, tau=0.4, t_final=1.0))
        assert rec.rows[-1][1] == 1.0
        last = rec.rows[-1]
        assert last[0] == 3
        assert abs(last[2] - 0.2) < 1e-15

    def test_diagnostics_stride_still_records_last(self):
        rec = run(RunConfig(model="toy", scheme="strang_a", nx=32, tau=0.01,
                            t_final=0.05, diagnostics_every=3))
        assert [r[0] for r in rec.rows] == [0, 3, 5]
        assert rec.rows[-1][1] == pytest.approx(0.05)

    def test_deterministic_reruns(self):
        cfg = RunConfig(model="ac", scheme="s3_1", nx=32, tau=0.05, t_final=0.5)
        a, b = run(cfg), run(cfg)
        assert diagnostics_csv(a) == diagnostics_csv(b)
        assert np.array_equal(a.final_state, b.final_state)

    def test_negative_coefficient_scheme_needs_flag(self):
        with pytest.raises(ValueError, match="allow_backward"):
            run(RunConfig(model="ac", scheme="s4_neg", nx=32, tau=0.01, t_final=0.1))

    def test_divergence_recorded_not_raised(self):
        rec = run(RunConfig(model="ac", scheme="s4_neg", nx=32, tau=40.0,
                            t_final=80.0, allow_backward=True))
        assert rec.status == "diverged"
        assert rec.diverged_step is not None
        assert math.isnan(rec.rows[-1][3])
        assert diagnostics_csv(rec).rstrip().endswith(
            f"# diverged at step {rec.diverged_step}")

    def test_monitor_guards_reaction_system(self):
        config = RunConfig(model="rd_system", scheme="lie1", nx=32, tau=1e-3, t_final=0.01,
                           overrides={"M": 1.0})
        rec = run(config)
        assert (rec.status, rec.diverged_step) == ("monitor", 1)
        assert rec.reason == "rd_system monitor: max norm exceeded M=1.0 at step 1"
        assert [r[0] for r in rec.rows] == [0, 1]
        assert diagnostics_csv(rec).endswith(f"# {rec.reason}\n")
        assert json.loads(record_to_json(rec))["diverged_step"] == 1
        _same_record(rec, run_serial(config))

    def test_energy_decreases_on_gradient_flow(self):
        rec = run(RunConfig(model="ac", scheme="strang_a", nx=64, tau=1 / 40,
                            t_final=1.0))
        energies = [r[3] for r in rec.rows]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10)
        assert max(r[5] for r in rec.rows) <= 1.1

    def test_adaptive_run_obeys_bounds_and_lands_on_t_final(self):
        rec = run(RunConfig(model="cac", scheme="s4_3", nx=64, adaptive=True,
                            tau_min=0.01, tau_max=0.1, alpha=1e6, t_final=0.5))
        taus = [r[2] for r in rec.rows[1:]]
        assert all(0.0 < t <= 0.1 + 1e-15 for t in taus)
        assert rec.rows[-1][1] == pytest.approx(0.5, abs=1e-12)
        # first step always launches at tau_max
        assert taus[0] == pytest.approx(0.1)

    def test_parameter_overrides_reach_model(self):
        rec = run(RunConfig(model="toy", scheme="lie1", nx=32, tau=0.1,
                            t_final=0.1, overrides={"lam": 0.0}))
        assert rec.model.params["lam"] == 0.0


def _same_record(got, ref):
    assert (got.status, got.diverged_step, got.reason) == (ref.status, ref.diverged_step,
                                                           ref.reason)
    assert len(got.rows) == len(ref.rows)
    assert np.asarray(got.rows, dtype=float).tobytes() == np.asarray(ref.rows, dtype=float).tobytes()
    assert [type(v) for r in got.rows for v in r] == [type(v) for r in ref.rows for v in r]
    assert got.final_state.dtype == ref.final_state.dtype
    assert got.final_state.tobytes() == ref.final_state.tobytes()


# (model, scheme, extra config): every case runs 7 steps or more
_PIPELINE_CASES = {
    "ac-strang_a": dict(model="ac", scheme="strang_a", tau=1 / 40, t_final=0.2),
    "ac-s4_4": dict(model="ac", scheme="s4_4", tau=1 / 40, t_final=0.2),
    "fkpp": dict(model="fkpp", scheme="s4_1", tau=1e-3, t_final=0.008),
    "rd_system": dict(model="rd_system", scheme="s3_1", tau=0.01, t_final=0.08),
    "nls_nonlinear-s6": dict(model="nls_nonlinear", scheme="s6", tau=0.01, t_final=0.07),
    "cac_adaptive": dict(model="cac", scheme="s4_3", adaptive=True, tau_min=0.01,
                         tau_max=0.1, alpha=1e6, t_final=0.75),
}


class TestPipelinedRun:
    """run, with each row computed on the helper thread while the next step
    runs, against the serial loop of reference_harness."""

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("case", sorted(_PIPELINE_CASES))
    def test_matches_serial_loop(self, case, every):
        config = RunConfig(nx=32, diagnostics_every=every, **_PIPELINE_CASES[case])
        got, ref = run(config), run_serial(config)
        _same_record(got, ref)
        assert len(ref.rows) >= (3 if every == 3 else 8)

    @pytest.mark.parametrize("every", [1, 3])
    def test_monitor_error_at_the_same_step(self, every):
        # the monitor stops both loops at step 1; that row is kept only on stride 1
        config = RunConfig(model="rd_system", scheme="s3_1", nx=32, tau=1e-3, t_final=0.01,
                           diagnostics_every=every, overrides={"M": 1.0})
        got, ref = run(config), run_serial(config)
        assert (got.status, got.diverged_step) == ("monitor", 1)
        assert got.reason.endswith("at step 1")
        assert [r[0] for r in got.rows] == ([0, 1] if every == 1 else [0])
        _same_record(got, ref)

    def test_divergence_matches_serial_loop(self):
        config = RunConfig(model="ac", scheme="s4_neg", nx=32, tau=5.0, t_final=100.0,
                           allow_backward=True)
        with np.errstate(all="ignore"):
            got, ref = run(config), run_serial(config)
        assert got.status == "diverged" and got.diverged_step == 3
        _same_record(got, ref)

    def test_monitor_error_wins_over_next_step_error(self, monkeypatch):
        # step 1 leaves max |u| > M = 1, so its monitor stops the run and
        # step 2, whose apply would raise, never runs
        calls = []
        apply = harness.apply

        def failing_second_step(*args):
            calls.append(threading.current_thread())
            if len(calls) == 2:
                raise ArithmeticError("step 2 failed")
            return apply(*args)

        monkeypatch.setattr(harness, "apply", failing_second_step)
        config = RunConfig(model="rd_system", scheme="lie1", nx=32, tau=1e-3, t_final=0.01,
                           overrides={"M": 1.0})
        rec = run(config)
        assert rec.status == "monitor" and rec.reason.endswith("at step 1")
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(ArithmeticError, match="step 2 failed"):
            run(RunConfig(model="rd_system", scheme="lie1", nx=32, tau=1e-3, t_final=0.01))

    def test_row_error_surfaces(self, monkeypatch):
        def bad_energy(model, state, grid):
            raise ValueError("energy failed")

        monkeypatch.setattr(harness, "energy", bad_energy)
        with pytest.raises(ValueError, match="energy failed"):
            run(RunConfig(model="ac", scheme="strang_a", nx=16, tau=0.1, t_final=0.2))

    def test_rows_run_on_the_helper_steps_on_the_caller(self, monkeypatch):
        threads = {"rows": set(), "steps": set()}
        diag_row, apply = harness._diag_row, harness.apply

        def spy_diag_row(*args):
            threads["rows"].add(threading.current_thread())
            return diag_row(*args)

        def spy_apply(*args):
            threads["steps"].add(threading.current_thread())
            return apply(*args)

        configs = [RunConfig(model="cac", scheme="strang_a", nx=16, tau=0.05, t_final=0.2,
                             adaptive=adaptive, tau_min=0.01, tau_max=0.05)
                   for adaptive in (False, True)]
        refs = [run_serial(config) for config in configs]  # before the spies: it calls both
        monkeypatch.setattr(harness, "_diag_row", spy_diag_row)
        monkeypatch.setattr(harness, "apply", spy_apply)
        for config, ref in zip(configs, refs):
            _same_record(run(config), ref)
        assert threads["steps"] == {threading.current_thread()}
        assert len(threads["rows"]) == 1 and threading.current_thread() not in threads["rows"]
        assert threads["rows"] == {schemes.submit(threading.current_thread).result()}


class TestBenchmarkHooks:
    """perfbench/tracing.py wraps these names where the package looks them up
    and skips a hook whose target is gone, so a refactor that drops one
    shows up there only as a metric reported unmeasured."""

    def test_hook_targets_exist(self):
        for owner, name in [(harness, "apply"), (harness, "flow_pair"), (harness, "energy"),
                            (harness, "mass"), (harness, "max_norm"), (models, "ssprk104")]:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"

    def test_energy_looked_up_in_harness(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0].id)
            return models.energy(*args)

        monkeypatch.setattr(harness, "energy", counted)
        rec = run(RunConfig(model="ac", scheme="strang_a", nx=16, tau=0.1, t_final=0.2))
        assert calls == ["ac"] * 3 and len(rec.rows) == 3


class TestSerialization:
    def test_csv_schema(self):
        rec = run(RunConfig(model="toy", scheme="lie1", nx=32, tau=0.05, t_final=0.2))
        text = diagnostics_csv(rec)
        lines = text.strip().split("\n")
        assert lines[0] == "step,t,tau,energy,mass,max_norm"
        assert len(lines) == 1 + len(rec.rows)
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0

    def test_csv_timestamp_comment(self):
        rec = run(RunConfig(model="toy", scheme="lie1", nx=32, tau=0.1, t_final=0.1))
        assert diagnostics_csv(rec, timestamp="now").startswith("# generated now\n")

    def test_csv_roundtrips_floats_exactly(self):
        rec = run(RunConfig(model="ac", scheme="strang_a", nx=32, tau=0.05, t_final=0.2))
        body = diagnostics_csv(rec).strip().split("\n")[1:]
        for line, row in zip(body, rec.rows):
            parts = line.split(",")
            assert float(parts[3]) == row[3]
            assert float(parts[5]) == row[5]

    def test_json_document(self):
        rec = run(RunConfig(model="toy", scheme="lie1", nx=32, tau=0.1, t_final=0.2))
        doc = json.loads(record_to_json(rec))
        assert doc["columns"] == ["step", "t", "tau", "energy", "mass", "max_norm"]
        assert doc["status"] == "ok"
        assert doc["config"]["scheme"] == "lie1"
        assert len(doc["rows"]) == len(rec.rows)

    def test_write_record_csv_and_field(self, tmp_path):
        out = str(tmp_path / "runA")
        rec = run(RunConfig(model="toy", scheme="lie1", nx=32, tau=0.1, t_final=0.2,
                            out_dir=out))
        assert os.path.exists(os.path.join(out, "diagnostics.csv"))
        assert os.path.exists(os.path.join(out, "final_state.bin"))
        assert os.path.exists(os.path.join(out, "final_state.json"))
        grid, state = load_field(os.path.join(out, "final_state"))
        assert grid.shape == (32, 32) and state.tobytes() == rec.final_state.tobytes()

    def test_write_record_json_format(self, tmp_path):
        out = str(tmp_path / "runB")
        run(RunConfig(model="toy", scheme="lie1", nx=32, tau=0.1, t_final=0.2,
                      out_dir=out, format="json"))
        assert os.path.exists(os.path.join(out, "diagnostics.json"))

    def test_write_record_two_components(self, tmp_path):
        out = str(tmp_path / "runC")
        rec = run(RunConfig(model="rd_system", scheme="lie1", nx=32, tau=0.01,
                            t_final=0.02, out_dir=out))
        assert os.path.exists(os.path.join(out, "final_state_0.bin"))
        assert os.path.exists(os.path.join(out, "final_state_1.bin"))
        for i in range(2):
            grid, component = load_field(os.path.join(out, f"final_state_{i}"))
            assert grid.shape == (32, 32) and component.dtype == np.float64
            assert component.tobytes() == rec.final_state[i].tobytes()


class TestConvergence:
    def test_synthetic_rate(self):
        rep = ConvergenceReport([0.1, 0.05], [8e-3, 1e-3], [])
        assert rep.recompute_rates() == [pytest.approx(3.0)]

    @pytest.mark.parametrize("errors,taus", [
        ([0.0, 0.0], [0.1, 0.05]),
        ([1e-3, 0.0], [0.1, 0.05]),
        ([0.0, 1e-3], [0.1, 0.05]),
        ([-1.0, 1e-3], [0.1, 0.05]),
        ([8e-3, 1e-3], [0.1, 0.1]),  # equal steps have no rate either
    ], ids=["errors0", "errors1", "errors2", "errors3", "equal_taus"])
    def test_rate_of_errors_not_both_positive_is_nan(self, errors, taus):
        rep = ConvergenceReport(taus, errors, [])
        rep.rates = rep.recompute_rates()
        assert math.isnan(rep.rates[0])
        assert convergence_csv(rep).strip().split("\n")[2].endswith(",nan")

    def test_rates_match_recompute(self):
        rep = convergence_study(RunConfig(model="nls_linear", scheme="strang_a", nx=64,
                                          t_final=0.4), [0.2, 0.1, 0.05], "exact")
        assert rep.rates == rep.recompute_rates()
        assert len(rep.rates) == 2

    def test_exact_reference_rates(self):
        rep = convergence_study(RunConfig(model="nls_linear", scheme="s4_2", nx=256,
                                          t_final=0.4), [0.2, 0.1, 0.05, 0.025], "exact")
        assert all(e1 > e2 for e1, e2 in zip(rep.errors_inf, rep.errors_inf[1:]))
        assert abs(rep.rates[-1] - 4.0) < 0.4

    def test_commuting_trajectory_reproduced_to_roundoff(self):
        # the lattice-potential solution is a Laplacian eigenfunction whose
        # amplitude never changes, so both flows reduce to phases and any
        # consistent scheme follows it exactly
        rep = convergence_study(RunConfig(model="nls_nonlinear", scheme="s4_2", nx=64,
                                          t_final=0.5), [0.1, 0.05], "exact")
        assert max(rep.errors_inf) <= 1e-12

    def test_second_order_reference_array(self):
        ref = run(RunConfig(model="toy", scheme="s6", nx=32, tau=0.01, t_final=1.0))
        rep = convergence_study(RunConfig(model="toy", scheme="strang_a", nx=32, t_final=1.0),
                                [0.2, 0.1, 0.05, 0.025], ref.final_state)
        assert abs(rep.rates[-1] - 2.0) < 0.2

    def test_first_order_reference_array(self):
        ref = run(RunConfig(model="toy", scheme="s6", nx=32, tau=0.01, t_final=1.0))
        rep = convergence_study(RunConfig(model="toy", scheme="lie1", nx=32, t_final=1.0),
                                [0.2, 0.1, 0.05, 0.025], ref.final_state)
        assert abs(rep.rates[-1] - 1.0) < 0.15

    def test_reference_shape_checked(self):
        with pytest.raises(ValueError, match="reference grid"):
            convergence_study(RunConfig(model="toy", scheme="lie1", nx=32, t_final=0.5),
                              [0.1], np.zeros((16, 16)))

    def test_reference_string_checked(self):
        with pytest.raises(ValueError, match="exact"):
            convergence_study(RunConfig(model="toy", scheme="lie1", nx=32, t_final=0.5),
                              [0.1], "fine")

    @pytest.mark.parametrize("study,ladder", [(convergence_study, [0.2, 0.1]),
                                              (random_grid_study, [2, 4])])
    def test_negative_coefficient_scheme_needs_flag(self, study, ladder):
        config = RunConfig(model="nls_linear", scheme="s4_neg", nx=16, t_final=0.4)
        with pytest.raises(ValueError, match="allow_backward"):
            study(config, ladder, "exact")
        rep = study(replace(config, allow_backward=True), ladder, "exact")
        assert all(math.isfinite(e) for e in rep.errors_inf)

    def test_l2_errors_always_filled(self):
        rep = convergence_study(RunConfig(model="nls_nonlinear", scheme="strang_a", nx=32,
                                          t_final=0.5), [0.1, 0.05], "exact")
        assert len(rep.errors_l2) == 2
        assert all(e > 0 for e in rep.errors_l2)
        # |domain| = 4 pi^2, so L2 <= 2 pi Linf
        for l2, linf in zip(rep.errors_l2, rep.errors_inf):
            assert l2 <= 2 * math.pi * linf * (1 + 1e-12)

    def test_csv_export(self):
        rep = ConvergenceReport([0.1, 0.05], [8e-3, 1e-3], [])
        rep.rates = rep.recompute_rates()
        lines = convergence_csv(rep).strip().split("\n")
        assert lines[0] == "tau,error_inf,rate"
        assert lines[1].endswith(",")  # no rate on the first ladder point
        assert float(lines[2].split(",")[2]) == pytest.approx(3.0)


class TestStudyLoop:
    """The studies step each rung through the loop of `run`; their errors are
    those of a plain loop of steps, and a diverged rung ends the ladder."""

    def test_fixed_ladder_matches_plain_loop(self):
        config = RunConfig(model="nls_linear", scheme="s4_2", nx=32, t_final=0.5)
        taus = [0.3, 0.2, 0.1, 0.05]  # 0.3 ends with a shortened step
        rep = convergence_study(config, taus, "exact")
        model, grid, _, _ = harness._setup(config)
        ref_state = models.exact_solution(model, config.t_final, grid)
        errors_inf, errors_l2 = study_serial(config, [_steps_for(t, 0.5) for t in taus],
                                             ref_state)
        assert (rep.status, rep.reason, rep.taus) == ("ok", "", taus)
        assert rep.errors_inf == errors_inf
        assert rep.errors_l2 == errors_l2

    def test_random_ladder_matches_plain_loop(self):
        config = RunConfig(model="toy", scheme="s3_2", nx=32, t_final=0.4)
        ref_state = run(replace(config, scheme="s6", tau=0.01)).final_state
        rep = random_grid_study(config, [3, 7, 12], ref_state, seed=4)
        rng = np.random.default_rng(4)
        step_lists = [random_subdivisions(0.4, n, rng) for n in (3, 7, 12)]
        errors_inf, errors_l2 = study_serial(config, step_lists, ref_state)
        assert rep.status == "ok"
        assert rep.taus == [max(steps) for steps in step_lists]
        assert rep.errors_inf == errors_inf
        assert rep.errors_l2 == errors_l2

    def test_diverged_rung_keeps_the_rungs_before_it(self):
        config = RunConfig(model="ac", scheme="s4_neg", nx=16, t_final=2.0,
                           allow_backward=True)
        ref_state = np.zeros((16, 16))
        with np.errstate(all="ignore"):
            rep = convergence_study(config, [0.5, 0.25, 1.0, 0.125], ref_state)
            errors_inf, errors_l2 = study_serial(
                config, [_steps_for(t, 2.0) for t in (0.5, 0.25)], ref_state)
        assert (rep.status, rep.reason) == ("diverged", "tau 1.0: diverged at step 1")
        assert rep.taus == [0.5, 0.25]
        assert (rep.errors_inf, rep.errors_l2) == (errors_inf, errors_l2)
        assert len(rep.rates) == 1 and math.isfinite(rep.rates[0])
        lines = convergence_csv(rep).splitlines()
        assert [line.split(",")[0] for line in lines[1:3]] == ["0.5", "0.25"]
        assert lines[3:] == ["# tau 1.0: diverged at step 1"]

    def test_rungs_compute_no_diagnostics(self, monkeypatch):
        def no_diagnostics(*_args):
            raise AssertionError("a study rung computed a diagnostic")
        for name in ("energy", "mass", "max_norm"):
            monkeypatch.setattr(harness, name, no_diagnostics)
        rep = convergence_study(RunConfig(model="nls_linear", nx=16, t_final=0.2),
                                [0.1, 0.05], "exact")
        assert rep.status == "ok" and len(rep.errors_inf) == 2


class TestRunState:
    """`run_state` ends where `run` does, with its state, status and reason,
    and computes no diagnostics row on the way."""

    @pytest.mark.parametrize("config,status", [
        (RunConfig(model="toy", scheme="s4_2", nx=32, tau=0.03, t_final=0.4), "ok"),
        (RunConfig(model="ac", scheme="s4_neg", nx=16, tau=1.0, t_final=2.0,
                   allow_backward=True), "diverged"),
        (RunConfig(model="rd_system", scheme="lie1", nx=32, tau=1e-3, t_final=0.01,
                   overrides={"M": 1.0}), "monitor"),
        (RunConfig(model="nls_nonlinear", scheme="s6", nx=16, tau=0.1, t_final=0.3,
                   diagnostics_every=2), "ok"),
    ], ids=["ok", "diverged", "monitor", "complex"])
    def test_matches_run(self, config, status, monkeypatch):
        with np.errstate(all="ignore"):
            rec = run(config)
            monkeypatch.setattr(harness, "energy", lambda *_args: pytest.fail("a row"))
            state, got_status, reason = harness.run_state(config)
        assert (got_status, reason) == (rec.status, rec.reason)
        assert rec.status == status
        assert state.dtype == rec.final_state.dtype
        assert state.tobytes() == rec.final_state.tobytes()

    def test_adaptive_config_refused(self):
        config = harness.preset("cac_adaptive", nx=16, t_final=0.1)
        with pytest.raises(ValueError, match="fixed steps only"):
            harness.run_state(config)


class TestRandomGrids:
    def test_subdivisions_partition_interval(self):
        rng = np.random.default_rng(5)
        steps = random_subdivisions(2.0, 50, rng)
        assert len(steps) == 50
        assert all(s > 0 for s in steps)
        assert sum(steps) == pytest.approx(2.0, abs=1e-15)

    def test_subdivisions_seeded(self):
        a = random_subdivisions(1.0, 20, np.random.default_rng(3))
        b = random_subdivisions(1.0, 20, np.random.default_rng(3))
        assert a == b

    def test_random_grid_convergence(self):
        rep = random_grid_study(RunConfig(model="nls_linear", scheme="s3_2", nx=256,
                                          t_final=0.4), [6, 12, 24, 48], "exact", seed=1)
        assert all(t1 > t2 for t1, t2 in zip(rep.taus, rep.taus[1:]))
        assert all(e1 > e2 for e1, e2 in zip(rep.errors_inf, rep.errors_inf[1:]))
        assert rep.rates[-1] > 2.0


class TestPresets:
    def test_names(self):
        assert set(preset_names()) == {
            "toy_accuracy", "ac_compare", "cac_adaptive", "fkpp",
            "nls_linear_accuracy", "nls_nonlinear", "rd_system", "rd_accuracy",
        }

    def test_adaptive_interface_experiment(self):
        cfg = preset("cac_adaptive")
        assert cfg.model == "cac" and cfg.scheme == "s4_3"
        assert cfg.adaptive is True
        assert (cfg.tau_min, cfg.tau_max, cfg.alpha) == (0.01, 0.1, 1e6)
        assert cfg.t_final == 60.0 and cfg.nx == 256

    def test_accuracy_experiments(self):
        toy = preset("toy_accuracy")
        assert (toy.scheme, toy.tau, toy.t_final, toy.nx) == ("s6", 1 / 200, 6.0, 1024)
        rd = preset("rd_accuracy")
        assert (rd.scheme, rd.tau, rd.t_final, rd.nx) == ("s4_1", 1 / 1600, 0.2, 1024)
        ac = preset("ac_compare")
        assert (ac.scheme, ac.tau, ac.t_final, ac.nx) == ("strang_a", 1 / 40, 10.0, 400)

    def test_override(self):
        assert preset("fkpp", nx=64).nx == 64
        assert preset("fkpp", nx=None).nx == 512

    def test_unknown(self):
        with pytest.raises(KeyError):
            preset("kdv")
