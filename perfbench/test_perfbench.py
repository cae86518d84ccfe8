"""Tests of the benchmark's own checks and tracing.

Each check must pass on the program's real output and reject a slightly
perturbed copy. Run with `src` and this directory importable, e.g.
`PYTHONPATH=src python -m pytest perfbench`.
"""

import time

import numpy as np
import pytest

import checks
from tracing import Tracer

from mpesplit import harness, models


def _ac_record(scheme, nx=64, steps=4):
    cfg = harness.RunConfig(model="ac", scheme=scheme, nx=nx, tau=1 / 40, t_final=steps / 40)
    return harness.run(cfg)


def _state_failures(fails):
    return [m for m in fails if "reference" in m]


@pytest.mark.parametrize("scheme", ["strang_a", "s4_4"])
def test_ac_reference_matches_program_and_rejects_moved_cell(scheme):
    record = _ac_record(scheme)
    model = models.make_model("ac")
    u0 = models.initial_condition(model, models.default_grid(model, 64))
    t0 = time.perf_counter()
    ref = checks.ac_reference(u0, scheme, 1 / 40, 4)
    assert time.perf_counter() - t0 < 1.0
    assert np.max(np.abs(ref - record.final_state)) <= checks.AC_STATE_TOL

    rows = np.array(record.rows)
    assert not _state_failures(checks.check_ac(rows, record.final_state, u0, scheme, 1 / 40, 4))
    moved = record.final_state.copy()
    moved[10, 17] += 1e-6
    assert _state_failures(checks.check_ac(rows, moved, u0, scheme, 1 / 40, 4))


def test_ac_energy_matches_program():
    record = _ac_record("strang_a")
    e_ref = checks.ac_energy(record.final_state)
    assert abs(record.rows[-1][3] - e_ref) <= checks.AC_ENERGY_RTOL * abs(e_ref)


def test_ac_row_clauses():
    rows = np.array(_ac_record("strang_a", steps=2).rows)
    rows[:, 5] = 1.0
    clean = checks.check_ac(rows, np.zeros((2, 2)), np.zeros((2, 2)), "strang_a", 1 / 40, 2)
    assert not [m for m in clean if "max norm" in m or "energy rose" in m]
    high = rows.copy()
    high[1, 5] = 1.0 + 2e-3
    assert any("max norm" in m for m in checks.check_ac(high, np.zeros((2, 2)),
                                                        np.zeros((2, 2)), "strang_a", 1 / 40, 2))
    rising = rows.copy()
    rising[2, 3] = rising[1, 3] + 1e-7
    assert any("energy rose" in m for m in checks.check_ac(rising, np.zeros((2, 2)),
                                                           np.zeros((2, 2)), "strang_a", 1 / 40, 2))


@pytest.fixture(scope="module")
def cac_record():
    return harness.run(harness.preset("cac_adaptive", nx=32, t_final=0.125))


def test_cac_check_passes_and_rejects_nudged_mass(cac_record):
    rows, final = np.array(cac_record.rows), cac_record.final_state
    assert checks.check_cac(rows, final, 0.125) == []
    nudged = rows.copy()
    nudged[2, 4] *= 1 + 1e-7
    assert any("mass drift" in m for m in checks.check_cac(nudged, final, 0.125))


def test_cac_check_rejects_bad_steps(cac_record):
    rows, final = np.array(cac_record.rows), cac_record.final_state
    short = rows.copy()
    short[2, 2] = 0.005
    fails = checks.check_cac(short, final, 0.125)
    assert any("outside" in m for m in fails) and any("controller" in m for m in fails)
    assert any("sum to" in m for m in checks.check_cac(rows, final, 0.13))


def test_fkpp_check():
    record = harness.run(harness.preset("fkpp", nx=32, t_final=0.003))
    rows, final = np.array(record.rows), record.final_state
    assert checks.check_fkpp(rows, final) == []
    falling = rows.copy()
    falling[-1, 4] = falling[-2, 4] - 1e-12
    assert checks.check_fkpp(falling, final)
    negative = final.copy()
    negative[0, 0] = -1e-9
    assert checks.check_fkpp(rows, negative)


def test_rd_check():
    record = harness.run(harness.preset("rd_system", nx=32, t_final=0.02))
    rows, (u, v) = np.array(record.rows), record.final_state
    assert checks.check_rd(rows, u, v) == []
    nudged = rows.copy()
    nudged[-1, 4] *= 1 + 1e-10
    assert checks.check_rd(nudged, u, v)
    bad_v = v.copy()
    bad_v[3, 3] = 0.0
    assert checks.check_rd(rows, u, bad_v)


def test_ladder_check():
    taus = np.array([1 / 8, 1 / 16, 1 / 32])
    errors = 0.2 * taus**4
    assert checks.check_ladder(taus, errors, 4, checks.SLOPE_TOL_FIXED) == []
    flat = errors.copy()
    flat[-1] = flat[-2]
    assert checks.check_ladder(taus, flat, 4, checks.SLOPE_TOL_FIXED)
    assert checks.check_ladder(taus, errors, 6, checks.SLOPE_TOL_RANDOM)
    floored = 1e-12 * taus / taus[-1]
    assert any("floor" in m for m in checks.check_ladder(taus, floored, 1, 0.3))


def test_tracer_self_time_and_unmeasured_layer(monkeypatch):
    tracer = Tracer()
    tracer.spans = [
        ["harness.op", 0.0, 10.0, -1, 0.0],
        ["schemes.apply", 1.0, 9.0, 0, 0.0],
        ["grid.a_flow", 2.0, 5.0, 1, 0.0],
        ["grid.fft", 2.5, 3.5, 2, 4.0],
        ["flows.b_flow", 5.0, 6.0, 1, 0.0],
    ]
    tracer.missing = {"flows.rk"}
    m = tracer.metrics(rounds=2)
    assert m["harness.self_s"] == pytest.approx(1.0)
    assert m["schemes.self_s"] == pytest.approx(2.0)
    assert m["grid.a_flow.s"] == pytest.approx(1.5)
    assert m["grid.fft.mb_computed"] == pytest.approx(2.0)
    assert "flows.rhs.s" not in m and "flows.rk.calls" not in m

    apply = harness.apply
    monkeypatch.delattr(models, "ssprk104")  # as if a refactor had moved it
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.apply is not apply
        record = harness.run(harness.RunConfig(model="ac", nx=16, tau=0.1, t_final=0.2))
    finally:
        tracer.uninstall()
    assert harness.apply is apply
    assert record.status == "ok"
    assert tracer.missing == {"flows.rk"}
    m = tracer.metrics(rounds=1)
    assert m["schemes.apply.calls"] == 2 and m["grid.a_flow.calls"] == 4
    assert m["models.energy.calls"] == 3
    assert "flows.rhs.s" not in m
