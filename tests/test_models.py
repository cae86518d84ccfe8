import math

import numpy as np
import pytest

from mpesplit import models
from mpesplit.grid import SpectralGrid
from mpesplit.models import (
    default_grid,
    energy,
    exact_solution,
    flow_pair,
    initial_condition,
    make_model,
    mass,
    max_norm,
    model_names,
    model_nu,
    potential,
)
from mpesplit.schemes import apply, catalog
from reference_flows import (
    double_well_branches,
    fkpp_branches,
    reaction_rhs,
    ssprk104_loop,
)
from reference_spectral import gradient, nls_energy_on_grid, nodes, propagate_each_component
import reference_models

MPE_SCHEMES = ["sws2", "s3_1", "s3_2", "s4_1", "s4_2", "s4_3", "s4_4",
               "s6", "s8", "s10"]


def grid_for(model, n):
    return SpectralGrid(n, model.length)


class TestRegistry:
    def test_names(self):
        assert set(model_names()) == {
            "toy", "ac", "cac", "fkpp", "nls_linear", "nls_nonlinear", "rd_system",
        }

    def test_defaults(self):
        toy = make_model("toy")
        assert (toy.n_default, toy.length, toy.x0) == (1024, 2 * math.pi, 0.0)
        assert toy.params == {"eps": 0.1, "lam": 1.0}
        ac = make_model("ac")
        assert (ac.n_default, ac.M, ac.params["eps"]) == (400, 6.0, 0.1)
        cac = make_model("cac")
        assert (cac.n_default, cac.length, cac.x0) == (256, 2.0, -1.0)
        assert cac.params["eps"] == 0.02
        fkpp = make_model("fkpp")
        assert (fkpp.n_default, fkpp.length) == (512, 1.0)
        assert fkpp.params == {"D": 0.001, "p": 5, "q": 5}
        lin = make_model("nls_linear")
        assert (lin.n_default, lin.length, lin.x0) == (400, 16 * math.pi, -8 * math.pi)
        assert lin.params == {"eps": 1.0, "rho": 0.0}
        non = make_model("nls_nonlinear")
        assert (non.length, non.x0) == (2 * math.pi, -math.pi)
        assert non.params == {"eps": 0.5, "rho": -1.0}

    @pytest.mark.parametrize("name", model_names())
    def test_initial_state_dtype(self, name):
        model = make_model(name)
        kind = np.complex128 if name.startswith("nls_") else np.float64
        assert initial_condition(model, default_grid(model, 8)).dtype == kind

    def test_rd_matches_mesh_width(self):
        # box side 2 with mesh width 1/512
        rd = make_model("rd_system")
        assert rd.n_default == 1024
        assert rd.length == 2.0 and rd.x0 == -1.0
        assert initial_condition(rd, default_grid(rd, 8)).shape == (2, 8, 8)
        assert rd.params == {"k1_plus": 1.0, "k1_minus": 0.1, "D_u": 0.2, "D_v": 0.1}

    def test_alias(self):
        assert make_model("rd").id == "rd_system"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            make_model("burgers")

    def test_overrides(self):
        m = make_model("ac", n=128, eps=0.2, M=8.0)
        assert m.n_default == 128 and m.params["eps"] == 0.2 and m.M == 8.0

    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            make_model("ac", gamma=1.0)

    def test_overrides_leave_records_alone(self):
        # a copy that shared its record's params dict would carry an override
        # into every later make_model of that model
        before = {name: (dict(m.params), m.M, m.n_default) for name, m in models._MODELS.items()}
        m = make_model("ac", eps=0.2)
        assert m.params == {"eps": 0.2}
        m.params["eps"] = 0.3
        assert make_model("ac", n=64, M=3.0).params == {"eps": 0.1}
        plain = make_model("ac")
        assert (plain.params, plain.M, plain.n_default) == ({"eps": 0.1}, 6.0, 400)
        plain.params["eps"] = 0.4
        assert {name: (dict(m.params), m.M, m.n_default)
                for name, m in models._MODELS.items()} == before
        with pytest.raises(AttributeError):
            plain.M = 1.0

    def test_nu(self):
        assert model_nu(make_model("toy")) == pytest.approx(0.01)
        assert model_nu(make_model("ac")) == pytest.approx(0.01)
        assert model_nu(make_model("cac")) == pytest.approx(0.0004)
        assert model_nu(make_model("fkpp")) == 0.001
        assert model_nu(make_model("nls_linear")) == 1j
        assert model_nu(make_model("nls_nonlinear")) == 0.5j
        assert model_nu(make_model("rd_system")) == (0.2, 0.1)

    def test_default_grid(self):
        g = default_grid(make_model("cac"))
        assert g.shape == (256, 256) and g.length == 2.0
        assert default_grid(make_model("cac"), 64).shape == (64, 64)
        assert default_grid(make_model("cac"), None).shape == (256, 256)

    @pytest.mark.parametrize("n", [0, -2, 3])
    def test_default_grid_refuses_bad_sizes(self, n):
        with pytest.raises(ValueError, match=f"even and >= 2, got {n}"):
            default_grid(make_model("toy"), n)


class TestInitialConditions:
    def test_toy_sine_product(self):
        m = make_model("toy")
        u = initial_condition(m, grid_for(m, 64))
        assert abs(u[16, 16] - 0.5) < 1e-15  # node (pi/2, pi/2)
        assert abs(u[0, 0]) == 0.0
        assert np.max(np.abs(u)) <= 0.5 + 1e-15

    def test_ac_circles(self):
        m = make_model("ac")
        u = initial_condition(m, grid_for(m, 64))
        # center of the first circle: one bump of height 2 exp(-eps^2/r^2)
        expected = -1.0 + 2.0 * math.exp(-0.01 / (math.pi / 5) ** 2)
        assert abs(u[16, 16] - expected) < 1e-12
        assert u[0, 0] == -1.0  # far from every circle
        assert np.min(u) == -1.0
        assert np.max(u) < 1.0

    def test_cac_sign_structure(self):
        m = make_model("cac")
        u = initial_condition(m, grid_for(m, 64))
        n = 64
        # node (0.3, 0): inside one circle; node (0, 0): outside all four
        j_c = round((0.3 - m.x0) / (m.length / n))
        j_0 = round((0.0 - m.x0) / (m.length / n))
        assert u[j_c, j_0] > 0.5
        assert u[j_0, j_0] < -0.5
        assert np.max(np.abs(u)) <= 1.0

    def test_fkpp_band(self):
        m = make_model("fkpp")
        u = initial_condition(m, grid_for(m, 64))
        assert abs(u[0, 0] - 0.95) < 1e-15
        assert np.min(u) >= 0.05 - 1e-15
        assert np.max(u) <= 0.95 + 1e-15

    def test_rd_profiles(self):
        m = make_model("rd_system")
        state = initial_condition(m, grid_for(m, 64))
        assert state.shape == (2, 64, 64)
        assert np.allclose(state[0] + state[1], 3.0, atol=1e-15)
        assert np.min(state) > 0.9
        # at the origin the front profile sits at tanh(-4)/2
        expected_u = 1.5 - math.tanh(-4.0) / 2.0
        assert abs(state[0][32, 32] - expected_u) < 1e-12

    def test_nls_ics_are_time_zero_solutions(self):
        for name in ("nls_linear", "nls_nonlinear"):
            m = make_model(name)
            g = grid_for(m, 64)
            assert np.array_equal(initial_condition(m, g), exact_solution(m, 0.0, g))


class TestExactSolutions:
    def test_linear_at_origin(self):
        m = make_model("nls_linear")
        u = exact_solution(m, 0.0, grid_for(m, 128))
        assert u[64, 64] == 1j

    def test_nonlinear_at_period(self):
        m = make_model("nls_nonlinear")
        u = exact_solution(m, math.pi, grid_for(m, 128))
        assert abs(u[96, 96] - 1.0) < 1e-14  # node (pi/2, pi/2)

    def test_no_exact_solution(self):
        m = make_model("ac")
        with pytest.raises(ValueError):
            exact_solution(m, 1.0, grid_for(m, 32))

    @pytest.mark.parametrize("name,n,dudt_factor", [
        ("nls_linear", 256, 1j),
        ("nls_nonlinear", 128, -2j),
    ])
    def test_solution_satisfies_pde(self, name, n, dudt_factor):
        # plug the formula into the equation with spectral derivatives
        m = make_model(name)
        g = grid_for(m, n)
        u = exact_solution(m, 0.3, g)
        lap = np.fft.ifftn(-g.laplacian_symbols * g.forward(u))
        omega = potential(m, g)
        eps, rho = m.params["eps"], m.params["rho"]
        mod2 = u.real ** 2 + u.imag ** 2
        residual = 1j * eps * lap + 1j * (omega + rho * mod2) * u - dudt_factor * u
        l2 = math.sqrt(float(g.integrate(np.abs(residual) ** 2)))
        assert l2 <= 1e-8


class TestShiftedCoordinates:
    """The NLS formulas on `_coords` against the formulas on the meshgrid of
    the nodes from 0, shifted by the model's origin, byte for byte."""

    @pytest.mark.parametrize("n", [16, 64, 256, 400])
    @pytest.mark.parametrize("name", ["nls_linear", "nls_nonlinear"])
    def test_bit_identical_to_shifted_meshgrid(self, name, n):
        m = make_model(name)
        g = grid_for(m, n)
        X, Y = nodes(g)
        X, Y = X + m.x0, Y + m.x0
        for t in (0.0, 0.3):
            assert exact_solution(m, t, g).tobytes() == m.exact(t, X, Y).tobytes()
        assert potential(m, g).tobytes() == m.potential(X, Y).tobytes()


class TestPotential:
    def test_linear_trap_at_origin(self):
        m = make_model("nls_linear")
        w = potential(m, grid_for(m, 128))
        assert w[64, 64] == 3.0

    def test_nonlinear_lattice_at_origin(self):
        m = make_model("nls_nonlinear")
        w = potential(m, grid_for(m, 128))
        assert w[64, 64] == -1.0  # node (0,0): sin vanishes

    def test_no_potential(self):
        with pytest.raises(ValueError):
            potential(make_model("toy"), grid_for(make_model("toy"), 32))


class TestEnergy:
    def test_double_well_minimum(self):
        m = make_model("ac")
        g = grid_for(m, 64)
        assert energy(m, np.ones(g.shape), g) == 0.0

    def test_double_well_at_zero_state(self):
        m = make_model("ac")
        g = grid_for(m, 64)
        assert abs(energy(m, np.zeros(g.shape), g) - math.pi ** 2) < 1e-12

    def test_double_well_sine_stripe(self):
        # 0.5 eps^2 |grad|^2 + 0.25 (u^2-1)^2 for u = sin x integrates to
        # (0.01 + 0.375) pi^2
        m = make_model("ac")
        g = grid_for(m, 128)
        X, _ = nodes(g)
        e = energy(m, np.sin(X), g)
        assert abs(e - 0.385 * math.pi ** 2) < 1e-12
        assert abs(e - 3.799797694419403) < 1e-12

    def test_conservative_variant_shares_functional(self):
        m = make_model("cac")
        g = grid_for(m, 64)
        assert abs(energy(m, np.zeros(g.shape), g) - 0.25 * 4.0) < 1e-13

    @pytest.mark.parametrize("model_id", ["ac", "cac"])
    def test_double_well_matches_gradient_formula(self, model_id):
        # Parseval from one real transform against integrating the squares
        # of the complex-transform gradient
        m = make_model(model_id)
        eps = m.params["eps"]
        rng = np.random.default_rng(10)
        for n in (64, 256):
            g = grid_for(m, n)
            for u in (initial_condition(m, g), rng.uniform(-1.2, 1.2, g.shape)):
                gx, gy = gradient(g, u)
                dens = 0.5 * eps**2 * (gx**2 + gy**2) + 0.25 * (u**2 - 1.0) ** 2
                assert energy(m, u, g) == pytest.approx(g.integrate(dens), rel=1e-12)

    def test_nls_energy_closed_form(self):
        # E = pi^2 + (pi^2 - 9 pi^2/16) + 9 pi^2/32 = 55 pi^2 / 32
        m = make_model("nls_nonlinear")
        g = grid_for(m, 128)
        u = initial_condition(m, g)
        assert abs(energy(m, u, g) - 55.0 * math.pi ** 2 / 32.0) < 1e-10

    @pytest.mark.parametrize("model_id", ["nls_linear", "nls_nonlinear"])
    def test_nls_matches_grid_formula(self, model_id):
        # the gradient term by Parseval against -eps conj(u) Laplacian(u)
        # integrated on the grid
        m = make_model(model_id)
        eps, rho = m.params["eps"], m.params["rho"]
        rng = np.random.default_rng(13)
        for n in (64, 256):
            g = grid_for(m, n)
            noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            for u in (initial_condition(m, g), noise):
                ref = nls_energy_on_grid(eps, rho, potential(m, g), u, g)
                assert energy(m, u, g) == pytest.approx(ref.real, rel=1e-12)

    def test_rd_log_entropy(self):
        m = make_model("rd_system")
        g = grid_for(m, 64)
        state = np.ones((2,) + g.shape)
        expected = 4.0 * (-2.0 + math.log(0.1))
        assert abs(energy(m, state, g) - expected) < 1e-12

    def test_rd_rejects_nonpositive_density(self):
        m = make_model("rd_system")
        g = grid_for(m, 32)
        state = np.ones((2,) + g.shape)
        state[0][0, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            energy(m, state, g)

    def test_no_energy_defined(self):
        m = make_model("toy")
        g = grid_for(m, 32)
        assert math.isnan(energy(m, np.ones(g.shape), g))


class TestMass:
    def test_area_of_constant(self):
        m = make_model("ac")
        g = grid_for(m, 64)
        assert abs(mass(m, np.ones(g.shape), g) - 4 * math.pi ** 2) < 1e-12

    def test_nls_linear_soliton_mass(self):
        # integral of sech^2(x) sech^2(y) = 4 tanh(8 pi)^2, i.e. 4 up to
        # an exponentially small tail
        m = make_model("nls_linear")
        g = grid_for(m, 128)
        assert abs(mass(m, initial_condition(m, g), g) - 4.0) < 1e-6

    def test_nls_nonlinear_mass(self):
        m = make_model("nls_nonlinear")
        g = grid_for(m, 128)
        assert abs(mass(m, initial_condition(m, g), g) - math.pi ** 2) < 1e-12

    def test_rd_total_density(self):
        m = make_model("rd_system")
        g = grid_for(m, 64)
        assert abs(mass(m, initial_condition(m, g), g) - 12.0) < 1e-12

    def test_fkpp_mean(self):
        m = make_model("fkpp")
        g = grid_for(m, 64)
        assert abs(mass(m, initial_condition(m, g), g) - 0.5) < 1e-14

    def test_max_norm(self):
        assert max_norm(np.array([1.0, -3.5, 2.0])) == 3.5
        assert max_norm(np.array([3 + 4j])) == 5.0


class TestFlowPairs:
    def test_phase_flow_preserves_mass(self):
        m = make_model("nls_nonlinear")
        g = grid_for(m, 64)
        u = initial_condition(m, g)
        flows = flow_pair(m, g)
        q0 = mass(m, u, g)
        assert abs(mass(m, flows.b_flow(0.7, u), g) - q0) <= 1e-12 * q0

    def test_schroedinger_propagator_preserves_mass(self):
        m = make_model("nls_linear")
        g = grid_for(m, 64)
        u = initial_condition(m, g)
        flows = flow_pair(m, g)
        q0 = mass(m, u, g)
        assert abs(mass(m, flows.a_flow(0.3, u), g) - q0) <= 1e-12 * q0
        # unitary propagator runs backward without any flag
        back = flows.a_flow(-0.3, flows.a_flow(0.3, u))
        assert np.max(np.abs(back - u)) < 1e-12

    def test_double_well_flow_respects_max_principle(self):
        m = make_model("ac")
        g = grid_for(m, 64)
        u = initial_condition(m, g)
        flows = flow_pair(m, g)
        out = flows.b_flow(0.5, u)
        assert np.max(np.abs(out)) <= 1.0 + 1e-12

    def test_dissipative_propagator_rejects_backward(self):
        m = make_model("ac")
        g = grid_for(m, 32)
        u = initial_condition(m, g)
        with pytest.raises(ValueError):
            flow_pair(m, g).a_flow(-0.1, u)
        allowed = flow_pair(m, g, allow_backward=True)
        assert np.isfinite(allowed.a_flow(-1e-4, u)).all()

    def test_backward_substep_error_names_stage(self):
        m = make_model("ac")
        g = grid_for(m, 32)
        u = initial_condition(m, g)
        with pytest.raises(RuntimeError, match="term 0 stage 1"):
            apply(catalog("s4_neg"), flow_pair(m, g), 1e-3, u)

    @pytest.mark.parametrize("name", MPE_SCHEMES)
    def test_conservative_step_preserves_mass(self, name):
        m = make_model("cac")
        g = grid_for(m, 64)
        u = initial_condition(m, g)
        flows = flow_pair(m, g)
        m0 = mass(m, u, g)
        m1 = mass(m, apply(catalog(name), flows, 0.01, u), g)
        assert abs(m1 - m0) <= 1e-10

    def test_reaction_flow_preserves_total_density(self):
        m = make_model("rd_system")
        g = grid_for(m, 64)
        state = initial_condition(m, g)
        flows = flow_pair(m, g)
        m0 = mass(m, state, g)
        assert abs(mass(m, flows.b_flow(0.01, state), g) - m0) <= 1e-12 * abs(m0)
        out = flows.a_flow(0.05, state)
        assert out.shape == state.shape
        assert abs(mass(m, out, g) - m0) <= 1e-12 * abs(m0)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_reaction_a_flow_one_transform(self, n, monkeypatch):
        # one linear_propagate call for both components, byte for byte the
        # two one-component calls, at +-tau (small enough to stay finite)
        m = make_model("rd_system")
        g = grid_for(m, n)
        state = initial_condition(m, g)
        rng = np.random.default_rng(n)
        noisy = state + 0.01 * rng.standard_normal(state.shape)
        flows = flow_pair(m, g, allow_backward=True)
        for tau in (1e-3, -1e-3):
            for s in (state, noisy):
                ref = propagate_each_component(s, model_nu(m), tau, g)
                out = flows.a_flow(tau, s)
                assert out[0].tobytes() == ref[0].tobytes()
                assert out[1].tobytes() == ref[1].tobytes()
        calls = []
        monkeypatch.setattr(models, "linear_propagate",
                            lambda *args, **kw: calls.append(args[1]) or state)
        flow_pair(m, g).a_flow(0.05, state)
        assert calls == [model_nu(m)]

    def test_growth_flow_monotone_on_band(self):
        m = make_model("fkpp")
        g = grid_for(m, 64)
        u = initial_condition(m, g)
        out = flow_pair(m, g).b_flow(0.01, u)
        assert np.all(out >= u - 1e-12)
        assert np.max(out) <= 1.0 + 1e-9

    def test_tanh_flow_binding(self):
        from mpesplit.flows import flow_tanh

        m = make_model("toy")
        g = grid_for(m, 32)
        u = initial_condition(m, g)
        flows = flow_pair(m, g)
        assert np.array_equal(flows.b_flow(0.2, u), flow_tanh(u, 1.0, 0.2))


def _reference_rhs(model):
    """The model's B-flow right-hand side as a plain allocating expression."""
    M = model.M
    if model.id == "ac":
        return lambda u: double_well_branches(u, M)
    if model.id == "cac":
        def rhs(u):
            f = double_well_branches(u, M)
            return f - f.mean()
        return rhs
    if model.id == "fkpp":
        K = math.factorial(11) // (math.factorial(5) * math.factorial(5))
        return lambda u: fkpp_branches(u, M, K)
    p = model.params
    return lambda s: reaction_rhs(s, p["k1_plus"], p["k1_minus"])


class TestBufferedBFlows:
    """The RK B flows of flow_pair against the reference right-hand sides."""

    # ac with M = 0.5 leaves the window at once, so it takes the RK fallback
    @pytest.mark.parametrize("model_id,overrides", [
        ("ac", {"M": 0.5}), ("cac", {}), ("fkpp", {}), ("rd_system", {}),
    ])
    def test_matches_reference_rhs(self, model_id, overrides):
        m = make_model(model_id, **overrides)
        g = grid_for(m, 32)
        state = initial_condition(m, g)
        before = state.copy()
        b_flow = flow_pair(m, g).b_flow
        first = b_flow(0.01, state)
        kept = first.copy()
        ref = ssprk104_loop(_reference_rhs(m), state, 0.01)
        assert np.max(np.abs(first - ref)) <= 1e-13 * np.max(np.abs(state))
        b_flow(0.02, state)  # a second call must not reuse the first's result
        assert np.array_equal(first, kept)
        assert np.array_equal(state, before)

    def test_reaction_components_are_exact_negatives(self, monkeypatch):
        seen = []

        def spy(f, v, tau, cfg=None):
            seen.append(f)
            return ssprk104_loop(f, v, tau)

        monkeypatch.setattr(models, "ssprk104", spy)
        m = make_model("rd_system")
        g = grid_for(m, 32)
        state = initial_condition(m, g)
        flow_pair(m, g).b_flow(0.01, state)
        rng = np.random.default_rng(17)
        for s in (state, rng.uniform(0.1, 3.0, state.shape)):
            out = seen[0](s)
            assert np.array_equal(out[0], -out[1])
            ref = reaction_rhs(s, m.params["k1_plus"], m.params["k1_minus"])
            assert np.array_equal(out, ref)


def _bits(x):
    return np.float64(x).tobytes()


class TestLeanDiagnostics:
    """The in-place diagnostics against the allocating expressions, bit for
    bit."""

    @pytest.mark.parametrize("model_id", ["ac", "cac"])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_double_well_energy(self, model_id, n):
        m = make_model(model_id)
        g = default_grid(m, n)
        u = initial_condition(m, g)
        rng = np.random.default_rng(n)
        eps = m.params["eps"]
        for state in (u, apply(catalog("strang_a"), flow_pair(m, g), 0.05, u),
                      rng.uniform(-1.5, 1.5, g.shape), np.zeros(g.shape)):
            before = state.copy()
            assert _bits(g.grad_sq_integral(state)) == _bits(
                reference_models.grad_sq_integral(g, state))
            assert _bits(energy(m, state, g)) == _bits(
                reference_models.double_well_energy(eps, state, g))
            assert np.array_equal(state, before)

    def test_max_norm(self):
        rng = np.random.default_rng(5)
        cases = [rng.standard_normal((16, 16)), rng.standard_normal((2, 8, 8)),
                 np.zeros(4), -np.zeros(4), np.array([0.0, -0.0]), np.array([-np.inf, 1.0]),
                 np.array([np.inf, -1.0]), np.array([-7.0, 7.0]), np.array([1e308, -1e-308]),
                 rng.standard_normal(9) + 1j * rng.standard_normal(9)]
        for state in cases:
            assert _bits(max_norm(state)) == _bits(reference_models.max_norm(state)), state
        for state in (np.array([1.0, np.nan, -2.0]), np.array([np.nan]),
                      -np.array([np.nan, 1.0]), np.array([np.inf, np.nan])):
            assert math.isnan(max_norm(state))
            assert _bits(max_norm(state)) == _bits(reference_models.max_norm(state)), state


class TestAcInitialBoxes:
    @pytest.mark.parametrize("n", [16, 64, 128, 256, 400, 1024])
    def test_bit_identical_to_full_mesh(self, n):
        m = make_model("ac")
        g = default_grid(m, n)
        X, Y = nodes(g)
        ref = reference_models.ac_initial_on_mesh(m.params["eps"], X + m.x0, Y + m.x0)
        u = initial_condition(m, g)
        assert u.dtype == ref.dtype and u.tobytes() == ref.tobytes()

    def test_other_eps(self):
        m = make_model("ac", eps=0.37)
        g = default_grid(m, 128)
        X, Y = nodes(g)
        ref = reference_models.ac_initial_on_mesh(0.37, X, Y)
        assert initial_condition(m, g).tobytes() == ref.tobytes()
