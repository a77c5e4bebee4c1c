"""Model zoo: builder validation, frozen energy values, kernel consistency,
exact solutions, and the declared parameter echoes."""

import math

import numpy as np
import pytest

from dnevolve import _kernels, _optim, models, scheme
from dnevolve.energy import argmin_set, energy_value
from dnevolve.errors import ConfigError, RangeError
from dnevolve.models import MODEL_NAMES, build, describe, double_well
from dnevolve.potentials import (OneHomPlusQuad, PNorm, Quadratic,
                                 StateWeighted, WeightedSum)


def test_registry_names():
    assert MODEL_NAMES == ("QuadraticBenchmark", "AbsoluteMarginal",
                           "PhaseField1D", "AllenCahn1D", "StateWeightedToy")


# ---------------------------------------------------------------------------
# double well


def test_double_well_table():
    assert double_well(0.0) == 0.5
    assert double_well(1.0) == 0.0
    assert double_well(-1.0) == 0.0
    assert double_well(0.5) == 0.25
    assert double_well(-0.5) == 0.25


def test_double_well_continuity_at_breaks():
    for b in (-0.5, 0.5):
        lo = double_well(b - 1e-12)
        hi = double_well(b + 1e-12)
        assert lo == pytest.approx(hi, abs=1e-10)


def test_double_well_vectorizes():
    es = np.linspace(-2, 2, 41)
    vals = double_well(es)
    assert vals.shape == es.shape
    assert vals[20] == 0.5


# ---------------------------------------------------------------------------
# builder validation


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        build("NoSuchModel", {})
    with pytest.raises(ConfigError):
        describe("NoSuchModel")


def _cases(*cases):
    """pytest params with ids name-params<i>, the form pytest gives a
    (name, params) case, so each id stays when a case gains its outcome."""
    return [pytest.param(*c, id=f"{c[0]}-params{i}")
            for i, c in enumerate(cases)]


def below(x):
    return float(np.nextafter(x, -np.inf))


def above(x):
    return float(np.nextafter(x, np.inf))


# (name, params, outcome): a field is a ConfigError at that field, a
# parameter's own bound; RangeError is a constraint between parameters;
# None is a value at a closed bound, which builds
@pytest.mark.parametrize("name,params,outcome", _cases(
    ("QuadraticBenchmark", {"dim": 0}, "model.params.dim"),
    ("QuadraticBenchmark", {"dim": 17}, "model.params.dim"),
    ("QuadraticBenchmark", {"dim": True}, "model.params.dim"),
    ("QuadraticBenchmark", {"offset": 0.0}, "model.params.offset"),
    ("AbsoluteMarginal", {"alpha": 0.2, "beta": 0.25}, RangeError),
    ("AbsoluteMarginal", {"beta": 1.0}, "model.params.beta"),
    ("AbsoluteMarginal", {"beta": 0.0}, "model.params.beta"),
    ("AbsoluteMarginal", {"offset": 0.8}, RangeError),
    ("AbsoluteMarginal", {"t_cap": 9.0}, "model.params.t_cap"),
    ("PhaseField1D", {"load_amp": 1.5}, "model.params.load_amp"),
    ("PhaseField1D", {"offset": 0.3}, RangeError),
    ("AllenCahn1D", {"N": 1}, "model.params.N"),
    ("AllenCahn1D", {"N": 1025}, "model.params.N"),
    ("AllenCahn1D", {"q": 1.0}, "model.params.q"),
    ("AllenCahn1D", {"rho": -0.5}, "model.params.rho"),
    ("AllenCahn1D", {"load_amp": 1.5}, "model.params.load_amp"),
    ("AllenCahn1D", {"offset": 0.1}, RangeError),
    ("StateWeightedToy", {"omega_scale": 0.96}, "model.params.omega_scale"),
    ("StateWeightedToy", {"dim": 17}, "model.params.dim"),
    # each bound: the value just outside it is rejected at its key, a
    # closed bound itself builds and a strict one is rejected
    ("QuadraticBenchmark", {"dim": 1}, None),
    ("QuadraticBenchmark", {"dim": 16}, None),
    ("QuadraticBenchmark", {"offset": below(0.0)}, "model.params.offset"),
    ("AbsoluteMarginal", {"alpha": below(0.0)}, "model.params.alpha"),
    ("AbsoluteMarginal", {"alpha": 0.0}, "model.params.alpha"),
    ("AbsoluteMarginal", {"beta": below(0.0)}, "model.params.beta"),
    ("AbsoluteMarginal", {"beta": above(1.0)}, "model.params.beta"),
    ("AbsoluteMarginal", {"t_cap": below(0.0)}, "model.params.t_cap"),
    ("AbsoluteMarginal", {"t_cap": 0.0}, "model.params.t_cap"),
    ("AbsoluteMarginal", {"t_cap": above(8.0)}, "model.params.t_cap"),
    ("AbsoluteMarginal", {"t_cap": 8.0}, None),
    ("PhaseField1D", {"load_amp": below(0.0)}, "model.params.load_amp"),
    ("PhaseField1D", {"load_amp": 0.0}, None),
    ("PhaseField1D", {"load_amp": above(1.0)}, "model.params.load_amp"),
    ("PhaseField1D", {"load_amp": 1.0}, None),
    ("AllenCahn1D", {"N": 2}, None),
    ("AllenCahn1D", {"N": 1024}, None),
    ("AllenCahn1D", {"q": below(1.0)}, "model.params.q"),
    ("AllenCahn1D", {"q": above(8.0)}, "model.params.q"),
    ("AllenCahn1D", {"q": 8.0}, None),
    ("AllenCahn1D", {"p": below(1.0)}, "model.params.p"),
    ("AllenCahn1D", {"p": 1.0}, "model.params.p"),
    ("AllenCahn1D", {"p": above(8.0)}, "model.params.p"),
    ("AllenCahn1D", {"p": 8.0}, None),
    ("AllenCahn1D", {"rho": below(0.0)}, "model.params.rho"),
    ("AllenCahn1D", {"rho": 0.0}, None),
    ("AllenCahn1D", {"rho": above(4.0)}, "model.params.rho"),
    ("AllenCahn1D", {"rho": 4.0}, None),
    ("AllenCahn1D", {"load_amp": below(0.0)}, "model.params.load_amp"),
    ("AllenCahn1D", {"load_amp": 0.0}, None),
    ("AllenCahn1D", {"load_amp": above(1.0)}, "model.params.load_amp"),
    ("AllenCahn1D", {"load_amp": 1.0}, None),
    ("StateWeightedToy", {"dim": 0}, "model.params.dim"),
    ("StateWeightedToy", {"dim": 1}, None),
    ("StateWeightedToy", {"dim": 16}, None),
    ("StateWeightedToy", {"offset": below(0.0)}, "model.params.offset"),
    ("StateWeightedToy", {"offset": 0.0}, "model.params.offset"),
    ("StateWeightedToy", {"omega_scale": below(0.0)},
     "model.params.omega_scale"),
    ("StateWeightedToy", {"omega_scale": 0.0}, None),
    ("StateWeightedToy", {"omega_scale": above(0.95)},
     "model.params.omega_scale"),
    ("StateWeightedToy", {"omega_scale": 0.95}, None),
))
def test_out_of_range_parameters(name, params, outcome):
    if outcome is None:
        build(name, params)
    elif outcome is RangeError:
        with pytest.raises(RangeError):
            build(name, params)
    else:
        with pytest.raises(ConfigError) as err:
            build(name, params)
        assert err.value.field == outcome


@pytest.mark.parametrize("d,field", [
    ({"kind": "quadratic", "c": 0.0}, "dissipation.c"),
    ({"kind": "quadratic", "c": below(0.0)}, "dissipation.c"),
    ({"kind": "pnorm", "c": 0.0}, "dissipation.c"),
    ({"kind": "pnorm", "p": 1.0}, "dissipation.p"),
    ({"kind": "pnorm", "p": below(1.0)}, "dissipation.p"),
    ({"kind": "pnorm", "p": above(8.0)}, "dissipation.p"),
    ({"kind": "pnorm", "p": 8.0}, None),
    ({"kind": "one_hom_plus_quad", "rho": below(0.0)}, "dissipation.rho"),
    ({"kind": "one_hom_plus_quad", "rho": 0.0}, None),
    ({"kind": "one_hom_plus_quad", "eps": 0.0}, "dissipation.eps"),
    ({"kind": "one_hom_plus_quad", "eps": below(0.0)}, "dissipation.eps"),
])
def test_dissipation_bounds(d, field):
    if field is None:
        models.build_dissipation(d)
        return
    with pytest.raises(ConfigError) as err:
        models.build_dissipation(d)
    assert err.value.field == field


def test_unknown_and_malformed_parameters():
    with pytest.raises(ConfigError) as err:
        build("QuadraticBenchmark", {"bogus": 1.0})
    assert "bogus" in str(err.value)
    with pytest.raises(ConfigError):
        build("AbsoluteMarginal", {"alpha": "big"})
    with pytest.raises(ConfigError):
        build("AbsoluteMarginal", {"subdiff_kind": "fd"})


def test_parameters_echo_resolved_values():
    spec = build("AllenCahn1D", {"N": 16})
    assert spec.parameters["N"] == 16
    assert spec.parameters["rho"] == 1.0
    assert spec.parameters["load_amp"] == 0.2
    assert spec.parameters["offset"] > 1.0
    spec = build("QuadraticBenchmark", {"a": [2.0, 0.0], "dim": 2})
    assert spec.parameters["a"] == [2.0, 0.0]


def scalar_scan_well_drop(amp):
    """_quartic_well_drop as it was: the 801-point scan through the scalar
    objective, and min_scalar calling it again at each basin's ends and
    at Brent's abscissa, Brent run on one problem of _bounded_brent_rows."""
    def f(s):
        return 0.25 * (s * s - 1.0) ** 2 - amp * s

    grid = np.linspace(0.0, 3.0, 801)
    vals = np.array([f(x) for x in grid])
    basins = []
    for i in _optim.local_min_indices(vals[None])[1]:
        a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 800)])
        x = float(_optim._bounded_brent_rows(
            lambda x, rows: [f(float(x[0]))], [a], [b], 1e-13, 500)[0][0])
        basins.append(min([(a, f(a)), (b, f(b)), (x, f(x))],
                          key=lambda p: p[1]))
    return min(min(basins, key=lambda p: p[1])[1], 0.0)


def test_well_drop_equals_the_scalar_scan_bitwise():
    # the scan evaluates its objective as one array; every value, and so
    # the basins Brent refines, must be the scalar calls' bits
    rng = np.random.default_rng(15)
    amps = np.concatenate([np.linspace(0.0, 1.0, 1001), [0.385],
                           rng.uniform(0.0, 1.0, 10)])
    for amp in map(float, amps):
        got = models._quartic_well_drop(amp)
        assert float(got).hex() == float(scalar_scan_well_drop(amp)).hex(), amp


def test_offset_is_reported_not_hidden():
    spec = build("PhaseField1D", {})
    assert spec.energy.offset == spec.parameters["offset"]
    # default offset puts the box minimum at exactly 1
    us = np.linspace(-4, 4, 2001)
    vals = [energy_value(spec.energy, t, [u])
            for t in np.linspace(0, 1, 9) for u in us[::50]]
    assert min(vals) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# dissipation wiring


def test_dissipation_choices():
    assert isinstance(build("QuadraticBenchmark", {}).dissipation, Quadratic)
    assert isinstance(build("PhaseField1D", {}).dissipation, Quadratic)
    assert isinstance(build("AbsoluteMarginal", {}).dissipation, Quadratic)
    assert isinstance(build("AllenCahn1D", {}).dissipation, OneHomPlusQuad)
    assert isinstance(build("AllenCahn1D", {"rho": 0.0}).dissipation, Quadratic)
    assert isinstance(build("AllenCahn1D", {"rho": 0.0, "p": 3.0}).dissipation,
                      PNorm)
    assert isinstance(build("AllenCahn1D", {"p": 3.0}).dissipation, WeightedSum)
    assert isinstance(build("StateWeightedToy", {}).dissipation, StateWeighted)


def test_allen_cahn_chain_scale_declared():
    spec = build("AllenCahn1D", {"N": 16})
    assert spec.energy.c_chain == 64.0 * 16
    assert build("QuadraticBenchmark", {}).energy.c_chain is None


# ---------------------------------------------------------------------------
# frozen values and kernels


def test_allen_cahn_zero_state_value():
    spec = build("AllenCahn1D", {"N": 32, "offset": 1.0})
    assert energy_value(spec.energy, 0.0, np.zeros(32)) == pytest.approx(
        1.25, abs=1e-14)


def test_ac_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    N = 12
    u = rng.uniform(-1.5, 1.5, N)
    load = rng.uniform(-0.5, 0.5, N)
    dx = 1.0 / N
    h = 1e-6
    for q in (2.0, 2.5):
        g = _kernels.ac_grad(u, dx, q, load)
        for i in range(N):
            up, dn = u.copy(), u.copy()
            up[i] += h
            dn[i] -= h
            fd = (_kernels.ac_energy(up, dx, q, load, 0.0)
                  - _kernels.ac_energy(dn, dx, q, load, 0.0)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=5e-6)


def test_ac_energy_grid_refinement_consistency():
    # same smooth profile sampled on N and 2N cells: the discrete energies
    # must agree to quadrature accuracy, not drift with the mesh
    def energy_at(N):
        spec = build("AllenCahn1D", {"N": N, "offset": 1.0})
        x = (np.arange(N) + 0.5) / N
        return energy_value(spec.energy, 0.7, 0.5 * np.sin(np.pi * x))

    e32, e64, e128 = energy_at(32), energy_at(64), energy_at(128)
    assert abs(e64 - e32) <= 4.0 / 32.0
    assert abs(e128 - e64) <= abs(e64 - e32)


@pytest.mark.parametrize("name,params", [
    ("QuadraticBenchmark", {}), ("AbsoluteMarginal", {}),
    ("AbsoluteMarginal", {"subdiff_kind": "clarke"}), ("PhaseField1D", {}),
    ("StateWeightedToy", {})])
def test_scan_reads_e_with_the_bits_of_one_row_calls(monkeypatch, name,
                                                       params):
    # the 1-D step solve reads E only through at_times: on the scan's
    # (B, 513, 1) grid and at the Brent and polish rounds' points. Each
    # value it reads is energy_value's one-row call bit for bit, so a step
    # picks its minimizer by the E the certificate judges it by
    spec = build(name, params)
    model = spec.energy
    rng = np.random.default_rng(7)
    B = 40
    lo, hi = (float(x[0]) for x in model.domain_box)
    u_prev = rng.uniform(lo, hi, (B, 1))
    t = rng.uniform(0.0, 1.0, B)
    tau = rng.uniform(2.0 ** -8, 2.0 ** -3, B)
    e_prev = energy_value(model, t, u_prev).tolist()
    at_times, calls = model.at_times, []

    def recording(tt):
        at = at_times(tt)

        def values(U):
            out = at(U)
            calls.append((np.broadcast_to(tt, U.shape[:-1]).ravel(),
                          U[..., 0].ravel(), np.asarray(out[0]).ravel()))
            return out
        return values
    monkeypatch.setattr(model, "at_times", recording)
    scheme._solve_1d(model, spec.dissipation.at_state(u_prev), u_prev, t,
                     tau, e_prev)
    monkeypatch.undo()
    sizes = [len(c[0]) for c in calls]
    assert sizes[0] == B * scheme.SCAN_POINTS and len(sizes) > 1
    ts, us, got = (np.concatenate(c) for c in zip(*calls))
    assert len(got) >= 20000
    want = [energy_value(model, tb, np.array([u]))
            for tb, u in zip(ts.tolist(), us.tolist())]
    assert got.tobytes() == np.array(want).tobytes()


def test_derivative_fast_paths_match_envelope_route():
    # the envelope rule, D_u I at the minimizing eta, is what a marginal
    # model's derivative_1d must equal away from kinks
    pf = build("PhaseField1D", {}).energy
    for t in (0.0, 0.8):
        for u in (-1.7, -0.3, 0.4, 2.1):
            etas = argmin_set(pf, t, [u])
            assert len(etas) == 1
            env = pf.inner_du(t, np.array([u]), etas[0])[0]
            assert pf.derivative_1d(t, u) == pytest.approx(env, abs=1e-7)
    am = build("AbsoluteMarginal", {}).energy
    for t in (0.0, 0.8):
        k = 0.25 * t
        for u in (k - 0.6, k + 0.6):
            etas = argmin_set(am, t, [u])
            env = am.inner_du(t, np.array([u]), etas[0])[0]
            assert am.derivative_1d(t, u) == env


@pytest.mark.parametrize("name", ["QuadraticBenchmark", "AbsoluteMarginal",
                                  "PhaseField1D", "StateWeightedToy"])
def test_derivative_1d_is_the_derivative_of_value(name):
    # the scan minimizes at_times and the polish zeroes derivative_1d, so
    # both must describe one energy; probes stay 0.1 off every kink
    model = build(name, {}).energy
    h = 1e-6
    for t in (0.0, 0.4, 0.9):
        for u in (-1.3, -0.45, 0.35, 1.2):
            assert min((abs(u - k) for k in model.kinks_1d(t)),
                       default=np.inf) >= 0.1
            fd = (energy_value(model, t, np.array([u + h]))
                  - energy_value(model, t, np.array([u - h]))) / (2.0 * h)
            assert model.derivative_1d(t, u) == pytest.approx(
                fd, rel=0, abs=1e-8)


# ---------------------------------------------------------------------------
# exact solutions and descriptions


def test_quadratic_exact_solution():
    spec = build("QuadraticBenchmark", {"a": 2.0})
    sol = spec.exact_solution
    np.testing.assert_allclose(sol(0.0, [0.5]), [0.5])
    np.testing.assert_allclose(sol(1.0, [0.5]),
                               [2.0 - 1.5 * math.exp(-1.0)])


def test_absolute_marginal_exact_solution():
    spec = build("AbsoluteMarginal", {})
    sol = spec.exact_solution
    np.testing.assert_allclose(sol(0.8, [0.0]), [-0.4])


def test_exact_solution_absent_where_unknown():
    assert build("PhaseField1D", {}).exact_solution is None
    assert build("AllenCahn1D", {"N": 4}).exact_solution is None
    assert build("StateWeightedToy", {}).exact_solution is None


def test_describe_lists_parameters_and_constraints():
    text = describe("AbsoluteMarginal")
    assert "alpha > beta" in text
    assert "subdiff_kind" in text
    for name in MODEL_NAMES:
        text = describe(name)
        assert text.startswith(name)
        assert "parameters:" in text


DESCRIBE = (
    "QuadraticBenchmark\n"
    "  Convex sanity baseline: E(t,u) = 1/2 ||u - a||^2 + offset with Psi "
    "= 1/2 ||v||^2; exact flow u(t) = a + (u0 - a) exp(-t).\n"
    "  parameters:\n"
    "    dim (default 1): integer in [1, 16]\n"
    "    a (default 1.0): target point, scalar or length-dim list\n"
    "    offset (default 1.0): > 0; energy shift\n"
    "AbsoluteMarginal\n"
    "  Traveling-kink marginal energy E(t,u) = -alpha |u - beta t| + "
    "offset with two affine branches; subdifferential selectable marginal "
    "or Clarke-interval. Constraint: alpha > beta > 0, beta < 1.\n"
    "  parameters:\n"
    "    alpha (default 0.5): > 0; > beta\n"
    "    beta (default 0.25): in (0, 1); < alpha\n"
    "    offset (default 2.0): large enough that offset > alpha*(1.5 + "
    "beta*t_cap)\n"
    "    t_cap (default 1.0): in (0, 8]; time horizon the positivity "
    "constant covers\n"
    "    subdiff_kind (default 'marginal'): 'marginal' or 'clarke'\n"
    "PhaseField1D\n"
    "  Scalar quasistatic phase-field energy: E(t,u) = 1/2 u^2 + min_eta "
    "[1/2 eta^2 - u eta + W(eta)] - load_amp sin(t) u + offset, W the "
    "piecewise-quadratic double well; gradient-flow Psi = 1/2 v^2.\n"
    "  parameters:\n"
    "    load_amp (default 0.3): in [0, 1]\n"
    "    offset (default auto): default puts the box minimum at exactly 1\n"
    "AllenCahn1D\n"
    "  N-cell grid Allen-Cahn on [0,1] with zero Dirichlet walls: E = sum "
    "(1/q)|D+ u|^q dx + sum (W4(u_i) - l_i(t) u_i) dx, quartic well W4(s) "
    "= (s^2-1)^2/4; Psi = rho sum |v_i| dx + (1/p) sum |v_i|^p dx.\n"
    "  parameters:\n"
    "    N (default 32): integer in [2, 1024]\n"
    "    q (default 2.0): in (1, 8]\n"
    "    p (default 2.0): in (1, 8]\n"
    "    rho (default 1.0): in [0, 4]; 0 and 1 are the canonical settings\n"
    "    load_amp (default 0.2): in [0, 1]\n"
    "    offset (default auto): default puts the energy lower bound at "
    "exactly 1\n"
    "StateWeightedToy\n"
    "  QuadraticBenchmark energy with a state-dependent dissipation "
    "Psi_u(v) = omega(u) 1/2 ||v||^2, omega(u) = 1 + omega_scale "
    "tanh(u_1); omega_scale = 0 reproduces QuadraticBenchmark bit for "
    "bit.\n"
    "  parameters:\n"
    "    dim (default 1): integer in [1, 16]\n"
    "    a (default 1.0): target point, scalar or length-dim list\n"
    "    offset (default 1.0): > 0; energy shift\n"
    "    omega_scale (default 0.5): in [0, 0.95]\n"
)


def test_describe_text_of_every_model():
    assert "\n".join(describe(name) for name in MODEL_NAMES) + "\n" == DESCRIBE


def test_state_weighted_zero_scale_is_quadratic_weight():
    spec = build("StateWeightedToy", {"omega_scale": 0.0})
    psi = spec.dissipation
    assert psi.omega_bounds == (1.0, 1.0)
    for u in (-3.0, 0.0, 2.0):
        assert psi.omega(np.array([u])) == 1.0
