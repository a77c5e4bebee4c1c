"""Model zoo: builder validation, frozen energy values, kernel consistency,
exact solutions, and the declared parameter echoes."""

import math

import numpy as np
import pytest

from dnevolve import _kernels
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


@pytest.mark.parametrize("name,params", [
    ("QuadraticBenchmark", {"dim": 0}),
    ("QuadraticBenchmark", {"dim": 17}),
    ("QuadraticBenchmark", {"dim": True}),
    ("QuadraticBenchmark", {"offset": 0.0}),
    ("AbsoluteMarginal", {"alpha": 0.2, "beta": 0.25}),
    ("AbsoluteMarginal", {"beta": 1.0}),
    ("AbsoluteMarginal", {"beta": 0.0}),
    ("AbsoluteMarginal", {"offset": 0.8}),
    ("AbsoluteMarginal", {"t_cap": 9.0}),
    ("PhaseField1D", {"load_amp": 1.5}),
    ("PhaseField1D", {"offset": 0.3}),
    ("AllenCahn1D", {"N": 1}),
    ("AllenCahn1D", {"N": 1025}),
    ("AllenCahn1D", {"q": 1.0}),
    ("AllenCahn1D", {"rho": -0.5}),
    ("AllenCahn1D", {"load_amp": 1.5}),
    ("AllenCahn1D", {"offset": 0.1}),
    ("StateWeightedToy", {"omega_scale": 0.96}),
    ("StateWeightedToy", {"dim": 17}),
])
def test_out_of_range_parameters(name, params):
    with pytest.raises(RangeError):
        build(name, params)


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
            fd = (_kernels.ac_energy(up, dx, q, load)
                  - _kernels.ac_energy(dn, dx, q, load)) / (2 * h)
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


def test_value_batch_matches_scalar_loop():
    for name in ("QuadraticBenchmark", "AbsoluteMarginal", "PhaseField1D",
                 "StateWeightedToy"):
        model = build(name, {}).energy
        us = np.linspace(-1.4, 1.4, 57)
        batch = model.value_batch_1d(0.6, us)
        point = np.array([model.value(0.6, np.array([u])) for u in us])
        np.testing.assert_allclose(batch, point, rtol=0, atol=1e-12)


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
    # the scan minimizes value_batch_1d and the polish zeroes derivative_1d,
    # so both must describe one energy; probes stay 0.1 off every kink
    model = build(name, {}).energy
    h = 1e-6
    for t in (0.0, 0.4, 0.9):
        for u in (-1.3, -0.45, 0.35, 1.2):
            assert min((abs(u - k) for k in model.kinks_1d(t)),
                       default=np.inf) >= 0.1
            fd = (model.value(t, np.array([u + h]))
                  - model.value(t, np.array([u - h]))) / (2.0 * h)
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


def test_state_weighted_zero_scale_is_quadratic_weight():
    spec = build("StateWeightedToy", {"omega_scale": 0.0})
    psi = spec.dissipation
    assert psi.omega_bounds == (1.0, 1.0)
    for u in (-3.0, 0.0, 2.0):
        assert psi.omega(np.array([u])) == 1.0
