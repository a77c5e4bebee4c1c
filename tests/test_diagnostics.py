"""Certification layer: identity defects, gap profiles, chain-rule defects,
the per-step interval estimate, and refinement tables.

The load-bearing cross-check: with left-Riemann quadrature the identity
defect equals -sum_n tau (chain_defect_n + gap_n) exactly, so the three
diagnostics are mutually consistent or all wrong together.
"""

import dataclasses

import numpy as np
import pytest

import dnevolve.diagnostics as diagnostics
import dnevolve.scheme as scheme
from dnevolve import _optim, energy, potentials
from dnevolve.diagnostics import (_per_step_terms, build_report,
                                  chain_rule_constant,
                                  chain_rule_defects, dissipation_integrals,
                                  energy_identity_defect,
                                  fenchel_young_profile, refinement_study,
                                  resolve_eps_quad, step_inequality,
                                  window_upper_estimate_defect)
from dnevolve.errors import RangeError
from dnevolve.models import MODEL_NAMES, build
from dnevolve.scheme import SolveOptions, TimeGrid, solve


def make_traj(name, params, u0, T=1.0, tau=2.0 ** -4, **opt_kwargs):
    spec = build(name, params)
    grid = TimeGrid(T=T, tau=tau)
    return solve(spec.energy, spec.dissipation, u0, grid,
                 SolveOptions(**opt_kwargs))


@pytest.fixture(scope="module")
def quad_traj():
    return make_traj("QuadraticBenchmark", {}, [0.0])


@pytest.fixture(scope="module")
def abs_traj():
    return make_traj("AbsoluteMarginal", {}, [0.0])


# ---------------------------------------------------------------------------
# identity defect


def test_defect_is_additive_over_partitions(quad_traj):
    whole = energy_identity_defect(quad_traj)
    split = (energy_identity_defect(quad_traj, 0.0, 0.5)
             + energy_identity_defect(quad_traj, 0.5, 1.0))
    assert whole == pytest.approx(split, abs=1e-12)


def test_defect_equals_chain_plus_gap_sum(quad_traj, abs_traj):
    for traj in (quad_traj, abs_traj):
        tau = traj.grid.tau
        implied = -tau * float(np.sum(chain_rule_defects(traj)
                                      + fenchel_young_profile(traj)))
        assert energy_identity_defect(traj) == pytest.approx(implied,
                                                             abs=1e-12)


def test_defect_nonnegative_when_time_frozen(quad_traj):
    # no loading: minimality plus convexity make the estimate hold with slack
    assert energy_identity_defect(quad_traj) >= -1e-10


def test_traveling_kink_defect_vanishes(abs_traj):
    # U_n = -alpha t_n rides the exact solution; every per-step term cancels
    assert abs(energy_identity_defect(abs_traj)) <= 1e-12
    np.testing.assert_allclose(chain_rule_defects(abs_traj), 0.0, atol=1e-12)


def test_defect_rejects_bad_windows(quad_traj):
    with pytest.raises(RangeError):
        energy_identity_defect(quad_traj, 0.0, 0.3)
    with pytest.raises(RangeError):
        energy_identity_defect(quad_traj, 0.5, 0.25)
    with pytest.raises(RangeError):
        dissipation_integrals(quad_traj, 0.5, 0.25)


def test_dissipation_integrals_frozen_values(abs_traj):
    # psi(v) = psi*(-xi) = alpha^2/2 on every step; P = -alpha beta
    ints = dissipation_integrals(abs_traj)
    assert ints["dissipation_integral"] == pytest.approx(0.125, abs=1e-12)
    assert ints["conjugate_dissipation_integral"] == pytest.approx(
        0.125, abs=1e-12)
    assert ints["P_integral"] == pytest.approx(-0.125, abs=1e-12)
    half = dissipation_integrals(abs_traj, 0.0, 0.5)
    rest = dissipation_integrals(abs_traj, 0.5, 1.0)
    for k in ints:
        assert half[k] + rest[k] == pytest.approx(ints[k], abs=1e-14)


# ---------------------------------------------------------------------------
# gap profile and chain rule


def test_profile_matches_stored_gaps(quad_traj, abs_traj):
    for traj in (quad_traj, abs_traj):
        assert np.array_equal(fenchel_young_profile(traj), traj.gaps)


def test_step_terms_gap_is_bitwise_fenchel_young_gap():
    # p = 1.5 plus a 1-homogeneous part: the numeric conjugate route
    spec = build("AllenCahn1D", {"N": 4, "p": 1.5})
    u0 = 0.1 * np.sin(np.pi * (np.arange(4) + 0.5) / 4)
    traj = solve(spec.energy, spec.dissipation, u0,
                 TimeGrid(T=2.0 ** -4, tau=2.0 ** -6))
    terms = _per_step_terms(traj)
    for n in range(1, traj.N + 1):
        v = (traj.U[n] - traj.U[n - 1]) / traj.grid.tau
        assert terms.gap[n] == potentials.fenchel_young_gap(
            traj.psi.at_state(traj.U[n - 1]), v, -traj.xi[n])
    with pytest.raises(ValueError):
        terms.P[1] = 0.0  # the bundle is read-only


def _certificate_values(traj):
    return (fenchel_young_profile(traj).tobytes(),
            chain_rule_defects(traj).tobytes(),
            energy_identity_defect(traj, 0.0, 0.5).hex(),
            repr(build_report(traj, windows=[(0.0, 0.5)]).to_dict()))


def test_certificate_is_computed_once_per_trajectory(monkeypatch):
    traj = make_traj("AbsoluteMarginal", {}, [0.0])
    counts = {}
    for name in ("_per_step_terms", "chain_rule_constant"):
        def counted(t, name=name, orig=getattr(diagnostics, name)):
            counts[name] = counts.get(name, 0) + 1
            return orig(t)
        monkeypatch.setattr(diagnostics, name, counted)
    first = _certificate_values(traj)
    fenchel_young_profile(traj)[1] = 99.0  # a copy, not the memo
    assert _certificate_values(traj) == first
    assert counts == {"_per_step_terms": 1, "chain_rule_constant": 1}


def test_trajectory_arrays_are_read_only(quad_traj):
    for name in ("U", "xi", "gaps", "energies", "witnesses"):
        with pytest.raises(ValueError):
            getattr(quad_traj, name)[1] = 0.0


def test_profile_detects_corrupted_multiplier(quad_traj):
    # certify the trajectory first: a replaced one must not reuse its memo
    assert np.array_equal(fenchel_young_profile(quad_traj), quad_traj.gaps)
    xi = quad_traj.xi.copy()
    xi[3] += 1.0
    bad = dataclasses.replace(quad_traj, xi=xi)
    prof = fenchel_young_profile(bad)
    assert prof[3] > 1e-3
    assert prof[2] == quad_traj.gaps[2]
    assert chain_rule_defects(bad)[3] != chain_rule_defects(quad_traj)[3]
    assert fenchel_young_profile(quad_traj)[3] == quad_traj.gaps[3]


def test_quadratic_chain_defects_are_small_and_one_sided():
    traj = make_traj("QuadraticBenchmark", {}, [0.0], tau=2.0 ** -7)
    d = chain_rule_defects(traj)[1:]
    tau = 2.0 ** -7
    assert np.all(d <= 1e-12)
    assert np.all(d >= -2.0 * tau)


def test_chain_defects_are_bitwise_the_step_loop():
    # the chain row of the one certificate pass against the loop it
    # replaced: 16 steps of every model
    u0s = {"AllenCahn1D": 0.1 * np.sin(np.pi * (np.arange(4) + 0.5) / 4),
           "PhaseField1D": [0.55]}
    for name in MODEL_NAMES:
        params = {"N": 4} if name == "AllenCahn1D" else {}
        traj = make_traj(name, params, u0s.get(name, [0.0]), T=0.25,
                         tau=2.0 ** -6)
        P = _per_step_terms(traj).P
        ref = np.zeros(traj.N + 1)
        for n in range(1, traj.N + 1):
            de = (traj.energies[n] - traj.energies[n - 1]) / traj.grid.tau
            v = (traj.U[n] - traj.U[n - 1]) / traj.grid.tau
            ref[n] = de - float(np.dot(traj.xi[n], v)) - P[n]
        assert chain_rule_defects(traj).tobytes() == ref.tobytes(), name


def test_chain_rule_constant_rules(quad_traj):
    # no declared scale: 10 (1 + C1 sup_n E(t_n, u0)) with sup E = 1.5
    assert chain_rule_constant(quad_traj) == 25.0
    spec = build("AllenCahn1D", {"N": 8})
    grid = TimeGrid(T=0.125, tau=2.0 ** -5)
    u0 = 0.1 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    traj = solve(spec.energy, spec.dissipation, u0, grid)
    assert chain_rule_constant(traj) == 64.0 * 8


# ---------------------------------------------------------------------------
# per-step interval estimate


def test_step_inequality_shape_and_budget():
    traj = make_traj("QuadraticBenchmark", {}, [0.0], T=0.5, tau=2.0 ** -5)
    res = step_inequality(traj)
    assert res.m == 8
    assert res.max_defects.shape == (traj.N + 1,)
    assert res.max_defects[0] == 0.0 and res.end_defects[0] == 0.0
    assert np.all(res.end_defects <= res.max_defects + 1e-15)
    assert res.eps_quad == resolve_eps_quad(traj)
    # defect scale is O(tau^2) per sample; 1e-4 is ample at this tau
    assert res.worst <= 1e-4


def test_step_inequality_m_validation(quad_traj):
    with pytest.raises(RangeError):
        step_inequality(quad_traj, m=0)


def test_step_inequality_m1_needs_no_interpolant(quad_traj):
    # one-point quadrature: crudest budget, but no interpolant solves
    res = step_inequality(quad_traj, m=1)
    assert res.m == 1
    assert res.worst <= 5e-3


def test_step_inequality_solves_its_samples_as_one_batch(monkeypatch):
    # the benchmark's pf-certify config (seed 0): its N (m - 1) = 28
    # interpolant samples are one scan and one 1-D solve, where each
    # sample was its own step solve with its own scan (28 of each), and
    # the marginal layer's eta grid is built once per model, during the
    # solve, so the scan's grid is the only linspace left
    traj = make_traj("PhaseField1D", {}, [0.55], T=2.0 ** -5,
                     tau=2.0 ** -7)
    # the certificate's scalar terms are rows too: per pass, one conjugate
    # call for the one frozen potential and one P call, and the argmin
    # misses of a pass one batch. As in `check`, the model's argmin memo
    # starts empty and _per_step_terms runs first
    vars(traj.model).pop("_argmin_memo", None)
    rows = {}
    for module, name in ((potentials, "conjugate"),
                         (diagnostics, "generalized_time_derivative"),
                         (energy, "_marginal_candidates")):
        def rows_of(*args, _real=getattr(module, name), _name=name,
                    **kwargs):
            shape = np.shape(args[2] if _name != "conjugate" else args[1])
            rows.setdefault(_name, []).append(shape[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, rows_of)
    _per_step_terms(traj)
    # the N = 4 nodes: one conjugate, one P, one argmin miss batch
    assert rows == {"conjugate": [4], "generalized_time_derivative": [4],
                    "_marginal_candidates": [4]}
    rows.clear()
    counts = {}
    for module, name in ((_optim, "scan_min"), (scheme, "_solve_1d"),
                         (np, "linspace")):
        def counted(*args, _real=getattr(module, name), _name=name,
                    **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    step_inequality(traj)
    assert counts == {"scan_min": 1, "_solve_1d": 1, "linspace": 1}
    # conjugates: the samples' multiplier gaps (one or two candidates
    # each), the N slope multipliers' candidates, the N m left samples;
    # P: the N m left samples, whose argmins the solve and the slope
    # multipliers have asked; argmin misses: the 28 interior samples, and
    # node 0 of the slope multipliers (nodes 1..3 are memo hits)
    assert len(rows["conjugate"]) == 3 and rows["conjugate"][2] == 32
    assert rows["generalized_time_derivative"] == [32]
    assert rows["_marginal_candidates"] == [28, 1]


def test_window_estimate_telescopes():
    # eps_quad declared at the O(tau^2) per-step defect scale for this tau
    traj = make_traj("QuadraticBenchmark", {}, [0.0], T=0.5, tau=2.0 ** -5,
                     eps_quad=1e-4)
    res = step_inequality(traj)
    defect, budget = window_upper_estimate_defect(traj, 0.0, 0.5)
    assert defect == pytest.approx(float(np.sum(res.end_defects)), abs=1e-15)
    assert budget == res.eps_quad * traj.N
    d2, b2 = window_upper_estimate_defect(traj, 0.25, 0.5)
    i = traj.N // 2
    assert d2 == pytest.approx(float(np.sum(res.end_defects[i + 1:])),
                               abs=1e-15)
    assert defect <= budget


def test_eps_quad_resolution(quad_traj):
    # default ties to the initial energy scale: E(0, 0) = 1.5
    assert resolve_eps_quad(quad_traj) == pytest.approx(2.5e-6, rel=1e-12)
    traj = make_traj("QuadraticBenchmark", {}, [0.0], eps_quad=1e-3)
    assert resolve_eps_quad(traj) == 1e-3


# ---------------------------------------------------------------------------
# refinement studies


def test_refinement_study_rows():
    spec = build("AbsoluteMarginal", {})
    table = refinement_study(spec.energy, spec.dissipation, [0.0], 1.0,
                             [2.0 ** -3, 2.0 ** -4, 2.0 ** -5])
    rows = table.rows
    assert [r.N for r in rows] == [8, 16, 32]
    assert all(r.status == "ok" for r in rows)
    for r in rows[:-1]:
        # the scheme rides the exact linear solution at every tau, so
        # consecutive linear interpolants coincide
        assert r.sup_interpolant_distance <= 1e-10
        assert r.dissipation_integral_diff <= 1e-12
    assert rows[-1].sup_interpolant_distance is None
    assert abs(rows[0].energy_identity_defect) <= 1e-12
    d = table.to_dicts()
    assert d[0]["tau"] == 2.0 ** -3 and "P_integral" in d[0]
    # the finest rung's trajectory comes back with the table
    assert table.finest.grid.tau == 2.0 ** -5
    assert (energy_identity_defect(table.finest)
            == rows[-1].energy_identity_defect)


def test_refinement_study_validation():
    spec = build("QuadraticBenchmark", {})
    with pytest.raises(RangeError):
        refinement_study(spec.energy, spec.dissipation, [0.0], 1.0, [])
    with pytest.raises(RangeError):
        refinement_study(spec.energy, spec.dissipation, [0.0], 1.0,
                         [0.25, 0.25])
    with pytest.raises(RangeError):
        refinement_study(spec.energy, spec.dissipation, [0.0], 1.0,
                         [0.5, 0.25])


def test_refinement_study_annotates_failures(monkeypatch):
    monkeypatch.setattr(scheme, "TRIAGE_ITERS", 1)
    monkeypatch.setattr(scheme, "MAX_REFINE_ITERS", 1)
    # rho = 0: no one-homogeneous sticking, so a starved inner solver
    # cannot pass off the previous state as prox-stationary
    spec = build("AllenCahn1D", {"N": 4, "rho": 0.0})
    u0 = 0.1 * np.sin(np.pi * (np.arange(4) + 0.5) / 4)
    table = refinement_study(spec.energy, spec.dissipation, u0, 0.25,
                             [2.0 ** -3, 2.0 ** -4])
    assert all(r.status.startswith("solve failed") for r in table.rows)
    assert all(r.energy_identity_defect is None for r in table.rows)
    assert table.rows[0].sup_interpolant_distance is None
    assert table.finest is None


# ---------------------------------------------------------------------------
# assembled report


def test_build_report_structure(abs_traj):
    rep = build_report(abs_traj, windows=[(0.0, 0.5), (0.5, 1.0)])
    d = rep.to_dict()
    assert set(d) == {"per_step", "global"}
    assert len(d["per_step"]) == abs_traj.N
    row = d["per_step"][0]
    assert set(row) == {"n", "fenchel_young_gap", "step_inequality_defect",
                        "chain_rule_defect"}
    assert row["step_inequality_defect"] is None
    g = d["global"]
    assert g["energy_identity_defect"] == pytest.approx(0.0, abs=1e-12)
    assert len(g["window_defects"]) == 2
    assert g["window_defects"][0]["s"] == 0.0
    assert g["eps_quad"] == resolve_eps_quad(abs_traj)
    assert g["chain_rule_constant"] == chain_rule_constant(abs_traj)


def test_build_report_with_inequality_and_refinement():
    traj = make_traj("QuadraticBenchmark", {}, [0.0], T=0.25, tau=2.0 ** -4)
    spec = build("QuadraticBenchmark", {})
    table = refinement_study(spec.energy, spec.dissipation, [0.0], 0.25,
                             [2.0 ** -3, 2.0 ** -4])
    rep = build_report(traj, refinement=table, ineq=step_inequality(traj))
    d = rep.to_dict()
    assert "refinement" in d
    assert len(d["refinement"]) == 2
    assert all(isinstance(r["step_inequality_defect"], float)
               for r in d["per_step"])
