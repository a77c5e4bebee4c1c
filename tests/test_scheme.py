"""Time stepping: frozen one-step values, a dense-grid minimization oracle,
certificates, determinism, and the interpolants."""

import math
import random

import numpy as np
import pytest

import dnevolve.diagnostics as diagnostics
import dnevolve.scheme as scheme
from dnevolve import _kernels, _optim, potentials
from dnevolve.diagnostics import refinement_study
from dnevolve.energy import EnergyModel, energy_value
from dnevolve.errors import DomainError, RangeError, SolveAbortedError
from dnevolve.models import MODEL_NAMES, build
from dnevolve.scheme import (DiscreteTrajectory, SolveOptions, TimeGrid,
                             de_giorgi_interpolant, incremental_step,
                             linear_interpolant, slope_multiplier, solve)


def dense_step_oracle(model, p, u_prev, t_n, tau, half_width=1.0, step=2e-5):
    """Brute minimum of the step objective on a dense 1d grid."""
    blo, bhi = model.domain_box
    lo = max(u_prev - half_width, float(blo[0]))
    hi = min(u_prev + half_width, float(bhi[0]))
    us = np.arange(lo, hi + step, step)
    vs = (us - u_prev) / tau
    obj = tau * np.asarray(p.scalar(vs), dtype=float) \
        + model.value_batch_1d(t_n, us)
    return float(np.min(obj))


# ---------------------------------------------------------------------------
# grid


def test_grid_geometry():
    g = TimeGrid(T=1.0, tau=0.25)
    assert g.N == 4
    assert g.t(3) == 0.75
    np.testing.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert TimeGrid(T=1.0, tau=0.3).N == 4  # last node overshoots T


@pytest.mark.parametrize("T,tau", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0),
                                   (1.0, -0.1), (1.0, 1.5),
                                   (float("inf"), 0.1)])
def test_grid_rejects_bad_shapes(T, tau):
    with pytest.raises(RangeError):
        TimeGrid(T=T, tau=tau)


def test_step_rejects_tau_at_or_above_tau_o():
    spec = build("QuadraticBenchmark", {})
    with pytest.raises(RangeError):
        incremental_step(spec.energy, spec.dissipation, [0.0], 0.5, 0.5)
    with pytest.raises(RangeError):
        solve(spec.energy, spec.dissipation, [0.0], TimeGrid(T=1.0, tau=0.5))


def test_step_rejects_state_outside_domain():
    spec = build("QuadraticBenchmark", {})
    with pytest.raises(DomainError):
        incremental_step(spec.energy, spec.dissipation, [30.0], 0.25, 0.25)


# ---------------------------------------------------------------------------
# frozen one-step values


def test_quadratic_first_step_closed_form():
    # min over U of tau/2 ((U - 0)/tau)^2 + 1/2 (U - 1)^2 is U = tau/(1+tau)
    spec = build("QuadraticBenchmark", {})
    tau = 0.25
    U, xi, gap, status, _, _ = incremental_step(
        spec.energy, spec.dissipation, [0.0], tau, tau)
    assert U[0] == pytest.approx(0.2, abs=1e-10)
    assert xi[0] == pytest.approx(-0.8, abs=1e-9)
    assert gap <= 1e-12
    assert status["method"] == "scan1d"


def test_absolute_marginal_first_step_exact_slope():
    spec = build("AbsoluteMarginal", {})
    tau = 0.25
    U, xi, gap, _, _, _ = incremental_step(spec.energy, spec.dissipation,
                                           [0.0], tau, tau)
    assert U[0] == pytest.approx(-0.5 * tau, abs=1e-10)
    assert xi[0] == 0.5
    assert gap <= 1e-12


def test_stationary_start_stays_put_exactly():
    spec = build("QuadraticBenchmark", {})
    U, xi, gap, _, _, _ = incremental_step(spec.energy, spec.dissipation,
                                           [1.0], 0.25, 0.25)
    assert U[0] == 1.0
    assert xi[0] == 0.0
    assert gap == 0.0


def test_step_beats_dense_grid_oracle():
    tau = 0.125
    cases = [("QuadraticBenchmark", {}, 0.0), ("AbsoluteMarginal", {}, 0.0),
             ("PhaseField1D", {}, 0.55), ("PhaseField1D", {}, -0.9)]
    for name, params, u_prev in cases:
        spec = build(name, params)
        p = spec.dissipation
        U, _, _, _, _, _ = incremental_step(spec.energy, p, [u_prev], tau,
                                            tau)
        v = (U[0] - u_prev) / tau
        got = tau * float(p.scalar(np.array([v]))[0]) \
            + spec.energy.value(tau, U)
        oracle = dense_step_oracle(spec.energy, p, u_prev, tau, tau)
        assert got <= oracle + 1e-9 * (1.0 + abs(oracle)), name


D1_MODELS = [name for name in MODEL_NAMES if build(name, {}).dim == 1]
D1_DISSIPATIONS = {"quadratic": potentials.Quadratic(1.0),
                   "pnorm1.5": potentials.PNorm(1.0, 1.5),
                   "pnorm3": potentials.PNorm(1.0, 3.0),
                   "one_hom_plus_quad": potentials.OneHomPlusQuad(0.5, 1.0)}


@pytest.mark.parametrize("psi_name", sorted(D1_DISSIPATIONS))
@pytest.mark.parametrize("name", D1_MODELS)
def test_scan_values_are_the_one_point_objective_bitwise(monkeypatch, name,
                                                         psi_name):
    # scan_min takes the scan's values at each basin's bracket ends in
    # place of objective calls there, and Brent evaluates its abscissae as
    # arrays of other shapes: every row of the (B, 513) scan must equal
    # the objective at each of its points alone, bit for bit
    real = _optim.scan_min
    scanned, shapes = [], []

    def checked(f, lo, hi, n_points, **kwargs):
        grid = np.linspace(lo, hi, n_points, axis=1)
        batch = f(grid, np.arange(grid.shape[0])[:, None])
        for b, row in enumerate(grid):
            one = [f(np.array([x]), np.array([b]))[0] for x in row]
            assert ([float(y).hex() for y in batch[b]]
                    == [float(y).hex() for y in one])
        scanned.append(n_points)
        shapes.append(grid.shape)
        return real(f, lo, hi, n_points, **kwargs)

    monkeypatch.setattr(_optim, "scan_min", checked)
    spec = build(name, {})
    p = D1_DISSIPATIONS[psi_name]
    lo, hi = (float(x[0]) for x in spec.energy.domain_box)
    points = ((0.5 * (lo + hi), 0.125), (lo + 0.3 * (hi - lo), 0.5),
              (hi - 0.1 * (hi - lo), 0.875))
    steps = [incremental_step(spec.energy, p, [u_prev], t_n, 0.125)
             for u_prev, t_n in points]
    assert scanned == [scheme.SCAN_POINTS] * 3
    # the same three problems as one row batch: one (3, 513) scan, and
    # each row's minimizer, multiplier, gap and energy are its step's
    _, (U, xi, gap, _, E, _), _ = scheme._steps(
        spec.energy, p, np.array([[u] for u, _ in points]),
        np.array([t for _, t in points]), np.full(3, 0.125), SolveOptions(),
        [1.0] * 3, None)
    assert shapes == [(1, scheme.SCAN_POINTS)] * 3 + [(3, scheme.SCAN_POINTS)]
    for b, step in enumerate(steps):
        got = (U[b][0], xi[b][0], gap[b], E[b])
        want = (step[0][0], step[1][0], step[2], step[4])
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


# ---------------------------------------------------------------------------
# solve-level invariants


@pytest.mark.parametrize("name,params,u0", [
    ("PhaseField1D", {}, [0.55]),
    ("AllenCahn1D", {"N": 4, "p": 1.5}, [0.05, 0.1, 0.1, 0.05]),
])
def test_solve_makes_two_energy_calls_per_step(monkeypatch, name, params,
                                               u0):
    # per step: E(t_n, U_{n-1}) once for the inner solver and the witness,
    # and, in d = 1, E(t_n, U_n) in the witness; the n-D inner solver hands
    # the witness E(t_n, U_n) of its last accepted point. solve reuses the
    # step's witness
    spec = build(name, params)
    calls = []
    orig = scheme.energy_value

    def counted(*args):
        calls.append(args)
        return orig(*args)
    monkeypatch.setattr(scheme, "energy_value", counted)
    grid = TimeGrid(T=2.0 ** -4, tau=2.0 ** -6)
    traj = solve(spec.energy, spec.dissipation, u0, grid)
    assert len(calls) == (2 if spec.dim == 1 else 1) * grid.N + 1
    for n in range(1, grid.N + 1):
        e, w = scheme.minimality_witness(
            spec.energy, traj.psi_at(n), grid.t(n), grid.tau,
            traj.U[n - 1], traj.U[n],
            orig(spec.energy, grid.t(n), traj.U[n - 1]))
        assert (e, w) == (traj.energies[n], traj.witnesses[n])


def test_fallback_keeps_the_previous_state_and_its_energy(monkeypatch):
    # an inner solver whose result is worse than u_prev: every step falls
    # back to u_prev, with E(t_n, u_prev) and the witness 0
    spec = build("QuadraticBenchmark", {})
    solve_1d = scheme._solve_1d

    def shifted(model, p, u_prev, *args):
        _, status = solve_1d(model, p, u_prev, *args)
        return u_prev + 0.3, status
    monkeypatch.setattr(scheme, "_solve_1d", shifted)
    calls = []
    orig = scheme.energy_value

    def counted(*args):
        calls.append(args[1])
        return orig(*args)
    monkeypatch.setattr(scheme, "energy_value", counted)
    grid = TimeGrid(T=0.25, tau=2.0 ** -4)
    traj = solve(spec.energy, spec.dissipation, [0.0], grid)
    for n in range(1, grid.N + 1):
        assert np.array_equal(traj.U[n], traj.U[n - 1])
        assert traj.witnesses[n] == 0.0
        assert traj.energies[n] == orig(spec.energy, grid.t(n),
                                        traj.U[n - 1])
        assert traj.inner_status[n]["fell_back_to_prev"]
        assert calls.count(grid.t(n)) <= 3


def test_solve_records_certificates():
    spec = build("PhaseField1D", {})
    grid = TimeGrid(T=0.5, tau=2.0 ** -5)
    traj = solve(spec.energy, spec.dissipation, [0.55], grid)
    assert isinstance(traj, DiscreteTrajectory)
    assert traj.U.shape == (grid.N + 1, 1)
    assert np.all(traj.xi[0] == 0.0) and traj.gaps[0] == 0.0
    assert np.all(traj.witnesses <= scheme.WITNESS_TOL)
    assert np.all(traj.gaps <= 1e-8)
    for n in range(grid.N + 1):
        assert traj.energies[n] == spec.energy.value(grid.t(n), traj.U[n])
    assert traj.inner_status[0]["method"] == "initial"
    assert all(s["method"] == "scan1d" for s in traj.inner_status[1:])


def test_solve_is_deterministic_bitwise():
    spec = build("AllenCahn1D", {"N": 8})
    grid = TimeGrid(T=0.25, tau=2.0 ** -5)
    u0 = 0.1 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    a = solve(spec.energy, spec.dissipation, u0, grid, SolveOptions(seed=3))
    b = solve(spec.energy, spec.dissipation, u0, grid, SolveOptions(seed=3))
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.gaps, b.gaps)


def test_zero_weight_scale_reproduces_quadratic_bitwise():
    qspec = build("QuadraticBenchmark", {})
    sspec = build("StateWeightedToy", {"omega_scale": 0.0})
    grid = TimeGrid(T=0.5, tau=2.0 ** -4)
    a = solve(qspec.energy, qspec.dissipation, [0.0], grid)
    b = solve(sspec.energy, sspec.dissipation, [0.0], grid)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.xi, b.xi)


def test_state_weight_is_frozen_at_left_state():
    spec = build("StateWeightedToy", {})
    grid = TimeGrid(T=0.25, tau=0.125)
    traj = solve(spec.energy, spec.dissipation, [-0.5], grid)
    p1 = traj.psi_at(1)
    w = spec.dissipation.weight(traj.U[0])
    assert p1.value(np.array([0.4])) == pytest.approx(w * 0.08, rel=1e-12)


def test_multistart_path_matches_closed_form(monkeypatch):
    # dim 2 quadratic: the step minimizer is (tau a + u_prev) / (1 + tau);
    # the declared lambda_E = 1 takes the one-start path, none the multistart
    spec = build("QuadraticBenchmark", {"dim": 2})
    tau = 0.25
    u_prev = np.array([0.0, 0.5])
    expect = (tau * np.ones(2) + u_prev) / (1.0 + tau)
    for lam, starts in ((1.0, 1), (None, scheme.MULTISTARTS)):
        monkeypatch.setattr(spec.energy, "semiconvexity", lam)
        U, xi, gap, status, _, _ = incremental_step(
            spec.energy, spec.dissipation, u_prev, tau, tau)
        np.testing.assert_allclose(U, expect, atol=1e-8)
        assert status["method"] == "proxgrad"
        assert status["starts"] == starts
        assert status["prox_residual"] <= 1e-10 * (1.0 + 1.125)
        assert gap <= 1e-8


class _UphillGradient(EnergyModel):
    """E(x) = |x|^2 / 2 with its gradient reported mis-scaled and of the
    wrong sign, so no backtracking step passes sufficient decrease."""

    def value(self, t, x):
        return 0.5 * float(np.dot(x, x))

    def grad(self, t, x):
        return -1e9 * np.asarray(x, dtype=float)


def prox_grad_one(model, p, u_prev, t, tau, x0, box, rho_hat, tol,
                  max_iters, L0=1.0):
    """One step problem as the one-row case of the row-batched
    scheme._prox_grad: (x, phi, residual, iterations, L) of that row."""
    x, phi, res, it, L, _, _, _ = scheme._prox_grad(
        model, p, u_prev[None], [t], [tau], x0[None],
        (box[0][None], box[1][None]), rho_hat, [tol], max_iters, [L0])
    return x[0], phi[0], res[0], it, L[0]


def test_prox_grad_keeps_x_when_backtracking_gives_up():
    x0 = np.array([1.0, 1.0])
    box = (np.full(2, -10.0), np.full(2, 10.0))
    x, phi, res, it, L = prox_grad_one(
        _UphillGradient(), potentials.Quadratic(1.0), x0, 0.0, 0.1, x0, box,
        0.0, 1e-10, 50)
    assert np.array_equal(x, x0)
    assert phi == 1.0
    assert (it, res) == (1, np.inf) and L > 1e18


def _ac_step_problem(N):
    """The first AllenCahn1D step problem from 0.1 sin(pi x), tau = 2^-6,
    set up as _solve_nd sets it up: (model, p, u_prev, tau, box, tol)."""
    spec = build("AllenCahn1D", {"N": N})
    tau = 2.0 ** -6
    u_prev = 0.1 * np.sin(np.pi * (np.arange(N) + 0.5) / N)
    p = spec.dissipation.at_state(u_prev)
    e_prev = energy_value(spec.energy, tau, u_prev)
    R = scheme._coercivity_radius(p, tau, e_prev - spec.energy.constants.C0)
    blo, bhi = spec.energy.domain_box
    box = (np.maximum(u_prev - R, blo), np.minimum(u_prev + R, bhi))
    return (spec.energy, p, u_prev, tau, box,
            scheme.EPS_INNER_SCALE * (1.0 + abs(e_prev)))


def test_prox_grad_step_size_grows_back():
    # from L0 = 2^20 the step was 2^-20 for the whole solve, which ran out
    # its 20000 iterations at residual 8.8e-3; halving L after every
    # iteration accepted at its first trial brings it to 32 in 29
    model, p, u_prev, tau, box, tol = _ac_step_problem(8)
    L0 = 2.0 ** 20
    _, _, res, it, L = prox_grad_one(
        model, p, u_prev, tau, tau, u_prev, box, p.one_hom, tol,
        scheme.MAX_REFINE_ITERS, L0=L0)
    assert res <= tol
    assert L < L0 / 2 ** 10
    assert it < 60


def test_prox_grad_backtracking_still_doubles_L():
    # the N = 32 grid energy has curvature far above 1
    model, p, u_prev, tau, box, tol = _ac_step_problem(32)
    _, _, res, _, L = prox_grad_one(
        model, p, u_prev, tau, tau, u_prev, box, p.one_hom, tol,
        scheme.MAX_REFINE_ITERS, L0=1.0)
    assert res <= tol
    assert L > 1.0


@pytest.mark.parametrize("N", [8, 32, 64])
def test_prox_grad_accepts_only_steps_that_pass_at_their_L(N):
    # replay the solve one iteration at a time; iteration k's L is its
    # residual over its step length, exact since L is a power of two
    model, p, u_prev, tau, box, tol = _ac_step_problem(N)

    def g(x):
        v = (x - u_prev) / tau
        return (tau * float(p.smooth_scalar(v).sum()) + model.value(tau, x),
                np.asarray(p.smooth_scalar_grad(v), dtype=float)
                + model.grad(tau, x))

    def prox_grad(iters):
        return prox_grad_one(model, p, u_prev, tau, tau, u_prev, box,
                             p.one_hom, tol, iters)

    iters = prox_grad(scheme.MAX_REFINE_ITERS)[3]
    assert iters >= 5
    x = np.minimum(np.maximum(u_prev, box[0]), box[1])
    for k in range(1, iters + 1):
        x_new, _, res, _, _ = prox_grad(k)
        dx = x_new - x
        nrm2 = float(np.dot(dx, dx))
        if nrm2 == 0.0:
            break
        L = res / math.sqrt(nrm2)
        assert math.frexp(L)[0] == 0.5
        (gx, grad), (g_new, grad_new) = g(x), g(x_new)
        assert g_new <= (gx + float(np.dot(grad, dx)) + 0.5 * L * nrm2
                         + 1e-15 * (1.0 + abs(gx)))
        assert float(np.dot(grad_new - grad, dx)) <= L * nrm2
        x = x_new


def test_prox_grad_pays_one_grid_evaluation_per_trial(monkeypatch):
    # the coarse rung of the certbench ac-ladder workload. Evaluating the
    # value and the gradient of a trial point separately, and halving L
    # after every first-trial accept, this solve made 242 trials and 438
    # forward differences in its 8 _prox_grad calls (135 iterations); its
    # 4 steps are strongly convex, so each is one call
    N = 64
    spec = build("AllenCahn1D", {"N": N, "rho": 1.0})
    counts = {"calls": 0, "forward_diffs": 0}
    inside = []
    prox_grad, forward_diff = scheme._prox_grad, _kernels._forward_diff

    def counted_prox_grad(*args, **kwargs):
        counts["calls"] += 1
        inside.append(True)
        try:
            return prox_grad(*args, **kwargs)
        finally:
            inside.pop()

    def counted_forward_diff(*args):
        if inside:
            counts["forward_diffs"] += 1
        return forward_diff(*args)
    monkeypatch.setattr(scheme, "_prox_grad", counted_prox_grad)
    monkeypatch.setattr(_kernels, "_forward_diff", counted_forward_diff)
    u0 = 0.1 * np.sin(np.pi * (np.arange(N) + 0.5) / N)
    traj = solve(spec.energy, spec.dissipation, u0,
                 TimeGrid(T=0.125, tau=2.0 ** -5))
    trials = sum(s["trials"] for s in traj.inner_status[1:])
    assert counts["calls"] == 4
    assert counts["forward_diffs"] <= trials + counts["calls"]
    assert trials < 242


def _noisy_sine(N, seed=1):
    rng = random.Random(seed)
    return np.array([0.1 * math.sin(math.pi * (i + 0.5) / N)
                     + 0.01 * rng.uniform(-1.0, 1.0) for i in range(N)])


@pytest.mark.parametrize("params,tau", [
    ({"N": 8}, 2.0 ** -5), ({"N": 8}, 2.0 ** -6),
    ({"N": 32, "p": 1.5}, 2.0 ** -5), ({"N": 32, "p": 1.5}, 2.0 ** -6),
    ({"N": 64, "rho": 1.0}, 2.0 ** -6),
])
def test_convex_path_agrees_with_multistart(monkeypatch, params, tau):
    # AllenCahn1D's step problem is strongly convex (lambda_E = -dx), so one
    # start, from u_prev or from the prediction 2 U_{n-1} - U_{n-2}, must
    # find the minimizer the multistart budget finds
    spec = build("AllenCahn1D", params)
    u0 = _noisy_sine(params["N"])
    grid = TimeGrid(T=0.125, tau=tau)
    one = solve(spec.energy, spec.dissipation, u0, grid)
    monkeypatch.setattr(spec.energy, "semiconvexity", None)
    multi = solve(spec.energy, spec.dissipation, u0, grid)
    assert all(s["starts"] == 1 and s["mu"] > 0.0
               for s in one.inner_status[1:])
    assert all(s["starts"] > 1 and s["mu"] is None
               and s["start"] == "previous" for s in multi.inner_status[1:])
    started = [s["start"] for s in one.inner_status[1:]]
    assert started[0] == "previous"
    assert set(started) <= {"previous", "predictor"}
    if params.get("rho"):
        # the ac-ladder setting: its later steps start from the prediction
        assert "predictor" in started
    np.testing.assert_allclose(one.U, multi.U, rtol=0.0, atol=1e-9)
    assert np.all(one.witnesses <= scheme.WITNESS_TOL)
    assert np.all(multi.witnesses <= scheme.WITNESS_TOL)


def test_seed_does_not_affect_convex_steps():
    spec = build("AllenCahn1D", {"N": 8})
    grid = TimeGrid(T=0.125, tau=2.0 ** -5)
    u0 = _noisy_sine(8)
    a = solve(spec.energy, spec.dissipation, u0, grid, SolveOptions(seed=0))
    b = solve(spec.energy, spec.dissipation, u0, grid, SolveOptions(seed=7))
    assert np.array_equal(a.U, b.U) and np.array_equal(a.xi, b.xi)


def test_step_without_strong_convexity_keeps_multistart():
    # p = 3: Psi has no positive modulus at v = 0, and mu = 0 - dx < 0
    spec = build("AllenCahn1D", {"N": 8, "p": 3.0})
    u_prev = 0.1 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    _, _, _, status, _, _ = incremental_step(
        spec.energy, spec.dissipation, u_prev, 2.0 ** -5, 2.0 ** -5)
    assert status["mu"] == -1.0 / 8
    assert status["starts"] == scheme.MULTISTARTS


@pytest.mark.parametrize("N", [8, 32])
def test_solve_makes_one_prox_grad_call_per_step(monkeypatch, N):
    # one start needs no triage, so a strongly convex step is one refine;
    # with triage it made 2 calls, and the multistart budget makes 9 calls
    # per step for N <= 16 and 5 above
    spec = build("AllenCahn1D", {"N": N})
    calls = []
    orig = scheme._prox_grad

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)
    monkeypatch.setattr(scheme, "_prox_grad", counted)
    grid = TimeGrid(T=2.0 ** -4, tau=2.0 ** -6)
    u0 = 0.1 * np.sin(np.pi * (np.arange(N) + 0.5) / N)
    solve(spec.energy, spec.dissipation, u0, grid)
    assert len(calls) == grid.N


def test_solve_starts_from_the_prediction(monkeypatch):
    # the fine rung of the certbench ac-ladder workload. Every step started
    # at U_{n-1}, with triage, paid 404 prox-grad iterations in 32 calls;
    # from step 6 on each paid 21
    N = 64
    spec = build("AllenCahn1D", {"N": N, "rho": 1.0})
    calls = []
    orig = scheme._prox_grad

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)
    monkeypatch.setattr(scheme, "_prox_grad", counted)
    grid = TimeGrid(T=0.125, tau=2.0 ** -7)
    u0 = 0.1 * np.sin(np.pi * (np.arange(N) + 0.5) / N)
    traj = solve(spec.energy, spec.dissipation, u0, grid)
    steps = traj.inner_status[1:]
    assert len(calls) == grid.N
    assert sum(s["iterations"] for s in steps) < 330
    assert steps[0]["start"] == "previous"
    assert steps[-1]["start"] == "predictor"
    assert np.all(traj.witnesses <= scheme.WITNESS_TOL)


def test_allen_cahn_short_solve_certifies():
    spec = build("AllenCahn1D", {"N": 8})
    grid = TimeGrid(T=0.125, tau=2.0 ** -5)
    u0 = 0.1 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    traj = solve(spec.energy, spec.dissipation, u0, grid)
    assert np.all(traj.witnesses <= scheme.WITNESS_TOL)
    assert np.all(traj.gaps[1:] <= 1e-8)
    assert np.all(np.isfinite(traj.energies))


def test_solve_abort_carries_partial(monkeypatch):
    # starve the refine budget so the first nd step cannot hit its target
    monkeypatch.setattr(scheme, "TRIAGE_ITERS", 1)
    monkeypatch.setattr(scheme, "MAX_REFINE_ITERS", 1)
    spec = build("AllenCahn1D", {"N": 8})
    grid = TimeGrid(T=0.25, tau=2.0 ** -5)
    u0 = 0.1 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    with pytest.raises(SolveAbortedError) as err:
        solve(spec.energy, spec.dissipation, u0, grid)
    assert err.value.step_index == 1
    part = err.value.partial
    assert part.U.shape == (1, 8)
    np.testing.assert_array_equal(part.U[0], u0)


# ---------------------------------------------------------------------------
# interpolants
#
# The piecewise-constant interpolants and the rate sampler of the paper's
# scheme, kept as references for the interval rule of scheme._locate, which
# linear_interpolant and de_giorgi_interpolant share.


def left_constant_interpolant(traj: DiscreteTrajectory, t) -> np.ndarray:
    """U_n on (t_{n-1}, t_n]; U_0 at t = 0."""
    n, _ = scheme._locate(traj.grid, t)
    return traj.U.take(n, axis=0)


def right_constant_interpolant(traj: DiscreteTrajectory, t) -> np.ndarray:
    """U_{n-1} on [t_{n-1}, t_n); U_N at t = t_N."""
    n, r = scheme._locate(traj.grid, t)
    # at a node (the test of de_giorgi_interpolant) it has jumped to U_n
    at_node = abs(r - traj.grid.tau) <= 1e-12 * traj.grid.tau
    return traj.U[np.where(at_node, n, np.maximum(n - 1, 0))]


def interpolant_rate(traj: DiscreteTrajectory, t) -> np.ndarray:
    """The rate of the interval holding t: the left one's at nodes."""
    n, _ = scheme._locate(traj.grid, t)
    return traj.rate(np.maximum(n, 1))


@pytest.fixture(scope="module")
def quad_traj():
    spec = build("QuadraticBenchmark", {})
    grid = TimeGrid(T=1.0, tau=0.25)
    return solve(spec.energy, spec.dissipation, [0.0], grid)


def test_interpolant_node_coincidence(quad_traj):
    t = quad_traj.grid.t(2)
    U, xi, r, E = de_giorgi_interpolant(quad_traj, t)
    assert r == quad_traj.grid.tau
    np.testing.assert_array_equal(U, quad_traj.U[2])
    np.testing.assert_array_equal(xi, quad_traj.xi[2])
    assert E == quad_traj.energies[2]


def test_interpolant_matches_closed_form_mid_interval(quad_traj):
    # frozen-at-t shrunken step from U_1 with r = t - t_1
    t = 0.25 + 0.1
    U, xi, r, _ = de_giorgi_interpolant(quad_traj, t)
    assert r == pytest.approx(0.1, abs=1e-15)
    u1 = quad_traj.U[1][0]
    expect = (u1 + r * 1.0) / (1.0 + r)
    assert U[0] == pytest.approx(expect, abs=1e-9)
    assert xi[0] == pytest.approx(expect - 1.0, abs=1e-8)


def test_interpolant_shrinks_to_left_node(quad_traj):
    t = 0.25 + 1e-7
    U, _, r, _ = de_giorgi_interpolant(quad_traj, t)
    assert r == pytest.approx(1e-7, rel=1e-6)
    assert abs(U[0] - quad_traj.U[1][0]) <= 1e-5


def test_interpolant_rejects_out_of_range(quad_traj):
    with pytest.raises(RangeError):
        de_giorgi_interpolant(quad_traj, 0.0)
    with pytest.raises(RangeError):
        de_giorgi_interpolant(quad_traj, 1.0 + 1e-6)


def per_sample_step_inequality(traj, m):
    """(max_defects, end_defects) of diagnostics.step_inequality as it was
    before a trajectory's interpolant samples became one row batch: one
    incremental_step per sample, and E(t, U~) evaluated again. The
    reference of the batched route, bit for bit."""
    model, grid = traj.model, traj.grid
    tau = grid.tau
    max_defects = np.zeros(traj.N + 1)
    end_defects = np.zeros(traj.N + 1)
    for n in range(1, traj.N + 1):
        t0 = grid.t(n - 1)
        U0 = traj.U[n - 1]
        p = traj.psi_at(n)
        e0 = traj.energies[n - 1]
        states = [U0]
        xis = [slope_multiplier(model, traj.psi, t0, U0)]
        times = [t0]
        for j in range(1, m):
            tj = t0 + j * tau / m
            Uj, xij = incremental_step(model, traj.psi, U0, tj, tj - t0,
                                       traj.opts)[:2]
            states.append(Uj)
            xis.append(xij)
            times.append(tj)
        states.append(traj.U[n])
        xis.append(traj.xi[n])
        times.append(grid.t(n))
        conj_vals = [potentials.conjugate(p, -x) for x in xis[:m]]
        P_vals = [diagnostics.generalized_time_derivative(
            model, times[j], states[j], xis[j]) for j in range(m)]
        worst = -np.inf
        for k in range(1, m + 1):
            r = k * tau / m
            Q = (tau / m) * sum(conj_vals[:k])
            R = (tau / m) * sum(P_vals[:k])
            lhs = (r * p.value((states[k] - U0) / r) + Q
                   + energy_value(model, times[k], states[k]))
            defect = lhs - (e0 + R)
            worst = max(worst, defect)
            if k == m:
                end_defects[n] = defect
        max_defects[n] = worst
    return max_defects, end_defects


D1_U0 = {"QuadraticBenchmark": 0.0, "AbsoluteMarginal": 0.0,
         "PhaseField1D": 0.55, "StateWeightedToy": 0.0}
BATCH_CASES = ([(name, {}, psi_name) for name in D1_MODELS
                for psi_name in sorted(D1_DISSIPATIONS)]
               + [("AbsoluteMarginal", {"subdiff_kind": "clarke"}, psi_name)
                  for psi_name in sorted(D1_DISSIPATIONS)]
               # its own state-dependent potential: one batch per step
               + [("StateWeightedToy", {}, None)])


@pytest.mark.parametrize("name,params,psi_name", BATCH_CASES)
def test_batched_step_inequality_equals_per_sample_loop_bitwise(
        monkeypatch, name, params, psi_name):
    spec = build(name, params)
    psi = spec.dissipation if psi_name is None else D1_DISSIPATIONS[psi_name]
    # the Clarke interval's multiplier at the kink u = beta t matches no
    # minimizing branch, so P is undefined there: start off the kink
    u0 = -0.4 if params else D1_U0[name]
    traj = solve(spec.energy, psi, [u0], TimeGrid(T=0.125, tau=2.0 ** -5))
    batches = []
    real = scheme._solve_1d

    def counted(model, p, u_prev, *args):
        batches.append(u_prev.shape[0])
        return real(model, p, u_prev, *args)
    monkeypatch.setattr(scheme, "_solve_1d", counted)
    for m in (1, 3, 8):
        vars(spec.energy).pop("_argmin_memo", None)
        batches.clear()
        got = diagnostics.step_inequality(traj, m)
        # a state-independent potential makes one batch of all N (m - 1)
        # samples; StateWeightedToy's weight differs from step to step
        if m == 1:
            assert batches == []
        elif psi_name is None:
            assert batches == [m - 1] * traj.N
        else:
            assert batches == [traj.N * (m - 1)]
        want = per_sample_step_inequality(traj, m)
        for arr_got, arr_want in zip((got.max_defects, got.end_defects),
                                     want):
            assert ([float(x).hex() for x in arr_got]
                    == [float(x).hex() for x in arr_want])


ND_BATCH_CASES = [
    ("AllenCahn1D", {"N": 8}, 2.0 ** -5, False),
    ("AllenCahn1D", {"N": 4, "p": 1.5}, 2.0 ** -5, False),
    ("AllenCahn1D", {"N": 4, "q": 2.5, "rho": 0.0}, 2.0 ** -5, False),
    # no declared semiconvexity: the rows take the multi-start budget
    ("AllenCahn1D", {"N": 4}, 2.0 ** -4, True),
    # its own state-dependent potential: one batch per step
    ("StateWeightedToy", {"dim": 2}, 2.0 ** -4, False),
]


@pytest.mark.parametrize("name,params,tau,multistart", ND_BATCH_CASES)
def test_nd_batched_step_inequality_equals_per_sample_loop_bitwise(
        monkeypatch, name, params, tau, multistart):
    spec = build(name, params)
    if multistart:
        monkeypatch.setattr(spec.energy, "semiconvexity", None)
    u0 = ([0.3, -0.2] if name == "StateWeightedToy"
          else 0.1 * np.sin(np.pi * (np.arange(spec.dim) + 0.5) / spec.dim))
    traj = solve(spec.energy, spec.dissipation, u0, TimeGrid(T=0.125,
                                                             tau=tau))
    batches = []
    real = scheme._solve_nd

    def counted(model, p, u_prev, *args):
        batches.append(u_prev.shape[0])
        return real(model, p, u_prev, *args)
    monkeypatch.setattr(scheme, "_solve_nd", counted)
    for m in (1, 3, 8):
        batches.clear()
        got = diagnostics.step_inequality(traj, m)
        if m == 1:
            assert batches == []
        elif name == "StateWeightedToy":
            assert batches == [m - 1] * traj.N
        else:
            assert batches == [traj.N * (m - 1)]
        want = per_sample_step_inequality(traj, m)
        for arr_got, arr_want in zip((got.max_defects, got.end_defects),
                                     want):
            assert ([float(x).hex() for x in arr_got]
                    == [float(x).hex() for x in arr_want])


def test_slope_multiplier_choices():
    qspec = build("QuadraticBenchmark", {})
    out = slope_multiplier(qspec.energy, qspec.dissipation, 0.3, [1.0])
    assert out[0] == 0.0
    aspec = build("AbsoluteMarginal", {})
    # at the kink both +-alpha are candidates with equal conjugate values;
    # the lexicographically smaller one is returned
    out = slope_multiplier(aspec.energy, aspec.dissipation, 0.8, [0.2])
    assert out[0] == -0.5
    out = slope_multiplier(aspec.energy, aspec.dissipation, 0.8, [0.9])
    assert out[0] == -0.5


def test_samplers(quad_traj):
    U = quad_traj.U
    left, right = left_constant_interpolant, right_constant_interpolant
    np.testing.assert_array_equal(left(quad_traj, 0.0), U[0])
    np.testing.assert_array_equal(left(quad_traj, 0.1), U[1])
    np.testing.assert_array_equal(left(quad_traj, 0.25), U[1])
    np.testing.assert_array_equal(left(quad_traj, 0.26), U[2])
    np.testing.assert_array_equal(right(quad_traj, 0.1), U[0])
    np.testing.assert_array_equal(right(quad_traj, 0.25), U[1])
    np.testing.assert_array_equal(right(quad_traj, 0.3), U[1])
    np.testing.assert_array_equal(right(quad_traj, 1.0), U[4])
    np.testing.assert_allclose(linear_interpolant(quad_traj, 0.125),
                               0.5 * (U[0] + U[1]), atol=1e-15)
    np.testing.assert_array_equal(linear_interpolant(quad_traj, 0.75), U[3])
    np.testing.assert_array_equal(interpolant_rate(quad_traj, 0.1),
                                  quad_traj.rate(1))
    np.testing.assert_array_equal(interpolant_rate(quad_traj, 0.25),
                                  quad_traj.rate(1))
    np.testing.assert_array_equal(interpolant_rate(quad_traj, 0.26),
                                  quad_traj.rate(2))
    for bad in (-0.01, 1.01):
        with pytest.raises(RangeError):
            left(quad_traj, bad)


INTERPOLANTS = (left_constant_interpolant, right_constant_interpolant,
                linear_interpolant, interpolant_rate)


@pytest.fixture(scope="module")
def ac_traj():
    spec = build("AllenCahn1D", {"N": 4})
    u0 = 0.3 * np.sin(np.pi * (np.arange(4) + 0.5) / 4)
    return solve(spec.energy, spec.dissipation, u0,
                 TimeGrid(T=0.3, tau=2.0 ** -4))


@pytest.mark.parametrize("f", INTERPOLANTS, ids=lambda f: f.__name__)
def test_interpolant_arrays_match_scalar_calls(ac_traj, f):
    g = ac_traj.grid
    nodes = g.nodes()
    eps = 1e-10 * g.tau
    times = np.concatenate([
        [0.0], nodes, nodes[1:] - eps, nodes[:-1] + eps, [g.t(g.N)],
        np.linspace(0.0, g.t(g.N), 1024)])
    rows = f(ac_traj, times)
    assert rows.shape == (times.size, 4)
    for t, row in zip(times, rows):
        assert row.tobytes() == f(ac_traj, float(t)).tobytes(), t
        assert row.tobytes() == f(ac_traj, np.array(t)).tobytes(), t


@pytest.mark.parametrize("f", INTERPOLANTS, ids=lambda f: f.__name__)
def test_interpolant_arrays_reject_a_time_out_of_range(quad_traj, f):
    for bad in (-0.01, 1.01, np.nan):
        with pytest.raises(RangeError):
            f(quad_traj, np.array([0.0, 0.5, bad, 1.0]))


def _per_time_linear(traj, t):
    # the per-time sampler the array form replaced, kept as the reference
    g = traj.grid
    if t <= 0.0:
        return traj.U[0].copy()
    n = min(max(int(math.ceil(t / g.tau - 1e-9)), 1), g.N)
    th = (t - g.t(n - 1)) / g.tau
    return (1.0 - th) * traj.U[n - 1] + th * traj.U[n]


def test_refinement_distance_matches_the_per_time_loop():
    spec = build("AllenCahn1D", {"N": 8})
    u0 = 0.1 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    T = 0.125
    ladder = [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
    table = refinement_study(spec.energy, spec.dissipation, u0, T, ladder)
    trajs = [solve(spec.energy, spec.dissipation, u0, TimeGrid(T=T, tau=tau))
             for tau in ladder]
    times = np.linspace(0.0, T, 1024)
    for row, a, b in zip(table.rows, trajs, trajs[1:]):
        ref = max(float(np.linalg.norm(_per_time_linear(a, t)
                                       - _per_time_linear(b, t)))
                  for t in times)
        assert row.sup_interpolant_distance == ref
    assert table.rows[-1].sup_interpolant_distance is None


@pytest.mark.parametrize("failed,evaluations", [(None, 5), (2, 4)])
def test_refinement_evaluates_each_rung_interpolant_once(monkeypatch, failed,
                                                         evaluations):
    # the pairwise loop evaluated every interior rung twice, once against
    # each neighbour: 8 evaluations for 5 rungs. A failed rung skips both
    # of its pairs, and the pair after them must not reuse an older array
    spec = build("AllenCahn1D", {"N": 8})
    u0 = 0.1 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    T = 0.125
    ladder = [2.0 ** -k for k in range(3, 8)]
    trajs = []
    solve_grids = scheme._solve_grids

    def solved(model, psi, u0, grids, opts):
        out = solve_grids(model, psi, u0, grids, opts)
        if failed is not None:
            out[failed] = RuntimeError("rung left out")
        trajs.extend(None if isinstance(t, Exception) else t for t in out)
        return out
    evaluated = []

    def counted(traj, t):
        evaluated.append(traj.grid.tau)
        return linear_interpolant(traj, t)
    monkeypatch.setattr(diagnostics, "_solve_grids", solved)
    monkeypatch.setattr(diagnostics, "linear_interpolant", counted)
    table = refinement_study(spec.energy, spec.dissipation, u0, T, ladder)
    assert len(evaluated) == len(set(evaluated)) == evaluations
    times = np.linspace(0.0, T, 1024)
    for row, a, b in zip(table.rows, trajs, trajs[1:]):
        if a is None or b is None:
            assert row.sup_interpolant_distance is None
            continue
        # the two-call form, one evaluation per side of each pair
        diff = linear_interpolant(a, times)
        diff -= linear_interpolant(b, times)
        ref = float(np.sqrt((diff[:, None, :] @ diff[:, :, None]).max()))
        assert row.sup_interpolant_distance == ref


def test_energy_monotone_when_time_frozen():
    # loading off: each accepted step can only lower the energy
    spec = build("AllenCahn1D", {"N": 8, "load_amp": 0.0})
    grid = TimeGrid(T=0.25, tau=2.0 ** -5)
    u0 = 0.3 * np.sin(np.pi * (np.arange(8) + 0.5) / 8)
    traj = solve(spec.energy, spec.dissipation, u0, grid)
    assert np.all(np.diff(traj.energies) <= 1e-10)
