"""The prox-Newton candidate of the n-D inner solver and the second
derivatives it reads: each n-D energy's tridiagonal Hessian rows
(hess_rows) and each potential's smooth_scalar_hess match differences of
the first derivatives they come from, the Thomas sweep of
scheme._newton_row solves the free coordinates' Newton system that a
dense solve gives, and the solver, candidates included, still reaches
the inner tolerance where the step problem is not provably convex."""

import math

import numpy as np
import pytest

import dnevolve.scheme as scheme
from dnevolve import potentials
from dnevolve.energy import energy_value
from dnevolve.models import build
from dnevolve.scheme import SolveOptions, TimeGrid, solve
from prox_trace import traced_run

H = 1e-6   # central-difference step


@pytest.mark.parametrize("name,params", [
    ("AllenCahn1D", {"N": 8}),
    ("AllenCahn1D", {"N": 8, "q": 3.0}),
    ("AllenCahn1D", {"N": 8, "p": 1.5}),
    ("QuadraticBenchmark", {"dim": 3}),
    ("StateWeightedToy", {"dim": 2}),
])
def test_hess_rows_are_differences_of_the_gradient(name, params):
    spec = build(name, params)
    model, d = spec.energy, spec.dim
    rng = np.random.default_rng(2)
    U = rng.uniform(-1.0, 1.0, (3, d))
    t = [0.1, 0.4, 0.7]
    diag, off = model.hess_rows(t, U)
    assert diag.shape == (3, d) and off.shape == (3, d - 1)
    full = np.zeros((3, d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = H
        plus = model.at_times(t)(U + e)[1]()
        minus = model.at_times(t)(U - e)[1]()
        full[:, :, j] = (plus - minus) / (2.0 * H)
    scale = 1.0 + np.abs(full).max()
    idx = np.arange(d)
    assert np.abs(full[:, idx, idx] - diag).max() <= 1e-6 * scale
    assert np.abs(full[:, idx[:-1], idx[1:]] - off).max() <= 1e-6 * scale
    assert np.abs(full[:, idx[1:], idx[:-1]] - off).max() <= 1e-6 * scale
    # nothing off the three diagonals
    band = np.abs(idx[:, None] - idx[None, :]) <= 1
    assert np.abs(full[:, ~band]).max(initial=0.0) <= 1e-6 * scale


KINDS = [potentials.Quadratic(2.0), potentials.PNorm(1.5, 1.5),
         potentials.PNorm(1.0, 3.0), potentials.PNorm(2.0, 1.0),
         potentials.OneHomPlusQuad(1.0, 0.5),
         potentials.WeightedSum((potentials.PNorm(0.5, 1.0),
                                 potentials.PNorm(1.0, 1.5))),
         potentials.Scaled(potentials.PNorm(1.0, 2.5), 1.7),
         potentials.Scaled(potentials.OneHomPlusQuad(0.3, 2.0),
                           np.array([0.5, 2.0, 1.25]))]


@pytest.mark.parametrize("p", KINDS, ids=repr)
def test_smooth_scalar_hess_is_the_difference_of_its_grad(p):
    rng = np.random.default_rng(4)
    s = rng.uniform(0.2, 2.0, (3, 5)) * rng.choice([-1.0, 1.0], (3, 5))
    hess = p.smooth_scalar_hess(s)
    want = (p.smooth_scalar_grad(s + H) - p.smooth_scalar_grad(s - H)) / (
        2.0 * H)
    assert np.shape(hess) == s.shape
    assert np.abs(hess - want).max() <= 1e-6 * (1.0 + np.abs(want).max())


def test_smooth_scalar_hess_is_inf_where_it_blows_up():
    # |s|^p for p < 2 has no second derivative at 0; the candidate's
    # pivot test then sends the row down the prox-grad path
    assert potentials.PNorm(1.0, 1.5).smooth_scalar_hess(np.zeros(2)).tolist(
        ) == [math.inf, math.inf]
    assert potentials.PNorm(1.0, 3.0).smooth_scalar_hess(np.zeros(2)).tolist(
        ) == [0.0, 0.0]


def newton_problem(d=12, seed=6):
    """A row for _newton_row: an SPD tridiagonal H and a trial point whose
    coordinates 0 and 7 stay at u, 4 sits on the box's lower end and 9 on
    its upper end; the others are free."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, d)
    lo, hi = u - 1.0, u + 1.0
    # each free x + d stays on its side of u and inside the box
    x = u + rng.choice([-1.0, 1.0], d) * rng.uniform(0.2, 0.4, d)
    x[[0, 7]] = u[[0, 7]] + 0.01
    x[4], x[9] = lo[4] + 0.01, hi[9] - 0.01
    xp = x + rng.uniform(-0.02, 0.02, d)
    xp[[0, 7]] = u[[0, 7]]
    xp[4], xp[9] = lo[4], hi[9]
    D = 4.0 + rng.uniform(0.0, 1.0, d)
    O = rng.uniform(-1.5, 1.5, d - 1)
    g = rng.uniform(-0.01, 0.01, d)
    return xp, x, g, u, lo, hi, D, O


def newton_row(xp, x, g, u, lo, hi, D, O, rho):
    return scheme._newton_row(*(np.asarray(a).tolist() for a in (
        scheme._free(xp, u, lo, hi), xp, x, g, u, lo, hi, D, O)), rho)


def test_newton_row_solves_the_free_system():
    xp, x, g, u, lo, hi, D, O = newton_problem()
    rho = 0.002
    d = len(xp)
    Hm = np.diag(D) + np.diag(O, 1) + np.diag(O, -1)
    F = [i for i in range(d) if i not in (0, 4, 7, 9)]
    C = [0, 4, 7, 9]
    sigma = np.sign(xp - u)
    rhs = -(g + rho * sigma)[F] - Hm[np.ix_(F, C)] @ (xp - x)[C]
    want = xp.copy()
    want[F] = x[F] + np.linalg.solve(Hm[np.ix_(F, F)], rhs)
    # the data keep the solve inside sigma's orthant and the box
    assert np.all(sigma[F] * (want[F] - u[F]) > 0.0)
    assert np.all((lo < want) & (want < hi) | np.isin(np.arange(d), C))
    y = newton_row(xp, x, g, u, lo, hi, D, O, rho)
    assert np.abs(np.array(y) - want).max() <= 1e-12
    # the coordinates that keep the trial keep its bits
    assert [y[i] for i in C] == xp[C].tolist()


def test_newton_row_projects_onto_the_orthant_and_the_box():
    xp, x, g, u, lo, hi, D, O = newton_problem()
    # a large pull across u on coordinate 2 and past the box's end on its
    # side of u on coordinate 5
    sigma = np.sign(xp - u)
    g[2], g[5] = 50.0 * sigma[2], -1e3 * sigma[5]
    y = newton_row(xp, x, g, u, lo, hi, D, O, 0.0)
    assert y[2] == u[2] and y[5] == (hi[5] if sigma[5] > 0 else lo[5])
    assert all(lo[i] <= y[i] <= hi[i] for i in range(len(y)))


def test_newton_row_refuses_bad_pivots_and_empty_free_sets():
    xp, x, g, u, lo, hi, D, O = newton_problem()
    args = (xp, x, g, u, lo, hi)
    for bad in (-1.0, 0.0, math.inf, math.nan):
        D2 = D.copy()
        D2[3] = bad
        assert newton_row(*args, D2, O, 0.0) is None
    # a coordinate that keeps the trial does not read its diagonal
    D2 = D.copy()
    D2[7] = math.inf
    assert newton_row(*args, D2, O, 0.0) is not None
    assert newton_row(u, x, g, u, lo, hi, D, O, 0.0) is None


def test_multistart_rows_with_candidates_reach_eps_inner():
    # the allen-cahn-p3 corpus config: p = 3 gives Psi no modulus, so
    # mu = -dx < 0 and every step takes the multistart budget
    spec = build("AllenCahn1D", {"N": 8, "p": 3, "rho": 0})
    traj = solve(spec.energy, spec.dissipation, np.full(8, 0.1),
                 TimeGrid(T=0.0625, tau=0.015625), SolveOptions(seed=1))
    assert traj.N == 4
    for n, status in enumerate(traj.inner_status[1:], 1):
        e_prev = energy_value(spec.energy, traj.grid.t(n), traj.U[n - 1])
        eps_inner = scheme.EPS_INNER_SCALE * (1.0 + abs(e_prev))
        assert status["starts"] == scheme.MULTISTARTS and status["mu"] < 0
        assert status["prox_residual"] <= eps_inner
        assert status["newton"] > 0


def test_ladder_rows_take_newton_candidates():
    # the certbench ac-ladder rungs in lockstep: every step moves to a
    # candidate, and the summed iterations fall from the 596 of the
    # prox-grad path alone to 80 (96 when a failed trial only doubled L)
    N = 64
    spec = build("AllenCahn1D", {"N": N, "rho": 1.0})
    u0 = 0.1 * np.sin(np.pi * (np.arange(N) + 0.5) / N)
    grids = [TimeGrid(T=0.125, tau=2.0 ** -k) for k in (5, 6, 7)]
    trajs = scheme._solve_grids(spec.energy, spec.dissipation, u0, grids,
                                SolveOptions())
    steps = [s for traj in trajs for s in traj.inner_status[1:]]
    assert len(steps) == 4 + 8 + 16
    assert all(s["newton"] > 0 for s in steps)
    assert sum(s["iterations"] for s in steps) <= 80


def test_p_below_2_forms_a_candidate_from_round_1(tmp_path):
    # ac-pnorm: Psi's curvature |v|^(p-2) is +inf at the rate 0 of a step's
    # start, U_{n-1}; its free coordinates take the curvature at the rate
    # of the trial instead. Each step is one one-row call
    code, calls = traced_run("ac-pnorm-s0", tmp_path)
    assert code == 0
    assert [c["rows"] for c in calls] == [1, 1, 1, 1]
    assert all(c["sweeps"][0] for c in calls)


@pytest.mark.parametrize("name,evaluations", [("ac-pnorm-s0", 24),
                                              ("ac-ladder-s0", 50)])
def test_prox_grad_grid_evaluations_of_a_run(tmp_path, name, evaluations):
    # one evaluation at the start of each call and one per round with a
    # trial. Doubling L after a failed trial, with no candidate while a
    # rate is 0, these runs made 38 and 59
    code, calls = traced_run(name, tmp_path)
    assert code == 0
    assert sum(c["evaluations"] for c in calls) == evaluations


@pytest.mark.parametrize("name", ["ac-ladder-s0", "quadratic-dim3"])
def test_every_convex_call_starts_at_the_previous_state(tmp_path, name):
    # each step problem is strongly convex, so its one start is U_{n-1},
    # in the steps and in the interpolant solves of the checks alike.
    # Starting from step 2 at the clipped prediction 2 U_{n-1} - U_{n-2}
    # where its step objective was lower, 13 of ac-ladder-s0's 16 calls
    # and 7 of quadratic-dim3's 8 had a row that did not start at U_{n-1}
    code, calls = traced_run(name, tmp_path)
    assert code == 0 and calls
    for c in calls:
        assert np.array_equal(c["start"], c["u_prev"])
