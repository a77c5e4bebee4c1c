"""Row batches of step problems. The row-batched proximal gradient must
take, in every row, the path of the one-problem solver it replaced, which
is kept here as the reference; a lockstep refinement ladder must give each
rung the trajectory its own solve gives; and the call counts must show
that the rows are batched, so that a silent fallback to one-by-one solving
fails."""

import math

import numpy as np
import pytest

import dnevolve.diagnostics as diagnostics
import dnevolve.scheme as scheme
from dnevolve import _kernels, potentials
from dnevolve.diagnostics import energy_identity_defect, refinement_study
from dnevolve.energy import energy_value
from dnevolve.errors import SolveAbortedError
from dnevolve.models import build
from dnevolve.scheme import SolveOptions, TimeGrid, solve


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def sine(N, amp=0.1):
    return amp * np.sin(np.pi * (np.arange(N) + 0.5) / N)


def single_prox_grad(model, p, u_prev, t_n, tau, x0, box, rho_hat, tol,
                     max_iters, L0):
    """One step problem by the proximal gradient as it was before step
    problems became rows of one call: (x, phi, residual, iterations, L,
    trials). The reference of scheme._prox_grad, bit for bit."""
    lo, hi = box
    add = np.add.reduce

    def g_eval(x, w):
        v = w / tau
        return (tau * float(add(p.smooth_scalar(v))) + model.value(t_n, x),
                lambda: p.smooth_scalar_grad(v) + model.grad(t_n, x))

    L = L0
    x = np.minimum(np.maximum(x0, lo), hi)
    w = x - u_prev
    gx, grad = g_eval(x, w)
    grad = grad()
    residual = np.inf
    it = trials = 0
    while it < max_iters:
        it += 1
        accepted = False
        first_trial = True
        while True:
            step = 1.0 / L
            x_new = np.minimum(np.maximum(
                u_prev + potentials._soft(w - step * grad, step * rho_hat),
                lo), hi)
            dx = x_new - x
            nrm2 = float(np.dot(dx, dx))
            if nrm2 == 0.0:
                break
            trials += 1
            w_new = x_new - u_prev
            g_new, grad_at = g_eval(x_new, w_new)
            lin = gx + float(np.dot(grad, dx))
            slack = 1e-15 * (1.0 + abs(gx))
            if g_new <= lin + 0.5 * L * nrm2 + slack:
                grad_new = grad_at()
                curv = float(np.dot(grad_new - grad, dx))
                accepted = curv <= L * nrm2
                if accepted:
                    break
            L *= 2.0
            first_trial = False
            if L > 1e18:
                break
        if nrm2 == 0.0:
            residual = 0.0
            break
        if not accepted:
            break
        residual = L * math.sqrt(nrm2)
        x, w, gx, grad = x_new, w_new, g_new, grad_new
        if residual <= tol:
            break
        if (first_trial and curv <= 0.5 * L * nrm2
                and g_new <= lin + 0.25 * L * nrm2 + slack):
            L = max(1.0, L / 2.0)
    return x, gx + rho_hat * float(add(np.abs(w))), residual, it, L, trials


def row_problems(spec):
    """Five step problems of one AllenCahn1D model, as (u_prev, t, tau, x0,
    box, tol, L0). Row 2 is row 0 to a loose tolerance, so it converges
    early; row 4 rests at 0 with no load (t = 0), where the gradient is 0
    and the first prox step is an exact fixed point."""
    N = spec.dim
    rng = np.random.default_rng(3)
    noisy = sine(N) + 0.01 * rng.uniform(-1.0, 1.0, N)
    out = []
    for u_prev, t, tau, shift, L0, loose in (
            (sine(N), 2.0 ** -5, 2.0 ** -5, 0.0, 1.0, False),
            (noisy, 3 * 2.0 ** -6, 2.0 ** -6, 0.05, 8.0, False),
            (sine(N), 2.0 ** -5, 2.0 ** -5, 0.0, 1.0, True),
            (-noisy, 0.4, 2.0 ** -7, -0.02, 2.0, False),
            (np.zeros(N), 0.0, 2.0 ** -5, 0.0, 1.0, False)):
        e = energy_value(spec.energy, t, u_prev)
        box = (np.maximum(u_prev - 0.5, -3.0), np.minimum(u_prev + 0.5, 3.0))
        tol = 1e-3 if loose else scheme.EPS_INNER_SCALE * (1.0 + abs(e))
        out.append((u_prev, t, tau, u_prev + shift, box, tol, L0))
    return out


def prox_grad_rows(spec, rows, max_iters):
    p = spec.dissipation
    cols = list(zip(*rows))
    u_prev, x0 = np.array(cols[0]), np.array(cols[3])
    box = (np.array([b[0] for b in cols[4]]), np.array([b[1] for b in cols[4]]))
    return scheme._prox_grad(spec.energy, p, u_prev, list(cols[1]),
                             list(cols[2]), x0, box, p.one_hom,
                             list(cols[5]), max_iters, list(cols[6]))


# OneHomPlusQuad (p = 2, rho = 1), a p = 1.5 WeightedSum (rho = 1), and
# the grid exponent q away from 2 with Quadratic and with PNorm. With
# q = 2.5 row 0 needs 43 iterations, so 40 stop it at the cap
PROX_MODELS = [({"N": 8, "rho": 1.0}, scheme.MAX_REFINE_ITERS),
               ({"N": 8, "p": 1.5}, scheme.MAX_REFINE_ITERS),
               ({"N": 8, "q": 2.5, "rho": 0.0}, 40),
               ({"N": 8, "q": 3.0, "p": 1.5, "rho": 0.0},
                scheme.MAX_REFINE_ITERS)]


@pytest.mark.parametrize("params,max_iters", PROX_MODELS)
def test_prox_grad_rows_equal_each_row_alone_bitwise(params, max_iters):
    spec = build("AllenCahn1D", params)
    p = spec.dissipation
    assert isinstance(p, potentials.WeightedSum) == (
        params.get("p") == 1.5 and params.get("rho", 1.0) > 0.0)
    rows = row_problems(spec)
    x, phi, res, iters, L, its, trials, energy = prox_grad_rows(
        spec, rows, max_iters)
    assert iters == sum(its) and isinstance(iters, int)
    for b, (u_prev, t, tau, x0, box, tol, L0) in enumerate(rows):
        want = single_prox_grad(spec.energy, p, u_prev, t, tau, x0, box,
                                p.one_hom, tol, max_iters, L0)
        # the energy it hands the witness is energy_value's
        assert hexes([energy[b]]) == hexes([energy_value(spec.energy, t,
                                                         x[b])])
        one = prox_grad_rows(spec, [rows[b]], max_iters)
        for got in ((x[b], phi[b], res[b], its[b], L[b], trials[b]),
                    (one[0][0], one[1][0], one[2][0], one[5][0], one[4][0],
                     one[6][0])):
            assert hexes(got[0]) == hexes(want[0])
            assert hexes(got[1:3]) == hexes(want[1:3])
            assert got[3:] == (want[3], want[4], want[5])
    # row 2 stops at its loose tolerance, row 4 on its fixed point
    assert its[2] < its[0] and res[2] <= 1e-3 < res[2] * 1e9
    assert (res[4], its[4], trials[4]) == (0.0, 1, 0)
    assert np.array_equal(x[4], rows[4][0])
    if max_iters == 40:
        assert its[0] == 40 and res[0] > rows[0][5]
    # the rows in another order are the same rows
    rev = prox_grad_rows(spec, rows[::-1], max_iters)
    assert hexes(rev[0][::-1]) == hexes(x)
    assert rev[5][::-1] == its and rev[4][::-1] == L


def test_kernel_rows_are_the_one_state_calls_bitwise():
    # the formulas before the row form: an (N + 1,) forward difference
    # filled end by end, |g|^q, the quarter inside the well sum, np.dot
    rng = np.random.default_rng(5)
    # an offset small enough to keep the last bits of every term visible
    N, dx, offset = 16, 1.0 / 16, 2.0 ** -30
    U = rng.uniform(-2.5, 2.5, (7, N))
    U[1] = 0.0
    U[2, ::2] = -0.0
    U[3, :4] = (1.0, -1.0, 1e-300, -5e-324)
    # small states, where the well sum decides the last bits, and a large
    # load, where the pairing does
    U[4] = rng.uniform(-1e-3, 1e-3, N)
    load = rng.uniform(-0.3, 0.3, (7, N))
    load[5] *= 1e4
    for q in (2.0, 1.5, 3.0):
        values = _kernels.ac_energy(U, dx, q, load, offset)
        grads = _kernels.ac_grad(U, dx, q, load)
        for u, ld, e, gr in zip(U, load, values, grads):
            g = np.empty(N + 1)
            g[0], g[1:-1], g[-1] = u[0] / dx, (u[1:] - u[:-1]) / dx, -u[-1] / dx
            s = u * u - 1.0
            want = float(np.add.reduce(np.abs(g) ** q) * dx / q
                         + np.add.reduce(0.25 * s * s) * dx
                         - np.dot(ld, u) * dx) + offset
            beta = g if q == 2.0 else np.sign(g) * np.abs(g) ** (q - 1.0)
            want_grad = beta[:-1] - beta[1:] + (u * s - ld) * dx
            assert hexes([e, _kernels.ac_energy(u, dx, q, ld, offset)]) == (
                hexes([want, want]))
            assert hexes(gr) == hexes(want_grad)
            assert hexes(_kernels.ac_grad(u, dx, q, ld)) == hexes(want_grad)


def assert_same_trajectory(got, want):
    for field in ("U", "xi", "gaps", "energies", "witnesses"):
        assert hexes(getattr(got, field)) == hexes(getattr(want, field))
    assert got.inner_status == want.inner_status


LADDERS = [
    ("AllenCahn1D", {"N": 8}, sine(8), 0.125,
     [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]),
    ("AllenCahn1D", {"N": 8, "p": 1.5}, sine(8), 0.125,
     [2.0 ** -4, 2.0 ** -5]),
    ("PhaseField1D", {}, [0.55], 0.125, [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]),
    # a state-dependent potential: a round's rows split by frozen potential
    ("StateWeightedToy", {"dim": 2}, [0.3, -0.2], 0.25,
     [2.0 ** -3, 2.0 ** -4]),
]


@pytest.mark.parametrize("name,params,u0,T,ladder", LADDERS)
def test_lockstep_ladder_equals_per_rung_solves(name, params, u0, T, ladder):
    spec = build(name, params)
    grids = [TimeGrid(T=T, tau=tau) for tau in ladder]
    solved = scheme._solve_grids(spec.energy, spec.dissipation, u0, grids,
                                 SolveOptions())
    for grid, traj in zip(grids, solved):
        assert_same_trajectory(
            traj, solve(spec.energy, spec.dissipation, u0, grid))


def test_lockstep_multistart_rows_equal_per_rung_solves(monkeypatch):
    # no declared semiconvexity: every row takes the multi-start budget,
    # whose starts are rows of one call each
    monkeypatch.setattr(scheme, "MULTISTARTS", 5)
    spec = build("AllenCahn1D", {"N": 4})
    monkeypatch.setattr(spec.energy, "semiconvexity", None)
    grids = [TimeGrid(T=0.125, tau=tau) for tau in (2.0 ** -4, 2.0 ** -5)]
    solved = scheme._solve_grids(spec.energy, spec.dissipation, sine(4),
                                 grids, SolveOptions(seed=3))
    for grid, traj in zip(grids, solved):
        assert all(s["starts"] == 5 for s in traj.inner_status[1:])
        assert_same_trajectory(traj, solve(spec.energy, spec.dissipation,
                                           sine(4), grid, SolveOptions(3)))


def test_ladder_failure_annotates_only_its_rung(monkeypatch):
    # with 30 refine iterations the coarse rung's first step stalls (it
    # needs 34) and the finer rungs' steps, which need at most 25, do not
    monkeypatch.setattr(scheme, "MAX_REFINE_ITERS", 30)
    spec = build("AllenCahn1D", {"N": 4, "rho": 0.0})
    ladder = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
    table = refinement_study(spec.energy, spec.dissipation, sine(4), 0.25,
                             ladder)
    with pytest.raises(SolveAbortedError) as err:
        solve(spec.energy, spec.dissipation, sine(4), TimeGrid(0.25, 0.125))
    assert str(err.value).startswith("step 1 (t=0.125) failed: inner "
                                     "solver stalled at prox-residual")
    assert table.rows[0].status == f"solve failed: {err.value}"
    assert table.rows[0].energy_identity_defect is None
    assert [r.status for r in table.rows[1:]] == ["ok", "ok"]
    for row, tau in zip(table.rows[1:], ladder[1:]):
        alone = solve(spec.energy, spec.dissipation, sine(4),
                      TimeGrid(0.25, tau))
        assert row.energy_identity_defect == energy_identity_defect(alone)
    assert_same_trajectory(table.finest, alone)


def test_ladder_rung_that_raises_fails_alone(monkeypatch):
    # an error the batch cannot attribute to a row: the round is retried
    # row by row, and only the rung whose own step raises fails, with the
    # error its own solve raises
    spec = build("AllenCahn1D", {"N": 4})
    real = spec.energy.value

    def value(t, u):
        if t == 2.0 ** -5:  # the finest rung's first step only
            raise RuntimeError(f"no energy at t={t}")
        return real(t, u)

    monkeypatch.setattr(spec.energy, "value", value)
    ladder = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
    table = refinement_study(spec.energy, spec.dissipation, sine(4), 0.25,
                             ladder)
    assert [r.status for r in table.rows] == [
        "ok", "ok", "solve failed: no energy at t=0.03125"]
    with pytest.raises(RuntimeError, match="no energy at t=0.03125"):
        solve(spec.energy, spec.dissipation, sine(4), TimeGrid(0.25, 2 ** -5))
    alone = solve(spec.energy, spec.dissipation, sine(4),
                  TimeGrid(0.25, 2 ** -4))
    assert table.rows[1].energy_identity_defect == energy_identity_defect(
        alone)


def count_rows(monkeypatch, name):
    """The row count of every call of scheme.<name> (its u_prev's rows)."""
    rows = []
    real = getattr(scheme, name)

    def counted(model, p, u_prev, *args):
        rows.append(u_prev.shape[0])
        return real(model, p, u_prev, *args)

    monkeypatch.setattr(scheme, name, counted)
    return rows


def test_ladder_makes_one_solve_nd_call_per_round(monkeypatch):
    # rungs of 2 and 4 steps: 4 rounds, the first two with both rungs.
    # One by one, the rungs made 6 calls of each
    nd_rows = count_rows(monkeypatch, "_solve_nd")
    prox_rows = count_rows(monkeypatch, "_prox_grad")
    spec = build("AllenCahn1D", {"N": 8})
    table = refinement_study(spec.energy, spec.dissipation, sine(8), 0.125,
                             [2.0 ** -4, 2.0 ** -5])
    assert [r.status for r in table.rows] == ["ok", "ok"]
    assert nd_rows == [2, 2, 1, 1]
    assert prox_rows == [2, 2, 1, 1]


def test_nd_interpolants_are_row_blocks(monkeypatch):
    # 16 steps of 7 interior samples: 112 rows, in blocks of ROW_BLOCK
    spec = build("AllenCahn1D", {"N": 4})
    traj = solve(spec.energy, spec.dissipation, sine(4),
                 TimeGrid(T=0.125, tau=2.0 ** -7))
    nd_rows = count_rows(monkeypatch, "_solve_nd")
    diagnostics.step_inequality(traj)
    assert nd_rows == [scheme.ROW_BLOCK, 112 - scheme.ROW_BLOCK]
