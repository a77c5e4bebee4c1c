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


def raised_L(L, measured):
    """The L after a failed trial at the power of two L: doubled, then
    doubled on while it is below the curvature the trial measured (NaN
    and inf only double) and below 2^59."""
    L *= 2.0
    while L < measured < math.inf and L < 2.0 ** 59:
        L *= 2.0
    return L


def single_prox_grad(model, p, u_prev, t_n, tau, x0, box, rho_hat, tol,
                     max_iters, L0):
    """One step problem by the proximal gradient with its prox-Newton
    candidate, one trial point at a time: (x, phi, residual, iterations,
    L, trials, newton). The reference of scheme._prox_grad, bit for bit;
    the candidate's sweep is scheme._newton_row, which
    test_newton_row_solves_the_free_system checks against a dense solve."""
    lo, hi = box
    add = np.add.reduce

    # AllenCahn1D's energy and gradient at one state, by the grid kernels
    load = model.amp * math.sin(t_n) * model.profile

    def g_eval(x):
        w = x - u_prev
        v = w / tau
        return (tau * float(add(p.smooth_scalar(v)))
                + _kernels.ac_energy(x, model.dx, model.q, load, model.offset),
                float(add(np.abs(w))),
                lambda: p.smooth_scalar_grad(v)
                + _kernels.ac_grad(x, model.dx, model.q, load))

    L = L0
    x = np.minimum(np.maximum(x0, lo), hi)
    gx, l1, grad = g_eval(x)
    grad = grad()
    residual = np.inf
    it, trials, newton, first = 1, 0, 0, True
    while True:
        step = 1.0 / L
        x_new = np.minimum(np.maximum(
            u_prev + potentials._soft(x - u_prev - step * grad,
                                      step * rho_hat), lo), hi)
        dx = x_new - x
        nrm2 = float(np.dot(dx, dx))
        if nrm2 == 0.0:
            residual = 0.0
            break
        trials += 1
        hd, ho = model.hess_rows([t_n], x[None])
        # a free coordinate still at rate 0 takes Psi's curvature at the
        # rate of the trial
        v = np.where(x == u_prev, x_new - u_prev, x - u_prev) / tau
        D = hd[0] + p.smooth_scalar_hess(v) / tau
        y = scheme._newton_row(*(a.tolist() for a in (
            scheme._free(x_new, u_prev, lo, hi), x_new, x, grad, u_prev, lo,
            hi, D, ho[0])), rho_hat)
        g_new, l1_new, grad_at = g_eval(x_new)
        lin = gx + float(np.dot(grad, dx))
        slack = 1e-15 * (1.0 + abs(gx))
        passed = stop = False
        # the curvature the trial measured, or NaN at roundoff level
        measured = 2.0 * (g_new - lin) / nrm2
        if g_new <= lin + 0.5 * L * nrm2 + slack:
            grad_new = grad_at()
            curv = float(np.dot(grad_new - grad, dx))
            passed = curv <= L * nrm2
            measured = (curv / nrm2 if g_new <= lin + 0.5 * L * nrm2
                        else math.nan)
        if passed:
            residual = L * math.sqrt(nrm2)
            nxt = (x_new, g_new, l1_new, grad_new)
            ref = g_new + rho_hat * l1_new
            stop = residual <= tol
            if (not stop and first and curv <= 0.5 * L * nrm2
                    and g_new <= lin + 0.25 * L * nrm2 + slack):
                L = max(1.0, L / 2.0)
        else:
            L = raised_L(L, measured)
            first = False
            nxt, ref = None, gx + rho_hat * l1
        if not stop and y is not None:
            y = np.array(y)
            g_y, l1_y, grad_y = g_eval(y)
            if g_y + rho_hat * l1_y <= ref + slack:
                nxt = (y, g_y, l1_y, grad_y())
                newton += 1
        if nxt is not None:
            x, gx, l1, grad = nxt
        if stop or L > 1e18:
            break
        if nxt is not None:
            if it >= max_iters:
                break
            it += 1
            first = True
    return x, gx + rho_hat * l1, residual, it, L, trials, newton


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
                             list(cols[2]), x0, box, list(cols[5]),
                             max_iters, list(cols[6]))


# OneHomPlusQuad (p = 2, rho = 1), a p = 1.5 WeightedSum (rho = 1), and
# the grid exponent q away from 2 with Quadratic and with PNorm. With
# q = 2.5 row 0 needs 6 iterations, so 3 stop it at the cap
PROX_MODELS = [({"N": 8, "rho": 1.0}, scheme.MAX_REFINE_ITERS),
               ({"N": 8, "p": 1.5}, scheme.MAX_REFINE_ITERS),
               ({"N": 8, "q": 2.5, "rho": 0.0}, 3),
               ({"N": 8, "q": 3.0, "p": 1.5, "rho": 0.0},
                scheme.MAX_REFINE_ITERS)]


@pytest.mark.parametrize("params,max_iters", PROX_MODELS)
def test_prox_grad_rows_equal_each_row_alone_bitwise(params, max_iters):
    spec = build("AllenCahn1D", params)
    p = spec.dissipation
    assert isinstance(p, potentials.WeightedSum) == (
        params.get("p") == 1.5 and params.get("rho", 1.0) > 0.0)
    rows = row_problems(spec)
    x, phi, res, iters, L, its, trials, energy, newton = prox_grad_rows(
        spec, rows, max_iters)
    assert iters == sum(its) and isinstance(iters, int)
    for b, (u_prev, t, tau, x0, box, tol, L0) in enumerate(rows):
        want = single_prox_grad(spec.energy, p, u_prev, t, tau, x0, box,
                                p.one_hom, tol, max_iters, L0)
        # the energy it hands the witness is energy_value's
        assert hexes([energy[b]]) == hexes([energy_value(spec.energy, t,
                                                         x[b])])
        one = prox_grad_rows(spec, [rows[b]], max_iters)
        for got in ((x[b], phi[b], res[b], its[b], L[b], trials[b],
                     newton[b]),
                    (one[0][0], one[1][0], one[2][0], one[5][0], one[4][0],
                     one[6][0], one[8][0])):
            assert hexes(got[0]) == hexes(want[0])
            assert hexes(got[1:3]) == hexes(want[1:3])
            assert got[3:] == want[3:]
    # row 4 stops on its fixed point
    assert (res[4], its[4], trials[4], newton[4]) == (0.0, 1, 0, 0)
    assert np.array_equal(x[4], rows[4][0])
    if max_iters == 3:
        assert its[0] == 3 and res[0] > rows[0][5]
    else:
        # row 2 stops at its loose tolerance no later than row 0 at its
        # tight one (the candidates may take both to a fixed point first),
        # and every other row moves to a Newton candidate
        assert its[2] <= its[0] and res[2] <= 1e-3
        assert min(newton[:4]) > 0
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
    # a state-dependent potential: a round's rows are one weight row
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
    # with 4 refine iterations the coarse rung's first step stalls (it
    # needs 5) and the finer rungs' steps, which need at most 4, do not
    monkeypatch.setattr(scheme, "MAX_REFINE_ITERS", 4)
    spec = build("AllenCahn1D", {"N": 5, "rho": 0.0})
    ladder = [2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
    table = refinement_study(spec.energy, spec.dissipation, sine(5), 0.25,
                             ladder)
    with pytest.raises(SolveAbortedError) as err:
        solve(spec.energy, spec.dissipation, sine(5), TimeGrid(0.25, 0.0625))
    assert str(err.value).startswith("step 1 (t=0.0625) failed: inner "
                                     "solver stalled at prox-residual")
    assert table.rows[0].status == f"solve failed: {err.value}"
    assert table.rows[0].energy_identity_defect is None
    assert [r.status for r in table.rows[1:]] == ["ok", "ok"]
    for row, tau in zip(table.rows[1:], ladder[1:]):
        alone = solve(spec.energy, spec.dissipation, sine(5),
                      TimeGrid(0.25, tau))
        assert row.energy_identity_defect == energy_identity_defect(alone)
    assert_same_trajectory(table.finest, alone)


def test_ladder_rung_that_raises_fails_alone(monkeypatch):
    # an error the batch cannot attribute to a row: the round is retried
    # row by row, and only the rung whose own step raises fails, with the
    # error its own solve raises
    spec = build("AllenCahn1D", {"N": 4})
    real = spec.energy.at_times

    def at_times(t):
        # the finest rung's first step only; energies of rows, the
        # previous states' included, go through at_times
        for s in t:
            if s == 2.0 ** -5:
                raise RuntimeError(f"no energy at t={s}")
        return real(t)

    monkeypatch.setattr(spec.energy, "at_times", at_times)
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


@pytest.mark.parametrize("name,params,u0", [
    ("AllenCahn1D", {"N": 4}, sine(4)),
    # a state-dependent potential: blocks of ROW_BLOCK, not one per step
    ("StateWeightedToy", {"dim": 2}, [0.3, -0.2])])
def test_nd_interpolants_are_row_blocks(monkeypatch, name, params, u0):
    # 16 steps of 7 interior samples: 112 rows, in blocks of ROW_BLOCK
    spec = build(name, params)
    traj = solve(spec.energy, spec.dissipation, u0,
                 TimeGrid(T=0.125, tau=2.0 ** -7))
    nd_rows = count_rows(monkeypatch, "_solve_nd")
    diagnostics.step_inequality(traj)
    assert nd_rows == [scheme.ROW_BLOCK, 112 - scheme.ROW_BLOCK]


def test_steps_rows_are_their_own_one_row_calls(monkeypatch):
    # one _steps call of 11 StateWeightedToy rows under its weight family
    # on a |v|^1.5 base, whose steps Newton does not solve in one move: two
    # frozen potentials (A and A2 freeze to the same one), a step at
    # tau_o, a row whose energy raises, and two rows that stall at 7
    # refine iterations (from L0 = 2^27 they need 8; every other row 6 or
    # 7). With ROW_BLOCK = 3 the ten rows with a valid step form blocks
    # [0, 1, 2], [3, 4, 6], [7, 8, 9] and [10], each with the weight row
    # of its states
    monkeypatch.setattr(scheme, "ROW_BLOCK", 3)
    monkeypatch.setattr(scheme, "MAX_REFINE_ITERS", 7)
    spec = build("StateWeightedToy", {"dim": 2})
    model = spec.energy
    psi = potentials.StateWeighted(
        base=potentials.PNorm(1.0, 1.5), omega=spec.dissipation.omega,
        omega_bounds=spec.dissipation.omega_bounds)
    real = model.at_times

    def at_times(t):
        for s in t:
            if s == 0.375:
                raise RuntimeError(f"no energy at t={s}")
        return real(t)

    monkeypatch.setattr(model, "at_times", at_times)
    A, A2, B = [0.3, -0.2], [0.3, -0.2001], [-0.1, 0.4]
    assert psi.at_state(np.array(A)) == psi.at_state(np.array(A2))
    assert psi.at_state(np.array(A)) != psi.at_state(np.array(B))
    rows = [(A, 0.125, 0.125), (B, 0.125, 0.125), (A2, 0.25, 0.0625),
            (B, 0.25, 0.0625), (A, 0.375, 0.125), (B, 0.1, 0.5),
            (A, 0.3, 0.25), (B, 0.3, 0.25), (A2, 0.4, 0.03125),
            (B, 0.4, 0.03125), (A, 0.1, 0.45)]
    u_prev = np.array([r[0] for r in rows])
    t, tau = [r[1] for r in rows], [r[2] for r in rows]
    L0 = [1.0, 2.0 ** 27, 4.0, 2.0 ** 27, 8.0, 1.0, 2.0, 1.0, 16.0, 1024.0,
          1.0]
    nd_rows = count_rows(monkeypatch, "_solve_nd")
    got = scheme._steps(model, psi, u_prev, t, tau, SolveOptions(), L0)
    # the block of row 4 raises before its solve and is retried row by
    # row, where row 4 raises again
    assert nd_rows == [3, 1, 1, 3, 1]
    assert len(got) == len(rows)
    for b, row in enumerate(got):
        one = scheme._steps(model, psi, u_prev[b:b + 1], [t[b]], [tau[b]],
                            SolveOptions(), [L0[b]])
        assert len(one) == 1
        if isinstance(row, Exception):
            assert type(row) is type(one[0]) and str(row) == str(one[0])
            continue
        U, xi, gap, status, energy, witness = row
        want = one[0]
        assert hexes(U) == hexes(want[0]) and hexes(xi) == hexes(want[1])
        assert hexes([gap, energy, witness]) == hexes(
            [want[2], want[4], want[5]])
        assert status == want[3]
    errors = {b: row for b, row in enumerate(got)
              if isinstance(row, Exception)}
    assert sorted(errors) == [1, 3, 4, 5]
    for b in (1, 3):
        assert isinstance(errors[b], scheme.StepFailureError)
        assert str(errors[b]).startswith("inner solver stalled")
    assert str(errors[4]) == "no energy at t=0.375"
    assert str(errors[5]) == ("step tau=0.5 outside (0, tau_o=0.5) of "
                              "StateWeightedToy")
