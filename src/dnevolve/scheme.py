"""Incremental minimization time stepping and interpolants.

Each step solves

    U_n  in  Argmin_U  tau Psi_{U_{n-1}}((U - U_{n-1}) / tau) + E(t_n, U)

and extracts the multiplier xi_n from the model's subdifferential candidates
by minimal Fenchel-Young gap against the rate v_n = (U_n - U_{n-1}) / tau,
so that -xi_n lies in dPsi(v_n) up to the inner tolerance. The candidates
of many rows are the model's subdiff_rows pair (owner, C), C[i] one of row
owner[i], each row's in lexicographic order (see dnevolve.energy). Both
picks among them, this one and the interpolant's r -> 0 multiplier
(slope_multiplier, least conjugate Psi*(-xi)), follow one rule,
_first_least: the first of a row's least values wins, and NaN never beats
a number, so ties go to the lexicographically smallest xi and a row whose
every value is NaN keeps its first candidate. A step
evaluates E(t_n, U_{n-1}) once, for the inner solver and the minimality
witness, and hands the witness back to solve with E(t_n, U_n).

Inner minimization, for B step problems at once, each row with its own
previous state, time, step and frozen potential; a single step is the
case B = 1. In dimension 1, a 513-point scan of the coercivity box
(bounded via the superlinearity of Psi and the energy lower bound C0)
with bounded-Brent refinement of every local basin and a final
stationarity polish, every stage a row call: the coercivity radii of all
rows are one rate_bound_radius search, the rows are one (B, 513) scan,
one lockstep Brent refines every basin of every row, one lockstep Brent
root polish (_optim.polish_rows) every row's minimizer, each round one
derivative call of the rows still running, and the multipliers are
selected in rows. So a block makes a fixed number of array calls per
round whatever B is, and each row keeps the bits of its one-row call. In
higher dimension, proximal gradient with backtracking (a step must pass
sufficient decrease and a curvature test on the gradient difference),
the 1-homogeneous part of Psi handled by its exact proximal map
(soft-thresholding around the previous state), and a prox-Newton
candidate beside each trial point, run on all rows in lockstep. Each
round evaluates the trial point x+ and the candidate of every unfinished
row in one grid-kernel call of 2B states, and every row takes exactly
the points of its own solve. The candidate is a Newton step on the
coordinates x+ leaves free (off the previous state and inside the box),
with the others held at x+: one Thomas sweep on Python floats of the
tridiagonal Hessian, the energy's hess_rows plus the dissipation's
smooth_scalar_hess / tau, projected back onto the sign pattern of
x+ - U_{n-1} and the box. A free coordinate whose rate is still 0 takes
the dissipation's curvature at the rate of x+, so a p < 2 potential,
whose curvature is +inf at rate 0, has a candidate from round 1. That
sweep is the package's one linear solve: it reads nothing of
numpy.linalg or scipy. A row moves to its candidate
when the candidate's objective is no worse than that of the point the
prox-grad tests give it (x+ if accepted, else the iterate); a row whose
sweep meets a pivot that is not positive and finite takes the prox-grad
path alone. The step size 1/L adapts both ways: a failed trial raises L
to at least 2L and to the least power of two at or above the curvature
it measured (interpolating backtracking, Nocedal and Wright, Numerical
Optimization, sec. 3.5), while a failure at roundoff level only doubles
L; an iteration accepted at its first trial halves L, floored at 1,
when its step also passes both tests at L/2 (Nesterov's adaptive
composite gradient step, Math. Program. 2013, sec. 4). The solve stops at
an accepted trial whose prox residual L ||x+ - x|| is within the
tolerance, and returns that x+. Within solve, each step starts at half
the L the previous step of its grid ended with, floored at 1; every
other solve, the interpolants' included, starts at L = 1.
Global optimality is certified by strong convexity where it can be
proven: when mu = Psi.modulus(R / tau) / tau + lambda_E > 0 on the
coercivity box of radius R, with lambda_E the energy's declared (and
audited) semiconvexity, the step problem has one minimizer and every
stationary point is it, so one start suffices and is refined directly,
with no triage. That start is U_{n-1}, in solve and in the interpolant
solves alike. Otherwise optimality is certified only by a deterministic
budget of MULTISTARTS starts around U_{n-1}, whatever the dimension:
every start runs to a coarse tolerance (triage) and the best is
refined; start k of every such row is one row call. The solver records
mu, its start count, its iteration and trial counts, the iterations that
moved to a Newton candidate ("newton") and its final L in inner_status.

Every step problem goes through one row entry, _steps: it rejects a step
outside (0, tau_o), batches the other rows in blocks of ROW_BLOCK, freezes
a block's potential at its rows' previous states in one at_state call,
and hands each row back its own result or its own error. A block's scalar
terms are rows as well: its E(t, U_{n-1}) and the energies the solver did
not hand over are one energy_value call each, its witnesses one
minimality_witness call, and the gaps of all its rows' candidate
multipliers one fenchel_young_gap call. Several grids are
solved in lockstep (_solve_grids, which refinement studies use): round n
takes step n of every grid that has one, as the rows of one _steps call,
and solve is the case of one grid. ladder_fault states the rule every tau
ladder, and every grid's tau, must keep.

The De Giorgi interpolant is the step problem with the shorter step
r = t - t_{n-1} in (0, tau] (energy frozen at t). Given the trajectory
its samples are independent, so an array of times is the rows of one
_steps call, which hands back E(t, U) as the solve computed it. The
piecewise-linear interpolant also takes arrays of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _optim, potentials
from ._record import FrozenRecord
from .energy import EnergyModel, energy_value
from .errors import (RangeError, SolveAbortedError, StepFailureError,
                     SubdifferentialUnavailableError)
from .potentials import as_state

SCAN_POINTS = 513
# rows per block of one _steps batch: bounds the 1-D (rows, SCAN_POINTS)
# scan and the marginal layer's (rows, 1025) safety grid
ROW_BLOCK = 64
MULTISTARTS = 8
TRIAGE_ITERS = 60
TRIAGE_TOL_SCALE = 1e-3
MAX_REFINE_ITERS = 20000
WITNESS_TOL = 1e-12
# eps_inner = EPS_INNER_SCALE * (1 + |E(t_n, U_{n-1})|) is both the
# prox-residual target and the gap certification scale
EPS_INNER_SCALE = 1e-10


class TimeGrid(FrozenRecord):
    """Uniform nodes t_n = n tau, N = ceil(T / tau), so t_N >= T."""

    _fields = ("T", "tau")

    def __init__(self, T: float, tau: float):
        if not (T > 0.0 and math.isfinite(T)):
            raise RangeError(f"TimeGrid requires T > 0; got {T}")
        if not (0.0 < tau <= T):
            raise RangeError(f"TimeGrid requires 0 < tau <= T; got tau={tau}")
        self.T = T
        self.tau = tau

    @property
    def N(self) -> int:
        return int(math.ceil(self.T / self.tau - 1e-12))

    def t(self, n: int) -> float:
        return n * self.tau

    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.tau


class SolveOptions(FrozenRecord):
    """The per-run settings of a config: seed drives the multistart points
    of the n-D inner solver, and eps_quad is the interval-inequality budget
    (None resolves to 1e-6 * (1 + E(0, u0))). The inner tolerance and the
    quadrature sample count are EPS_INNER_SCALE and diagnostics.QUAD_M."""

    _fields = ("seed", "eps_quad")

    def __init__(self, seed: int = 0, eps_quad: Optional[float] = None):
        self.seed = seed
        self.eps_quad = eps_quad


@dataclass
class DiscreteTrajectory:
    """One solved (or loaded) trajectory. Its arrays are read-only, so
    values derived from them, such as the certificate memo of
    diagnostics._certified, stay valid; dataclasses.replace gives a new
    trajectory with no memo."""

    model: EnergyModel
    psi: potentials.DissipationPotential
    grid: TimeGrid
    opts: SolveOptions
    U: np.ndarray                 # (N+1, d), U[0] = u0
    xi: np.ndarray                # (N+1, d), xi[0] = 0 by convention
    gaps: np.ndarray              # (N+1,), gaps[0] = 0
    energies: np.ndarray          # (N+1,), E(t_n, U_n)
    witnesses: np.ndarray         # (N+1,), minimality witness (<= 1e-12)
    inner_status: List[Dict] = field(default_factory=list)

    def __post_init__(self):
        for arr in (self.U, self.xi, self.gaps, self.energies,
                    self.witnesses):
            arr.flags.writeable = False

    @property
    def N(self) -> int:
        return self.grid.N


def _step_seed(opts: SolveOptions, t_n: float, tau: float):
    """Deterministic per-step seed, stable across runs and ladder rows."""
    tb = int(np.float64(t_n).view(np.int64))
    rb = int(np.float64(tau).view(np.int64))
    return (opts.seed, tb & 0xFFFFFFFF, tb >> 32, rb & 0xFFFFFFFF, rb >> 32)


# ---------------------------------------------------------------------------
# inner solvers


def _coercivity_radius(p, tau, budget):
    """The (B,) coercivity radii of B rows, given the sequences of their
    steps tau[b] and energy budgets budget[b], under the frozen potential
    p of the rows: one rate_bound_radius row search. The budgets' floor
    and slack are taken on Python floats."""
    return 1.0000001 * potentials.rate_bound_radius(p, tau, [
        max(e, 0.0) * (1.0 + 1e-9) + 1e-12 for e in budget])


def _solve_1d(model, p, u_prev, t, tau, e_prev):
    """Scan + refine + stationarity polish of B d = 1 step problems at once,
    under the frozen potential p of their rows: row b minimizes
    tau[b] p[b]((x - u_prev[b]) / tau[b]) + E(t[b], x) over its coercivity
    interval, given e_prev[b] = E(t[b], u_prev[b]). The coercivity radii
    of all rows are one _coercivity_radius call, the 513-point scans one
    (B, 513) array, one lockstep bounded Brent refines every basin of
    every row, and one lockstep polish every row's minimizer, its
    derivative one scalar_derivative and one derivative_1d call per
    round. E is the model's at_times, the body the certificate reads too:
    one call on the scan's (B, 513, 1) grid of states and one on each
    Brent round's points. u_prev is (B, 1), the others have length B.
    Returns (U, statuses) with U of shape (B, 1); a step of solve is the
    case B = 1."""
    x_prev = u_prev[:, 0]
    blo, bhi = (float(x[0]) for x in model.domain_box)
    C0 = model.constants.C0
    R = _coercivity_radius(p, tau, [e - C0 for e in e_prev])
    # max(x - R, blo) and min(x + R, bhi) as Python's max and min pick,
    # and the whole box for a row where they leave no interval
    lo, hi = x_prev - R, x_prev + R
    lo, hi = np.where(blo > lo, blo, lo), np.where(bhi < hi, bhi, hi)
    ok = lo < hi
    lo, hi = np.where(ok, lo, blo), np.where(ok, hi, bhi)

    def phi(x, rows):
        h = tau[rows]
        return (h * np.asarray(p[rows].scalar((x - x_prev[rows]) / h),
                               dtype=float)
                + model.at_times(t[rows])(x[..., None])[0])

    x_best, f_best, basins = _optim.scan_min(phi, lo, hi, SCAN_POINTS)

    def dphi(x, rows):
        return (potentials.scalar_derivative(p[rows],
                                             (x - x_prev[rows]) / tau[rows])
                + model.derivative_1d(t[rows], x))

    spacing = (hi - lo) / (SCAN_POINTS - 1)
    x_pol = _optim.polish_rows(dphi, x_best, 2.0 * spacing)
    B = len(x_best)
    polished = np.zeros(B, dtype=bool)
    moved = np.flatnonzero((x_pol != x_best) & (lo <= x_pol) & (x_pol <= hi))
    if moved.size:
        f_pol = phi(x_pol[moved], moved)
        # objective values sit on a float plateau around the optimum; a
        # couple of ulps of slack lets the machine-accurate stationary
        # point through (a sign-flipped local max is ulps worse, never)
        ok = moved[f_pol <= f_best[moved] + 4e-16 * (1.0 + np.abs(
            f_best[moved]))]
        x_best[ok] = x_pol[ok]
        polished[ok] = True
    status = [{"method": "scan1d", "basins": int(basins[b]),
               "polished": bool(polished[b])} for b in range(B)]
    return x_best[:, None], status


def _free(xp, u, lo, hi):
    """The free coordinates of prox-grad trials xp, of one row or of the
    rows of arrays: those where xp leaves the previous state u and lies
    strictly inside the box (lo, hi)."""
    return (xp != u) & (lo < xp) & (xp < hi)


def _newton_row(free, xp, x, g, u, lo, hi, D, O, rho):
    """The prox-Newton candidate of one row on Python floats, or None when
    no coordinate is free, its sweep meets a pivot that is not positive
    and finite, or its step is not finite. free marks the free
    coordinates F of _free, xp is the row's prox-grad trial, x its
    iterate, g the gradient of the smooth part f at x, u the previous
    state, lo and hi the box, D and O the diagonal and off-diagonal of
    f's Hessian H at x, all lists, and rho the l1 weight. sigma is the
    sign of xp - u on F, and the other coordinates keep xp. On F the step
    solves H_FF d_F = -(g + rho sigma)_F - H_FC (xp - x)_C by one Thomas
    sweep over F's runs of neighbours, and x + d is projected onto
    sigma's orthant around u and onto the box."""
    if True not in free:
        return None
    last = len(xp) - 1
    cs, zs = [0.0] * (last + 1), [0.0] * (last + 1)
    c = z = 0.0
    left = False   # whether coordinate i - 1 is free
    for i, f in enumerate(free):
        if not f:
            left = False
            continue
        r = -g[i] - rho if xp[i] > u[i] else rho - g[i]
        piv = D[i]
        if left:
            a = O[i - 1]
            piv -= a * c
            r -= a * z
        elif i:
            r -= O[i - 1] * (xp[i - 1] - x[i - 1])
        if not 0.0 < piv < math.inf:
            return None
        if i == last:
            c = 0.0
        elif free[i + 1]:
            c = O[i] / piv
        else:
            r -= O[i] * (xp[i + 1] - x[i + 1])
            c = 0.0
        z = r / piv
        cs[i], zs[i] = c, z
        left = True
    y = list(xp)
    step = 0.0
    for i in range(last, -1, -1):
        if not free[i]:
            step = 0.0
            continue
        step = zs[i] - cs[i] * step
        if not -math.inf < step < math.inf:
            return None
        v, ui = x[i] + step, u[i]
        if (v < ui) if xp[i] > ui else (v > ui):
            v = ui
        if v < lo[i]:
            v = lo[i]
        elif v > hi[i]:
            v = hi[i]
        y[i] = v
    return y


def _raised_L(L, curvature):
    """The L after a failed trial at L that measured curvature: 2L, or the
    least power of two at or above the curvature when that is more, but no
    more than 2^59, the last power of two within the 1e18 give-up, so a
    row gives up only after a trial there failed. A curvature that is not
    a number, or not finite, only doubles L."""
    if not 2.0 * L < curvature < math.inf:
        return 2.0 * L
    m, e = math.frexp(curvature)
    return max(2.0 * L, min(math.ldexp(1.0, e - 1 if m == 0.5 else e),
                            2.0 ** 59))


def _prox_grad(model, p, u_prev, t, tau, x0, box, tol, max_iters, L0):
    """Monotone proximal gradient with a prox-Newton candidate, for B step
    problems under the frozen potential p of their rows, solved in
    lockstep: row b minimizes tau[b] p[b]((x - u_prev[b]) / tau[b]) +
    E(t[b], x) over its box (lo[b], hi[b]), from x0[b], to the prox
    residual tol[b], with step size 1/L from L = L0[b]; p's l1 part enters
    through its proximal map. u_prev, x0, lo and hi are (B, d) arrays, t,
    tau, tol and L0 are sequences of B floats, and max_iters >= 1 bounds
    every row's iterations. Returns (x, phi, residual, iters, L, its,
    trials, energy, newton): the (B, d) array x, the lists phi, residual
    and L of each row's final objective value (its l1 part included),
    residual and L, the summed iteration count iters, the lists its and
    trials of each row's iterations and trial points, the list of each
    row's E(t[b], x[b]), which is energy_value's bit for bit, and the list
    newton of the iterations each row took at its Newton candidate.

    Every row takes the trial points, candidates, iterations and L of its
    own solve with B = 1, bit for bit: each round evaluates the trial
    point and the candidate of every unfinished row, all 2B states in one
    at_times call, and runs each row's tests and its Newton sweep on
    Python floats (np.vecdot gives np.dot per row, and np.add.reduce
    along the rows' axis the 1-D sum). A row that finishes leaves the
    arrays.

    A round's trial x+ is the prox-grad step from the iterate x at the
    row's L. Its candidate is _newton_row's, from x+ and the tridiagonal
    Hessian of the smooth part at x: the energy's hess_rows plus the
    dissipation's smooth_scalar_hess(v) / tau on the diagonal (Lee, Sun
    and Saunders, SIAM J. Optim. 2014), where a free coordinate whose rate
    v at x is 0 reads the dissipation at the rate of x+ instead, which is
    not 0 there. The prox-grad tests first give the row its next point,
    x+ if it passes both, else x; the row then moves to the candidate
    instead when the candidate's objective, its l1 part included, is no
    worse than that point's within the value test's slack. A move is an
    iteration. A row whose sweep fails takes the prox-grad path alone.

    Step size 1/L, adaptive both ways (Nesterov 2013, sec. 4). A trial
    point that fails the value or the curvature test raises L by
    _raised_L to the curvature it measured between x and x+, at least
    doubling it: 2 (f(x+) - l(x+)) / ||x+ - x||^2 after a failed value
    test, with l the linear model of f at x, and <grad f(x+) - grad f(x),
    x+ - x> / ||x+ - x||^2 after a failed curvature test (Nocedal and
    Wright, sec. 3.5). A trial that passed the value test only within its
    slack failed at roundoff level, where that measure is noise, and only
    doubles L. L is a power of two whenever L0 is, so 1/L is exact, and a
    row gives up once L passes 1e18. An iteration accepted at its first
    trial halves L afterwards, floored at 1, so one stiff iterate does not
    fix a small step for the rest of the solve; it halves only when its
    step also passes both tests at L/2, where a halving would likely buy a
    failed trial. That look-ahead is free: the value slack and the
    gradient pairing of the step are at hand. Each state is evaluated
    once, its gradient reusing the rate and the energy's grid work. The
    iterate is carried with its displacement w = x - u_prev, which gives
    the prox argument and the rate. The solve stops at an accepted trial
    whose residual L ||x+ - x|| (at the accepted L) is at most tol, and
    returns that x+."""
    lo, hi = box
    B, d = u_prev.shape
    # np.add.reduce is ndarray.sum without its Python frame: the same sum;
    # np.minimum(np.maximum(.)) is np.clip without its wrapper frames
    add, dot, lower, upper = np.add.reduce, np.vecdot, np.maximum, np.minimum
    # each row's l1 weight: tau rho ||(x - u_prev) / tau||_1 is
    # rho ||x - u_prev||_1, so the prox threshold is step * rho whatever tau
    rho = np.broadcast_to(p.one_hom, (B,)).tolist()
    # per row, by its index b: Python floats and counters
    L = list(L0)
    res, phi = [math.inf] * B, [0.0] * B
    its, trials, newton = [1] * B, [0] * B, [0] * B
    first = [True] * B
    x = upper(lower(x0, lo), hi)
    w = x - u_prev
    x_out = np.empty_like(x0)
    # the prox threshold of each row; a row whose L changes is set again
    step = (1.0 / np.array(L))[:, None].repeat(d, 1)
    thresh = step * np.array(rho)[:, None]
    neg_thresh = -thresh
    # the arrays of the unfinished rows, whose indices rows lists. tau and
    # the step 1/L of each row fill its row: operands of the states' shape
    # cost numpy less than columns. An evaluation stacks two states per
    # row, so its at_times call and its potential take every row twice
    rows = list(range(B))
    up, blo, bhi = u_prev, lo, hi
    tw = np.array(tau)[:, None].repeat(d, 1)

    def row_set():
        ts, taus = [t[b] for b in rows], [tau[b] for b in rows]
        p2 = p[rows + rows]
        return (ts, taus + taus, model.at_times(ts + ts), p2.smooth_scalar,
                p2.smooth_scalar_grad, p[rows].smooth_scalar_hess,
                np.concatenate((up, up)), np.concatenate((tw, tw)))

    (ts, taus2, energy, smooth, smooth_grad, smooth_hess, up2,
     tw2) = row_set()

    def g_eval(X, W):
        # the smooth part at the 2n stacked states, on Python floats
        v = W / tw2
        e, e_grad = energy(X)
        if not isinstance(e, list):
            e = e.tolist()
        sm = add(smooth(v), 1).tolist()
        return ([h * a + eb for h, a, eb in zip(taus2, sm, e)], e,
                add(np.abs(W), 1).tolist(),
                lambda: smooth_grad(v) + e_grad())

    def set_L(i, b, value):
        L[b] = value
        step[i] = 1.0 / value
        thresh[i] = step[i, 0] * rho[b]
        neg_thresh[i] = -thresh[i, 0]

    # the diagonal and off-diagonal of each row's Hessian at x, kept
    # until an iterate moves
    n, hess = B, None
    gx, ex, l1, grad = g_eval(np.concatenate((x, x)), np.concatenate((w, w)))
    gx, ex, l1, grad = gx[:n], ex[:n], l1[:n], grad()[:n]
    while rows:
        # _soft(z, thresh), its bounds computed with the step
        z = w - step * grad
        x_new = upper(lower(up + (z - upper(lower(z, neg_thresh), thresh)),
                            blo), bhi)
        dx = x_new - x
        nrm2 = dot(dx, dx).tolist()
        done = []
        if not any(nrm2):
            # every row is at a fixed point of its prox step
            done = list(range(n))
            for b in rows:
                res[b] = 0.0
        else:
            # each row's Newton candidate from its Hessian at x, stacked
            # under the trial points; a row without one repeats its trial.
            # Its operands become Python floats one row at a time, so that
            # the lists of all rows never add to the peak memory at once
            if hess is None:
                hd, ho = model.hess_rows(ts, x)
                hess = hd, hd + smooth_hess(w / tw) / tw, ho
            hd, D, O = hess
            X = np.concatenate((x_new, x_new))
            cand = [False] * n
            free = _free(x_new, up, blo, bhi)
            at_rest = free & (w == 0.0)
            if at_rest.any():
                # Psi's curvature at the rate of x+, which is not 0 on a
                # free coordinate: at a rate of 0 it is +inf for p < 2
                D = np.where(at_rest, hd + smooth_hess((x_new - up) / tw)
                             / tw, D)
            for i, b in enumerate(rows):
                if nrm2[i]:
                    y = _newton_row(*(a[i].tolist() for a in (
                        free, x_new, x, grad, up, blo, bhi, D, O)), rho[b])
                    if y is not None:
                        X[n + i] = y
                        cand[i] = True
            W = X - up2
            g_all, e_all, l1_all, grad_at = g_eval(X, W)
            gd = dot(grad, dx).tolist()
            grad_all = curv = None
            moved, src_of = [], []
            for i, b in enumerate(rows):
                n2, Lb, gb = nrm2[i], L[b], g_all[i]
                if n2 == 0.0:
                    res[b] = 0.0
                    done.append(i)
                    continue
                trials[b] += 1
                lin = gx[b] + gd[i]
                slack = 1e-15 * (1.0 + abs(gx[b]))
                passed = stop = False
                # the curvature a failed trial measured: that of its value,
                # else of its gradient pairing, but NaN, which only doubles
                # L, for a trial that passed the value test only within
                # the slack, at roundoff
                measured = 2.0 * (gb - lin) / n2
                if gb <= lin + 0.5 * Lb * n2 + slack:
                    # near the optimum the decrease falls below float
                    # resolution and the value test passes on roundoff
                    # alone; the gradient difference does not (Becker,
                    # Candes and Grant 2011, sec. 5)
                    if curv is None:
                        grad_all = grad_at()
                        curv = dot(grad_all[:n] - grad, dx).tolist()
                    c = curv[i]
                    passed = c <= Lb * n2
                    measured = (c / n2 if gb <= lin + 0.5 * Lb * n2
                                else math.nan)
                if passed:
                    res[b] = Lb * math.sqrt(n2)
                    src, ref = i, gb + rho[b] * l1_all[i]
                    stop = res[b] <= tol[b]
                    if (not stop and first[b] and c <= 0.5 * Lb * n2
                            and gb <= lin + 0.25 * Lb * n2 + slack):
                        set_L(i, b, max(1.0, Lb / 2.0))
                else:
                    set_L(i, b, _raised_L(Lb, measured))
                    first[b] = False
                    src, ref = None, gx[b] + rho[b] * l1[b]
                k = n + i
                if (not stop and cand[i]
                        and g_all[k] + rho[b] * l1_all[k] <= ref + slack):
                    src = k
                    newton[b] += 1
                if src is not None:
                    gx[b], ex[b], l1[b] = g_all[src], e_all[src], l1_all[src]
                    moved.append(i)
                    src_of.append(src)
                if stop or L[b] > 1e18:
                    # stopped, or backtracking gave up: no trial passed
                    # both tests, so the row keeps its last point and the
                    # residual of its last accepted step
                    done.append(i)
                elif src is not None:
                    if its[b] >= max_iters:
                        done.append(i)
                    else:
                        its[b] += 1
                        first[b] = True
            if moved:
                if grad_all is None:
                    grad_all = grad_at()
                x[moved], w[moved], grad[moved] = (
                    X[src_of], W[src_of], grad_all[src_of])
                hess = None
            # the round's stacked states and their grid terms go before
            # the next round's sweeps: they would raise the peak memory
            X = W = grad_all = grad_at = None
        if not done:
            continue
        ids = [rows[i] for i in done]
        x_out[ids] = x[done]
        for b in ids:
            phi[b] = gx[b] + rho[b] * l1[b]
        keep = [i for i in range(n) if i not in done]
        if not keep:
            break
        rows = [rows[i] for i in keep]
        n = len(rows)
        x, w, grad = x[keep], w[keep], grad[keep]
        up, blo, bhi, tw = up[keep], blo[keep], bhi[keep], tw[keep]
        step, thresh, neg_thresh = step[keep], thresh[keep], neg_thresh[keep]
        if hess is not None:
            hess = tuple(a[keep] for a in hess)
        (ts, taus2, energy, smooth, smooth_grad, smooth_hess, up2,
         tw2) = row_set()
    return x_out, phi, res, sum(its), L, its, trials, ex, newton


def _solve_nd(model, p, u_prev, t, tau, e_prev, opts, L0):
    """Proximal gradient to eps_inner for B step problems under the frozen
    potential p of their rows: row b from u_prev[b] at time t[b] with step
    tau[b] under p[b], given e_prev[b] = E(t[b], u_prev[b]); u_prev is
    (B, d), and t, tau and e_prev are lists of floats. The coercivity
    radii of all rows are one _coercivity_radius call. A row proven
    strongly convex on its box (mu > 0) has one minimizer, so one start,
    u_prev[b], suffices and needs no triage. Any other row gets the
    deterministic budget of MULTISTARTS starts, built around u_prev[b]:
    every start runs to a coarse tolerance and the best is refined. A
    row's first prox-grad call begins at L = L0[b], each later one at half
    the L its predecessor ended with. Start k of every multi-start row is
    one _prox_grad row call, and the refinement of every row one more, so
    each row takes the path of its own solve. Returns (U, status, errors,
    energy) with errors[b] the StepFailureError of a row that missed
    eps_inner, else None, and energy[b] = E(t[b], U[b])."""
    B, d = u_prev.shape
    eps_inner = [EPS_INNER_SCALE * (1.0 + abs(e)) for e in e_prev]
    C0 = model.constants.C0
    Rc = _coercivity_radius(p, tau, [e - C0 for e in e_prev])[:, None]
    R = Rc[:, 0].tolist()
    blo, bhi = model.domain_box
    lo = np.maximum(u_prev - Rc, blo)
    hi = np.minimum(u_prev + Rc, bhi)

    # mu bounds the Hessian of the step objective from below on the box,
    # where every rate has |v_i| <= R / tau; for mu > 0 the objective is
    # strongly convex, so its stationary point is the global minimizer
    lam = model.semiconvexity
    mu = [None if lam is None else p[b].modulus(R[b] / h) / h + lam
          for b, h in enumerate(tau)]
    convex = [m is not None and m > 0.0 for m in mu]
    multi = [b for b in range(B) if not convex[b]]
    x0 = u_prev.copy()
    L = [float(v) for v in L0]
    its, trials, newton = [0] * B, [0] * B, [0] * B
    if multi:
        alt = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        starts = []
        for b in multi:
            rng = np.random.default_rng(_step_seed(opts, t[b], tau[b]))
            r = R[b]
            row = [u_prev[b].copy(),
                   u_prev[b] + 0.25 * r * np.ones(d),
                   u_prev[b] - 0.25 * r * np.ones(d),
                   u_prev[b] + 0.25 * r * alt]
            while len(row) < MULTISTARTS:
                row.append(lo[b] + rng.random(d) * (hi[b] - lo[b]))
            starts.append(row)
        triage_tol = [TRIAGE_TOL_SCALE * (1.0 + abs(e_prev[b]))
                      for b in multi]
        best = [None] * len(multi)
        for k in range(MULTISTARTS):
            x, f, _, _, Lk, itk, trk, _, nwk = _prox_grad(
                model, p[multi], u_prev[multi], [t[b] for b in multi],
                [tau[b] for b in multi], np.array([s[k] for s in starts]),
                (lo[multi], hi[multi]), triage_tol, TRIAGE_ITERS,
                [L[b] for b in multi])
            for i, b in enumerate(multi):
                L[b] = max(1.0, Lk[i] / 2.0)
                its[b] += itk[i]
                trials[b] += trk[i]
                newton[b] += nwk[i]
                if best[i] is None or f[i] < best[i]:
                    best[i], x0[b] = f[i], x[i]
    x, _, res, _, L, itr, trr, energy, nwr = _prox_grad(
        model, p, u_prev, t, tau, x0, (lo, hi), eps_inner, MAX_REFINE_ITERS,
        L)
    status, errors = [], []
    for b in range(B):
        its[b] += itr[b]
        trials[b] += trr[b]
        newton[b] += nwr[b]
        errors.append(None if res[b] <= eps_inner[b] else StepFailureError(
            f"inner solver stalled at prox-residual {res[b]:.3e} "
            f"(target {eps_inner[b]:.3e}) after {its[b]} iterations"))
        status.append({"method": "proxgrad",
                       "starts": 1 if convex[b] else MULTISTARTS,
                       "mu": mu[b], "iterations": its[b],
                       "trials": trials[b], "newton": newton[b],
                       "prox_residual": res[b], "L": L[b]})
    return x, status, errors, energy


# ---------------------------------------------------------------------------
# steps and solves


def _candidates(model, t, U):
    """The model's subdiff_rows pair (owner, C) at the rows (t[b], U[b]);
    a row with no candidate raises SubdifferentialUnavailableError."""
    owner, C = model.subdiff_rows(t, U)
    count = np.bincount(owner, minlength=len(U))
    if not count.all():
        raise SubdifferentialUnavailableError(
            f"{model.name} returned no subgradient candidates at "
            f"t={t[int(np.argmin(count))]}")
    return owner, C


def _first_least(owner, vals):
    """The index into the candidates of a subdiff_rows pair of each row's
    pick, given their values, by the rule of the module docstring. A
    later candidate replaces the row's pick only when its value is less,
    or a number where the pick's is NaN. (np.lexsort with np.searchsorted
    does this in arrays, but first loading their code adds 0.1-0.2 MB to
    a run's peak RSS, and most rows have one candidate.)"""
    pick: List[int] = []
    for i, (b, x) in enumerate(zip(owner.tolist(), vals.tolist())):
        if len(pick) == b:   # row b's first candidate
            pick.append(i)
            best = x
        elif x < best or (math.isnan(best) and not math.isnan(x)):
            pick[b], best = i, x
    return np.array(pick)


def _select_multiplier(model, p, v, t, U):
    """Each row's gap-minimal multiplier among the model's candidates at
    (t[b], U[b]), against the rate v[b], picked by _first_least. The gaps
    of every row's candidates are one row call of fenchel_young_gap.
    Returns (xi, gap), of shapes (B, d) and (B,)."""
    owner, C = _candidates(model, t, U)
    gaps = potentials.fenchel_young_gap(p[owner], v[owner], -C)
    pick = _first_least(owner, gaps)
    return C[pick], gaps[pick]


def minimality_witness(model: EnergyModel, p, t_n, tau, u_prev, U, e_prev,
                       e=None):
    """(E(t_n, U), witness) for the step from u_prev to U under the frozen
    potential p (of the rows, for rows), given e_prev = E(t_n, u_prev),
    with witness =
    tau p((U - u_prev) / tau) + E(t_n, U) - e_prev: the objective of U
    minus that of the competitor u_prev, so a minimizer has witness <= 0.
    e, if given, is E(t_n, U) as energy_value computes it. One step takes
    states (d,) and floats; B steps take the rows of (B, d) arrays and
    sequences of B times, steps and energies, and give (B,) arrays."""
    h = np.asarray(tau, dtype=float)
    v = (U - u_prev) / h[..., None]
    if e is None:
        e = energy_value(model, t_n, U)
    obj = h * p.value(v) + e
    return e, obj - e_prev


def _finish_steps(model, p, u_prev, t, tau, U, e_prev, status,
                  e_solved=None):
    """Rows b of solved steps from u_prev[b] to U[b] at (t[b], tau[b]): the
    minimality witness against u_prev[b], which replaces U[b] when it is
    no worse, and the gap-minimal multiplier. e_solved, if given, lists
    E(t[b], U[b]) as the inner solver computed it; the other rows' energy
    is one energy_value row call, and the witnesses one minimality_witness
    call. Returns (U, xi, gap, status, energy, witness): row arrays, and
    the list of row statuses."""
    energy, witness = minimality_witness(model, p, t, tau, u_prev, U, e_prev,
                                         e_solved)
    energy = np.array(energy, dtype=float)
    # the previous state is always an admissible competitor; taking it
    # when it is no worse keeps the witness nonpositive by construction
    for b in [b for b, w in enumerate(witness.tolist()) if w > 0.0]:
        U[b], energy[b], witness[b] = u_prev[b], e_prev[b], 0.0
        status[b] = dict(status[b], fell_back_to_prev=True)
    v = (U - u_prev) / np.asarray(tau)[:, None]
    xi, gap = _select_multiplier(model, p, v, t, U)
    return U, xi, gap, status, energy, witness


def _steps(model, psi, u_prev, t, tau, opts, L0):
    """The scheme's one row entry: B step problems, row b from u_prev[b]
    (of the (B, d) array u_prev) at time t[b] with step tau[b], under the
    frozen potential psi.at_state(u_prev)[b]. A row whose step is outside
    (0, tau_o) fails alone. The other rows, in order, form blocks of at
    most ROW_BLOCK rows, and each block is one row batch: one at_state
    call freezes its potential, and _solve_1d solves it for d = 1, else
    _solve_nd, whose rows start at u_prev[b] and begin their prox-grad
    calls at L = L0[b] (d = 1 reads no L0). A block that raises is
    retried row by row, so only the rows whose own potential or solve
    raises fail. Every row takes the path it takes alone, bit for bit.
    Returns, in row order, each row's _finish_steps row (U, xi, gap,
    status, energy, witness) or its own error: the RangeError of its
    step, what freezing or solving it raised, or the StepFailureError of
    an n-D row that missed eps_inner."""
    out = [None] * len(t)
    tau_o = model.constants.tau_o
    valid = []
    for b, h in enumerate(tau):
        if 0.0 < h < tau_o:
            valid.append(b)
        else:
            out[b] = RangeError(f"step tau={h} outside (0, tau_o={tau_o}) "
                                f"of {model.name}")

    def block(rows):
        ub = u_prev[rows]
        p = psi.at_state(ub)
        tb, hb = [float(t[b]) for b in rows], [float(tau[b]) for b in rows]
        if model.dim == 1:
            # _solve_1d takes its rows' times and steps as arrays
            tb, hb = np.array(tb), np.array(hb)
        e_prev = energy_value(model, tb, ub).tolist()
        if model.dim == 1:
            U, status = _solve_1d(model, p, ub, tb, hb, e_prev)
            res, energy = [None] * len(rows), None
        else:
            U, status, res, energy = _solve_nd(
                model, p, ub, tb, hb, e_prev, opts, [L0[b] for b in rows])
        ok = [i for i, err in enumerate(res) if err is None]
        if len(ok) < len(rows):  # only n-D rows fail here
            ub, U, p = ub[ok], U[ok], p[ok]
            tb, hb, e_prev, status, energy = ([v[i] for i in ok] for v in (
                tb, hb, e_prev, status, energy))
        if ok:
            for i, row in zip(ok, zip(*_finish_steps(
                    model, p, ub, tb, hb, U, e_prev, status, energy))):
                res[i] = row
        return res

    def alone(b):
        try:
            return block([b])[0]
        except Exception as err:
            return err

    for i in range(0, len(valid), ROW_BLOCK):
        ks = valid[i:i + ROW_BLOCK]
        try:
            res = block(ks)
        except Exception as err:
            res = [err] if len(ks) == 1 else [alone(b) for b in ks]
        for b, row in zip(ks, res):
            out[b] = row
    return out


def incremental_step(model: EnergyModel, psi, u_prev, t_n: float, tau: float,
                     opts: Optional[SolveOptions] = None):
    """One incremental minimization step; returns (U_n, xi_n, gap, status,
    E(t_n, U_n), witness), with U_n = U_{n-1} and witness 0 when the inner
    solver's result is worse than U_{n-1}. It is the one-row call of the
    row entry _steps, and raises that row's error: a RangeError for tau
    outside (0, tau_o), StepFailureError when the n-D inner solver misses
    its tolerance, or what freezing psi or solving the step raised.
    """
    row = _steps(model, psi, as_state(u_prev, model.dim)[None], [t_n], [tau],
                 opts or SolveOptions(), [1.0])[0]
    if isinstance(row, Exception):
        raise row
    U, xi, gap, status, energy, witness = row
    return U, xi, float(gap), status, float(energy), float(witness)


def _solve_grids(model: EnergyModel, psi, u0, grids: List[TimeGrid],
                 opts: SolveOptions) -> List:
    """Run the scheme on every grid of the list at once, in lockstep:
    round n takes step n of every grid that has one and has not failed,
    as one row of one _steps call, each row with its own time, step and L
    carry. Each n-D step starts its inner solver at U_{n-1}, with L at
    half the L the previous step of its grid ended with, floored at 1. A
    row takes the path it takes alone, so each grid's trajectory is the
    one it has solved on its own, bit for bit. Returns, per grid, its
    DiscreteTrajectory or the exception that ended it: a
    SolveAbortedError, with the partial trajectory, for a step that failed
    or whose witness or gap is out of bounds, or the error of its step's
    row."""
    u0 = as_state(u0, model.dim)
    d = model.dim
    U = [np.zeros((g.N + 1, d)) for g in grids]
    xi = [np.zeros((g.N + 1, d)) for g in grids]
    gaps = [np.zeros(g.N + 1) for g in grids]
    energies = [np.zeros(g.N + 1) for g in grids]
    witnesses = [np.zeros(g.N + 1) for g in grids]
    status: List[List[Dict]] = [[{"method": "initial"}] for _ in grids]
    for k in range(len(grids)):
        U[k][0] = u0
        energies[k][0] = energy_value(model, 0.0, u0)
    L0 = [1.0] * len(grids)
    out: List = [None] * len(grids)

    def abort(k, n, msg, m, cause=None):
        out[k] = SolveAbortedError(msg, partial=DiscreteTrajectory(
            model=model, psi=psi, grid=grids[k], opts=opts,
            U=U[k][:m + 1].copy(), xi=xi[k][:m + 1].copy(),
            gaps=gaps[k][:m + 1].copy(), energies=energies[k][:m + 1].copy(),
            witnesses=witnesses[k][:m + 1].copy(),
            inner_status=status[k][:m + 1]), step_index=n)
        out[k].__cause__ = cause

    for n in range(1, max(g.N for g in grids) + 1):
        ks = [k for k, g in enumerate(grids) if out[k] is None and n <= g.N]
        if not ks:
            break
        rows = _steps(model, psi, np.array([U[k][n - 1] for k in ks]),
                      [grids[k].t(n) for k in ks], [grids[k].tau for k in ks],
                      opts, [L0[k] for k in ks])
        for k, row in zip(ks, rows):
            if isinstance(row, StepFailureError):
                abort(k, n, f"step {n} (t={grids[k].t(n)}) failed: {row}",
                      n - 1, row)
                continue
            if isinstance(row, Exception):
                out[k] = row
                continue
            (U[k][n], xi[k][n], gaps[k][n], st, energies[k][n],
             witnesses[k][n]) = row
            status[k].append(st)
            L0[k] = max(1.0, st.get("L", 1.0) / 2.0)
            if not witnesses[k][n] <= WITNESS_TOL:
                abort(k, n, f"step {n}: minimality witness "
                            f"{witnesses[k][n]:.3e} is not <= "
                            f"{WITNESS_TOL}", n)
            elif not math.isfinite(gaps[k][n]):
                abort(k, n, f"step {n}: Fenchel-Young gap "
                            f"{gaps[k][n]:.3e} of the selected "
                            f"multiplier is not finite", n)
    for k, g in enumerate(grids):
        if out[k] is None:
            out[k] = DiscreteTrajectory(
                model=model, psi=psi, grid=g, opts=opts, U=U[k], xi=xi[k],
                gaps=gaps[k], energies=energies[k], witnesses=witnesses[k],
                inner_status=status[k])
    return out


def ladder_fault(model: EnergyModel, T: float, ladder
                 ) -> Optional[Tuple[int, str]]:
    """The scheme's step rule on a nonempty tau ladder (one step is the
    ladder of one): every step satisfies 0 < tau <= T, the first is below
    the model's tau_o, and the ladder is strictly decreasing. Returns None
    when the ladder keeps it, else (i, reason) for the step that breaks it,
    checked in that order: the first step out of range, then a first step
    at or above tau_o, then the first step not below its predecessor."""
    for i, tau in enumerate(ladder):
        if not 0.0 < tau <= T:
            return i, f"must satisfy 0 < tau <= T={T}"
    tau_o = model.constants.tau_o
    if not ladder[0] < tau_o:
        return 0, f"must be below tau_o={tau_o} of {model.name}"
    for i in range(1, len(ladder)):
        if not ladder[i] < ladder[i - 1]:
            return i, "ladder must be strictly decreasing"
    return None


def solve(model: EnergyModel, psi, u0, grid: TimeGrid,
          opts: Optional[SolveOptions] = None) -> DiscreteTrajectory:
    """Run the scheme over the whole grid: the one-grid case of the
    lockstep of _solve_grids, so each step is a one-row _steps call. A
    grid whose tau breaks ladder_fault's rule raises RangeError; step
    failures abort with the partial trajectory attached. Each n-D step
    starts its inner solver at U_{n-1}, with L at half the L the previous
    step ended with, floored at 1."""
    fault = ladder_fault(model, grid.T, [grid.tau])
    if fault is not None:
        raise RangeError(f"grid tau={grid.tau} {fault[1]}")
    traj = _solve_grids(model, psi, u0, [grid], opts or SolveOptions())[0]
    if isinstance(traj, Exception):
        raise traj
    return traj


# ---------------------------------------------------------------------------
# interpolants


def _locate(grid: TimeGrid, t):
    """(n, r) for t in [0, t_N] +- 1e-12 tau: t in (t_{n-1}, t_n] gives n and
    r = t - t_{n-1}, t = 0 gives (0, 0.0); as arrays of t's shape."""
    tau, N = grid.tau, grid.N
    lo, hi = -1e-12 * tau, grid.t(N) + 1e-12 * tau
    t = np.asarray(t, dtype=float)
    inside = (t >= lo) & (t <= hi)
    if not inside.all():
        raise RangeError(f"time {t[~inside].flat[0]} outside [0, {grid.t(N)}]")
    n = np.where(t > 0.0, np.clip(np.ceil(t / tau - 1e-9), 1, N), 0)
    n = n.astype(np.intp)
    return n, np.where(n > 0, t - (n - 1) * tau, 0.0)


def slope_multiplier(model: EnergyModel, p, t, u) -> np.ndarray:
    """The r -> 0 limit multiplier of the variational interpolant: the
    subdifferential candidate minimizing the conjugate Psi_u*(-xi) under
    the frozen potential p of the rows, picked by _first_least. Times
    t[b] and the rows of a (B, d) array give the (B, d) array of
    multipliers, with the candidates of every row one conjugate call; one
    state is the case B = 1."""
    def rows(t, U, p):
        owner, C = _candidates(model, t, U)
        return C[_first_least(owner, potentials.conjugate(p[owner], -C))]
    return potentials.row_call(rows, list(t), as_state(u, model.dim), p)


def de_giorgi_interpolant(traj: DiscreteTrajectory, t):
    """Variational interpolant at t in (0, t_N], or at every time of an
    array t: the minimizer U of the shrunken-step problem of t's step n
    (step r = t - t_{n-1} from U_{n-1}, energy frozen at t) under
    traj.opts, its multiplier xi, r, and E(t, U) as the solve computed it.
    An array of k times gives (k, d), (k, d), (k,) and (k,) arrays. At
    nodes it returns the stored step data exactly.

    The samples off the nodes are the rows of one _steps call, which
    batches them in blocks of at most ROW_BLOCK, whatever the potential.
    Every n-D row starts at
    U_{n-1} with L = 1. The first failing sample, in the order of t,
    decides the error: a stalled inner solve raises SolveAbortedError
    naming its step and time, any other error is raised as it is."""
    grid = traj.grid
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    n, r = _locate(grid, ts)
    if not n.all():
        raise RangeError(f"time {ts[n == 0][0]} outside (0, {grid.t(traj.N)}]")
    node = np.abs(r - grid.tau) <= 1e-12 * grid.tau
    r[node] = grid.tau
    U, xi, E = traj.U[n], traj.xi[n], traj.energies[n]
    b = np.flatnonzero(~node)
    for i, row in zip(b, _steps(traj.model, traj.psi, traj.U[n[b] - 1],
                                ts[b], r[b], traj.opts, [1.0] * len(b))):
        if isinstance(row, StepFailureError):
            raise SolveAbortedError(
                f"interpolant solve at t={float(ts[i])} failed: {row}",
                step_index=int(n[i])) from row
        if isinstance(row, Exception):
            raise row
        U[i], xi[i], _, _, E[i], _ = row
    if np.ndim(t) == 0:
        return U[0], xi[0], float(r[0]), float(E[0])
    return U, xi, r, E


def linear_interpolant(traj: DiscreteTrajectory, t) -> np.ndarray:
    """The piecewise-linear interpolant of the nodes U_n."""
    n, r = _locate(traj.grid, t)
    th = np.expand_dims(r / traj.grid.tau, -1)
    # in place: an array of times holds two (times, d) arrays at most
    out = traj.U.take(np.maximum(n - 1, 0), axis=0)
    out *= 1.0 - th
    nxt = traj.U.take(n, axis=0)
    nxt *= th
    out += nxt
    return out
