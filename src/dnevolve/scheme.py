"""Incremental minimization time stepping and interpolants.

Each step solves

    U_n  in  Argmin_U  tau Psi_{U_{n-1}}((U - U_{n-1}) / tau) + E(t_n, U)

and extracts the multiplier xi_n from the model's subdifferential candidates
by minimal Fenchel-Young gap against the rate v_n = (U_n - U_{n-1}) / tau,
so that -xi_n lies in dPsi(v_n) up to the inner tolerance. A step
evaluates E(t_n, U_{n-1}) once, for the inner solver and the minimality
witness, and hands the witness back to solve with E(t_n, U_n).

Inner minimization, for B step problems at once under one frozen
potential, each row with its own previous state, time and step; a single
step is the case B = 1. In dimension 1, a 513-point scan of the
coercivity box (bounded via the superlinearity of Psi and the energy
lower bound C0) with bounded-Brent refinement of every local basin and a
final stationarity polish: the rows are one (B, 513) scan, one lockstep
Brent over every basin of every row and row-batched multiplier
selection. In higher dimension, proximal gradient with backtracking (a
step must pass sufficient decrease and a curvature test on the gradient
difference), the 1-homogeneous part of Psi handled by its exact proximal
map (soft-thresholding around the previous state), run on all rows in
lockstep: each round evaluates one trial point of every unfinished row in
one grid-kernel call, and every row takes exactly the trial points of its
own solve. Its step size 1/L adapts both ways: a failed trial doubles L,
and an iteration accepted at its first trial halves L, floored at 1, when
its step also passes both tests at L/2 (Nesterov's adaptive composite
gradient step, Math. Program. 2013, sec. 4). Within solve, each step
starts at half the L the previous step of its grid ended with, floored at
1; every other solve, the interpolants' included, starts at L = 1.
Global optimality is certified by strong convexity where it can be
proven: when mu = Psi.modulus(R / tau) / tau + lambda_E > 0 on the
coercivity box of radius R, with lambda_E the energy's declared (and
audited) semiconvexity, the step problem has one minimizer and every
stationary point is it, so one start suffices and is refined directly,
with no triage. Within solve, from step 2 on, that start is whichever of
U_{n-1} and the prediction 2 U_{n-1} - U_{n-2}, clipped to the box, has
the lower step objective; the interpolant solves start at U_{n-1}, so
they depend on the stored trajectory alone. Otherwise optimality is
certified only by a deterministic multi-start budget around U_{n-1}:
every start runs to a coarse tolerance (triage) and the best is refined;
start k of every such row is one row call. The solver records mu, its
start count, its start ("previous" or "predictor"), its trial count and
its final L in inner_status.

Several grids are solved in lockstep (_solve_grids, which refinement
studies use): round n takes step n of every grid that has one, as rows of
one batch, and solve is the case of one grid.

The De Giorgi interpolant reuses the step solver (step r = t - t_{n-1},
energy frozen at t). Given the trajectory its samples are independent, so
an array of times is one problem: the samples whose steps share a frozen
potential are rows of one batch of that solver, and it hands back E(t, U)
as the solve computed it. The piecewise-linear interpolant also takes
arrays of times.
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
# rows per batch of interpolant samples: bounds the 1-D (rows, SCAN_POINTS)
# scan and the marginal layer's (rows, 1025) safety grid
ROW_BLOCK = 64
MULTISTARTS = 8          # for 2 <= d <= 16
MULTISTARTS_LARGE = 4    # above d = 16 the start budget is halved
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

    def rate(self, n: int) -> np.ndarray:
        return (self.U[n] - self.U[n - 1]) / self.grid.tau

    def psi_at(self, n: int) -> potentials.DissipationPotential:
        """The frozen potential Psi_{U_{n-1}} governing step n."""
        return self.psi.at_state(self.U[n - 1])


def _step_seed(opts: SolveOptions, t_n: float, tau: float):
    """Deterministic per-step seed, stable across runs and ladder rows."""
    tb = int(np.float64(t_n).view(np.int64))
    rb = int(np.float64(tau).view(np.int64))
    return (opts.seed, tb & 0xFFFFFFFF, tb >> 32, rb & 0xFFFFFFFF, rb >> 32)


# ---------------------------------------------------------------------------
# inner solvers


def _coercivity_radius(p, tau: float, budget: float) -> float:
    r = potentials.rate_bound_radius(p, tau, max(budget, 0.0) * (1.0 + 1e-9) + 1e-12)
    return 1.0000001 * r


def _solve_1d(model, p, u_prev, t, tau, e_prev):
    """Scan + refine + stationarity polish of B d = 1 step problems at once,
    all under the frozen potential p: row b minimizes
    tau[b] p((x - u_prev[b]) / tau[b]) + E(t[b], x) over its coercivity
    interval, given e_prev[b] = E(t[b], u_prev[b]). The 513-point scans of
    all rows are one (B, 513) array, one lockstep bounded Brent refines
    every basin of every row, and each row's minimizer is polished on its
    own. u_prev is (B, 1), the others have length B. Returns (U, statuses)
    with U of shape (B, 1); a step of solve is the case B = 1."""
    x_prev = u_prev[:, 0]
    B = x_prev.shape[0]
    blo, bhi = (float(x[0]) for x in model.domain_box)
    lo, hi = np.empty(B), np.empty(B)
    for b in range(B):
        R = _coercivity_radius(p, tau[b], e_prev[b] - model.constants.C0)
        lo[b], hi[b] = max(x_prev[b] - R, blo), min(x_prev[b] + R, bhi)
        if not lo[b] < hi[b]:
            lo[b], hi[b] = blo, bhi

    def phi(x, rows):
        h = tau[rows]
        return (h * np.asarray(p.scalar((x - x_prev[rows]) / h), dtype=float)
                + model.value_batch_1d(t[rows], x))

    x_best, f_best, basins = _optim.scan_min(phi, lo, hi, SCAN_POINTS,
                                             xtol=1e-13)

    def dphi(x, b):
        v = (x - x_prev[b]) / tau[b]
        return (potentials.scalar_derivative(p, v)
                + model.derivative_1d(t[b], x))

    spacing = (hi - lo) / (SCAN_POINTS - 1)
    x_pol = np.array([_optim.polish_root(lambda x: dphi(x, b), x_best[b],
                                         2.0 * spacing[b])
                      for b in range(B)])
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


def _prox_grad(model, p, u_prev, t, tau, x0, box, rho_hat, tol, max_iters,
               L0):
    """Monotone proximal gradient for B step problems under the frozen
    potential p, solved in lockstep: row b minimizes
    tau[b] p((x - u_prev[b]) / tau[b]) + E(t[b], x) over its box
    (lo[b], hi[b]), from x0[b], to the prox residual tol[b], with step
    size 1/L from L = L0[b]; p's l1 part, of weight rho_hat, enters
    through its proximal map. u_prev, x0, lo and hi are (B, d) arrays,
    t, tau, tol and L0 are sequences of B floats, and max_iters >= 1
    bounds every row's iterations. Returns (x, phi, residual, iters, L,
    its, trials, energy): the (B, d) array x, the lists phi, residual and
    L of each row's final objective value (its l1 part included),
    residual and L, the summed iteration count iters, the lists its and
    trials of each row's iterations and trial points, and the list of
    each row's E(t[b], x[b]), which is energy_value's bit for bit.

    Every row takes the trial points, iterations and L of its own solve
    with B = 1, bit for bit: each round evaluates one trial point of every
    unfinished row, all of them in one at_times call, and runs each row's
    tests on Python floats (np.vecdot gives np.dot per row, and
    np.add.reduce along the rows' axis the 1-D sum). A row that finishes
    leaves the arrays.

    Step size 1/L, adaptive both ways (Nesterov 2013, sec. 4): a trial
    point that fails the value or the curvature test doubles L, up to
    1e18. An iteration accepted at its first trial halves L afterwards,
    floored at 1, so one stiff iterate does not fix a small step for the
    rest of the solve; it halves only when its step also passes both
    tests at L/2, where a halving would likely buy a failed trial. That
    look-ahead is free: the value slack and the gradient pairing of the
    step are at hand. Each trial point is evaluated once, its gradient
    reusing the rate and the energy's grid work. The iterate is carried
    with its displacement w = x - u_prev, which gives the prox argument
    and the rate. The residual L ||x_new - x|| uses the accepted L."""
    lo, hi = box
    B, d = u_prev.shape
    # np.add.reduce is ndarray.sum without its Python frame: the same sum;
    # np.minimum(np.maximum(.)) is np.clip without its wrapper frames
    add, dot, lower, upper = np.add.reduce, np.vecdot, np.maximum, np.minimum
    smooth, smooth_grad = p.smooth_scalar, p.smooth_scalar_grad
    # per row, by its index b: Python floats and counters
    L = list(L0)
    res, phi = [math.inf] * B, [0.0] * B
    its, trials = [1] * B, [0] * B
    first = [True] * B
    # the arrays of the unfinished rows, whose indices rows lists. tau and
    # the step 1/L of each row fill its row: operands of the states' shape
    # cost numpy less than columns
    rows = list(range(B))
    up, blo, bhi = u_prev, lo, hi
    taus = tau
    tw = np.array(tau)[:, None].repeat(d, 1)
    energy = model.at_times(t)

    def g_eval(x, w):
        v = w / tw
        e, e_grad = energy(x)
        sm = add(smooth(v), 1).tolist()
        return ([h * a + eb for h, a, eb in zip(taus, sm, e)], e,
                lambda: smooth_grad(v) + e_grad())

    x = upper(lower(x0, lo), hi)
    w = x - u_prev
    gx, ex, grad = g_eval(x, w)
    grad = grad()
    x_out = None
    # the prox threshold of each row; a row whose L changes is set again
    step = (1.0 / np.array(L))[:, None].repeat(d, 1)
    thresh = step * rho_hat
    neg_thresh = -thresh

    def set_L(i, b, value):
        L[b] = value
        step[i] = 1.0 / value
        thresh[i] = step[i, 0] * rho_hat
        neg_thresh[i] = -thresh[i, 0]

    while rows:
        # _soft(z, thresh), its bounds computed with the step
        z = w - step * grad
        x_new = upper(lower(up + (z - upper(lower(z, neg_thresh), thresh)),
                            blo), bhi)
        dx = x_new - x
        nrm2 = dot(dx, dx).tolist()
        moved, done = [], []
        if not any(nrm2):
            # every row is at a fixed point of its prox step
            done = list(range(len(rows)))
            for b in rows:
                res[b] = 0.0
        else:
            w_new = x_new - up
            g_new, e_new, grad_at = g_eval(x_new, w_new)
            gd = dot(grad, dx).tolist()
            curv = None
            for i, b in enumerate(rows):
                n2, Lb, gb = nrm2[i], L[b], g_new[i]
                if n2 == 0.0:
                    res[b] = 0.0
                    done.append(i)
                    continue
                trials[b] += 1
                lin = gx[b] + gd[i]
                slack = 1e-15 * (1.0 + abs(gx[b]))
                if gb <= lin + 0.5 * Lb * n2 + slack:
                    # near the optimum the decrease falls below float
                    # resolution and the value test passes on roundoff
                    # alone; the gradient difference does not (Becker,
                    # Candes and Grant 2011, sec. 5)
                    if curv is None:
                        grad_new = grad_at()
                        curv = dot(grad_new - grad, dx).tolist()
                    c = curv[i]
                    if c <= Lb * n2:
                        res[b] = Lb * math.sqrt(n2)
                        gx[b], ex[b] = gb, e_new[i]
                        moved.append(i)
                        if res[b] <= tol[b]:
                            done.append(i)
                            continue
                        if (first[b] and c <= 0.5 * Lb * n2
                                and gb <= lin + 0.25 * Lb * n2 + slack):
                            set_L(i, b, max(1.0, Lb / 2.0))
                        if its[b] >= max_iters:
                            done.append(i)
                            continue
                        its[b] += 1
                        first[b] = True
                        continue
                set_L(i, b, Lb * 2.0)
                first[b] = False
                if L[b] > 1e18:
                    # backtracking gave up: no x_new passed both tests, so
                    # keep x and the residual of its last accepted step
                    done.append(i)
            if len(moved) == len(rows):
                x, w, grad = x_new, w_new, grad_new
            elif moved:
                x[moved], w[moved], grad[moved] = (
                    x_new[moved], w_new[moved], grad_new[moved])
        if not done:
            continue
        # the objective with its l1 part, from the carried displacement
        if len(done) == len(rows):
            l1 = add(np.abs(w), 1).tolist()
            if x_out is None:  # every row finishes at once
                x_out = x
            else:
                x_out[rows] = x
            for b, a in zip(rows, l1):
                phi[b] = gx[b] + rho_hat * a
            break
        if x_out is None:
            x_out = np.empty_like(x0)
        x_out[[rows[i] for i in done]] = x[done]
        for i, a in zip(done, add(np.abs(w[done]), 1).tolist()):
            phi[rows[i]] = gx[rows[i]] + rho_hat * a
        keep = [i for i in range(len(rows)) if i not in done]
        rows = [rows[i] for i in keep]
        x, w, grad = x[keep], w[keep], grad[keep]
        up, blo, bhi = up[keep], blo[keep], bhi[keep]
        taus, tw = [tau[b] for b in rows], tw[keep]
        step, thresh, neg_thresh = step[keep], thresh[keep], neg_thresh[keep]
        energy = model.at_times([t[b] for b in rows])
    return x_out, phi, res, sum(its), L, its, trials, ex


def _solve_nd(model, p, u_prev, t, tau, e_prev, opts, L0, x_pred):
    """Proximal gradient to eps_inner for B step problems under the frozen
    potential p: row b from u_prev[b] at time t[b] with step tau[b], given
    e_prev[b] = E(t[b], u_prev[b]); u_prev is (B, d), and t, tau and
    e_prev are lists of floats. A row proven strongly convex on its box
    (mu > 0) has one minimizer, so one start suffices and needs no
    triage: u_prev[b], or the predicted state x_pred[b] (x_pred is None or
    (B, d)) clipped to the box when its step objective is lower. Any other row gets the deterministic multi-start
    budget, built around u_prev[b]: every start runs to a coarse
    tolerance and the best is refined. A row's first prox-grad call
    begins at L = L0[b], each later one at half the L its predecessor
    ended with. Start k of every multi-start row is one _prox_grad row
    call, and the refinement of every row one more, so each row takes the
    path of its own solve. Returns (U, status, errors, energy) with
    errors[b] the StepFailureError of a row that missed eps_inner, else
    None, and energy[b] = E(t[b], U[b])."""
    B, d = u_prev.shape
    eps_inner = [EPS_INNER_SCALE * (1.0 + abs(e)) for e in e_prev]
    R = [_coercivity_radius(p, h, e - model.constants.C0)
         for h, e in zip(tau, e_prev)]
    blo, bhi = model.domain_box
    Rc = np.array(R)[:, None]
    lo = np.maximum(u_prev - Rc, blo)
    hi = np.minimum(u_prev + Rc, bhi)
    # tau * rho ||(U - u_prev)/tau||_1 = rho ||U - u_prev||_1, so the prox
    # threshold is step * rho regardless of tau
    rho_hat = p.one_hom

    # mu bounds the Hessian of the step objective from below on the box,
    # where every rate has |v_i| <= R / tau; for mu > 0 the objective is
    # strongly convex, so its stationary point is the global minimizer
    lam = model.semiconvexity
    mu = [None if lam is None else p.modulus(r / h) / h + lam
          for r, h in zip(R, tau)]
    convex = [m is not None and m > 0.0 for m in mu]
    multi = [b for b in range(B) if not convex[b]]
    x0 = u_prev.copy()
    start = ["previous"] * B
    if x_pred is not None:
        # the start changes only the path to the one minimizer; u_prev's
        # step objective is e_prev, since Psi(0) = 0
        xp = np.minimum(np.maximum(x_pred, lo), hi)
        for b in range(B):
            if convex[b] and (tau[b] * p.value((xp[b] - u_prev[b]) / tau[b])
                              + model.value(t[b], xp[b]) < e_prev[b]):
                x0[b], start[b] = xp[b], "predictor"
    L = [float(v) for v in L0]
    its, trials = [0] * B, [0] * B
    n_starts = MULTISTARTS if d <= 16 else MULTISTARTS_LARGE
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
            while len(row) < n_starts:
                row.append(lo[b] + rng.random(d) * (hi[b] - lo[b]))
            starts.append(row)
        triage_tol = [TRIAGE_TOL_SCALE * (1.0 + abs(e_prev[b]))
                      for b in multi]
        best = [None] * len(multi)
        for k in range(n_starts):
            x, f, _, _, Lk, itk, trk, _ = _prox_grad(
                model, p, u_prev[multi], [t[b] for b in multi],
                [tau[b] for b in multi], np.array([s[k] for s in starts]),
                (lo[multi], hi[multi]), rho_hat, triage_tol, TRIAGE_ITERS,
                [L[b] for b in multi])
            for i, b in enumerate(multi):
                L[b] = max(1.0, Lk[i] / 2.0)
                its[b] += itk[i]
                trials[b] += trk[i]
                if best[i] is None or f[i] < best[i][1]:
                    best[i] = (x[i], f[i])
        for i, b in enumerate(multi):
            x0[b] = best[i][0]
    x, _, res, _, L, itr, trr, energy = _prox_grad(
        model, p, u_prev, t, tau, x0, (lo, hi), rho_hat, eps_inner,
        MAX_REFINE_ITERS, L)
    status, errors = [], []
    for b in range(B):
        its[b] += itr[b]
        trials[b] += trr[b]
        errors.append(None if res[b] <= eps_inner[b] else StepFailureError(
            f"inner solver stalled at prox-residual {res[b]:.3e} "
            f"(target {eps_inner[b]:.3e}) after {its[b]} iterations"))
        status.append({"method": "proxgrad",
                       "starts": 1 if convex[b] else n_starts,
                       "start": start[b], "mu": mu[b], "iterations": its[b],
                       "trials": trials[b], "prox_residual": res[b],
                       "L": L[b]})
    return x, status, errors, energy


# ---------------------------------------------------------------------------
# steps and solves


def _candidates(model, t, U) -> List[List[np.ndarray]]:
    """The model's subdifferential candidates at each row (t[b], U[b]), each
    row's in lexicographic order, so that ties between them go to the
    smallest."""
    out = []
    for tb, cands in zip(t, model.subdiff_rows(t, U)):
        if not cands:
            raise SubdifferentialUnavailableError(
                f"{model.name} returned no subgradient candidates at t={tb}")
        out.append(sorted((np.asarray(c, dtype=float).reshape(model.dim)
                           for c in cands), key=tuple))
    return out


def _select_multiplier(model, p, v, t, U):
    """Each row's gap-minimal multiplier among the model's candidates at
    (t[b], U[b]), against the rate v[b]; ties go to the lexicographically
    smallest xi. Returns (xi, gap), of shapes (B, d) and (B,)."""
    xi = np.empty_like(U)
    gap = np.empty(U.shape[0])
    for b, cands in enumerate(_candidates(model, t, U)):
        best_xi, best_gap = None, np.inf
        for c in cands:
            g = potentials.fenchel_young_gap(p, v[b], -c)
            if g < best_gap:
                best_xi, best_gap = c, g
        xi[b], gap[b] = best_xi, best_gap
    return xi, gap


def minimality_witness(model: EnergyModel, p, t_n: float, tau: float,
                       u_prev, U, e_prev: float,
                       e: Optional[float] = None) -> Tuple[float, float]:
    """(E(t_n, U), witness) for the step from u_prev to U under the frozen
    potential p, given e_prev = E(t_n, u_prev), with witness =
    tau p((U - u_prev) / tau) + E(t_n, U) - e_prev: the objective of U
    minus that of the competitor u_prev, so a minimizer has witness <= 0.
    e, if given, is E(t_n, U) as energy_value computes it."""
    v = (U - u_prev) / tau
    if e is None:
        e = energy_value(model, t_n, U)
    obj = tau * p.value(v) + e
    return e, obj - e_prev


def _check_step(model: EnergyModel, tau: float) -> None:
    if not 0.0 < tau < model.constants.tau_o:
        raise RangeError(
            f"step tau={tau} outside (0, tau_o={model.constants.tau_o}) "
            f"of {model.name}")


def _finish_steps(model, p, u_prev, t, tau, U, e_prev, status,
                  e_solved=None):
    """Rows b of solved steps from u_prev[b] to U[b] at (t[b], tau[b]): the
    minimality witness against u_prev[b], which replaces U[b] when it is
    no worse, and the gap-minimal multiplier. e_solved, if given, lists
    E(t[b], U[b]) as the inner solver computed it. Returns (U, xi, gap,
    status, energy, witness): row arrays, and the list of row statuses."""
    B = len(status)
    energy, witness = np.empty(B), np.empty(B)
    for b in range(B):
        energy[b], witness[b] = minimality_witness(
            model, p, t[b], tau[b], u_prev[b], U[b], e_prev[b],
            None if e_solved is None else e_solved[b])
        # the previous state is always an admissible competitor; taking it
        # when it is no worse keeps the witness nonpositive by construction
        if witness[b] > 0.0:
            U[b], energy[b], witness[b] = u_prev[b], e_prev[b], 0.0
            status[b] = dict(status[b], fell_back_to_prev=True)
    v = (U - u_prev) / np.asarray(tau)[:, None]
    xi, gap = _select_multiplier(model, p, v, t, U)
    return U, xi, gap, status, energy, witness


def _steps(model, p, u_prev, t, tau, opts, L0, x_pred):
    """B steps under one frozen potential p, row b from u_prev[b] (of the
    (B, d) array u_prev) at time t[b] with step tau[b], solved as one row
    batch: by _solve_1d for d = 1, else by _solve_nd, whose rows start
    their prox-grad calls at L = L0[b] and may start from x_pred[b]
    (x_pred is None or (B, d); d = 1 reads neither). Returns (ok, rows,
    errors): errors[b] is row b's StepFailureError or None, ok lists the
    rows without one, and rows are the _finish_steps rows of those."""
    if model.dim == 1:
        # _solve_1d takes its rows' times and steps as arrays
        t, tau = np.asarray(t, dtype=float), np.asarray(tau, dtype=float)
    else:
        t, tau = [float(h) for h in t], [float(h) for h in tau]
    e_prev = [energy_value(model, tb, ub) for tb, ub in zip(t, u_prev)]
    if model.dim == 1:
        U, status = _solve_1d(model, p, u_prev, t, tau, e_prev)
        errors, energy = [None] * len(t), None
    else:
        U, status, errors, energy = _solve_nd(model, p, u_prev, t, tau,
                                              e_prev, opts, L0, x_pred)
    ok = [b for b, err in enumerate(errors) if err is None]
    if len(ok) < len(errors):
        u_prev, U = u_prev[ok], U[ok]
        t, tau, e_prev, status, energy = ([v[b] for b in ok] for v in (
            t, tau, e_prev, status, energy))
    return ok, _finish_steps(model, p, u_prev, t, tau, U, e_prev, status,
                             energy), errors


def incremental_step(model: EnergyModel, psi, u_prev, t_n: float, tau: float,
                     opts: Optional[SolveOptions] = None):
    """One incremental minimization step; returns (U_n, xi_n, gap, status,
    E(t_n, U_n), witness), with U_n = U_{n-1} and witness 0 when the inner
    solver's result is worse than U_{n-1}. It is the one-row case of the
    row batch that solve, refinement_study and de_giorgi_interpolant
    solve their steps with, and raises StepFailureError when the n-D
    inner solver misses its tolerance.
    """
    opts = opts or SolveOptions()
    _check_step(model, tau)
    u_prev = as_state(u_prev, model.dim)
    _, rows, errors = _steps(model, psi.at_state(u_prev), u_prev[None],
                             [t_n], [tau], opts, [1.0], None)
    if errors[0] is not None:
        raise errors[0]
    U, xi, gap, status, energy, witness = rows
    return (U[0], xi[0], float(gap[0]), status[0], float(energy[0]),
            float(witness[0]))


def _solve_grids(model: EnergyModel, psi, u0, grids: List[TimeGrid],
                 opts: SolveOptions) -> List:
    """Run the scheme on every grid of the list at once, in lockstep:
    round n takes step n of every grid that has one and has not failed,
    as rows of one _steps call per frozen potential, each row with its own
    time, step, L carry and prediction. Each n-D step starts its inner
    solver at half the L the previous step of its grid ended with, floored
    at 1, and from step 2 on offers it the linear prediction
    2 U_{n-1} - U_{n-2} as a start. A row takes the path it takes alone,
    so each grid's trajectory is the one it has solved on its own, bit for
    bit. Returns, per grid, its DiscreteTrajectory or the exception that
    ended it: a SolveAbortedError, with the partial trajectory, for a step
    that failed or whose witness or gap is out of bounds, or what its step
    raised. A batch that raises is retried row by row, so that only the
    grids whose own steps raise fail."""
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

    def partial(k, n):
        return DiscreteTrajectory(
            model=model, psi=psi, grid=grids[k], opts=opts,
            U=U[k][:n + 1].copy(), xi=xi[k][:n + 1].copy(),
            gaps=gaps[k][:n + 1].copy(), energies=energies[k][:n + 1].copy(),
            witnesses=witnesses[k][:n + 1].copy(),
            inner_status=status[k][:n + 1])

    def steps(p, ks, n):
        x_pred = (np.array([2.0 * U[k][n - 1] - U[k][n - 2] for k in ks])
                  if n >= 2 and d > 1 else None)
        return _steps(model, p, np.array([U[k][n - 1] for k in ks]),
                      [grids[k].t(n) for k in ks],
                      [grids[k].tau for k in ks], opts,
                      [L0[k] for k in ks], x_pred)

    def abort(k, n, msg, m, cause=None):
        out[k] = SolveAbortedError(msg, partial=partial(k, m), step_index=n)
        out[k].__cause__ = cause

    def fail(k, n, err):
        if isinstance(err, StepFailureError):
            abort(k, n, f"step {n} (t={grids[k].t(n)}) failed: {err}", n - 1,
                  err)
        else:
            out[k] = err

    for n in range(1, max(g.N for g in grids) + 1):
        groups: Dict = {}
        for k, g in enumerate(grids):
            if out[k] is None and n <= g.N:
                try:
                    p = psi.at_state(U[k][n - 1])
                except Exception as err:
                    fail(k, n, err)
                    continue
                groups.setdefault(p, []).append(k)
        batches = []
        for p, ks in groups.items():
            try:
                batches.append((ks, steps(p, ks, n)))
            except Exception as err:
                if len(ks) == 1:
                    fail(ks[0], n, err)
                    continue
                for k in ks:
                    try:
                        batches.append(([k], steps(p, [k], n)))
                    except Exception as err_k:
                        fail(k, n, err_k)
        for ks, (ok, rows, errors) in batches:
            for k, err in zip(ks, errors):
                if err is not None:
                    fail(k, n, err)
            for k, row in zip([ks[b] for b in ok], zip(*rows)):
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


def solve(model: EnergyModel, psi, u0, grid: TimeGrid,
          opts: Optional[SolveOptions] = None) -> DiscreteTrajectory:
    """Run the scheme over the whole grid: the one-grid case of the
    lockstep of _solve_grids, so each step is a row batch of one. Step
    failures abort with the partial trajectory attached. Each n-D step
    starts its inner solver at half the L the previous step ended with,
    floored at 1, and from step 2 on offers it the linear prediction
    2 U_{n-1} - U_{n-2} as a start."""
    opts = opts or SolveOptions()
    if not grid.tau < model.constants.tau_o:
        raise RangeError(
            f"grid tau={grid.tau} must be below tau_o={model.constants.tau_o} "
            f"of {model.name}")
    traj = _solve_grids(model, psi, u0, [grid], opts)[0]
    if isinstance(traj, Exception):
        raise traj
    return traj


# ---------------------------------------------------------------------------
# interpolants


def _locate(grid: TimeGrid, t):
    """(n, r) for t in [0, t_N] +- 1e-12 tau: t in (t_{n-1}, t_n] gives n and
    r = t - t_{n-1}, t = 0 gives (0, 0.0); arrays of times give arrays."""
    tau, N = grid.tau, grid.N
    lo, hi = -1e-12 * tau, grid.t(N) + 1e-12 * tau
    if isinstance(t, (int, float)) and lo <= t <= hi:  # no numpy calls
        if t <= 0.0:
            return 0, 0.0
        n = min(max(math.ceil(t / tau - 1e-9), 1), N)
        return n, t - grid.t(n - 1)
    t = np.asarray(t, dtype=float)
    inside = (t >= lo) & (t <= hi)
    if not inside.all():
        raise RangeError(f"time {t[~inside].flat[0]} outside [0, {grid.t(N)}]")
    n = np.where(t > 0.0, np.clip(np.ceil(t / tau - 1e-9), 1, N), 0)
    n = n.astype(np.intp)
    return n, np.where(n > 0, t - (n - 1) * tau, 0.0)


def slope_multiplier(model: EnergyModel, psi, t: float, u) -> np.ndarray:
    """The r -> 0 limit multiplier of the variational interpolant: the
    subdifferential candidate minimizing the conjugate Psi_u*(-xi)."""
    u = as_state(u, model.dim)
    p = psi.at_state(u)
    cands = _candidates(model, [t], u[None])[0]
    vals = [potentials.conjugate(p, -c) for c in cands]
    return cands[int(np.argmin(vals))]


def de_giorgi_interpolant(traj: DiscreteTrajectory, t):
    """Variational interpolant at t in (0, t_N], or at every time of an
    array t: the minimizer U of the shrunken-step problem of t's step n
    (step r = t - t_{n-1} from U_{n-1}, energy frozen at t) under
    traj.opts, its multiplier xi, r, and E(t, U) as the solve computed it.
    An array of k times gives (k, d), (k, d), (k,) and (k,) arrays. At
    nodes it returns the stored step data exactly.

    The times whose steps share a frozen potential are solved as one row
    batch, in blocks of at most ROW_BLOCK rows: all of a trajectory's
    under a state-independent potential, one step's under a
    state-dependent one. In n-D the block's rows are one lockstep
    proximal gradient where mu > 0 proves them strongly convex, and take
    the multi-start budget, start by start, otherwise. A failed solve
    raises SolveAbortedError naming the step and the time of the first
    failing sample."""
    grid, model = traj.grid, traj.model
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    n, r = _locate(grid, ts)
    if not n.all():
        raise RangeError(f"time {ts[n == 0][0]} outside (0, {grid.t(traj.N)}]")
    node = np.abs(r - grid.tau) <= 1e-12 * grid.tau
    r[node] = grid.tau
    U, xi, E = traj.U[n], traj.xi[n], traj.energies[n]
    frozen, batches = {}, {}
    for b in np.flatnonzero(~node):
        if n[b] not in frozen:
            frozen[n[b]] = traj.psi_at(n[b])
        batches.setdefault(frozen[n[b]], []).append(b)
    failed = None
    for p, rows in batches.items():
        for i in range(0, len(rows), ROW_BLOCK):
            b = np.array(rows[i:i + ROW_BLOCK])
            for h in r[b]:
                _check_step(model, h)
            try:
                ok, out, errors = _steps(model, p, traj.U[n[b] - 1], ts[b],
                                         r[b], traj.opts, [1.0] * len(b),
                                         None)
            except StepFailureError as err:
                # the block failed as a whole: name its first sample
                ok, errors = [], [err]
            for bb, err in zip(b, errors):
                if err is not None and (failed is None or bb < failed[0]):
                    failed = (bb, err)
            if ok:
                U[b[ok]], xi[b[ok]], _, _, E[b[ok]], _ = out
    if failed is not None:
        b, err = failed
        raise SolveAbortedError(
            f"interpolant solve at t={float(ts[b])} failed: {err}",
            step_index=int(n[b])) from err
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
