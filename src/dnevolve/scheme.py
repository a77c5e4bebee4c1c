"""Incremental minimization time stepping and interpolants.

Each step solves

    U_n  in  Argmin_U  tau Psi_{U_{n-1}}((U - U_{n-1}) / tau) + E(t_n, U)

and extracts the multiplier xi_n from the model's subdifferential candidates
by minimal Fenchel-Young gap against the rate v_n = (U_n - U_{n-1}) / tau,
so that -xi_n lies in dPsi(v_n) up to the inner tolerance. A step
evaluates E(t_n, U_{n-1}) once, for the inner solver and the minimality
witness, and hands the witness back to solve with E(t_n, U_n).

Inner minimization: in dimension 1, a 513-point scan of the coercivity box
(bounded via the superlinearity of Psi and the energy lower bound C0) with
bounded-Brent refinement of every local basin and a final stationarity
polish, for many step problems at once: B rows under one frozen potential
are one (B, 513) scan, one lockstep Brent over every basin of every row
and row-batched multiplier selection, and a step of solve is the row
batch with B = 1; in higher dimension, proximal gradient with
backtracking (a step must pass sufficient decrease and a curvature test
on the gradient difference), the 1-homogeneous part of Psi handled by its
exact proximal map (soft-thresholding around the previous state). Its
step size 1/L adapts both ways: a failed trial doubles L, and an
iteration accepted at its first trial halves L, floored at 1, when its
step also passes both tests at L/2 (Nesterov's adaptive composite
gradient step, Math. Program. 2013, sec. 4). Within solve, each step starts at half the L the previous
step ended with, floored at 1; every other solve, the interpolants'
included, starts at L = 1. Global optimality is certified by strong
convexity where it can be proven: when
mu = Psi.modulus(R / tau) / tau + lambda_E > 0 on the coercivity box of
radius R, with lambda_E the energy's declared (and audited) semiconvexity,
the step problem has one minimizer and every stationary point is it, so
one start suffices and is refined directly, with no triage. Within solve,
from step 2 on, that start is whichever of U_{n-1} and the prediction
2 U_{n-1} - U_{n-2}, clipped to the box, has the lower step objective;
the interpolant solves start at U_{n-1}, so they depend on the stored
trajectory alone. Otherwise optimality is certified only by a
deterministic multi-start budget around U_{n-1}: every start runs to a
coarse tolerance (triage) and the best is refined. The solver records
mu, its start count, its start ("previous" or "predictor"), its trial
count and its final L in inner_status.

The De Giorgi interpolant reuses the step solver (step r = t - t_{n-1},
energy frozen at t). Given the trajectory its samples are independent, so
an array of times is one problem: the d = 1 samples whose steps share a
frozen potential are one row batch of that solver, and it hands back
E(t, U) as the solve computed it. The piecewise-linear interpolant also
takes arrays of times.
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
from .potentials import _soft, as_state

SCAN_POINTS = 513
# rows per 1-D batch of interpolant samples: bounds the (rows, SCAN_POINTS)
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


def _prox_grad(model, p, u_prev, t_n, tau, x0, box, rho_hat, tol, max_iters,
               L0=1.0, trial_counts=None):
    """Monotone proximal gradient from x0. Returns (x, phi, residual, iters, L)
    and appends its trial count to the list trial_counts, if one is given.

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
    energy = model.at_time(t_n)
    # np.add.reduce is ndarray.sum without its Python frame: the same sum
    add = np.add.reduce

    def g_eval(x, w):
        v = w / tau
        e, e_grad = energy(x)
        return (tau * float(add(p.smooth_scalar(v))) + float(e),
                lambda: p.smooth_scalar_grad(v) + e_grad())

    # np.minimum(np.maximum(.)) is np.clip without its Python wrapper frames
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
                u_prev + _soft(w - step * grad, step * rho_hat), lo), hi)
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
                # near the optimum the decrease falls below float resolution
                # and the value test passes on roundoff alone; the gradient
                # difference does not (Becker, Candes and Grant 2011, sec. 5)
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
            # backtracking gave up: no x_new passed both tests, so keep x
            # and the residual of its last accepted step
            break
        residual = L * math.sqrt(nrm2)
        x, w, gx, grad = x_new, w_new, g_new, grad_new
        if residual <= tol:
            break
        if (first_trial and curv <= 0.5 * L * nrm2
                and g_new <= lin + 0.25 * L * nrm2 + slack):
            L = max(1.0, L / 2.0)
    if trial_counts is not None:
        trial_counts.append(trials)
    return x, gx + rho_hat * float(add(np.abs(w))), residual, it, L


def _solve_nd(model, p, u_prev, t_n, tau, e_prev, opts, L0=1.0, x_pred=None):
    """Proximal gradient to eps_inner from one start, or with triage over
    several. A step problem proven strongly convex on the box (mu > 0) has
    one minimizer, so one start suffices and needs no triage: u_prev, or
    the predicted state x_pred clipped to the box when its step objective
    is lower. Any other step gets the deterministic multi-start budget,
    built around u_prev: every start runs to a coarse tolerance and the
    best is refined. The first call begins at L = L0, each later one at
    half the L its predecessor ended with."""
    d = u_prev.shape[0]
    eps_inner = EPS_INNER_SCALE * (1.0 + abs(e_prev))
    R = _coercivity_radius(p, tau, e_prev - model.constants.C0)
    blo, bhi = model.domain_box
    lo = np.maximum(u_prev - R, blo)
    hi = np.minimum(u_prev + R, bhi)
    # tau * rho ||(U - u_prev)/tau||_1 = rho ||U - u_prev||_1, so the prox
    # threshold is step * rho regardless of tau
    rho_hat = p.one_hom

    # mu bounds the Hessian of the step objective from below on the box,
    # where every rate has |v_i| <= R / tau; for mu > 0 the objective is
    # strongly convex, so its stationary point is the global minimizer
    lam = model.semiconvexity
    mu = None if lam is None else p.modulus(R / tau) / tau + lam
    total_iters = 0
    L_carry = L0
    trials: List[int] = []
    start = "previous"
    if mu is not None and mu > 0.0:
        # the start changes only the path to the one minimizer; u_prev's
        # step objective is e_prev, since Psi(0) = 0
        n_starts, x0 = 1, u_prev
        if x_pred is not None:
            xp = np.minimum(np.maximum(x_pred, lo), hi)
            if (tau * p.value((xp - u_prev) / tau) + model.value(t_n, xp)
                    < e_prev):
                x0, start = xp, "predictor"
    else:
        n_starts = MULTISTARTS if d <= 16 else MULTISTARTS_LARGE
        rng = np.random.default_rng(_step_seed(opts, t_n, tau))
        alt = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
        starts = [u_prev.copy(),
                  u_prev + 0.25 * R * np.ones(d),
                  u_prev - 0.25 * R * np.ones(d),
                  u_prev + 0.25 * R * alt]
        while len(starts) < n_starts:
            starts.append(lo + rng.random(d) * (hi - lo))
        triage_tol = TRIAGE_TOL_SCALE * (1.0 + abs(e_prev))
        best = None
        for x0 in starts:
            x, f, res, it, L = _prox_grad(model, p, u_prev, t_n, tau, x0,
                                          (lo, hi), rho_hat, triage_tol,
                                          TRIAGE_ITERS, L_carry, trials)
            L_carry = max(1.0, L / 2.0)
            total_iters += it
            if best is None or f < best[1]:
                best = (x, f)
        x0 = best[0]
    x, f, res, it, L = _prox_grad(model, p, u_prev, t_n, tau, x0,
                                  (lo, hi), rho_hat, eps_inner,
                                  MAX_REFINE_ITERS, L_carry, trials)
    total_iters += it
    if res > eps_inner:
        raise StepFailureError(
            f"inner solver stalled at prox-residual {res:.3e} "
            f"(target {eps_inner:.3e}) after {total_iters} iterations")
    status = {"method": "proxgrad", "starts": n_starts, "start": start,
              "mu": mu, "iterations": total_iters, "trials": sum(trials),
              "prox_residual": res, "L": L}
    return x, status


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
                       u_prev, U, e_prev: float) -> Tuple[float, float]:
    """(E(t_n, U), witness) for the step from u_prev to U under the frozen
    potential p, given e_prev = E(t_n, u_prev), with witness =
    tau p((U - u_prev) / tau) + E(t_n, U) - e_prev: the objective of U
    minus that of the competitor u_prev, so a minimizer has witness <= 0."""
    v = (U - u_prev) / tau
    e = energy_value(model, t_n, U)
    obj = tau * p.value(v) + e
    return e, obj - e_prev


def _check_step(model: EnergyModel, tau: float) -> None:
    if not 0.0 < tau < model.constants.tau_o:
        raise RangeError(
            f"step tau={tau} outside (0, tau_o={model.constants.tau_o}) "
            f"of {model.name}")


def _finish_steps(model, p, u_prev, t, tau, U, e_prev, status):
    """Rows b of solved steps from u_prev[b] to U[b] at (t[b], tau[b]): the
    minimality witness against u_prev[b], which replaces U[b] when it is
    no worse, and the gap-minimal multiplier. Returns (U, xi, gap, status,
    energy, witness): row arrays, and the list of row statuses."""
    B = len(status)
    energy, witness = np.empty(B), np.empty(B)
    for b in range(B):
        energy[b], witness[b] = minimality_witness(model, p, t[b], tau[b],
                                                   u_prev[b], U[b], e_prev[b])
        # the previous state is always an admissible competitor; taking it
        # when it is no worse keeps the witness nonpositive by construction
        if witness[b] > 0.0:
            U[b], energy[b], witness[b] = u_prev[b], e_prev[b], 0.0
            status[b] = dict(status[b], fell_back_to_prev=True)
    v = (U - u_prev) / np.asarray(tau)[:, None]
    xi, gap = _select_multiplier(model, p, v, t, U)
    return U, xi, gap, status, energy, witness


def _steps_1d(model, p, u_prev, t, tau):
    """B d = 1 steps under one frozen potential p, row b from u_prev[b] (of
    the (B, 1) array u_prev) at time t[b] with step tau[b], solved as one
    row batch; returns the rows of _finish_steps."""
    e_prev = [energy_value(model, tb, ub) for tb, ub in zip(t, u_prev)]
    U, status = _solve_1d(model, p, u_prev, t, tau, e_prev)
    return _finish_steps(model, p, u_prev, t, tau, U, e_prev, status)


def incremental_step(model: EnergyModel, psi, u_prev, t_n: float, tau: float,
                     opts: Optional[SolveOptions] = None, L0: float = 1.0,
                     x_pred=None):
    """One incremental minimization step; returns (U_n, xi_n, gap, status,
    E(t_n, U_n), witness), with U_n = U_{n-1} and witness 0 when the inner
    solver's result is worse than U_{n-1}. L0 is the first step size
    constant of the n-D inner solver, and x_pred, if given, a predicted
    state it may start a strongly convex step from instead of U_{n-1}
    (see _solve_nd); neither changes the minimizer, only the path to it.
    A d = 1 step is the one-row case of the row batch that
    de_giorgi_interpolant solves its samples with.
    """
    opts = opts or SolveOptions()
    _check_step(model, tau)
    u_prev = as_state(u_prev, model.dim)
    p = psi.at_state(u_prev)
    if model.dim == 1:
        rows = _steps_1d(model, p, u_prev[None], np.array([t_n], dtype=float),
                         np.array([tau], dtype=float))
    else:
        e_prev = energy_value(model, t_n, u_prev)
        U, status = _solve_nd(model, p, u_prev, t_n, tau, e_prev, opts, L0,
                              x_pred)
        rows = _finish_steps(model, p, u_prev[None], [t_n], [tau], U[None],
                             [e_prev], [status])
    U, xi, gap, status, energy, witness = rows
    return (U[0], xi[0], float(gap[0]), status[0], float(energy[0]),
            float(witness[0]))


def solve(model: EnergyModel, psi, u0, grid: TimeGrid,
          opts: Optional[SolveOptions] = None) -> DiscreteTrajectory:
    """Run the scheme over the whole grid; step failures abort with the
    partial trajectory attached. Each n-D step starts its inner solver at
    half the L the previous step ended with, floored at 1, and from step 2
    on offers it the linear prediction 2 U_{n-1} - U_{n-2} as a start."""
    opts = opts or SolveOptions()
    if not grid.tau < model.constants.tau_o:
        raise RangeError(
            f"grid tau={grid.tau} must be below tau_o={model.constants.tau_o} "
            f"of {model.name}")
    u0 = as_state(u0, model.dim)
    N = grid.N
    d = model.dim
    U = np.zeros((N + 1, d))
    xi = np.zeros((N + 1, d))
    gaps = np.zeros(N + 1)
    energies = np.zeros(N + 1)
    witnesses = np.zeros(N + 1)
    status: List[Dict] = [{"method": "initial"}]
    U[0] = u0
    energies[0] = energy_value(model, 0.0, u0)

    def partial(n):
        return DiscreteTrajectory(
            model=model, psi=psi, grid=grid, opts=opts,
            U=U[:n + 1].copy(), xi=xi[:n + 1].copy(), gaps=gaps[:n + 1].copy(),
            energies=energies[:n + 1].copy(),
            witnesses=witnesses[:n + 1].copy(), inner_status=status[:n + 1])

    L0 = 1.0
    for n in range(1, N + 1):
        t_n = grid.t(n)
        x_pred = 2.0 * U[n - 1] - U[n - 2] if n >= 2 and d > 1 else None
        try:
            (U[n], xi[n], gaps[n], st, energies[n],
             witnesses[n]) = incremental_step(model, psi, U[n - 1], t_n,
                                              grid.tau, opts, L0, x_pred)
        except StepFailureError as err:
            raise SolveAbortedError(
                f"step {n} (t={t_n}) failed: {err}",
                partial=partial(n - 1), step_index=n) from err
        status.append(st)
        L0 = max(1.0, st.get("L", 1.0) / 2.0)
        if not witnesses[n] <= WITNESS_TOL:
            raise SolveAbortedError(
                f"step {n}: minimality witness {witnesses[n]:.3e} is not "
                f"<= {WITNESS_TOL}", partial=partial(n), step_index=n)
        if not math.isfinite(gaps[n]):
            raise SolveAbortedError(
                f"step {n}: Fenchel-Young gap {gaps[n]:.3e} of the selected "
                f"multiplier is not finite", partial=partial(n), step_index=n)
    return DiscreteTrajectory(
        model=model, psi=psi, grid=grid, opts=opts, U=U, xi=xi, gaps=gaps,
        energies=energies, witnesses=witnesses, inner_status=status)


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

    The d = 1 times whose steps share a frozen potential are solved as one
    row batch, in blocks of at most ROW_BLOCK rows: all of a trajectory's
    under a state-independent potential, one step's under a
    state-dependent one. n-D times are solved one by one. A failed solve
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
    failed = None
    if model.dim == 1:
        frozen, batches = {}, {}
        for b in np.flatnonzero(~node):
            if n[b] not in frozen:
                frozen[n[b]] = traj.psi_at(n[b])
            batches.setdefault(frozen[n[b]], []).append(b)
        for p, rows in batches.items():
            for i in range(0, len(rows), ROW_BLOCK):
                b = np.array(rows[i:i + ROW_BLOCK])
                for h in r[b]:
                    _check_step(model, h)
                try:
                    U[b], xi[b], _, _, E[b], _ = _steps_1d(
                        model, p, traj.U[n[b] - 1], ts[b], r[b])
                except StepFailureError as err:
                    if failed is None or b[0] < failed[0]:
                        failed = (b[0], err)
    else:
        for b in np.flatnonzero(~node):
            try:
                U[b], xi[b], _, _, E[b], _ = incremental_step(
                    model, traj.psi, traj.U[n[b] - 1], float(ts[b]),
                    float(r[b]), traj.opts)
            except StepFailureError as err:
                failed = (b, err)
                break
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
