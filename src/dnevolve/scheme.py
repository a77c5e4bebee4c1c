"""Incremental minimization time stepping and interpolants.

Each step solves

    U_n  in  Argmin_U  tau Psi_{U_{n-1}}((U - U_{n-1}) / tau) + E(t_n, U)

and extracts the multiplier xi_n from the model's subdifferential candidates
by minimal Fenchel-Young gap against the rate v_n = (U_n - U_{n-1}) / tau,
so that -xi_n lies in dPsi(v_n) up to the inner tolerance.

Inner minimization: in dimension 1, a 513-point scan of the coercivity box
(bounded via the superlinearity of Psi and the energy lower bound C0) with
bounded-Brent refinement of every local basin and a final stationarity
polish; in higher dimension, deterministic multi-start proximal gradient
with backtracking, the 1-homogeneous part of Psi handled by its exact
proximal map (soft-thresholding around the previous state). Global
optimality is certified only by the multi-start budget; the solver records
its budget in inner_status.

The De Giorgi variational interpolant reuses the same step solver with a
shrunken step r = t - t_{n-1} and energy frozen at time t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
# numpy loads numpy.random lazily, on first use; every n-D step draws its
# multistart points from it, so load it with the package instead
import numpy.random  # noqa: F401

from . import _optim, potentials
from .energy import (EnergyModel, energy_value, envelope_derivative_1d)
from .errors import (RangeError, SolveAbortedError, StepFailureError,
                     SubdifferentialUnavailableError)
from .potentials import as_state

SCAN_POINTS = 513
MULTISTARTS = 8          # for 2 <= d <= 16
MULTISTARTS_LARGE = 4    # above d = 16 the start budget is halved
TRIAGE_ITERS = 60
TRIAGE_TOL_SCALE = 1e-3
MAX_REFINE_ITERS = 20000
WITNESS_TOL = 1e-12
# eps_inner = EPS_INNER_SCALE * (1 + |E(t_n, U_{n-1})|) is both the
# prox-residual target and the gap certification scale
EPS_INNER_SCALE = 1e-10
QUAD_M = 8               # left-Riemann sub-samples per step (step_inequality)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_n = n tau, N = ceil(T / tau), so t_N >= T."""

    T: float
    tau: float

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise RangeError(f"TimeGrid requires T > 0; got {self.T}")
        if not (0.0 < self.tau <= self.T):
            raise RangeError(f"TimeGrid requires 0 < tau <= T; got tau={self.tau}")

    @property
    def N(self) -> int:
        return int(math.ceil(self.T / self.tau - 1e-12))

    def t(self, n: int) -> float:
        return n * self.tau

    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.tau


@dataclass(frozen=True)
class SolveOptions:
    """The per-run settings of a config: seed drives the multistart points
    of the n-D inner solver, and eps_quad is the interval-inequality budget
    (None resolves to 1e-6 * (1 + E(0, u0))). The inner tolerance and the
    quadrature sample count are the constants EPS_INNER_SCALE and QUAD_M."""

    seed: int = 0
    eps_quad: Optional[float] = None


@dataclass
class DiscreteTrajectory:
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


def _solve_1d(model, p, u_prev, t_n, tau, opts):
    """Scan + refine + stationarity polish. Returns (U, status)."""
    x_prev = float(u_prev[0])
    e_prev = energy_value(model, t_n, u_prev)
    R = _coercivity_radius(p, tau, e_prev - model.constants.C0)
    blo, bhi = model.domain_box
    lo = max(x_prev - R, float(blo[0]))
    hi = min(x_prev + R, float(bhi[0]))
    if not lo < hi:
        lo, hi = float(blo[0]), float(bhi[0])

    batch = getattr(model, "value_batch_1d", None)

    def phi_batch(us):
        us = np.asarray(us, dtype=float)
        vs = (us - x_prev) / tau
        pen = tau * np.asarray(p.scalar(vs), dtype=float)
        if batch is not None:
            ene = batch(t_n, us)
        else:
            ene = np.array([model.value(t_n, np.array([x])) for x in us])
        return pen + ene

    def phi(x):
        return float(phi_batch(np.array([x]))[0])

    x_best, f_best, basins = _optim.scan_min(
        phi, lo, hi, SCAN_POINTS, xtol=1e-13, f_batched=phi_batch)

    def dphi(x):
        v = (x - x_prev) / tau
        return (potentials.scalar_derivative(p, v)
                + envelope_derivative_1d(model, t_n, np.array([x])))

    spacing = (hi - lo) / (SCAN_POINTS - 1)
    polished = False
    x_pol = _optim.polish_root(dphi, x_best, 2.0 * spacing)
    if x_pol != x_best and lo <= x_pol <= hi:
        f_pol = phi(x_pol)
        # objective values sit on a float plateau around the optimum; a
        # couple of ulps of slack lets the machine-accurate stationary
        # point through (a sign-flipped local max is ulps worse, never)
        if f_pol <= f_best + 4e-16 * (1.0 + abs(f_best)):
            x_best, f_best, polished = x_pol, f_pol, True

    status = {"method": "scan1d", "basins": len(basins), "polished": polished}
    return np.array([x_best]), status


def _soft(z, thresh):
    return np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)


def _prox_grad(model, p, u_prev, t_n, tau, x0, box, rho_hat, tol, max_iters,
               L0=1.0):
    """Monotone proximal gradient from x0. Returns (x, phi, residual, iters, L)."""
    lo, hi = box

    def g_val(x):
        v = (x - u_prev) / tau
        return (tau * float(np.sum(p.smooth_scalar(v)))
                + float(model.value(t_n, x)))

    def g_grad(x):
        v = (x - u_prev) / tau
        return np.asarray(p.smooth_scalar_grad(v), dtype=float) + model.grad(t_n, x)

    def h_val(x):
        return rho_hat * float(np.sum(np.abs(x - u_prev)))

    L = L0
    x = np.clip(x0, lo, hi)
    gx = g_val(x)
    grad = g_grad(x)
    residual = np.inf
    it = 0
    while it < max_iters:
        it += 1
        decreased = False
        while True:
            step = 1.0 / L
            z = x - step * grad
            x_new = np.clip(u_prev + _soft(z - u_prev, step * rho_hat), lo, hi)
            dx = x_new - x
            nrm2 = float(np.dot(dx, dx))
            if nrm2 == 0.0:
                break
            g_new = g_val(x_new)
            decreased = g_new <= gx + float(np.dot(grad, dx)) \
                + 0.5 * L * nrm2 + 1e-15 * (1.0 + abs(gx))
            if decreased:
                break
            L *= 2.0
            if L > 1e18:
                break
        if nrm2 == 0.0:
            residual = 0.0
            break
        if not decreased:
            # backtracking gave up: x_new failed sufficient decrease, so
            # keep x and the residual of its last accepted step
            break
        residual = L * math.sqrt(nrm2)
        x, gx = x_new, g_new
        grad = g_grad(x)
        if residual <= tol:
            break
    return x, gx + h_val(x), residual, it, L


def _solve_nd(model, p, u_prev, t_n, tau, opts):
    """Deterministic multi-start proximal gradient with triage: every start
    runs to a coarse tolerance, the best is refined to eps_inner."""
    d = u_prev.shape[0]
    e_prev = energy_value(model, t_n, u_prev)
    eps_inner = EPS_INNER_SCALE * (1.0 + abs(e_prev))
    R = _coercivity_radius(p, tau, e_prev - model.constants.C0)
    blo, bhi = model.domain_box
    lo = np.maximum(u_prev - R, blo)
    hi = np.minimum(u_prev + R, bhi)
    # tau * rho ||(U - u_prev)/tau||_1 = rho ||U - u_prev||_1, so the prox
    # threshold is step * rho regardless of tau
    rho_hat = p.one_hom

    n_starts = MULTISTARTS if d <= 16 else MULTISTARTS_LARGE
    rng = np.random.default_rng(_step_seed(opts, t_n, tau))
    alt = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    starts = [u_prev.copy(),
              u_prev + 0.25 * R * np.ones(d),
              u_prev - 0.25 * R * np.ones(d),
              u_prev + 0.25 * R * alt]
    while len(starts) < n_starts:
        starts.append(lo + rng.random(d) * (hi - lo))
    starts = starts[:n_starts]

    triage_tol = TRIAGE_TOL_SCALE * (1.0 + abs(e_prev))
    total_iters = 0
    best = None
    L_carry = 1.0
    for x0 in starts:
        x, f, res, it, L = _prox_grad(model, p, u_prev, t_n, tau, x0,
                                      (lo, hi), rho_hat, triage_tol,
                                      TRIAGE_ITERS, L0=L_carry)
        L_carry = max(1.0, L / 2.0)
        total_iters += it
        if best is None or f < best[1]:
            best = (x, f)
    x, f, res, it, L = _prox_grad(model, p, u_prev, t_n, tau, best[0],
                                  (lo, hi), rho_hat, eps_inner,
                                  MAX_REFINE_ITERS, L0=L_carry)
    total_iters += it
    if res > eps_inner:
        raise StepFailureError(
            f"inner solver stalled at prox-residual {res:.3e} "
            f"(target {eps_inner:.3e}) after {total_iters} iterations",
            best_state=x, best_gap=None, step_index=None)
    status = {"method": "proxgrad", "starts": n_starts,
              "iterations": total_iters, "prox_residual": res}
    return x, status


# ---------------------------------------------------------------------------
# steps and solves


def _select_multiplier(model, p, v, t_n, U, tol):
    """Gap-minimal multiplier among the model's candidates at (t_n, U);
    ties go to the lexicographically smallest xi."""
    cands = model.subdiff(t_n, U, tol)
    if not cands:
        raise SubdifferentialUnavailableError(
            f"{model.name} returned no subgradient candidates at t={t_n}")
    cands = sorted((np.asarray(c, dtype=float).reshape(U.shape[0])
                    for c in cands), key=lambda c: tuple(c))
    best_xi, best_gap = None, np.inf
    for c in cands:
        gap = potentials.fenchel_young_gap(p, None, v, -c)
        if gap < best_gap:
            best_xi, best_gap = c, gap
    return best_xi, float(best_gap)


def incremental_step(model: EnergyModel, psi, u_prev, t_n: float, tau: float,
                     opts: Optional[SolveOptions] = None):
    """One incremental minimization step; returns (U_n, xi_n, gap, status).

    Also usable as the variational interpolant solve by passing the
    intermediate time as t_n and the shrunken step as tau.
    """
    opts = opts or SolveOptions()
    if not 0.0 < tau < model.constants.tau_o:
        raise RangeError(
            f"step tau={tau} outside (0, tau_o={model.constants.tau_o}) "
            f"of {model.name}")
    u_prev = as_state(u_prev, model.dim)
    p = psi.at_state(u_prev)
    if model.dim == 1:
        U, status = _solve_1d(model, p, u_prev, t_n, tau, opts)
    else:
        U, status = _solve_nd(model, p, u_prev, t_n, tau, opts)

    # the previous state is always an admissible competitor; taking it when
    # it is no worse keeps the minimality witness nonpositive by construction
    v = (U - u_prev) / tau
    obj = tau * p.value(v) + energy_value(model, t_n, U)
    e_prev = energy_value(model, t_n, u_prev)
    if obj > e_prev:
        U = u_prev.copy()
        v = np.zeros_like(u_prev)
        status = dict(status, fell_back_to_prev=True)

    xi, gap = _select_multiplier(model, p, v, t_n, U, tol=None)
    return U, xi, gap, status


def solve(model: EnergyModel, psi, u0, grid: TimeGrid,
          opts: Optional[SolveOptions] = None) -> DiscreteTrajectory:
    """Run the scheme over the whole grid; step failures abort with the
    partial trajectory attached."""
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

    for n in range(1, N + 1):
        t_n = grid.t(n)
        try:
            Un, xin, gap, st = incremental_step(model, psi, U[n - 1], t_n,
                                                grid.tau, opts)
        except StepFailureError as err:
            raise SolveAbortedError(
                f"step {n} (t={t_n}) failed: {err}",
                partial=partial(n - 1), step_index=n) from err
        p = psi.at_state(U[n - 1])
        v = (Un - U[n - 1]) / grid.tau
        obj = grid.tau * p.value(v) + energy_value(model, t_n, Un)
        e_prev_now = energy_value(model, t_n, U[n - 1])
        U[n] = Un
        xi[n] = xin
        gaps[n] = gap
        energies[n] = energy_value(model, t_n, Un)
        witnesses[n] = obj - e_prev_now
        status.append(st)
        if witnesses[n] > WITNESS_TOL:
            raise SolveAbortedError(
                f"step {n}: minimality witness {witnesses[n]:.3e} exceeds "
                f"{WITNESS_TOL}", partial=partial(n), step_index=n)
    return DiscreteTrajectory(
        model=model, psi=psi, grid=grid, opts=opts, U=U, xi=xi, gaps=gaps,
        energies=energies, witnesses=witnesses, inner_status=status)


# ---------------------------------------------------------------------------
# interpolants


def _locate(grid: TimeGrid, t: float) -> Tuple[int, float]:
    """Interval index n with t in (t_{n-1}, t_n], and r = t - t_{n-1}."""
    if not 0.0 < t <= grid.t(grid.N) + 1e-12 * grid.tau:
        raise RangeError(f"time {t} outside (0, {grid.t(grid.N)}]")
    n = int(math.ceil(t / grid.tau - 1e-9))
    n = min(max(n, 1), grid.N)
    return n, t - grid.t(n - 1)


def slope_multiplier(model: EnergyModel, psi, t: float, u) -> np.ndarray:
    """The r -> 0 limit multiplier of the variational interpolant: the
    subdifferential candidate minimizing the conjugate Psi_u*(-xi)."""
    u = as_state(u, model.dim)
    p = psi.at_state(u)
    cands = model.subdiff(t, u, None)
    if not cands:
        raise SubdifferentialUnavailableError(
            f"{model.name} returned no subgradient candidates at t={t}")
    cands = sorted((np.asarray(c, dtype=float).reshape(model.dim)
                    for c in cands), key=lambda c: tuple(c))
    vals = [potentials.conjugate(p, None, -c) for c in cands]
    return cands[int(np.argmin(vals))]


def de_giorgi_interpolant(traj: DiscreteTrajectory, t: float,
                          opts: Optional[SolveOptions] = None):
    """Variational interpolant at t in (0, T]: minimizer of the shrunken-step
    problem, its multiplier, and r = t - t_{n-1}. At nodes it returns the
    stored step data exactly."""
    opts = opts or traj.opts
    n, r = _locate(traj.grid, t)
    if abs(r - traj.grid.tau) <= 1e-12 * traj.grid.tau:
        return traj.U[n].copy(), traj.xi[n].copy(), traj.grid.tau
    U, xi, gap, _ = incremental_step(traj.model, traj.psi, traj.U[n - 1], t, r,
                                     opts)
    return U, xi, r


@dataclass(frozen=True)
class InterpolantSampler:
    """Piecewise samplers of a trajectory on [0, t_N]."""

    traj: DiscreteTrajectory

    def _n_left(self, t: float) -> int:
        g = self.traj.grid
        if not -1e-12 * g.tau <= t <= g.t(g.N) + 1e-12 * g.tau:
            raise RangeError(f"time {t} outside [0, {g.t(g.N)}]")
        if t <= 0.0:
            return 0
        n, _ = _locate(g, t)
        return n

    def left_constant(self, t: float) -> np.ndarray:
        """U_n on (t_{n-1}, t_n]; U_0 at t = 0."""
        n = self._n_left(t)
        return self.traj.U[n].copy()

    def right_constant(self, t: float) -> np.ndarray:
        """U_{n-1} on [t_{n-1}, t_n); U_N at t = t_N."""
        g = self.traj.grid
        n = self._n_left(t)
        if n == 0:
            return self.traj.U[0].copy()
        # exactly at a node the right-continuous interpolant has already
        # jumped; strictly inside the interval it still shows U_{n-1}
        if abs(t - g.t(n)) <= 1e-12 * g.tau:
            return self.traj.U[n].copy()
        return self.traj.U[n - 1].copy()

    def linear(self, t: float) -> np.ndarray:
        g = self.traj.grid
        n = self._n_left(t)
        if n == 0:
            return self.traj.U[0].copy()
        th = (t - g.t(n - 1)) / g.tau
        return (1.0 - th) * self.traj.U[n - 1] + th * self.traj.U[n]

    def linear_rate(self, t: float) -> np.ndarray:
        """The difference quotient on the interval containing t (the left
        interval's rate exactly at nodes)."""
        n = max(self._n_left(t), 1)
        return self.traj.rate(n)


def interpolants(traj: DiscreteTrajectory) -> InterpolantSampler:
    return InterpolantSampler(traj)
