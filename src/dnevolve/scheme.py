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
polish; in higher dimension, proximal gradient with backtracking (a step
must pass sufficient decrease and a curvature test on the gradient
difference), the 1-homogeneous part of Psi handled by its exact proximal
map (soft-thresholding around the previous state). Its step size 1/L
adapts both ways: a failed trial doubles L, and an iteration accepted at
its first trial halves L, floored at 1 (Nesterov's adaptive composite
gradient step, Math. Program. 2013, sec. 4). Global optimality is
certified by strong convexity where it can be proven: when
mu = Psi.modulus(R / tau) / tau + lambda_E > 0 on the coercivity box of
radius R, with lambda_E the energy's declared (and audited) semiconvexity,
the step problem has one minimizer and every stationary point is it, so
one start from U_{n-1} suffices. Otherwise it is certified only by a
deterministic multi-start budget. The solver records mu and its start
count in inner_status.

The De Giorgi interpolant reuses the step solver (step r = t - t_{n-1},
energy frozen at t); the piecewise interpolants also take arrays of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _optim, potentials
from .energy import EnergyModel, energy_value
from .errors import (RangeError, SolveAbortedError, StepFailureError,
                     SubdifferentialUnavailableError)
from .potentials import _soft, as_state

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
    quadrature sample count are EPS_INNER_SCALE and diagnostics.QUAD_M."""

    seed: int = 0
    eps_quad: Optional[float] = None


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


def _solve_1d(model, p, u_prev, t_n, tau, e_prev):
    """Scan + refine + stationarity polish. Returns (U, status)."""
    x_prev = float(u_prev[0])
    R = _coercivity_radius(p, tau, e_prev - model.constants.C0)
    blo, bhi = model.domain_box
    lo = max(x_prev - R, float(blo[0]))
    hi = min(x_prev + R, float(bhi[0]))
    if not lo < hi:
        lo, hi = float(blo[0]), float(bhi[0])

    def phi_batch(us):
        vs = (us - x_prev) / tau
        return (tau * np.asarray(p.scalar(vs), dtype=float)
                + model.value_batch_1d(t_n, us))

    def phi(x):
        return float(phi_batch(np.array([x]))[0])

    x_best, f_best, basins = _optim.scan_min(
        phi, phi_batch, lo, hi, SCAN_POINTS, xtol=1e-13)

    def dphi(x):
        v = (x - x_prev) / tau
        return (potentials.scalar_derivative(p, v)
                + model.derivative_1d(t_n, x))

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


def _prox_grad(model, p, u_prev, t_n, tau, x0, box, rho_hat, tol, max_iters,
               L0=1.0):
    """Monotone proximal gradient from x0. Returns (x, phi, residual, iters, L).

    Step size 1/L, adaptive both ways (Nesterov 2013, sec. 4): a trial
    point that fails the value or the curvature test doubles L, up to
    1e18; an iteration accepted at its first trial halves L afterwards,
    floored at 1, so one stiff iterate does not fix a small step for the
    rest of the solve. The residual L ||x_new - x|| uses the accepted L."""
    lo, hi = box

    def g_val(x):
        v = (x - u_prev) / tau
        return (tau * float(p.smooth_scalar(v).sum())
                + float(model.value(t_n, x)))

    def g_grad(x):
        v = (x - u_prev) / tau
        return np.asarray(p.smooth_scalar_grad(v), dtype=float) + model.grad(t_n, x)

    def h_val(x):
        return rho_hat * float(np.abs(x - u_prev).sum())

    # np.minimum(np.maximum(.)) is np.clip without its Python wrapper frames
    L = L0
    x = np.minimum(np.maximum(x0, lo), hi)
    gx = g_val(x)
    grad = g_grad(x)
    residual = np.inf
    it = 0
    while it < max_iters:
        it += 1
        accepted = False
        first_trial = True
        while True:
            step = 1.0 / L
            z = x - step * grad
            x_new = np.minimum(
                np.maximum(u_prev + _soft(z - u_prev, step * rho_hat), lo), hi)
            dx = x_new - x
            nrm2 = float(np.dot(dx, dx))
            if nrm2 == 0.0:
                break
            g_new = g_val(x_new)
            if g_new <= gx + float(np.dot(grad, dx)) \
                    + 0.5 * L * nrm2 + 1e-15 * (1.0 + abs(gx)):
                # near the optimum the decrease falls below float resolution
                # and the value test passes on roundoff alone; the gradient
                # difference does not (Becker, Candes and Grant 2011, sec. 5)
                grad_new = g_grad(x_new)
                accepted = float(np.dot(grad_new - grad, dx)) <= L * nrm2
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
        x, gx, grad = x_new, g_new, grad_new
        if residual <= tol:
            break
        if first_trial:
            L = max(1.0, L / 2.0)
    return x, gx + h_val(x), residual, it, L


def _solve_nd(model, p, u_prev, t_n, tau, e_prev, opts):
    """Proximal gradient with triage: every start runs to a coarse
    tolerance, the best is refined to eps_inner. A step problem proven
    strongly convex on the box (mu > 0) has one start, u_prev; any other
    gets the deterministic multi-start budget."""
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
    if mu is not None and mu > 0.0:
        starts = [u_prev.copy()]
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
            f"(target {eps_inner:.3e}) after {total_iters} iterations")
    status = {"method": "proxgrad", "starts": len(starts), "mu": mu,
              "iterations": total_iters, "prox_residual": res}
    return x, status


# ---------------------------------------------------------------------------
# steps and solves


def _candidates(model, t, u) -> List[np.ndarray]:
    """The model's subdifferential candidates at (t, u), in lexicographic
    order, so that ties between them go to the smallest."""
    cands = model.subdiff(t, u)
    if not cands:
        raise SubdifferentialUnavailableError(
            f"{model.name} returned no subgradient candidates at t={t}")
    return sorted((np.asarray(c, dtype=float).reshape(model.dim)
                   for c in cands), key=tuple)


def _select_multiplier(model, p, v, t_n, U):
    """Gap-minimal multiplier among the model's candidates at (t_n, U);
    ties go to the lexicographically smallest xi."""
    best_xi, best_gap = None, np.inf
    for c in _candidates(model, t_n, U):
        gap = potentials.fenchel_young_gap(p, v, -c)
        if gap < best_gap:
            best_xi, best_gap = c, gap
    return best_xi, float(best_gap)


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


def incremental_step(model: EnergyModel, psi, u_prev, t_n: float, tau: float,
                     opts: Optional[SolveOptions] = None):
    """One incremental minimization step; returns (U_n, xi_n, gap, status,
    E(t_n, U_n), witness), with U_n = U_{n-1} and witness 0 when the inner
    solver's result is worse than U_{n-1}.

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
    e_prev = energy_value(model, t_n, u_prev)
    if model.dim == 1:
        U, status = _solve_1d(model, p, u_prev, t_n, tau, e_prev)
    else:
        U, status = _solve_nd(model, p, u_prev, t_n, tau, e_prev, opts)

    # the previous state is always an admissible competitor; taking it when
    # it is no worse keeps the minimality witness nonpositive by construction
    energy, witness = minimality_witness(model, p, t_n, tau, u_prev, U,
                                         e_prev)
    if witness > 0.0:
        U, energy, witness = u_prev.copy(), e_prev, 0.0
        status = dict(status, fell_back_to_prev=True)
    v = (U - u_prev) / tau

    xi, gap = _select_multiplier(model, p, v, t_n, U)
    return U, xi, gap, status, energy, witness


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
            (U[n], xi[n], gaps[n], st, energies[n],
             witnesses[n]) = incremental_step(model, psi, U[n - 1], t_n,
                                              grid.tau, opts)
        except StepFailureError as err:
            raise SolveAbortedError(
                f"step {n} (t={t_n}) failed: {err}",
                partial=partial(n - 1), step_index=n) from err
        status.append(st)
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
    cands = _candidates(model, t, u)
    vals = [potentials.conjugate(p, -c) for c in cands]
    return cands[int(np.argmin(vals))]


def de_giorgi_interpolant(traj: DiscreteTrajectory, t: float):
    """Variational interpolant at t in (0, T]: minimizer of the shrunken-step
    problem under traj.opts, its multiplier, and r = t - t_{n-1}. At nodes
    it returns the stored step data exactly."""
    n, r = _locate(traj.grid, t)
    if n == 0:
        raise RangeError(f"time {t} outside (0, {traj.grid.t(traj.N)}]")
    if abs(r - traj.grid.tau) <= 1e-12 * traj.grid.tau:
        return traj.U[n].copy(), traj.xi[n].copy(), traj.grid.tau
    U, xi = incremental_step(traj.model, traj.psi, traj.U[n - 1], t, r,
                             traj.opts)[:2]
    return U, xi, r


def left_constant_interpolant(traj: DiscreteTrajectory, t) -> np.ndarray:
    """U_n on (t_{n-1}, t_n]; U_0 at t = 0."""
    n, _ = _locate(traj.grid, t)
    return traj.U.take(n, axis=0)


def right_constant_interpolant(traj: DiscreteTrajectory, t) -> np.ndarray:
    """U_{n-1} on [t_{n-1}, t_n); U_N at t = t_N."""
    n, r = _locate(traj.grid, t)
    # at a node (the test of de_giorgi_interpolant) it has jumped to U_n
    at_node = abs(r - traj.grid.tau) <= 1e-12 * traj.grid.tau
    return traj.U[np.where(at_node, n, np.maximum(n - 1, 0))]


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


def interpolant_rate(traj: DiscreteTrajectory, t) -> np.ndarray:
    """The rate of the interval holding t: the left one's at nodes."""
    n, _ = _locate(traj.grid, t)
    return traj.rate(np.maximum(n, 1))
