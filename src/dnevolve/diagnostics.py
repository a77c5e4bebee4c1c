"""Certification layer for discrete trajectories.

Everything here is a pure function of an immutable trajectory: Fenchel-Young
gap profiles, the discrete energy identity defect, chain-rule defects, the
node-interval upper energy estimate (with m-point left-Riemann interpolant
quadrature), and step-halving refinement studies.

Sign convention. The upper energy estimate reads

    sum tau [Psi(v_n) + Psi*(-xi_n)] + E(t, U(t))
        <= E(s, U(s)) + sum tau P_n,

and energy_identity_defect returns right side minus left side, so positive
means the estimate holds with slack and the identity itself fails by that
amount. All integrals are the scheme's native left-Riemann sums; with that
quadrature the defect is exactly -sum_n tau (chain_defect_n + gap_n), which
the test suite uses as a cross-check.

Certify once. The per-step integrands psi_n, conj_n, P_n and gap_n come
from one pass over the trajectory (_per_step_terms), returned as a frozen
StepTerms bundle. fenchel_young_profile, chain_rule_defects,
dissipation_integrals and energy_identity_defect accept it as `terms` and
build it themselves only when called without one; the CLI builds it, and
at most one step_inequality result, once per trajectory and hands both to
its checks and its report. Window sums stay slice sums over the bundle,
so every value is bitwise the one a standalone call returns. The repeated
eta-argmin queries of P_n, multiplier selection and the interpolant
samples are answered by the argmin memo of each marginal model (see
energy.argmin_set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import potentials
from .energy import energy_value, generalized_time_derivative
from .errors import RangeError
from .scheme import (QUAD_M, DiscreteTrajectory, SolveOptions, TimeGrid,
                     de_giorgi_interpolant, interpolants, slope_multiplier,
                     solve)


def _node_index(grid: TimeGrid, t: float) -> int:
    n = int(round(t / grid.tau))
    if not (0 <= n <= grid.N and abs(t - grid.t(n)) <= 1e-9 * grid.tau):
        raise RangeError(f"time {t} is not a node of the grid (tau={grid.tau})")
    return n


def resolve_eps_quad(traj: DiscreteTrajectory) -> float:
    if traj.opts.eps_quad is not None:
        return float(traj.opts.eps_quad)
    return 1e-6 * (1.0 + float(traj.energies[0]))


@dataclass(frozen=True)
class StepTerms:
    """tau-free per-step certificate integrands of one trajectory, entry 0 = 0:
    psi[n] = Psi(v_n), conj[n] = Psi*(-xi_n), P[n] = P(t_n, U_n, xi_n) and
    the Fenchel-Young gap[n] = psi[n] + conj[n] - <-xi_n, v_n>, with Psi the
    frozen potential of step n. The arrays are read-only."""

    psi: np.ndarray
    conj: np.ndarray
    P: np.ndarray
    gap: np.ndarray


def _per_step_terms(traj: DiscreteTrajectory) -> StepTerms:
    """The one certificate pass: every per-step integrand, in one loop."""
    N = traj.N
    psis = np.zeros(N + 1)
    conjs = np.zeros(N + 1)
    Ps = np.zeros(N + 1)
    gaps = np.zeros(N + 1)
    for n in range(1, N + 1):
        p = traj.psi_at(n)
        v = traj.rate(n)
        xi = -traj.xi[n]
        psi = p.value(v)
        conj = potentials.conjugate(p, None, xi)
        # the operands and order of potentials.fenchel_young_gap
        gaps[n] = psi + conj - float(np.dot(xi, v))
        psis[n] = psi
        conjs[n] = conj
        Ps[n] = generalized_time_derivative(traj.model, traj.grid.t(n),
                                            traj.U[n], traj.xi[n])
    for arr in (psis, conjs, Ps, gaps):
        arr.flags.writeable = False
    return StepTerms(psi=psis, conj=conjs, P=Ps, gap=gaps)


def fenchel_young_profile(traj: DiscreteTrajectory,
                          terms: Optional[StepTerms] = None) -> np.ndarray:
    """Recomputed gap_n per step (entry 0 is 0), independent of stored gaps."""
    if terms is None:
        terms = _per_step_terms(traj)
    return terms.gap.copy()


def chain_rule_constant(traj: DiscreteTrajectory) -> float:
    """Model-declared c_chain, else 10 (1 + C1 sup_n E(t_n, u0))."""
    declared = getattr(traj.model, "c_chain", None)
    if declared is not None:
        return float(declared)
    sup_e = max(energy_value(traj.model, traj.grid.t(n), traj.U[0])
                for n in range(traj.N + 1))
    return 10.0 * (1.0 + traj.model.constants.C1 * sup_e)


def chain_rule_defects(traj: DiscreteTrajectory,
                       terms: Optional[StepTerms] = None) -> np.ndarray:
    """defect_n = [E_n - E_{n-1}]/tau - <xi_n, v_n> - P_n (entry 0 is 0).

    Predicted >= -O(tau) along solutions; the pass threshold is
    -chain_rule_constant(traj) * tau.
    """
    N = traj.N
    tau = traj.grid.tau
    if terms is None:
        terms = _per_step_terms(traj)
    out = np.zeros(N + 1)
    for n in range(1, N + 1):
        de = (traj.energies[n] - traj.energies[n - 1]) / tau
        out[n] = de - float(np.dot(traj.xi[n], traj.rate(n))) - terms.P[n]
    return out


def _window(grid: TimeGrid, s: float, t: Optional[float]) -> Tuple[int, int]:
    t = grid.t(grid.N) if t is None else t
    i, j = _node_index(grid, s), _node_index(grid, t)
    if i > j:
        raise RangeError(f"window [{s}, {t}] is reversed")
    return i, j


def dissipation_integrals(traj: DiscreteTrajectory, s: float = 0.0,
                          t: Optional[float] = None,
                          terms: Optional[StepTerms] = None) -> Dict[str, float]:
    """Left-Riemann integrals of Psi(v), Psi*(-xi) and P over node window."""
    i, j = _window(traj.grid, s, t)
    if terms is None:
        terms = _per_step_terms(traj)
    tau = traj.grid.tau
    sl = slice(i + 1, j + 1)
    return {
        "dissipation_integral": float(tau * np.sum(terms.psi[sl])),
        "conjugate_dissipation_integral": float(tau * np.sum(terms.conj[sl])),
        "P_integral": float(tau * np.sum(terms.P[sl])),
    }


def energy_identity_defect(traj: DiscreteTrajectory, s: float = 0.0,
                           t: Optional[float] = None,
                           terms: Optional[StepTerms] = None) -> float:
    """Signed identity defect over the node window [s, t]; positive means
    the upper energy estimate holds with that much slack."""
    i, j = _window(traj.grid, s, t)
    if terms is None:
        terms = _per_step_terms(traj)
    tau = traj.grid.tau
    sl = slice(i + 1, j + 1)
    return float(traj.energies[i] - traj.energies[j]
                 + tau * np.sum(terms.P[sl])
                 - tau * np.sum(terms.psi[sl] + terms.conj[sl]))


# ---------------------------------------------------------------------------
# node-interval upper energy estimate


@dataclass(frozen=True)
class StepInequalityResult:
    """max_defects[n] = worst defect over the m sampled times in step n;
    end_defects[n] = defect at the right node (these telescope into the
    window estimate). Entry 0 of both is 0."""

    max_defects: np.ndarray
    end_defects: np.ndarray
    eps_quad: float
    m: int

    @property
    def worst(self) -> float:
        return float(np.max(self.max_defects))


def step_inequality(traj: DiscreteTrajectory, m: Optional[int] = None,
                    opts: Optional[SolveOptions] = None) -> StepInequalityResult:
    """Check, on every step, the interval estimate

        r Psi((U~(t) - U_{n-1}) / r) + Q_n(t) + E(t, U~(t))
            <= E(t_{n-1}, U_{n-1}) + R_n(t) + eps_quad

    at the m sample times t = t_{n-1} + k tau / m, k = 1..m, with Q_n, R_n
    the m-point left-Riemann sums of Psi*(-xi~) and P over the variational
    interpolant. The r = 0 sample uses the previous node state with the
    conjugate-minimal multiplier.
    """
    opts = opts or traj.opts
    m = QUAD_M if m is None else int(m)
    if m < 1:
        raise RangeError(f"quadrature sample count must be >= 1; got {m}")
    model, grid = traj.model, traj.grid
    tau = grid.tau
    eps_quad = resolve_eps_quad(traj)
    N = traj.N
    max_defects = np.zeros(N + 1)
    end_defects = np.zeros(N + 1)
    for n in range(1, N + 1):
        t0 = grid.t(n - 1)
        U0 = traj.U[n - 1]
        p = traj.psi_at(n)
        e0 = traj.energies[n - 1]

        # samples j = 0..m: state, multiplier, and absolute time
        states = [U0]
        xis = [slope_multiplier(model, traj.psi, t0, U0)]
        times = [t0]
        for j in range(1, m):
            tj = t0 + j * tau / m
            Uj, xij, _ = de_giorgi_interpolant(traj, tj, opts)
            states.append(Uj)
            xis.append(xij)
            times.append(tj)
        states.append(traj.U[n])
        xis.append(traj.xi[n])
        times.append(grid.t(n))

        conj_vals = [potentials.conjugate(p, None, -x) for x in xis[:m]]
        P_vals = [generalized_time_derivative(model, times[j], states[j],
                                              xis[j]) for j in range(m)]
        worst = -np.inf
        for k in range(1, m + 1):
            r = k * tau / m
            Q = (tau / m) * sum(conj_vals[:k])
            R = (tau / m) * sum(P_vals[:k])
            lhs = (r * p.value((states[k] - U0) / r)
                   + Q + energy_value(model, times[k], states[k]))
            defect = lhs - (e0 + R)
            worst = max(worst, defect)
            if k == m:
                end_defects[n] = defect
        max_defects[n] = worst
    return StepInequalityResult(max_defects=max_defects,
                                end_defects=end_defects,
                                eps_quad=eps_quad, m=m)


def window_upper_estimate_defect(traj: DiscreteTrajectory, s: float, t: float,
                                 result: Optional[StepInequalityResult] = None
                                 ) -> Tuple[float, float]:
    """Telescoped interval estimate over the node window [s, t]: returns
    (defect, budget) where budget = eps_quad times the step count (left-
    Riemann quadrature bias accumulates linearly in the window length, so
    the per-step budget scales with the number of steps)."""
    if result is None:
        result = step_inequality(traj)
    i, j = _window(traj.grid, s, t)
    defect = float(np.sum(result.end_defects[i + 1:j + 1]))
    return defect, result.eps_quad * max(j - i, 1)


# ---------------------------------------------------------------------------
# refinement studies


@dataclass
class RefinementRow:
    tau: float
    N: int
    status: str = "ok"
    energy_identity_defect: Optional[float] = None
    dissipation_integral: Optional[float] = None
    conjugate_dissipation_integral: Optional[float] = None
    P_integral: Optional[float] = None
    # pairwise columns, against the next (finer) row
    sup_interpolant_distance: Optional[float] = None
    dissipation_integral_diff: Optional[float] = None

    def to_dict(self) -> Dict:
        return dict(self.__dict__)


@dataclass
class RefinementTable:
    rows: List[RefinementRow]
    # the finest rung's trajectory, None when its solve failed
    finest: Optional[DiscreteTrajectory] = None

    def to_dicts(self) -> List[Dict]:
        return [r.to_dict() for r in self.rows]


def refinement_study(model, psi, u0, T: float, tau_ladder: Sequence[float],
                     opts: Optional[SolveOptions] = None) -> RefinementTable:
    """Solve on a strictly decreasing tau ladder and tabulate convergence
    surrogates: sup-distance of consecutive linear interpolants on a
    1024-point time grid, identity defects, dissipation-integral
    differences. A failed solve annotates its row and the study continues.
    The table keeps the finest rung's trajectory, so callers that need it
    do not solve it again.
    """
    ladder = [float(t) for t in tau_ladder]
    if not ladder:
        raise RangeError("tau ladder is empty")
    for a, b in zip(ladder, ladder[1:]):
        if not b < a:
            raise RangeError(f"tau ladder must be strictly decreasing; "
                             f"got {a} then {b}")
    if not ladder[0] < model.constants.tau_o:
        raise RangeError(f"ladder start {ladder[0]} must be below "
                         f"tau_o={model.constants.tau_o}")
    opts = opts or SolveOptions()

    rows: List[RefinementRow] = []
    trajs: List[Optional[DiscreteTrajectory]] = []
    for tau in ladder:
        grid = TimeGrid(T=T, tau=tau)
        row = RefinementRow(tau=tau, N=grid.N)
        try:
            traj = solve(model, psi, u0, grid, opts)
        except Exception as err:  # annotate and continue, per contract
            row.status = f"solve failed: {err}"
            trajs.append(None)
            rows.append(row)
            continue
        terms = _per_step_terms(traj)
        row.energy_identity_defect = energy_identity_defect(traj, terms=terms)
        ints = dissipation_integrals(traj, terms=terms)
        row.dissipation_integral = ints["dissipation_integral"]
        row.conjugate_dissipation_integral = ints["conjugate_dissipation_integral"]
        row.P_integral = ints["P_integral"]
        trajs.append(traj)
        rows.append(row)

    times = np.linspace(0.0, T, 1024)
    for i in range(len(rows) - 1):
        if trajs[i] is None or trajs[i + 1] is None:
            continue
        si, sj = interpolants(trajs[i]), interpolants(trajs[i + 1])
        dist = max(float(np.linalg.norm(si.linear(t) - sj.linear(t)))
                   for t in times)
        rows[i].sup_interpolant_distance = dist
        rows[i].dissipation_integral_diff = abs(
            rows[i].dissipation_integral - rows[i + 1].dissipation_integral)
    return RefinementTable(rows=rows, finest=trajs[-1])


# ---------------------------------------------------------------------------
# assembled report


@dataclass
class DiagnosticsReport:
    per_step: List[Dict]
    overall: Dict
    refinement: Optional[List[Dict]] = None

    def to_dict(self) -> Dict:
        out = {"per_step": self.per_step, "global": self.overall}
        if self.refinement is not None:
            out["refinement"] = self.refinement
        return out


def build_report(traj: DiscreteTrajectory,
                 windows: Sequence[Tuple[float, float]] = (),
                 refinement: Optional[RefinementTable] = None,
                 terms: Optional[StepTerms] = None,
                 ineq: Optional[StepInequalityResult] = None,
                 c_chain: Optional[float] = None) -> DiagnosticsReport:
    """Per-step and global diagnostics. `terms` and `c_chain` are this
    trajectory's _per_step_terms and chain_rule_constant results when the
    caller has them, else computed here. Per-step step-inequality defects
    are reported from `ineq`, a step_inequality result, when one is given,
    and are None otherwise."""
    if c_chain is None:
        c_chain = chain_rule_constant(traj)
    if terms is None:
        terms = _per_step_terms(traj)
    gaps = terms.gap
    chains = chain_rule_defects(traj, terms)
    per_step = []
    for n in range(1, traj.N + 1):
        per_step.append({
            "n": n,
            "fenchel_young_gap": float(gaps[n]),
            "step_inequality_defect":
                (float(ineq.max_defects[n]) if ineq is not None else None),
            "chain_rule_defect": float(chains[n]),
        })
    overall = {
        "energy_identity_defect": energy_identity_defect(traj, terms=terms),
        "window_defects": [
            {"s": float(s), "t": float(t),
             "defect": energy_identity_defect(traj, s, t, terms)}
            for (s, t) in windows],
        **dissipation_integrals(traj, terms=terms),
        "chain_rule_constant": c_chain,
        "eps_quad": resolve_eps_quad(traj),
    }
    return DiagnosticsReport(
        per_step=per_step, overall=overall,
        refinement=refinement.to_dicts() if refinement is not None else None)
