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
StepTerms bundle. A trajectory's arrays are read-only, so its certificate
never goes stale: _certified keeps that bundle, chain_rule_constant and the
default step_inequality result in the trajectory's own memo, and every
consumer (profiles, defects, integrals, the report, the CLI checks and the
refinement study) reads them from there, so each is computed at most once
per trajectory whoever asks first. A trajectory made by
dataclasses.replace starts with an empty memo. Window sums stay slice sums
over the bundle. step_inequality solves all N (m - 1) interior interpolant
samples of a trajectory in one de_giorgi_interpolant call, and takes their
energies from it. The repeated eta-argmin queries of P_n, multiplier
selection and the interpolant samples are answered by the argmin memo of
each marginal model (see energy.argmin_set), which the row batch of
interpolant samples fills for the P_n samples that follow.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import potentials
from ._record import FrozenRecord, Record
from .energy import energy_value, generalized_time_derivative
from .errors import RangeError
from .scheme import (DiscreteTrajectory, SolveOptions, TimeGrid,
                     _solve_grids, de_giorgi_interpolant,
                     linear_interpolant, slope_multiplier)

QUAD_M = 8               # left-Riemann sub-samples per step (step_inequality)


def _node_index(grid: TimeGrid, t: float) -> int:
    n = int(round(t / grid.tau))
    if not (0 <= n <= grid.N and abs(t - grid.t(n)) <= 1e-9 * grid.tau):
        raise RangeError(f"time {t} is not a node of the grid (tau={grid.tau})")
    return n


def resolve_eps_quad(traj: DiscreteTrajectory) -> float:
    if traj.opts.eps_quad is not None:
        return float(traj.opts.eps_quad)
    return 1e-6 * (1.0 + float(traj.energies[0]))


class StepTerms(FrozenRecord):
    """tau-free per-step certificate integrands of one trajectory, entry 0 = 0:
    psi[n] = Psi(v_n), conj[n] = Psi*(-xi_n), P[n] = P(t_n, U_n, xi_n), the
    Fenchel-Young gap[n] = psi[n] + conj[n] - <-xi_n, v_n>, with Psi the
    frozen potential of step n, and the chain-rule defect
    chain[n] = (E_n - E_{n-1}) / tau + <-xi_n, v_n> - P[n]. The arrays are
    read-only."""

    _fields = ("psi", "conj", "P", "gap", "chain")

    def __init__(self, psi: np.ndarray, conj: np.ndarray, P: np.ndarray,
                 gap: np.ndarray, chain: np.ndarray):
        self.psi = psi
        self.conj = conj
        self.P = P
        self.gap = gap
        self.chain = chain


def _per_step_terms(traj: DiscreteTrajectory) -> StepTerms:
    """The one certificate pass: every per-step integrand, in one loop."""
    N = traj.N
    tau = traj.grid.tau
    psis = np.zeros(N + 1)
    conjs = np.zeros(N + 1)
    Ps = np.zeros(N + 1)
    gaps = np.zeros(N + 1)
    chains = np.zeros(N + 1)
    for n in range(1, N + 1):
        p = traj.psi_at(n)
        v = traj.rate(n)
        xi = -traj.xi[n]
        psi = p.value(v)
        conj = potentials.conjugate(p, xi)
        pairing = float(np.dot(xi, v))
        # the operands and order of potentials.fenchel_young_gap
        gaps[n] = psi + conj - pairing
        psis[n] = psi
        conjs[n] = conj
        Ps[n] = generalized_time_derivative(traj.model, traj.grid.t(n),
                                            traj.U[n], traj.xi[n])
        de = (traj.energies[n] - traj.energies[n - 1]) / tau
        chains[n] = de + pairing - Ps[n]
    for arr in (psis, conjs, Ps, gaps, chains):
        arr.flags.writeable = False
    return StepTerms(psi=psis, conj=conjs, P=Ps, gap=gaps, chain=chains)


def _certified(traj: DiscreteTrajectory, name: str):
    """name(traj), for name one of _per_step_terms, chain_rule_constant and
    step_inequality (default arguments), computed at most once per
    trajectory and kept in the trajectory's memo. The function is looked up
    by name at call time, so a rebinding of the module attribute is seen."""
    memo = vars(traj).setdefault("_certificate_memo", {})
    if name not in memo:
        memo[name] = globals()[name](traj)
    return memo[name]


def fenchel_young_profile(traj: DiscreteTrajectory) -> np.ndarray:
    """Recomputed gap_n per step (entry 0 is 0), independent of stored gaps."""
    return _certified(traj, "_per_step_terms").gap.copy()


def chain_rule_constant(traj: DiscreteTrajectory) -> float:
    """Model-declared c_chain, else 10 (1 + C1 sup_n E(t_n, u0))."""
    if traj.model.c_chain is not None:
        return float(traj.model.c_chain)
    sup_e = max(energy_value(traj.model, traj.grid.t(n), traj.U[0])
                for n in range(traj.N + 1))
    return 10.0 * (1.0 + traj.model.constants.C1 * sup_e)


def chain_rule_defects(traj: DiscreteTrajectory) -> np.ndarray:
    """defect_n = [E_n - E_{n-1}]/tau - <xi_n, v_n> - P_n (entry 0 is 0).

    Predicted >= -O(tau) along solutions; the pass threshold is
    -chain_rule_constant(traj) * tau.
    """
    return _certified(traj, "_per_step_terms").chain.copy()


def _window(grid: TimeGrid, s: float, t: Optional[float]) -> Tuple[int, int]:
    t = grid.t(grid.N) if t is None else t
    i, j = _node_index(grid, s), _node_index(grid, t)
    if i > j:
        raise RangeError(f"window [{s}, {t}] is reversed")
    return i, j


def dissipation_integrals(traj: DiscreteTrajectory, s: float = 0.0,
                          t: Optional[float] = None) -> Dict[str, float]:
    """Left-Riemann integrals of Psi(v), Psi*(-xi) and P over node window."""
    i, j = _window(traj.grid, s, t)
    terms = _certified(traj, "_per_step_terms")
    tau = traj.grid.tau
    sl = slice(i + 1, j + 1)
    return {
        "dissipation_integral": float(tau * np.sum(terms.psi[sl])),
        "conjugate_dissipation_integral": float(tau * np.sum(terms.conj[sl])),
        "P_integral": float(tau * np.sum(terms.P[sl])),
    }


def energy_identity_defect(traj: DiscreteTrajectory, s: float = 0.0,
                           t: Optional[float] = None) -> float:
    """Signed identity defect over the node window [s, t]; positive means
    the upper energy estimate holds with that much slack."""
    i, j = _window(traj.grid, s, t)
    terms = _certified(traj, "_per_step_terms")
    tau = traj.grid.tau
    sl = slice(i + 1, j + 1)
    return float(traj.energies[i] - traj.energies[j]
                 + tau * np.sum(terms.P[sl])
                 - tau * np.sum(terms.psi[sl] + terms.conj[sl]))


# ---------------------------------------------------------------------------
# node-interval upper energy estimate


class StepInequalityResult(FrozenRecord):
    """max_defects[n] = worst defect over the m sampled times in step n;
    end_defects[n] = defect at the right node (these telescope into the
    window estimate). Entry 0 of both is 0."""

    _fields = ("max_defects", "end_defects", "eps_quad", "m")

    def __init__(self, max_defects: np.ndarray, end_defects: np.ndarray,
                 eps_quad: float, m: int):
        self.max_defects = max_defects
        self.end_defects = end_defects
        self.eps_quad = eps_quad
        self.m = m

    @property
    def worst(self) -> float:
        return float(np.max(self.max_defects))


def step_inequality(traj: DiscreteTrajectory, m: Optional[int] = None
                    ) -> StepInequalityResult:
    """Check, on every step, the interval estimate

        r Psi((U~(t) - U_{n-1}) / r) + Q_n(t) + E(t, U~(t))
            <= E(t_{n-1}, U_{n-1}) + R_n(t) + eps_quad

    at the m sample times t = t_{n-1} + k tau / m, k = 1..m, with Q_n, R_n
    the m-point left-Riemann sums of Psi*(-xi~) and P over the variational
    interpolant. The r = 0 sample uses the previous node state with the
    conjugate-minimal multiplier. The N (m - 1) interior samples of the
    trajectory are one de_giorgi_interpolant call, whose energies E(t, U~)
    are used as the solve computed them. A stalled interpolant solve aborts
    with SolveAbortedError naming the step and the sample time.
    """
    m = QUAD_M if m is None else int(m)
    if m < 1:
        raise RangeError(f"quadrature sample count must be >= 1; got {m}")
    model, grid = traj.model, traj.grid
    tau = grid.tau
    eps_quad = resolve_eps_quad(traj)
    N = traj.N
    # the interior samples j = 1..m-1 of step n are rows (n-1)(m-1) + j - 1
    inner_t = [grid.t(n - 1) + j * tau / m
               for n in range(1, N + 1) for j in range(1, m)]
    inner_U, inner_xi, _, inner_E = de_giorgi_interpolant(
        traj, np.array(inner_t, dtype=float))
    max_defects = np.zeros(N + 1)
    end_defects = np.zeros(N + 1)
    for n in range(1, N + 1):
        t0 = grid.t(n - 1)
        U0 = traj.U[n - 1]
        p = traj.psi_at(n)
        e0 = traj.energies[n - 1]
        rows = slice((n - 1) * (m - 1), n * (m - 1))

        # samples j = 0..m: state, multiplier, absolute time, and (j >= 1)
        # the energy E(t_j, state_j)
        states = [U0, *inner_U[rows], traj.U[n]]
        xis = [slope_multiplier(model, traj.psi, t0, U0), *inner_xi[rows],
               traj.xi[n]]
        times = [t0, *inner_t[rows], grid.t(n)]
        energies = [None, *inner_E[rows],
                    energy_value(model, grid.t(n), traj.U[n])]

        conj_vals = [potentials.conjugate(p, -x) for x in xis[:m]]
        P_vals = [generalized_time_derivative(model, times[j], states[j],
                                              xis[j]) for j in range(m)]
        worst = -np.inf
        for k in range(1, m + 1):
            r = k * tau / m
            Q = (tau / m) * sum(conj_vals[:k])
            R = (tau / m) * sum(P_vals[:k])
            lhs = r * p.value((states[k] - U0) / r) + Q + energies[k]
            defect = lhs - (e0 + R)
            worst = max(worst, defect)
            if k == m:
                end_defects[n] = defect
        max_defects[n] = worst
    return StepInequalityResult(max_defects=max_defects,
                                end_defects=end_defects,
                                eps_quad=eps_quad, m=m)


def window_upper_estimate_defect(traj: DiscreteTrajectory, s: float, t: float
                                 ) -> Tuple[float, float]:
    """Telescoped interval estimate over the node window [s, t], from the
    trajectory's certified step_inequality: returns (defect, budget) where
    budget = eps_quad times the step count (left-Riemann quadrature bias
    accumulates linearly in the window length, so the per-step budget
    scales with the number of steps)."""
    result = _certified(traj, "step_inequality")
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


class RefinementTable(Record):
    _fields = ("rows", "finest")

    def __init__(self, rows: List[RefinementRow],
                 finest: Optional[DiscreteTrajectory] = None):
        self.rows = rows
        # the finest rung's trajectory, None when its solve failed
        self.finest = finest

    def to_dicts(self) -> List[Dict]:
        return [asdict(r) for r in self.rows]


def refinement_study(model, psi, u0, T: float, tau_ladder: Sequence[float],
                     opts: Optional[SolveOptions] = None) -> RefinementTable:
    """Solve on a strictly decreasing tau ladder and tabulate convergence
    surrogates: sup-distance of consecutive linear interpolants on a
    1024-point time grid, identity defects, dissipation-integral
    differences. The rungs are solved in lockstep (scheme._solve_grids):
    step n of every rung that has one is a row of one batched step call,
    and each rung's trajectory is the one solve gives it, bit for bit. A
    failed solve annotates its row and the other rungs continue.
    The table keeps the finest rung's trajectory, with its certificate
    memo, so callers that need it neither solve nor certify it again.
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

    grids = [TimeGrid(T=T, tau=tau) for tau in ladder]
    try:
        solved = _solve_grids(model, psi, u0, grids, opts)
    except Exception as err:  # no rung could start: each carries the error
        solved = [err] * len(grids)
    rows: List[RefinementRow] = []
    trajs: List[Optional[DiscreteTrajectory]] = []
    for grid, traj in zip(grids, solved):
        if isinstance(traj, Exception):  # annotate and continue, per contract
            rows.append(RefinementRow(tau=grid.tau, N=grid.N,
                                      status=f"solve failed: {traj}"))
            trajs.append(None)
            continue
        rows.append(RefinementRow(
            tau=grid.tau, N=grid.N,
            energy_identity_defect=energy_identity_defect(traj),
            **dissipation_integrals(traj)))
        trajs.append(traj)

    times = np.linspace(0.0, T, 1024)
    # each rung's interpolant is evaluated once: the finer rung's array is
    # kept for the next pair, and the coarser one, dropped after this pair,
    # takes the difference in place
    finer = None
    for i in range(len(rows) - 1):
        if trajs[i] is None or trajs[i + 1] is None:
            finer = None
            continue
        diff = (linear_interpolant(trajs[i], times) if finer is None
                else finer)
        finer = linear_interpolant(trajs[i + 1], times)
        diff -= finer
        # row by row, the dot product np.linalg.norm takes of one vector
        sq = diff[:, None, :] @ diff[:, :, None]
        rows[i].sup_interpolant_distance = float(np.sqrt(sq.max()))
        rows[i].dissipation_integral_diff = abs(
            rows[i].dissipation_integral - rows[i + 1].dissipation_integral)
    return RefinementTable(rows=rows, finest=trajs[-1])


# ---------------------------------------------------------------------------
# assembled report


class DiagnosticsReport(Record):
    _fields = ("per_step", "overall", "refinement")

    def __init__(self, per_step: List[Dict], overall: Dict,
                 refinement: Optional[List[Dict]] = None):
        self.per_step = per_step
        self.overall = overall
        self.refinement = refinement

    def to_dict(self) -> Dict:
        out = {"per_step": self.per_step, "global": self.overall}
        if self.refinement is not None:
            out["refinement"] = self.refinement
        return out


def build_report(traj: DiscreteTrajectory,
                 windows: Sequence[Tuple[float, float]] = (),
                 refinement: Optional[RefinementTable] = None,
                 ineq: Optional[StepInequalityResult] = None
                 ) -> DiagnosticsReport:
    """Per-step and global diagnostics. Per-step step-inequality defects
    are reported from `ineq`, a step_inequality result, when one is given,
    and are None otherwise."""
    gaps = _certified(traj, "_per_step_terms").gap
    chains = chain_rule_defects(traj)
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
        "energy_identity_defect": energy_identity_defect(traj),
        "window_defects": [
            {"s": float(s), "t": float(t),
             "defect": energy_identity_defect(traj, s, t)}
            for (s, t) in windows],
        **dissipation_integrals(traj),
        "chain_rule_constant": _certified(traj, "chain_rule_constant"),
        "eps_quad": resolve_eps_quad(traj),
    }
    return DiagnosticsReport(
        per_step=per_step, overall=overall,
        refinement=refinement.to_dicts() if refinement is not None else None)
