"""The example zoo: named models wiring an energy to a dissipation potential.

Every model resolves to a ModelSpec holding the energy (with its constants,
domain box, and offset), the canonical dissipation potential, an optional
exact solution for oracle comparisons, and the resolved parameters. Energies
are shifted by an explicit offset so the working minimum is at least 1; the
offset is part of the parameters and is reported in every output.

Registered names: QuadraticBenchmark, AbsoluteMarginal, PhaseField1D,
AllenCahn1D, StateWeightedToy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from . import _kernels, _optim
from ._kernels import double_well  # re-export  # noqa: F401
from .energy import (EnergyConstants, EnergyModel, MarginalEnergy,
                     clarke_subdifferential_1d, marginal_subdifferential)
from .errors import ConfigError, RangeError
from .potentials import (DissipationPotential, OneHomPlusQuad, PNorm,
                         Quadratic, StateWeighted, WeightedSum, as_state)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    dim: int
    energy: EnergyModel
    dissipation: DissipationPotential
    exact_solution: Optional[Callable] = None  # (t, u0) -> StateVector
    parameters: Dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# energies


class _QuadraticEnergy(EnergyModel):
    """E(t, u) = 1/2 ||u - a||^2 + offset; time-independent, P = 0."""

    semiconvexity = 1.0

    def __init__(self, a: np.ndarray, offset: float):
        self.name = "QuadraticBenchmark"
        self.dim = a.shape[0]
        self.a = a
        self.offset = offset
        self.constants = EnergyConstants(C0=offset, C1=1.0, C2=1.0, tau_o=0.5)
        self.domain_box = (a - 4.0, a + 4.0)

    def value(self, t, u):
        d = u - self.a
        return 0.5 * float(np.dot(d, d)) + self.offset

    def value_batch_1d(self, t, us):
        return 0.5 * np.square(us - self.a[0]) + self.offset

    def grad(self, t, u):
        return u - self.a

    def time_deriv_P(self, t, u, xi):
        return 0.0


class _AbsoluteMarginalEnergy(MarginalEnergy):
    """E(t, u) = -alpha |u - beta t| + offset as a two-branch marginal:
    I(t, u, eta) = -alpha (u - beta t) for eta = 0, +alpha (u - beta t) for
    eta = 1. The kink travels along u = beta t.
    """

    def __init__(self, alpha: float, beta: float, offset: float,
                 subdiff_kind: str, t_cap: float):
        self.name = "AbsoluteMarginal"
        self.dim = 1
        self.alpha = alpha
        self.beta = beta
        self.offset = offset
        self.subdiff_kind = subdiff_kind
        C0 = offset - alpha * (1.5 + beta * t_cap)
        c = alpha * beta / C0
        self.constants = EnergyConstants(C0=C0, C1=c, C2=c, tau_o=0.5)
        self.domain_box = (np.array([-1.5]), np.array([1.5]))
        self.eta_values = (0.0, 1.0)

    def _branch_sign(self, eta):
        # eta = 0 is the -alpha(u - beta t) branch, eta = 1 the +alpha one
        return np.where(np.asarray(eta, dtype=float) < 0.5, -1.0, 1.0)

    def inner(self, t, u, eta):
        s = self._branch_sign(eta)
        return s * self.alpha * (u[0] - self.beta * t) + self.offset

    def inner_du(self, t, u, eta):
        return np.array([float(self._branch_sign(eta)) * self.alpha])

    def inner_dt(self, t, u, eta):
        return -float(self._branch_sign(eta)) * self.alpha * self.beta

    def value_batch_1d(self, t, us):
        return -self.alpha * np.abs(us - self.beta * t) + self.offset

    def derivative_1d(self, t, u):
        # sign convention at the kink itself is irrelevant: polish loops
        # only consume this away from u = beta t
        return -self.alpha * math.copysign(1.0, u - self.beta * t)

    def kinks_1d(self, t):
        return (self.beta * t,)

    def subdiff(self, t, u):
        if self.subdiff_kind == "marginal":
            return marginal_subdifferential(self, t, u)
        lo, hi = clarke_subdifferential_1d(self, t, u)
        cands = [np.array([lo])]
        if hi > lo:
            if lo < 0.0 < hi:
                cands.append(np.array([0.0]))
            cands.append(np.array([hi]))
        return cands


class _PhaseFieldEnergy(MarginalEnergy):
    """I(t, u, eta) = 1/2 u^2 + 1/2 eta^2 - u eta + W(eta) - l(t) u + offset
    with the piecewise-quadratic double well W and loading l(t) = A sin t.

    The eta-minimization has the closed form m(u) = 1 - (|u| + 2)^2 / 6
    (minimizer eta = (u + 2 sign(u)) / 3, both signs tied at u = 0), which
    value() uses directly. Argmin queries evaluate inner exactly on
    eta_candidates, which the fine-grid safety pass of the marginal layer
    checks; tests/test_energy.py keeps a grid-plus-golden reference route.
    """

    def __init__(self, load_amp: float, offset: float):
        self.name = "PhaseField1D"
        self.dim = 1
        self.load_amp = load_amp
        self.offset = offset
        C0 = offset - ((1.0 + 1.5 * load_amp) ** 2 - 1.0) / 3.0
        c = 4.0 * load_amp / C0
        self.constants = EnergyConstants(C0=C0, C1=c, C2=c, tau_o=0.5)
        self.domain_box = (np.array([-4.0]), np.array([4.0]))
        self.eta_interval = (-3.0, 3.0)

    def load(self, t):
        return self.load_amp * math.sin(t)

    def inner(self, t, u, eta):
        eta = np.asarray(eta, dtype=float)
        x = u[0]
        return (0.5 * x * x + 0.5 * eta * eta - x * eta + double_well(eta)
                - self.load(t) * x + self.offset)

    def eta_candidates(self, t, u):
        # inner is 3/2 (eta - (u -+ 2)/3)^2 + const on the wells eta < -1/2
        # and eta > 1/2, so each well contributes its clipped stationary
        # point; the middle piece is concave and has its minimum at +-1/2
        lo, hi = self.eta_interval
        x = u[0]
        return np.array([lo, min(max((x - 2.0) / 3.0, lo), -0.5), -0.5,
                         0.5, min(max((x + 2.0) / 3.0, 0.5), hi), hi])

    def inner_du(self, t, u, eta):
        return np.array([u[0] - float(eta) - self.load(t)])

    def inner_dt(self, t, u, eta):
        return -self.load_amp * math.cos(t) * u[0]

    def value(self, t, u):
        x = u[0]
        return (0.5 * x * x + 1.0 - (abs(x) + 2.0) ** 2 / 6.0
                - self.load(t) * x + self.offset)

    def value_batch_1d(self, t, us):
        return (0.5 * np.square(us) + 1.0 - np.square(np.abs(us) + 2.0) / 6.0
                - self.load(t) * us + self.offset)

    def derivative_1d(self, t, u):
        return u - math.copysign(1.0, u) * (abs(u) + 2.0) / 3.0 - self.load(t)

    def kinks_1d(self, t):
        return (0.0,)


class _AllenCahnEnergy(EnergyModel):
    """Grid Allen-Cahn energy on N midpoint cells of [0, 1], zero Dirichlet
    walls: E = sum (1/q)|D+ u|^q dx + sum (W4(u_i) - l_i(t) u_i) dx with the
    quartic well W4(s) = (s^2 - 1)^2 / 4 and load l_i(t) = amp sin(t) sin(pi x_i).
    Values and gradients go through _kernels.ac_energy and ac_grad.
    """

    def __init__(self, N: int, q: float, amp: float, offset: float,
                 well_drop: float):
        self.name = "AllenCahn1D"
        self.dim = N
        self.q = q
        self.amp = amp
        self.offset = offset
        self.dx = 1.0 / N
        # W4'' = 3 s^2 - 1 >= -1 and |D+ u|^q is convex
        self.semiconvexity = -self.dx
        x = (np.arange(N) + 0.5) * self.dx
        self.profile = np.sin(np.pi * x)
        C0 = offset + well_drop  # well_drop = min_s (W4(s) - amp |s|) <= 0
        c = 3.0 * amp / C0
        self.constants = EnergyConstants(C0=C0, C1=c, C2=c, tau_o=0.5)
        self.domain_box = (np.full(N, -3.0), np.full(N, 3.0))

    def load(self, t):
        return self.amp * math.sin(t) * self.profile

    def value(self, t, u):
        return _kernels.ac_energy(u, self.dx, self.q, self.load(t)) + self.offset

    def grad(self, t, u):
        return _kernels.ac_grad(u, self.dx, self.q, self.load(t))

    def time_deriv_P(self, t, u, xi):
        # d/dt of -<l(t), u> dx
        return -self.amp * math.cos(t) * float(np.dot(self.profile, u)) * self.dx


class _StateWeightedQuadEnergy(_QuadraticEnergy):
    def __init__(self, a, offset):
        super().__init__(a, offset)
        self.name = "StateWeightedToy"


# ---------------------------------------------------------------------------
# builders


def _finite(x) -> Optional[float]:
    """x as a float when it is a finite JSON number, else None."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        v = float(x)
    except OverflowError:  # an integer beyond the float range
        return None
    return v if math.isfinite(v) else None


def _num(params, key, default, lo=None, hi=None, lo_strict=False,
         hi_strict=False, name=""):
    raw = params.pop(key, default)
    v = _finite(raw)
    if v is None:
        raise ConfigError(f"params.{key}", f"expected a finite number, got {raw!r}")
    if lo is not None and (v <= lo if lo_strict else v < lo):
        raise RangeError(f"{name} requires {key} {'>' if lo_strict else '>='} {lo}; got {v}")
    if hi is not None and (v >= hi if hi_strict else v > hi):
        raise RangeError(f"{name} requires {key} {'<' if hi_strict else '<='} {hi}; got {v}")
    return v


def _reject_unknown(params, name):
    if params:
        key = sorted(params)[0]
        raise ConfigError(f"params.{key}", f"unknown parameter for {name}")


def _dim_and_target(params, name):
    """dim, an integer in [1, 16], and the target point a: one number for
    every coordinate, or a list of dim numbers."""
    dim = params.pop("dim", 1)
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 16:
        raise RangeError(f"{name} requires integer dim in [1, 16]; got {dim!r}")
    a = params.pop("a", 1.0)
    cells = a if isinstance(a, list) else [a] * dim
    if len(cells) != dim:
        raise ConfigError("params.a", f"expected a number or a list of {dim} "
                                      f"numbers, got {len(cells)} entries")
    for x in cells:
        if _finite(x) is None:
            raise ConfigError("params.a", f"expected finite numbers, got {x!r}")
    return dim, np.array(cells, dtype=float)


def _build_quadratic(params):
    dim, a = _dim_and_target(params, "QuadraticBenchmark")
    offset = _num(params, "offset", 1.0, lo=0.0, lo_strict=True,
                  name="QuadraticBenchmark")
    _reject_unknown(params, "QuadraticBenchmark")
    energy = _QuadraticEnergy(a, offset)

    def exact(t, u0):
        u0 = as_state(u0, dim)
        return a + (u0 - a) * math.exp(-t)

    return ModelSpec("QuadraticBenchmark", dim, energy, Quadratic(1.0),
                     exact_solution=exact,
                     parameters={"dim": dim, "a": a.tolist(), "offset": offset})


def _build_absolute_marginal(params):
    alpha = _num(params, "alpha", 0.5, lo=0.0, lo_strict=True,
                 name="AbsoluteMarginal")
    beta = _num(params, "beta", 0.25, lo=0.0, lo_strict=True, hi=1.0,
                hi_strict=True, name="AbsoluteMarginal")
    if not alpha > beta:
        raise RangeError(
            f"AbsoluteMarginal requires alpha > beta; got alpha={alpha}, beta={beta}")
    offset = _num(params, "offset", 2.0, name="AbsoluteMarginal")
    t_cap = _num(params, "t_cap", 1.0, lo=0.0, lo_strict=True, hi=8.0,
                 name="AbsoluteMarginal")
    modes = SUBDIFF_MODES["AbsoluteMarginal"]
    kind = params.pop("subdiff_kind", modes[0])
    if kind not in modes:
        raise ConfigError("params.subdiff_kind", f"expected "
                          f"{' or '.join(map(repr, modes))}, got {kind!r}")
    _reject_unknown(params, "AbsoluteMarginal")
    C0 = offset - alpha * (1.5 + beta * t_cap)
    if not C0 > 0.0:
        raise RangeError(
            f"AbsoluteMarginal requires offset > alpha*(1.5 + beta*t_cap) "
            f"so the energy stays positive on its box; got C0={C0}")
    energy = _AbsoluteMarginalEnergy(alpha, beta, offset, kind, t_cap)

    def exact(t, u0):
        # the selected evolution from nonpositive starts: u(t) = u0 - alpha t
        u0 = as_state(u0, 1)
        return u0 - alpha * t

    return ModelSpec("AbsoluteMarginal", 1, energy, Quadratic(1.0),
                     exact_solution=exact,
                     parameters={"alpha": alpha, "beta": beta, "offset": offset,
                                 "t_cap": t_cap, "subdiff_kind": kind})


def _build_phase_field(params):
    A = _num(params, "load_amp", 0.3, lo=0.0, hi=1.0, name="PhaseField1D")
    # raw min of the marginal energy over the box is ((1 + 1.5 A)^2 - 1)/3
    # below zero; the automatic offset puts the working minimum at exactly 1
    auto = 1.0 + ((1.0 + 1.5 * A) ** 2 - 1.0) / 3.0
    offset = _num(params, "offset", auto, name="PhaseField1D")
    _reject_unknown(params, "PhaseField1D")
    if not offset - ((1.0 + 1.5 * A) ** 2 - 1.0) / 3.0 > 0.0:
        raise RangeError(
            f"PhaseField1D requires offset > ((1 + 1.5*load_amp)^2 - 1)/3; got {offset}")
    energy = _PhaseFieldEnergy(A, offset)
    return ModelSpec("PhaseField1D", 1, energy, Quadratic(1.0),
                     parameters={"load_amp": A, "offset": offset})


def _quartic_well_drop(amp: float) -> float:
    """min over s in [0, 3] of W4(s) - amp * s (a nonpositive number)."""
    # one expression for a float and for the whole scan grid, with the
    # same bits at each point
    def f(s):
        return 0.25 * (s * s - 1.0) ** 2 - amp * s

    _, h, _ = _optim.scan_min(f, f, 0.0, 3.0, 801)
    return min(h, 0.0)


def _build_allen_cahn(params):
    N = params.pop("N", 32)
    if not isinstance(N, int) or isinstance(N, bool) or not 2 <= N <= 1024:
        raise RangeError(f"AllenCahn1D requires integer N in [2, 1024]; got {N!r}")
    q = _num(params, "q", 2.0, lo=1.0, lo_strict=True, hi=8.0, name="AllenCahn1D")
    p = _num(params, "p", 2.0, lo=1.0, lo_strict=True, hi=8.0, name="AllenCahn1D")
    rho = _num(params, "rho", 1.0, lo=0.0, hi=4.0, name="AllenCahn1D")
    amp = _num(params, "load_amp", 0.2, lo=0.0, hi=1.0, name="AllenCahn1D")
    drop = _quartic_well_drop(amp)
    offset = _num(params, "offset", 1.0 - drop, name="AllenCahn1D")
    _reject_unknown(params, "AllenCahn1D")
    if not offset + drop > 0.0:
        raise RangeError(
            f"AllenCahn1D requires offset > {-drop:.6g} for this load_amp "
            f"so the energy stays positive; got {offset}")
    energy = _AllenCahnEnergy(N, q, amp, offset, drop)
    # chain-rule scale is stiffness-aware: the difference-quotient Hessian
    # has norm of order 4 N, and the per-step Taylor remainder scales with it
    energy.c_chain = 64.0 * N
    dx = 1.0 / N
    if rho == 0.0:
        psi = Quadratic(dx) if p == 2.0 else PNorm(dx, p)
    elif p == 2.0:
        psi = OneHomPlusQuad(rho * dx, dx)
    else:
        psi = WeightedSum((PNorm(rho * dx, 1.0), PNorm(dx, p)))
    return ModelSpec("AllenCahn1D", N, energy, psi,
                     parameters={"N": N, "q": q, "p": p, "rho": rho,
                                 "load_amp": amp, "offset": offset})


def _build_state_weighted(params):
    dim, a = _dim_and_target(params, "StateWeightedToy")
    offset = _num(params, "offset", 1.0, lo=0.0, lo_strict=True,
                  name="StateWeightedToy")
    scale = _num(params, "omega_scale", 0.5, lo=0.0, hi=0.95,
                 name="StateWeightedToy")
    _reject_unknown(params, "StateWeightedToy")
    energy = _StateWeightedQuadEnergy(a, offset)

    def omega(u):
        return 1.0 + scale * math.tanh(float(u[0]))

    psi = StateWeighted(base=Quadratic(1.0), omega=omega,
                        omega_bounds=(1.0 - scale, 1.0 + scale))
    return ModelSpec("StateWeightedToy", dim, energy, psi,
                     parameters={"dim": dim, "a": a.tolist(), "offset": offset,
                                 "omega_scale": scale})


# each model's builder and admitted subdiff modes, the default first
_BUILDERS = {
    "QuadraticBenchmark": (_build_quadratic, ("analytic",)),
    "AbsoluteMarginal": (_build_absolute_marginal, ("marginal", "clarke")),
    "PhaseField1D": (_build_phase_field, ("marginal",)),
    "AllenCahn1D": (_build_allen_cahn, ("analytic",)),
    "StateWeightedToy": (_build_state_weighted, ("analytic",)),
}

MODEL_NAMES = tuple(_BUILDERS)
SUBDIFF_MODES = {name: modes for name, (_, modes) in _BUILDERS.items()}

_DOCS = {
    "QuadraticBenchmark": (
        "Convex sanity baseline: E(t,u) = 1/2 ||u - a||^2 + offset with "
        "Psi = 1/2 ||v||^2; exact flow u(t) = a + (u0 - a) exp(-t).",
        (("dim", "1", "integer in [1, 16]"),
         ("a", "1.0", "target point, scalar or length-dim list"),
         ("offset", "1.0", "energy shift, > 0"))),
    "AbsoluteMarginal": (
        "Traveling-kink marginal energy E(t,u) = -alpha |u - beta t| + offset "
        "with two affine branches; subdifferential selectable marginal or "
        "Clarke-interval. Constraint: alpha > beta > 0, beta < 1.",
        (("alpha", "0.5", "> beta"),
         ("beta", "0.25", "in (0, 1), < alpha"),
         ("offset", "2.0", "large enough that offset > alpha*(1.5 + beta*t_cap)"),
         ("t_cap", "1.0", "time horizon the positivity constant covers, in (0, 8]"),
         ("subdiff_kind", "'marginal'", "'marginal' or 'clarke'"))),
    "PhaseField1D": (
        "Scalar quasistatic phase-field energy: E(t,u) = 1/2 u^2 + "
        "min_eta [1/2 eta^2 - u eta + W(eta)] - load_amp sin(t) u + offset, "
        "W the piecewise-quadratic double well; gradient-flow Psi = 1/2 v^2.",
        (("load_amp", "0.3", "in [0, 1]"),
         ("offset", "auto", "default puts the box minimum at exactly 1"))),
    "AllenCahn1D": (
        "N-cell grid Allen-Cahn on [0,1] with zero Dirichlet walls: "
        "E = sum (1/q)|D+ u|^q dx + sum (W4(u_i) - l_i(t) u_i) dx, quartic "
        "well W4(s) = (s^2-1)^2/4; Psi = rho sum |v_i| dx + (1/p) sum |v_i|^p dx.",
        (("N", "32", "integer in [2, 1024]"),
         ("q", "2.0", "in (1, 8]"),
         ("p", "2.0", "in (1, 8]"),
         ("rho", "1.0", "in [0, 4]; 0 and 1 are the canonical settings"),
         ("load_amp", "0.2", "in [0, 1]"),
         ("offset", "auto", "default puts the energy lower bound at exactly 1"))),
    "StateWeightedToy": (
        "QuadraticBenchmark energy with a state-dependent dissipation "
        "Psi_u(v) = omega(u) 1/2 ||v||^2, omega(u) = 1 + omega_scale tanh(u_1); "
        "omega_scale = 0 reproduces QuadraticBenchmark bit for bit.",
        (("dim", "1", "integer in [1, 16]"),
         ("a", "1.0", "target point"),
         ("offset", "1.0", "> 0"),
         ("omega_scale", "0.5", "in [0, 0.95]"))),
}


def build(name: str, params: Optional[Dict] = None) -> ModelSpec:
    """Construct a registered model; unknown names and out-of-range
    parameters raise with the violated field or bound named."""
    if name not in _BUILDERS:
        raise ConfigError("model.name",
                          f"unknown model {name!r}; registered: {', '.join(MODEL_NAMES)}")
    return _BUILDERS[name][0](dict(params or {}))


def describe(name: str) -> str:
    if name not in _DOCS:
        raise ConfigError("model.name",
                          f"unknown model {name!r}; registered: {', '.join(MODEL_NAMES)}")
    doc, schema = _DOCS[name]
    lines = [name, "  " + doc, "  parameters:"]
    for key, default, constraint in schema:
        lines.append(f"    {key} (default {default}): {constraint}")
    return "\n".join(lines)
