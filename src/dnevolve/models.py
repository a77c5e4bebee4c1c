"""The example zoo: named models wiring an energy to a dissipation potential.

Every model resolves to a ModelSpec holding the energy (with its constants,
domain box, and offset), the canonical dissipation potential, an optional
exact solution for oracle comparisons, and the resolved parameters. Energies
are shifted by an explicit offset so the working minimum is at least 1; the
offset is part of the parameters and is reported in every output.

Each model's parameters, and each kind of a config's `dissipation`, are a
table of rows (key, default, kind, bounds, doc): one reader validates
them, naming the offending key, and describe prints them.

Registered names: QuadraticBenchmark, AbsoluteMarginal, PhaseField1D,
AllenCahn1D, StateWeightedToy.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Dict, Optional

import numpy as np

from . import _kernels, _optim
from ._kernels import double_well  # re-export  # noqa: F401
from ._record import FrozenRecord
from .energy import (EnergyConstants, EnergyModel, MarginalEnergy,
                     _candidate_pair, _clarke_rows)
from .errors import ConfigError, RangeError
from .potentials import (DissipationPotential, OneHomPlusQuad, PNorm,
                         Quadratic, StateWeighted, WeightedSum, as_state)


class ModelSpec(FrozenRecord):
    _fields = ("name", "dim", "energy", "dissipation", "exact_solution",
               "parameters")

    def __init__(self, name: str, dim: int, energy: EnergyModel,
                 dissipation: DissipationPotential,
                 exact_solution: Optional[Callable] = None,
                 parameters: Optional[Dict] = None):
        self.name = name
        self.dim = dim
        self.energy = energy
        self.dissipation = dissipation
        self.exact_solution = exact_solution  # (t, u0) -> StateVector
        self.parameters = {} if parameters is None else parameters


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

    def at_times(self, t):
        def at(U):
            D = U - self.a
            return 0.5 * np.vecdot(D, D) + self.offset, lambda: D
        return at

    def hess_rows(self, t, U):
        B, d = U.shape
        return np.ones((B, d)), np.zeros((B, d - 1))

    def derivative_1d(self, t, u):
        # the polish's hot path: the default, at_times' gradient U - a,
        # costs 4x as much a call and the criterion-2 solve 3.6% more;
        # tests pin this to that gradient bit for bit
        return u - self.a[0]

    def time_deriv_P_rows(self, t, U, XI):
        return [0.0] * len(U)


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
        return s * self.alpha * (u[..., :1] - self.beta * t) + self.offset

    def inner_du(self, t, u, eta):
        return np.atleast_1d(self._branch_sign(eta) * self.alpha)

    def inner_dt(self, t, u, eta):
        return -float(self._branch_sign(eta)) * self.alpha * self.beta

    def derivative_1d(self, t, u):
        # sign convention at the kink itself is irrelevant: the polish
        # only consumes this away from u = beta t
        return -self.alpha * np.copysign(1.0, u - self.beta * t)

    def kinks_1d(self, t):
        return (self.beta * t,)

    def subdiff_rows(self, t, U):
        if self.subdiff_kind == "marginal":
            return super().subdiff_rows(t, U)
        # the interval's ends, and 0 where it lies strictly inside
        lo, hi = map(np.array, _clarke_rows(self, t, U))
        return _candidate_pair(np.stack([lo, np.clip(0.0, lo, hi), hi], 1))


class _PhaseFieldEnergy(MarginalEnergy):
    """I(t, u, eta) = 1/2 u^2 + 1/2 eta^2 - u eta + W(eta) - l(t) u + offset
    with the piecewise-quadratic double well W and loading l(t) = A sin t.

    The eta-minimization has the closed form m(u) = 1 - (|u| + 2)^2 / 6
    (minimizer eta = (u + 2 sign(u)) / 3, both signs tied at u = 0), which
    at_times uses directly, one array expression of all points. Argmin
    queries evaluate inner exactly on eta_candidates, which the fine-grid
    safety pass of the marginal layer checks; tests/test_energy.py keeps a
    grid-plus-golden reference route.
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
        return self.load_amp * np.sin(t)

    def inner(self, t, u, eta):
        eta = np.asarray(eta, dtype=float)
        x = u[..., :1]
        return (0.5 * x * x + 0.5 * eta * eta - x * eta + double_well(eta)
                - self.load(t) * x + self.offset)

    def eta_candidates(self, t, u):
        # inner is 3/2 (eta - (u -+ 2)/3)^2 + const on the wells eta < -1/2
        # and eta > 1/2, so each well contributes its clipped stationary
        # point; the middle piece is concave and has its minimum at +-1/2
        lo, hi = self.eta_interval
        x = u[..., :1]
        out = np.empty(x.shape[:-1] + (6,))
        out[...] = (lo, 0.0, -0.5, 0.5, 0.0, hi)
        out[..., 1:2] = np.minimum(np.maximum((x - 2.0) / 3.0, lo), -0.5)
        out[..., 4:5] = np.minimum(np.maximum((x + 2.0) / 3.0, 0.5), hi)
        return out

    def inner_du(self, t, u, eta):
        return u[..., :1] - eta - self.load(t)

    def inner_dt(self, t, u, eta):
        return -self.load_amp * math.cos(t) * u[0]

    def at_times(self, t):
        load = self.load(t)

        def at(U):
            x = U[..., 0]
            return (0.5 * np.square(x) + 1.0 - np.square(np.abs(x) + 2.0) / 6.0
                    - load * x + self.offset), None
        return at

    def derivative_1d(self, t, u):
        return (u - np.copysign(1.0, u) * (np.abs(u) + 2.0) / 3.0
                - self.load(t))

    def kinks_1d(self, t):
        return (0.0,)


class _AllenCahnEnergy(EnergyModel):
    """Grid Allen-Cahn energy on N midpoint cells of [0, 1], zero Dirichlet
    walls: E = sum (1/q)|D+ u|^q dx + sum (W4(u_i) - l_i(t) u_i) dx with the
    quartic well W4(s) = (s^2 - 1)^2 / 4 and load l_i(t) = amp sin(t) sin(pi x_i).
    at_times is its energy query: values and gradients go through
    _kernels.ac_energy and ac_grad, which share their grid terms, for a
    row batch of states in one kernel call each; subdiff_rows takes the
    gradient rows alone, so it computes no energy.
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

    def _load_rows(self, t):
        """Each row's load l(t[b]) = (amp sin t[b]) profile."""
        return (np.array([self.amp * math.sin(s) for s in t])[:, None]
                * self.profile)

    def at_times(self, t):
        # D+ u and u^2 - 1 once per array of states, for the values and
        # the gradients, in one ghost buffer
        dx, q, offset = self.dx, self.q, self.offset
        load = self._load_rows(t)
        buf = _kernels.ghost_buffer((len(t), self.dim))

        def at(U):
            terms = _kernels.ac_terms(U, dx, buf)
            return (_kernels.ac_energy(U, dx, q, load, offset, terms),
                    lambda: _kernels.ac_grad(U, dx, q, load, terms))
        return at

    def hess_rows(self, t, U):
        # the stencil weight of each difference D+ u: (q - 1) |D+ u|^(q-2)
        # / dx, 1 / dx for q = 2 and +inf at D+ u = 0 for q < 2; the well
        # adds W4''(u) dx = (3 u^2 - 1) dx to the diagonal
        dx, q = self.dx, self.q
        well = (3.0 * (U * U) - 1.0) * dx
        if q == 2.0:
            return well + 2.0 / dx, np.full((len(U), self.dim - 1), -1.0 / dx)
        with np.errstate(divide="ignore"):
            w = (q - 1.0) / dx * np.abs(_kernels._forward_diff(U, dx)) ** (
                q - 2.0)
        return w[:, :-1] + w[:, 1:] + well, -w[:, 1:-1]

    def subdiff_rows(self, t, U):
        return np.arange(len(U)), _kernels.ac_grad(U, self.dx, self.q,
                                                   self._load_rows(t))

    def time_deriv_P_rows(self, t, U, XI):
        # d/dt of -<l(t), u> dx, with the cosine of each time from math
        # as load takes the sine
        cos = np.array([math.cos(s) for s in t])
        return (-self.amp * cos * np.vecdot(U, self.profile)
                * self.dx).tolist()


class _StateWeightedQuadEnergy(_QuadraticEnergy):
    def __init__(self, a, offset):
        super().__init__(a, offset)
        self.name = "StateWeightedToy"


# ---------------------------------------------------------------------------
# parameter tables
#
# One row per parameter: (key, default, kind, bounds, doc). kind is "number"
# (a finite float), "integer", "boolean", a tuple of the admitted values, or
# None for a value its builder parses. bounds is a tuple of (op, bound) pairs
# the value must satisfy. A default of None is computed by the builder
# ("auto" in describe). describe prints every row; _read_fields enforces it.

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
        "<=": operator.le}

# p = 1 alone has no superlinear growth (see potentials.PNorm). The upper
# end is a policy, not the p at which c |v|^(p-1) overflows: that p depends
# on the rates
P_MAX = 8.0
_P_ROW = ("p", 2.0, "number", ((">", 1.0), ("<=", P_MAX)), "")
_C_ROW = ("c", 1.0, "number", ((">", 0.0),), "")
_UNIT = ((">=", 0.0), ("<=", 1.0))
_POINT_ROWS = (
    ("dim", 1, "integer", ((">=", 1), ("<=", 16)), ""),
    ("a", 1.0, None, (), "target point, scalar or length-dim list"),
    ("offset", 1.0, "number", ((">", 0.0),), "energy shift"),
)

# each dissipation kind's constructor, called with its rows' values in order
_DISSIPATIONS = {
    "quadratic": (Quadratic, (_C_ROW,)),
    "pnorm": (PNorm, (_C_ROW, _P_ROW)),
    "one_hom_plus_quad": (OneHomPlusQuad, (
        ("rho", 1.0, "number", ((">=", 0.0),), ""),
        ("eps", 1.0, "number", ((">", 0.0),), ""))),
}
_DISSIPATION_KINDS = tuple(_DISSIPATIONS)


def finite_number(x, path: str) -> float:
    """x as a float when it is a finite JSON number; anything else raises
    ConfigError at path."""
    if not isinstance(x, bool) and isinstance(x, (int, float)):
        try:
            v = float(x)
        except OverflowError:  # an integer beyond the float range
            v = math.inf
        if math.isfinite(v):
            return v
    raise ConfigError(path, f"expected a finite number, got {x!r}")


def reject_unknown(obj: Dict, allowed, path: str):
    """Raise ConfigError at the first key of obj not in allowed."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


def _read_fields(obj: Dict, rows, path: str) -> Dict:
    """The value of every row's key in obj, or its default, keyed in row
    order. An unknown key, or a value of the wrong kind or outside its
    row's bounds, raises ConfigError at path.key."""
    reject_unknown(obj, [row[0] for row in rows], path)
    out = {}
    for key, default, kind, bounds, _ in rows:
        v = obj.get(key, default)
        if key in obj:
            field = f"{path}.{key}"
            if kind == "number":
                v = finite_number(v, field)
            elif kind == "integer" and (isinstance(v, bool)
                                        or not isinstance(v, int)):
                raise ConfigError(field, f"expected an integer, got {v!r}")
            elif kind == "boolean" and not isinstance(v, bool):
                raise ConfigError(field, f"expected a boolean, got {v!r}")
            elif isinstance(kind, tuple) and v not in kind:
                raise ConfigError(field, f"expected {_bounds_text(kind, ())}, "
                                         f"got {v!r}")
            for op, bound in bounds:
                if not _OPS[op](v, bound):
                    raise ConfigError(field,
                                      f"must be {op} {bound:g}; got {v!r}")
        out[key] = v
    return out


def _bounds_text(kind, bounds) -> str:
    """What a row admits, as describe prints it: "in (0, 1]", "> 0", ..."""
    if isinstance(kind, tuple):
        return " or ".join(map(repr, kind))
    if len(bounds) == 2:
        (lo_op, lo), (hi_op, hi) = bounds
        text = (f"in {'(' if lo_op == '>' else '['}{lo:g}, "
                f"{hi:g}{')' if hi_op == '<' else ']'}")
    else:
        text = " ".join(f"{op} {bound:g}" for op, bound in bounds)
    return f"integer {text}" if kind == "integer" else text


def build_dissipation(d) -> DissipationPotential:
    """The potential a config's `dissipation` object names; each error
    raises ConfigError at its field."""
    if not isinstance(d, dict):
        raise ConfigError("dissipation", "expected an object")
    if "kind" not in d:
        raise ConfigError("dissipation.kind", "missing required field")
    if d["kind"] not in _DISSIPATION_KINDS:
        raise ConfigError("dissipation.kind",
                          f"must be one of {list(_DISSIPATION_KINDS)}")
    ctor, rows = _DISSIPATIONS[d["kind"]]
    fields = {k: v for k, v in d.items() if k != "kind"}
    return ctor(*_read_fields(fields, rows, "dissipation").values())


# ---------------------------------------------------------------------------
# builders
#
# Each takes its model's resolved parameters (_read_fields of its rows) and
# checks the constraints between them, raising RangeError.


def _target(dim, a) -> np.ndarray:
    """The target point a: one number for every coordinate, or a list of
    dim numbers."""
    cells = a if isinstance(a, list) else [a] * dim
    if len(cells) != dim:
        raise ConfigError("model.params.a", f"expected a number or a list of "
                                            f"{dim} numbers, got {len(cells)} "
                                            f"entries")
    return np.array([finite_number(x, "model.params.a") for x in cells])


def _build_quadratic(v):
    dim, a = v["dim"], _target(v["dim"], v["a"])
    energy = _QuadraticEnergy(a, v["offset"])

    def exact(t, u0):
        u0 = as_state(u0, dim)
        return a + (u0 - a) * math.exp(-t)

    return ModelSpec("QuadraticBenchmark", dim, energy, Quadratic(1.0),
                     exact_solution=exact, parameters=dict(v, a=a.tolist()))


def _build_absolute_marginal(v):
    alpha, beta, offset, t_cap = v["alpha"], v["beta"], v["offset"], v["t_cap"]
    if not alpha > beta:
        raise RangeError(
            f"AbsoluteMarginal requires alpha > beta; got alpha={alpha}, beta={beta}")
    C0 = offset - alpha * (1.5 + beta * t_cap)
    if not C0 > 0.0:
        raise RangeError(
            f"AbsoluteMarginal requires offset > alpha*(1.5 + beta*t_cap) "
            f"so the energy stays positive on its box; got C0={C0}")
    energy = _AbsoluteMarginalEnergy(alpha, beta, offset, v["subdiff_kind"],
                                     t_cap)

    def exact(t, u0):
        # the selected evolution from nonpositive starts: u(t) = u0 - alpha t
        u0 = as_state(u0, 1)
        return u0 - alpha * t

    return ModelSpec("AbsoluteMarginal", 1, energy, Quadratic(1.0),
                     exact_solution=exact, parameters=v)


def _build_phase_field(v):
    A = v["load_amp"]
    # raw min of the marginal energy over the box is ((1 + 1.5 A)^2 - 1)/3
    # below zero; the automatic offset puts the working minimum at exactly 1
    drop = ((1.0 + 1.5 * A) ** 2 - 1.0) / 3.0
    if v["offset"] is None:
        v["offset"] = 1.0 + drop
    if not v["offset"] - drop > 0.0:
        raise RangeError(
            f"PhaseField1D requires offset > ((1 + 1.5*load_amp)^2 - 1)/3; "
            f"got {v['offset']}")
    energy = _PhaseFieldEnergy(A, v["offset"])
    return ModelSpec("PhaseField1D", 1, energy, Quadratic(1.0), parameters=v)


@functools.lru_cache(maxsize=64)
def _quartic_well_drop(amp: float) -> float:
    """min over s in [0, 3] of W4(s) - amp * s (a nonpositive number).
    Kept per amp: one process builds its model for the plan, for run and
    for check."""
    def g(s):
        return 0.25 * (s * s - 1.0) ** 2 - amp * s

    # the scan grid as one array; Brent's abscissae one by one as floats,
    # whose ** is C pow rather than numpy's square, which may differ from
    # it in the last bit: the bits the drop has always had
    def f(s, rows):
        return g(s) if s.ndim > 1 else np.array([g(x) for x in s.tolist()])

    _, h, _ = _optim.scan_min(f, [0.0], [3.0], 801)
    return min(float(h[0]), 0.0)


def _build_allen_cahn(v):
    N, p, rho, amp = v["N"], v["p"], v["rho"], v["load_amp"]
    drop = _quartic_well_drop(amp)
    if v["offset"] is None:
        v["offset"] = 1.0 - drop
    if not v["offset"] + drop > 0.0:
        raise RangeError(
            f"AllenCahn1D requires offset > {-drop:.6g} for this load_amp "
            f"so the energy stays positive; got {v['offset']}")
    energy = _AllenCahnEnergy(N, v["q"], amp, v["offset"], drop)
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
    return ModelSpec("AllenCahn1D", N, energy, psi, parameters=v)


def _build_state_weighted(v):
    dim, a = v["dim"], _target(v["dim"], v["a"])
    scale = v["omega_scale"]
    energy = _StateWeightedQuadEnergy(a, v["offset"])

    def omega(u):
        return 1.0 + scale * math.tanh(float(u[0]))

    psi = StateWeighted(base=Quadratic(1.0), omega=omega,
                        omega_bounds=(1.0 - scale, 1.0 + scale))
    return ModelSpec("StateWeightedToy", dim, energy, psi,
                     parameters=dict(v, a=a.tolist()))


# each model's builder, admitted subdiff modes (the default first) and
# parameter rows
_AM_MODES = ("marginal", "clarke")
_MODELS = {
    "QuadraticBenchmark": (_build_quadratic, ("analytic",), _POINT_ROWS),
    "AbsoluteMarginal": (_build_absolute_marginal, _AM_MODES, (
        ("alpha", 0.5, "number", ((">", 0.0),), "> beta"),
        ("beta", 0.25, "number", ((">", 0.0), ("<", 1.0)), "< alpha"),
        ("offset", 2.0, "number", (),
         "large enough that offset > alpha*(1.5 + beta*t_cap)"),
        ("t_cap", 1.0, "number", ((">", 0.0), ("<=", 8.0)),
         "time horizon the positivity constant covers"),
        ("subdiff_kind", _AM_MODES[0], _AM_MODES, (), ""))),
    "PhaseField1D": (_build_phase_field, ("marginal",), (
        ("load_amp", 0.3, "number", _UNIT, ""),
        ("offset", None, "number", (),
         "default puts the box minimum at exactly 1"))),
    "AllenCahn1D": (_build_allen_cahn, ("analytic",), (
        ("N", 32, "integer", ((">=", 2), ("<=", 1024)), ""),
        ("q", 2.0, "number", ((">", 1.0), ("<=", 8.0)), ""),
        _P_ROW,
        ("rho", 1.0, "number", ((">=", 0.0), ("<=", 4.0)),
         "0 and 1 are the canonical settings"),
        ("load_amp", 0.2, "number", _UNIT, ""),
        ("offset", None, "number", (),
         "default puts the energy lower bound at exactly 1"))),
    "StateWeightedToy": (_build_state_weighted, ("analytic",), _POINT_ROWS + (
        ("omega_scale", 0.5, "number", ((">=", 0.0), ("<=", 0.95)), ""),)),
}

MODEL_NAMES = tuple(_MODELS)

_DOCS = {
    "QuadraticBenchmark":
        "Convex sanity baseline: E(t,u) = 1/2 ||u - a||^2 + offset with "
        "Psi = 1/2 ||v||^2; exact flow u(t) = a + (u0 - a) exp(-t).",
    "AbsoluteMarginal":
        "Traveling-kink marginal energy E(t,u) = -alpha |u - beta t| + offset "
        "with two affine branches; subdifferential selectable marginal or "
        "Clarke-interval. Constraint: alpha > beta > 0, beta < 1.",
    "PhaseField1D":
        "Scalar quasistatic phase-field energy: E(t,u) = 1/2 u^2 + "
        "min_eta [1/2 eta^2 - u eta + W(eta)] - load_amp sin(t) u + offset, "
        "W the piecewise-quadratic double well; gradient-flow Psi = 1/2 v^2.",
    "AllenCahn1D":
        "N-cell grid Allen-Cahn on [0,1] with zero Dirichlet walls: "
        "E = sum (1/q)|D+ u|^q dx + sum (W4(u_i) - l_i(t) u_i) dx, quartic "
        "well W4(s) = (s^2-1)^2/4; Psi = rho sum |v_i| dx + (1/p) sum |v_i|^p dx.",
    "StateWeightedToy":
        "QuadraticBenchmark energy with a state-dependent dissipation "
        "Psi_u(v) = omega(u) 1/2 ||v||^2, omega(u) = 1 + omega_scale tanh(u_1); "
        "omega_scale = 0 reproduces QuadraticBenchmark bit for bit.",
}


def lookup(name):
    """(builder, subdiff modes, parameter rows) of a registered model; any
    other name raises ConfigError at model.name."""
    # a tuple: a list or object name compares unequal instead of raising
    if name not in MODEL_NAMES:
        raise ConfigError("model.name",
                          f"unknown model {name!r}; registered: {', '.join(MODEL_NAMES)}")
    return _MODELS[name]


def build(name: str, params: Optional[Dict] = None) -> ModelSpec:
    """Construct a registered model. A parameter outside its own bounds
    raises ConfigError at model.params.<key>; a constraint between
    parameters raises RangeError."""
    builder, _, rows = lookup(name)
    return builder(_read_fields(params or {}, rows, "model.params"))


def describe(name: str) -> str:
    _, _, rows = lookup(name)
    lines = [name, "  " + _DOCS[name], "  parameters:"]
    for key, default, kind, bounds, doc in rows:
        text = "; ".join(filter(None, (_bounds_text(kind, bounds), doc)))
        shown = "auto" if default is None else repr(default)
        lines.append(f"    {key} (default {shown}): {text}")
    return "\n".join(lines)
