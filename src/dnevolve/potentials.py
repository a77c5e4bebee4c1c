"""Dissipation potentials and their convex-analysis queries.

A dissipation potential Psi is a convex, nonnegative function of the rate v
with Psi(0) = 0 and superlinear growth; state-dependent families Psi_u scale
a base potential by a positive weight omega(u). A family is queried only in
frozen form: psi.at_state(u) is the potential Psi_u (the identity for a
state-independent kind), and every query below takes such a frozen p:

    p.value(v)                       Psi(v)
    conjugate(p, xi)                 Psi*(xi) = sup_v <xi,v> - Psi(v)
    fenchel_young_gap(p, v, xi)      Psi(v) + Psi*(xi) - <xi,v>  (>= 0,
                                     0 iff xi in dPsi(v))
    check_admissible(p)              axiom audit on fixed 1-D probes
                                     (nonnegativity, zero, convexity,
                                     superlinearity, equal-conjugate
                                     condition)

An unfrozen StateWeighted family raises TypeError from all of them.

Rows. p.value, p.closed_conjugate, conjugate and fenchel_young_gap take a
rate (d,) and give a float, or take the rows of a (B, d) array and give
the (B,) array of the rows' values, each with the bits of its one-rate
call: a sum over a rate is np.add.reduce along the last axis, which is
the 1-D sum of each row, and a pairing np.vecdot, which is np.dot per
row. Where a row fails, the error raised is the one a loop over the rows
would have met first (row_call). psi.at_state takes a state (d,) or the
rows of a (B, d) array: for rows, StateWeighted gives Scaled(base, w)
with the (B,) row of weights, so a pass over the steps of a trajectory is
one call whatever the family. p[rows] is the potential of some rows (a
state-independent p itself), and row_call slices it with the rows.

The pairing is the Euclidean dot product throughout; models that need mesh
weights bake them into the potential and the energy.

Every kind has a closed-form conjugate, the only route `conjugate` takes.
A sum of l1 parts and exactly one other separable part soft-thresholds xi
into that part's conjugate; WeightedSum rejects any other sum. The
certified numeric supremum `_scalar_conjugate_numeric` (per-coordinate 1D
maximization by bracket expansion plus bounded Brent refinement) is not
called by the package: it is the reference the tests check the closed
forms against.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import _optim
from ._record import FrozenRecord
from .errors import DimensionMismatchError, MaximizationFailureError

_CONJ_XTOL = 1e-10
LAMBDA_STEP = 1e-6   # difference step of the equal_conjugates row
# superlinearity: Psi's log-slope over the last decade of RADII must exceed
# 1 + SUPERLIN_DELTA. A p-norm's slope is p, so p > 1.001 passes, and
# AllenCahn1D's rho |v| + |v|^p / p for p > 1.002 at rho = 1 and p > 1.0048
# at rho = 4. An affine growth a r - b has slope 1 + 3.9e-6 b / a (TwoSlope
# 1 + 2e-6), so it fails for b / a below about 250
SUPERLIN_DELTA = 1e-3
CONVEXITY_THETAS = (0.25, 0.5, 0.75)  # convexity interpolation weights
# check_admissible's probe rates, (0.5, 1, 3) x (+, -), and the growth
# ladder of its superlinearity witness
PROBES = tuple(np.array([sgn * mag]) for mag in (0.5, 1.0, 3.0)
               for sgn in (1.0, -1.0))
RADII = tuple(np.logspace(0, 6, 13))


def as_state(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite float64 state vector (d,), or to finite rows of
    states, a (B, d) array."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim > 2:
        raise ValueError("state vectors are 1D, or the rows of a 2D array")
    if not np.isfinite(v).all():
        raise ValueError("state vector has non-finite coordinates")
    if dim is not None and v.shape[-1] != dim:
        raise DimensionMismatchError(dim, v.shape[-1], "state")
    return v


def row_call(fn, *rows):
    """fn(*rows), for arrays, sequences or frozen potentials (p[rows])
    whose leading axis is the row; the first is an array or sequence.
    When it raises, fn runs again on each row alone, in order, and the
    first row that raises alone raises its own error: the error a loop
    over the rows would have met first, with its own message."""
    try:
        return fn(*rows)
    except Exception:
        for b in range(len(rows[0])):
            fn(*(r[b:b + 1] for r in rows))
        raise


def _sum(x):
    """The sum over a rate, or over each row of a (B, d) array."""
    return np.add.reduce(x, -1)


def _out(x):
    """A float for one rate, the (B,) array for rows."""
    return x if getattr(x, "ndim", 0) else float(x)


class DissipationPotential(FrozenRecord):
    """Base class of the frozen potentials. Each kind is an immutable value
    (_record.FrozenRecord): it names its fields in `_fields` and sets them
    in its __init__.

    Separable kinds (Psi(v) = sum_i scalar(v_i)) fill in the decomposition
    below, from which `scalar(s)`, the per-coordinate contribution, follows.
    Every state-independent kind gives Psi* by `closed_conjugate`. value
    and closed_conjugate take a rate (d,), giving a float, or the rows of
    a (B, d) array, giving the (B,) array of the rows' values.
    """

    separable: bool = False

    def value(self, v: np.ndarray) -> float:
        raise NotImplementedError

    def scalar(self, s):
        # no l1 part: skip three array operations on the 1-D scan's hot path
        if not self.one_hom:
            return self.smooth_scalar(s)
        return self.one_hom * np.abs(s) + self.smooth_scalar(s)

    def closed_conjugate(self, xi: np.ndarray) -> float:
        raise NotImplementedError

    # decomposition Psi = one_hom * ||.||_1 + smooth part, used by the
    # proximal-gradient inner solver (the only nonsmooth piece in the
    # catalogue is an l1 term)
    @property
    def one_hom(self) -> float:
        return 0.0

    def smooth_scalar(self, s):
        """Per-coordinate value of the smooth part (separable kinds)."""
        raise NotImplementedError

    def smooth_scalar_grad(self, s):
        """Derivative of smooth_scalar."""
        raise NotImplementedError

    def smooth_scalar_hess(self, s):
        """Second derivative of smooth_scalar, +inf where it blows up (the
        prox-Newton candidate of the n-D inner solver reads it)."""
        raise NotImplementedError

    def modulus(self, r: float) -> float:
        """Lower bound on the strong-convexity modulus of Psi on the rates
        with |v_i| <= r (r > 0); 0.0 makes no claim. The scheme's n-D
        inner solver uses it to prove a step problem strongly convex."""
        return 0.0

    def at_state(self, u) -> "DissipationPotential":
        """The frozen potential Psi_u of a state (d,), or of the rows of a
        (B, d) array; identity for state-independent kinds."""
        return self

    def __getitem__(self, rows) -> "DissipationPotential":
        """The potential of some rows of a batch: here, every row's."""
        return self


class Quadratic(DissipationPotential):
    """Psi(v) = (c/2) ||v||^2; conjugate ||xi||^2 / (2c)."""

    _fields = ("c",)
    separable = True

    def __init__(self, c: float = 1.0):
        if not 0 < c < math.inf:
            raise ValueError("Quadratic needs c > 0, finite")
        self.c = c

    def value(self, v):
        return _out(0.5 * self.c * np.vecdot(v, v))

    def closed_conjugate(self, xi):
        return _out(np.vecdot(xi, xi) / (2.0 * self.c))

    def smooth_scalar(self, s):
        return 0.5 * self.c * np.square(s)

    def smooth_scalar_grad(self, s):
        return self.c * np.asarray(s, dtype=float)

    def smooth_scalar_hess(self, s):
        return np.full(np.shape(s), float(self.c))

    def modulus(self, r):
        return self.c


class PNorm(DissipationPotential):
    """Psi(v) = (c/p) sum_i |v_i|^p  (the lp-norm to the p-th power).

    For p > 1 the conjugate is (c^(1-q)/q) sum_i |xi_i|^q with 1/p + 1/q = 1.
    p = 1 gives the 1-homogeneous c ||v||_1 whose conjugate is the indicator
    of the ball ||xi||_inf <= c; alone it is not admissible (no superlinear
    growth) but it is a valid summand inside WeightedSum.
    """

    _fields = ("c", "p")
    separable = True

    def __init__(self, c: float = 1.0, p: float = 2.0):
        if not 0 < c < math.inf:
            raise ValueError("PNorm needs c > 0, finite")
        if not 1 <= p < math.inf:
            raise ValueError("PNorm needs p >= 1, finite")
        self.c = c
        self.p = p

    def value(self, v):
        return _out(self.c / self.p * _sum(np.abs(v) ** self.p))

    def closed_conjugate(self, xi):
        if self.p == 1.0:
            top = np.maximum.reduce(np.abs(xi), -1, initial=0.0)
            return _out(np.where(top <= self.c, 0.0, np.inf))
        q = self.p / (self.p - 1.0)
        try:
            w = self.c ** (1.0 - q)
        except OverflowError:
            # a tiny c: c^(1-q) |xi|^q = c (|xi|/c)^q, which overflows to
            # +inf only where the value does, and is 0 at xi = 0
            with np.errstate(over="ignore"):
                return _out(self.c / q * _sum((np.abs(xi) / self.c) ** q))
        return _out(w / q * _sum(np.abs(xi) ** q))

    @property
    def one_hom(self):
        return self.c if self.p == 1.0 else 0.0

    def smooth_scalar(self, s):
        if self.p == 1.0:
            return np.zeros_like(np.asarray(s, dtype=float))
        return self.c / self.p * np.abs(s) ** self.p

    def smooth_scalar_grad(self, s):
        s = np.asarray(s, dtype=float)
        if self.p == 1.0:
            return np.zeros_like(s)
        return self.c * np.sign(s) * np.abs(s) ** (self.p - 1.0)

    def smooth_scalar_hess(self, s):
        s = np.asarray(s, dtype=float)
        if self.p == 1.0:
            return np.zeros_like(s)
        # c (p - 1) |s|^(p - 2): +inf at s = 0 for p < 2
        with np.errstate(divide="ignore"):
            return self.c * (self.p - 1.0) * np.abs(s) ** (self.p - 2.0)

    def modulus(self, r):
        # the scalar's second derivative c (p-1) |s|^(p-2) is smallest at
        # |s| = r for p <= 2 and vanishes at s = 0 for p > 2
        if 1.0 < self.p <= 2.0:
            return self.c * (self.p - 1.0) * r ** (self.p - 2.0)
        return 0.0


class OneHomPlusQuad(DissipationPotential):
    """Psi(v) = rho ||v||_1 + (eps/2) ||v||^2, the viscous regularization of a
    rate-independent potential; conjugate sum_i ((|xi_i| - rho)_+)^2 / (2 eps).
    """

    _fields = ("rho", "eps")
    separable = True

    def __init__(self, rho: float = 1.0, eps: float = 1.0):
        if not (0 <= rho < math.inf and 0 < eps < math.inf):
            raise ValueError("OneHomPlusQuad needs rho >= 0 and eps > 0, "
                             "both finite")
        self.rho = rho
        self.eps = eps

    def value(self, v):
        return _out(self.rho * _sum(np.abs(v))
                    + 0.5 * self.eps * np.vecdot(v, v))

    def closed_conjugate(self, xi):
        excess = np.maximum(np.abs(xi) - self.rho, 0.0)
        return _out(_sum(np.square(excess)) / (2.0 * self.eps))

    @property
    def one_hom(self):
        return self.rho

    def smooth_scalar(self, s):
        return 0.5 * self.eps * np.square(np.asarray(s, dtype=float))

    def smooth_scalar_grad(self, s):
        return self.eps * np.asarray(s, dtype=float)

    def smooth_scalar_hess(self, s):
        return np.full(np.shape(s), float(self.eps))

    def modulus(self, r):
        return self.eps


class WeightedSum(DissipationPotential):
    """Psi(v) = sum_k Psi_k(v) for separable even members (weights folded into
    the members).

    The l1 members (PNorm with p = 1) sum to rho ||v||_1, and exactly one
    other member g must remain; construction rejects any other sum. Psi* is
    then the infimal convolution of g* with the indicator of the box
    ||eta||_inf <= rho (Rockafellar, Convex Analysis, Thm 16.4), and since g*
    is separable, even and nondecreasing in each |xi_i|, the infimum over the
    box sits at the soft-threshold, Psi*(xi) = g*(soft(xi, rho)).
    """

    _fields = ("parts",)

    def __init__(self, parts: tuple = ()):
        self.parts = parts
        if not all(p.separable for p in self.parts):
            raise ValueError("WeightedSum members must be separable")
        if len(self._split()[1]) != 1:
            raise ValueError("WeightedSum needs exactly one member that is "
                             "not an l1 PNorm")

    @property
    def separable(self):
        return True

    def _split(self):
        """(rho, others): the summed weight of the l1 members, the rest."""
        rho, others = 0.0, []
        for p in self.parts:
            if isinstance(p, PNorm) and p.p == 1.0:
                rho += p.c
            else:
                others.append(p)
        return rho, others

    def closed_conjugate(self, xi):
        rho, (g,) = self._split()
        return g.closed_conjugate(_soft(xi, rho))

    def value(self, v):
        return _out(sum(p.value(v) for p in self.parts))

    @property
    def one_hom(self):
        return sum(p.one_hom for p in self.parts)

    # The l1 members' smooth parts are zeros, so the smooth part is the one
    # other member's plus 0.0: the sum of all members' bits, since adding
    # a zero makes that member's -0.0 a +0.0 and changes nothing else.

    def smooth_scalar(self, s):
        return self._split()[1][0].smooth_scalar(s) + 0.0

    def smooth_scalar_grad(self, s):
        return self._split()[1][0].smooth_scalar_grad(s) + 0.0

    def smooth_scalar_hess(self, s):
        return self._split()[1][0].smooth_scalar_hess(s)

    def modulus(self, r):
        return sum(p.modulus(r) for p in self.parts)


class Scaled(DissipationPotential):
    """w * base for a fixed positive weight; the frozen view Psi_u of a
    state-dependent family. Conjugate scales exactly: w * base*(xi / w).
    w is a float, or the (B,) weights of a row batch, row b scaled by w[b]
    with the bits of its one-weight call: w x is one IEEE product either way.
    """

    _fields = ("base", "w")

    def __init__(self, base: DissipationPotential = None, w=1.0):
        # without numpy for a float: p[b] builds one per row of a batch
        if not (0 < w < math.inf if isinstance(w, float)
                else np.all((w > 0) & (w < math.inf))):
            raise ValueError("Scaled needs w > 0, finite")
        self.base = base
        self.w = w

    def _values(self):
        # a weight row compares and hashes by its values, a float as itself
        w = self.w
        return (self.base, tuple(w.tolist()) if isinstance(w, np.ndarray)
                else w)

    def __getitem__(self, rows):
        if not isinstance(self.w, np.ndarray):
            return self
        w = self.w[rows]   # one row's weight as a float, as at_state gives it
        return Scaled(self.base, w if isinstance(w, np.ndarray) else float(w))

    def _lead(self, x):
        """w, shaped to scale x row by row along its leading axes."""
        w = self.w
        return (w.reshape(w.shape + (1,) * (np.ndim(x) - w.ndim))
                if isinstance(w, np.ndarray) else w)

    @property
    def separable(self):
        return self.base.separable

    def value(self, v):
        return self.w * self.base.value(v)

    def closed_conjugate(self, xi):
        return self.w * self.base.closed_conjugate(
            np.asarray(xi) / self._lead(xi))

    @property
    def one_hom(self):
        return self.w * self.base.one_hom

    def scalar(self, s):
        # w times the base's, as value scales it, so both agree bit for bit
        return self._lead(s) * self.base.scalar(s)

    def smooth_scalar(self, s):
        return self._lead(s) * self.base.smooth_scalar(s)

    def smooth_scalar_grad(self, s):
        return self._lead(s) * self.base.smooth_scalar_grad(s)

    def smooth_scalar_hess(self, s):
        return self._lead(s) * self.base.smooth_scalar_hess(s)

    def modulus(self, r):
        return self.w * self.base.modulus(r)


class StateWeighted(DissipationPotential):
    """Family Psi_u(v) = omega(u) * Psi0(v) with 0 < omega_min <= omega <= omega_max.

    Queries take the frozen potential at_state(u); the family itself has no
    value or conjugate.
    """

    _fields = ("base", "omega", "omega_bounds")

    def __init__(self, base: DissipationPotential = None,
                 omega: Callable[[np.ndarray], float] = None,
                 omega_bounds: tuple = (0.0, np.inf)):
        self.base = base
        self.omega = omega
        self.omega_bounds = omega_bounds

    def weight(self, u) -> float:
        """omega(u) of a state u (d,), checked against the bounds."""
        w = float(self.omega(u))
        lo, hi = self.omega_bounds
        if not 0.0 < w < np.inf:
            raise ValueError(f"omega(u) = {w} is not a positive finite weight")
        if not (lo <= w <= hi):
            raise ValueError(f"omega(u) = {w} outside declared bounds [{lo}, {hi}]")
        return w

    def at_state(self, u) -> Scaled:
        """Psi_u of a state (d,), or of the rows of a (B, d) array with one
        weight per row; the first inadmissible row raises its own error."""
        u = as_state(u)
        w = (self.weight(u) if u.ndim == 1
             else np.array([self.weight(x) for x in u], dtype=float))
        return Scaled(base=self.base, w=w)

    def value(self, v):
        raise TypeError("state-dependent potential: freeze it with at_state(u)")

    closed_conjugate = value


class TwoSlope(DissipationPotential):
    """Psi(v) = max(||v||, 2||v|| - 1).

    Designed inadmissible example: convex and nonnegative with Psi(0) = 0,
    but only linear growth, and the subdifferential on the unit sphere is the
    segment [1, 2] with unequal conjugate values (Psi*(1) = 0, Psi*(2) = 1),
    so the equal-conjugate admissibility condition fails there. The
    conjugate is (||xi|| - 1)_+ for ||xi|| <= 2 and infinite beyond.
    """

    def value(self, v):
        # max(r, 2r - 1) as Python's max picks: 2r - 1 only when larger
        r = np.sqrt(np.vecdot(v, v))
        return _out(np.where(2.0 * r - 1.0 > r, 2.0 * r - 1.0, r))

    def scalar(self, s):
        r = np.abs(np.asarray(s, dtype=float))
        return np.maximum(r, 2.0 * r - 1.0)

    def closed_conjugate(self, xi):
        r = np.sqrt(np.vecdot(xi, xi))
        over = np.flatnonzero(r > 2.0)
        if over.size:  # the first such row
            raise MaximizationFailureError(
                f"||xi|| = {float(np.ravel(r)[over[0]]):.3e} exceeds the "
                "largest slope 2; the conjugate is infinite")
        return _out(np.where(0.0 > r - 1.0, 0.0, r - 1.0))


# ---------------------------------------------------------------------------
# module-level queries


def _soft(z, thresh):
    """Soft-threshold: the proximal map of thresh * ||.||_1, as z minus its
    clip to [-thresh, thresh]. It equals sign(z) max(|z| - thresh, 0) bit
    for bit wherever that is nonzero; only the sign of a zero may differ
    (that form gives -0.0 for -thresh <= z < 0, this one +0.0)."""
    return z - np.minimum(np.maximum(z, -thresh), thresh)


def _scalar_conjugate_numeric(p: DissipationPotential, sigma: float) -> float:
    """sup_s sigma*s - scalar(s) by two-sided bracket expansion + Brent;
    the tests' reference for every closed_conjugate."""
    best = 0.0  # s = 0 is always feasible and gives 0
    for sgn in (1.0, -1.0):
        def g(s, sgn=sgn):
            return sigma * sgn * s - float(p.scalar(sgn * s))

        a, b = _optim.bracket_max(g, x0=0.0, step=max(1e-2, abs(sigma)))
        a = max(a, 0.0)
        _, val = _optim.max_scalar(g, a, b, xtol=_CONJ_XTOL)
        best = max(best, val)
    return best


def conjugate(p: DissipationPotential, xi):
    """Psi*(xi) = sup_v <xi,v> - Psi(v), always >= 0, by the closed form of
    the frozen potential p: a float for one xi (d,), the (B,) array for the
    rows of a (B, d) array, row b under p[b]. TwoSlope raises
    MaximizationFailureError where its conjugate is infinite.
    """
    def rows(x, p):
        c = p.closed_conjugate(as_state(x))
        # max(c, 0.0) row by row: 0.0 only below zero, so -0.0 and NaN stay
        return _out(np.where(c < 0.0, 0.0, c))
    return rows(xi, p) if np.ndim(xi) < 2 else row_call(rows, xi, p)


def fenchel_young_gap(p: DissipationPotential, v, xi):
    """Psi(v) + Psi*(xi) - <xi, v>; nonnegative, zero iff xi in dPsi(v).
    A rate and a multiplier give a float, the rows of two (B, d) arrays
    the (B,) array of the rows' gaps."""
    def rows(v, xi, p):
        v = as_state(v)
        xi = as_state(xi, dim=v.shape[-1])
        return p.value(v) + conjugate(p, xi) - _out(np.vecdot(xi, v))
    return rows(v, xi, p) if np.ndim(v) < 2 else row_call(rows, v, xi, p)


# ---------------------------------------------------------------------------
# admissibility audit


class AxiomCheck(FrozenRecord):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail


class AdmissibilityReport(FrozenRecord):
    _fields = ("rows",)

    def __init__(self, rows: tuple = ()):
        self.rows = rows

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, name: str) -> AxiomCheck:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self):
        return {r.name: {"passed": r.passed, "detail": r.detail} for r in self.rows}


def _norm(v) -> float:
    """The Euclidean norm of a vector, sqrt(<v, v>), with the bits
    np.linalg.norm gives it (the package reads nothing of numpy.linalg)."""
    return math.sqrt(float(np.dot(v, v)))


def _one_sided(f, x: float, h: float, side: float) -> float:
    """One-sided difference quotient at x, Richardson-refined once."""
    def d(step):
        return (f(x + side * step) - f(x)) / (side * step)

    return 2.0 * d(h / 2.0) - d(h)


def check_admissible(p: DissipationPotential) -> AdmissibilityReport:
    """Audit the axioms of the frozen potential p on PROBES and RADII.

    Rows: nonnegativity, zero_at_origin, convexity, superlinearity, and
    equal_conjugates, the condition that lambda -> Psi(lambda v) is
    differentiable at lambda = 1 for every probe v (equivalently, all
    subgradients at v share one conjugate value). Failures are rows, not
    exceptions.
    """
    rows = []

    worst = min(p.value(v) for v in PROBES)
    for v in PROBES:
        for r in RADII:
            worst = min(worst, p.value(r * v / _norm(v)))
    rows.append(AxiomCheck("nonnegativity", bool(worst >= -1e-12),
                           f"min sampled value {worst:.3e}"))

    z = p.value(np.zeros(1))
    rows.append(AxiomCheck("zero_at_origin", z == 0.0, f"Psi(0) = {z!r}"))

    conv_ok, conv_worst = True, 0.0
    for v1 in PROBES:
        for v2 in PROBES:
            f1, f2 = p.value(v1), p.value(v2)
            for th in CONVEXITY_THETAS:
                lhs = p.value(th * v1 + (1.0 - th) * v2)
                rhs = th * f1 + (1.0 - th) * f2
                viol = lhs - rhs
                conv_worst = max(conv_worst, viol)
                if viol > 1e-12 * (1.0 + abs(rhs)):
                    conv_ok = False
    rows.append(AxiomCheck("convexity", conv_ok,
                           f"max segment violation {conv_worst:.3e}"))

    # the log-slope log(Psi(r1 vhat) / Psi(r0 vhat)) / log(r1 / r0) over the
    # last decade: scale-free, where the ratio Psi(r vhat) / r grows with c
    r0, r1 = RADII[-3], RADII[-1]
    sup_ok = True
    sup_detail = ""
    for v in PROBES:
        vhat = v / _norm(v)
        vals = [p.value(r * vhat) for r in RADII]
        ratios = np.array(vals) / np.array(RADII)
        nondecreasing = bool(np.all(np.diff(ratios) >= -1e-9 * (1.0 + np.abs(ratios[:-1]))))
        slope = (math.log(vals[-1] / vals[-3]) / math.log(r1 / r0)
                 if vals[-1] > 0.0 and vals[-3] > 0.0 else 0.0)
        if not (nondecreasing and slope > 1.0 + SUPERLIN_DELTA):
            sup_ok = False
            sup_detail = (f"direction {np.round(vhat, 3).tolist()}: "
                          f"log-slope {slope:.6f} vs bound 1 + {SUPERLIN_DELTA:.0e}, "
                          f"nondecreasing={nondecreasing}")
            break
    rows.append(AxiomCheck("superlinearity", sup_ok,
                           sup_detail or f"all log-slopes exceed 1 + {SUPERLIN_DELTA:.0e}"))

    psi3_ok = True
    psi3_detail = ""
    for v in PROBES:
        def f(lam):
            return p.value(lam * v)

        rp = _one_sided(f, 1.0, LAMBDA_STEP, +1.0)
        rm = _one_sided(f, 1.0, LAMBDA_STEP, -1.0)
        tol = 1e-4 * (1.0 + p.value(v))
        if abs(rp - rm) > tol:
            psi3_ok = False
            psi3_detail = (f"at v = {np.round(v, 6).tolist()}: one-sided "
                           f"lambda-derivatives {rm:.6f} / {rp:.6f} differ beyond {tol:.1e}")
            break
    rows.append(AxiomCheck("equal_conjugates", psi3_ok,
                           psi3_detail or "lambda-derivative matches on all probes"))

    return AdmissibilityReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# helpers for the scheme's inner solver


# the doublings 2^k, k <= 400, of rate_bound_radius's search, exact, and
# the ranges of k its passes try: on the benchmark workloads every row hits
# at k = 4 to 7, so the first pass alone answers them
DOUBLINGS = np.array([float(1 << k) for k in range(401)])
RADIUS_PASSES = ((0, 8), (8, 64), (64, 400))


def rate_bound_radius(p: DissipationPotential, tau, budget):
    """Smallest R = r0 2^k, r0 = max(tau, 1e-6) and k < 400, with
    tau * psi_scalar(R / tau) >= budget (r0 2^400 if none), so within a
    factor ~2 of the smallest; max(1e-12, 1e-9 tau) for budget <= 0.

    Inverts the scalar growth of a resolved separable potential; this bounds
    the coercivity box of the per-step objective, since any candidate
    minimizer U must satisfy tau Psi((U - u)/tau) <= budget. The (B,)
    sequences tau and budget give the (B,) array of the rows' radii under
    the potential p of the rows, each with the bits of its one-row call
    (B = 1). The doublings of all rows are a few (B, K) array passes,
    RADIUS_PASSES: the first 8 of every row, and the next ones only for
    the rows that need them; each row's first hit is read on Python
    floats.
    """
    h = np.asarray(tau, dtype=float).reshape(-1, 1)
    b = np.asarray(budget, dtype=float).reshape(-1, 1)
    r0 = np.maximum(h, 1e-6)
    k = [RADIUS_PASSES[-1][1]] * len(h)   # the cap where no doubling hits
    ids = range(len(h))   # the rows no doubling has hit yet
    q, hr, r0r, br = p, h, r0, b   # and their potential, steps, r0, budgets
    # past a row's first hit, its doublings may overflow; they are not read
    with np.errstate(over="ignore"):
        for k0, k1 in RADIUS_PASSES:
            hits = (hr * q.scalar(r0r * DOUBLINGS[k0:k1] / hr) >= br).tolist()
            left = []
            for i, hit in zip(ids, hits):
                if True in hit:
                    k[i] = k0 + hit.index(True)
                else:
                    left.append(i)
            if not left:
                break
            ids, q, hr, r0r, br = left, p[left], h[left], r0[left], b[left]
    return np.array([
        max(1e-12, 1e-9 * t) if bb <= 0.0 else r * float(1 << kb)
        for kb, r, t, bb in zip(k, r0.ravel().tolist(), h.ravel().tolist(),
                                b.ravel().tolist())])


def scalar_derivative(p: DissipationPotential, s):
    """d/ds psi_scalar(s) away from the l1 kink (s != 0 where one_hom > 0):
    of a rate s, or of each entry of a (B,) array under the potential p of
    the rows. The l1 term enters only the rows whose one_hom is nonzero,
    so a -0.0 derivative keeps its sign bit."""
    g = p.smooth_scalar_grad(s)
    oh = p.one_hom
    if isinstance(oh, np.ndarray):
        return np.where(oh != 0.0, g + oh * np.sign(s), g)
    return g + oh * np.sign(s) if oh else g
