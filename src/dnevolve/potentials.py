"""Dissipation potentials and their convex-analysis queries.

A dissipation potential Psi is a convex, nonnegative function of the rate v
with Psi(0) = 0 and superlinear growth; state-dependent families Psi_u scale
a base potential by a positive weight omega(u). A family is queried only in
frozen form: psi.at_state(u) is the potential Psi_u (the identity for a
state-independent kind), and every query below takes such a frozen p:

    p.value(v)                       Psi(v)
    conjugate(p, xi)                 Psi*(xi) = sup_v <xi,v> - Psi(v)
    fenchel_young_gap(p, v, xi)      Psi(v) + Psi*(xi) - <xi,v>  (>= 0)
    subdiff_contains(p, v, xi, tol)  gap <= tol  certifies  xi in dPsi(v)
    check_admissible(p)              axiom audit on fixed 1-D probes
                                     (nonnegativity, zero, convexity,
                                     superlinearity, equal-conjugate
                                     condition)

An unfrozen StateWeighted family raises TypeError from all of them.

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

from typing import Callable, Optional

import numpy as np

from . import _optim
from ._record import FrozenRecord
from .errors import DimensionMismatchError, MaximizationFailureError

_CONJ_XTOL = 1e-10
LAMBDA_STEP = 1e-6   # difference step of the equal_conjugates row
SUPERLIN_BOUND = 1e3  # the bound the last superlinearity ratio must reach
CONVEXITY_THETAS = (0.25, 0.5, 0.75)  # convexity interpolation weights
# check_admissible's probe rates, (0.5, 1, 3) x (+, -), and the growth
# ladder of its superlinearity witness
PROBES = tuple(np.array([sgn * mag]) for mag in (0.5, 1.0, 3.0)
               for sgn in (1.0, -1.0))
RADII = tuple(np.logspace(0, 6, 13))


def as_state(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1D float64 state vector."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError("state vectors are 1D")
    if not np.isfinite(v).all():
        raise ValueError("state vector has non-finite coordinates")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(dim, v.shape[0], "state")
    return v


class DissipationPotential(FrozenRecord):
    """Base class of the frozen potentials. Each kind is an immutable value
    (_record.FrozenRecord): it names its fields in `_fields` and sets them
    in its __init__.

    Separable kinds (Psi(v) = sum_i scalar(v_i)) fill in the decomposition
    below, from which `scalar(s)`, the per-coordinate contribution, follows.
    Every state-independent kind gives Psi* by `closed_conjugate`.
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

    def modulus(self, r: float) -> float:
        """Lower bound on the strong-convexity modulus of Psi on the rates
        with |v_i| <= r (r > 0); 0.0 makes no claim. The scheme's n-D
        inner solver uses it to prove a step problem strongly convex."""
        return 0.0

    def label(self) -> str:
        return type(self).__name__

    def at_state(self, u) -> "DissipationPotential":
        """The frozen potential Psi_u; identity for state-independent kinds."""
        return self


class Quadratic(DissipationPotential):
    """Psi(v) = (c/2) ||v||^2; conjugate ||xi||^2 / (2c)."""

    _fields = ("c",)
    separable = True

    def __init__(self, c: float = 1.0):
        if not c > 0:
            raise ValueError("Quadratic needs c > 0")
        self.c = c

    def value(self, v):
        return 0.5 * self.c * float(np.dot(v, v))

    def closed_conjugate(self, xi):
        return float(np.dot(xi, xi)) / (2.0 * self.c)

    def smooth_scalar(self, s):
        return 0.5 * self.c * np.square(s)

    def smooth_scalar_grad(self, s):
        return self.c * np.asarray(s, dtype=float)

    def modulus(self, r):
        return self.c

    def label(self):
        return f"Quadratic(c={self.c})"


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
        if not c > 0:
            raise ValueError("PNorm needs c > 0")
        if not p >= 1:
            raise ValueError("PNorm needs p >= 1")
        self.c = c
        self.p = p

    def value(self, v):
        return float(self.c / self.p * np.sum(np.abs(v) ** self.p))

    def closed_conjugate(self, xi):
        if self.p == 1.0:
            return 0.0 if np.max(np.abs(xi), initial=0.0) <= self.c else np.inf
        q = self.p / (self.p - 1.0)
        try:
            w = self.c ** (1.0 - q)
        except OverflowError:
            # a tiny c: c^(1-q) |xi|^q = c (|xi|/c)^q, which overflows to
            # +inf only where the value does, and is 0 at xi = 0
            with np.errstate(over="ignore"):
                return float(self.c / q * np.sum((np.abs(xi) / self.c) ** q))
        return float(w / q * np.sum(np.abs(xi) ** q))

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

    def modulus(self, r):
        # the scalar's second derivative c (p-1) |s|^(p-2) is smallest at
        # |s| = r for p <= 2 and vanishes at s = 0 for p > 2
        if 1.0 < self.p <= 2.0:
            return self.c * (self.p - 1.0) * r ** (self.p - 2.0)
        return 0.0

    def label(self):
        return f"PNorm(c={self.c}, p={self.p})"


class OneHomPlusQuad(DissipationPotential):
    """Psi(v) = rho ||v||_1 + (eps/2) ||v||^2, the viscous regularization of a
    rate-independent potential; conjugate sum_i ((|xi_i| - rho)_+)^2 / (2 eps).
    """

    _fields = ("rho", "eps")
    separable = True

    def __init__(self, rho: float = 1.0, eps: float = 1.0):
        if rho < 0 or not eps > 0:
            raise ValueError("OneHomPlusQuad needs rho >= 0 and eps > 0")
        self.rho = rho
        self.eps = eps

    def value(self, v):
        return float(self.rho * np.sum(np.abs(v)) + 0.5 * self.eps * np.dot(v, v))

    def closed_conjugate(self, xi):
        excess = np.maximum(np.abs(xi) - self.rho, 0.0)
        return float(np.sum(np.square(excess)) / (2.0 * self.eps))

    @property
    def one_hom(self):
        return self.rho

    def smooth_scalar(self, s):
        return 0.5 * self.eps * np.square(np.asarray(s, dtype=float))

    def smooth_scalar_grad(self, s):
        return self.eps * np.asarray(s, dtype=float)

    def modulus(self, r):
        return self.eps

    def label(self):
        return f"OneHomPlusQuad(rho={self.rho}, eps={self.eps})"


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
        return float(sum(p.value(v) for p in self.parts))

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

    def modulus(self, r):
        return sum(p.modulus(r) for p in self.parts)

    def label(self):
        return "WeightedSum(" + ", ".join(p.label() for p in self.parts) + ")"


class Scaled(DissipationPotential):
    """w * base for a fixed positive weight; the frozen view Psi_u of a
    state-dependent family. Conjugate scales exactly: w * base*(xi / w).
    """

    _fields = ("base", "w")

    def __init__(self, base: DissipationPotential = None, w: float = 1.0):
        if not w > 0:
            raise ValueError("Scaled needs w > 0")
        self.base = base
        self.w = w

    @property
    def separable(self):
        return self.base.separable

    def value(self, v):
        return self.w * self.base.value(v)

    def closed_conjugate(self, xi):
        return self.w * self.base.closed_conjugate(np.asarray(xi) / self.w)

    @property
    def one_hom(self):
        return self.w * self.base.one_hom

    def smooth_scalar(self, s):
        return self.w * self.base.smooth_scalar(s)

    def smooth_scalar_grad(self, s):
        return self.w * self.base.smooth_scalar_grad(s)

    def modulus(self, r):
        return self.w * self.base.modulus(r)

    def label(self):
        return f"{self.w} * {self.base.label()}"


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
        w = float(self.omega(as_state(u)))
        lo, hi = self.omega_bounds
        if not (w > 0.0 and np.isfinite(w)):
            raise ValueError(f"omega(u) = {w} is not a positive finite weight")
        if not (lo <= w <= hi):
            raise ValueError(f"omega(u) = {w} outside declared bounds [{lo}, {hi}]")
        return w

    def at_state(self, u) -> Scaled:
        return Scaled(base=self.base, w=self.weight(u))

    def value(self, v):
        raise TypeError("state-dependent potential: freeze it with at_state(u)")

    closed_conjugate = value

    def label(self):
        return f"StateWeighted({self.base.label()}, omega in {list(self.omega_bounds)})"


class TwoSlope(DissipationPotential):
    """Psi(v) = max(||v||, 2||v|| - 1).

    Designed inadmissible example: convex and nonnegative with Psi(0) = 0,
    but only linear growth, and the subdifferential on the unit sphere is the
    segment [1, 2] with unequal conjugate values (Psi*(1) = 0, Psi*(2) = 1),
    so the equal-conjugate admissibility condition fails there. The
    conjugate is (||xi|| - 1)_+ for ||xi|| <= 2 and infinite beyond.
    """

    def value(self, v):
        r = float(np.linalg.norm(v))
        return max(r, 2.0 * r - 1.0)

    def scalar(self, s):
        r = np.abs(np.asarray(s, dtype=float))
        return np.maximum(r, 2.0 * r - 1.0)

    def closed_conjugate(self, xi):
        r = float(np.linalg.norm(xi))
        if r > 2.0:
            raise MaximizationFailureError(
                f"||xi|| = {r:.3e} exceeds the largest slope 2; "
                "the conjugate is infinite")
        return max(r - 1.0, 0.0)

    def label(self):
        return "TwoSlope"


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


def conjugate(p: DissipationPotential, xi) -> float:
    """Psi*(xi) = sup_v <xi,v> - Psi(v), always >= 0, by the closed form of
    the frozen potential p. TwoSlope raises MaximizationFailureError where
    its conjugate is infinite.
    """
    return max(p.closed_conjugate(as_state(xi)), 0.0)


def fenchel_young_gap(p: DissipationPotential, v, xi) -> float:
    """Psi(v) + Psi*(xi) - <xi, v>; nonnegative, zero iff xi in dPsi(v)."""
    v = as_state(v)
    xi = as_state(xi, dim=v.shape[0])
    return p.value(v) + conjugate(p, xi) - float(np.dot(xi, v))


def subdiff_contains(p: DissipationPotential, v, xi, tol: float) -> bool:
    """True iff the Fenchel-Young gap is at most tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    return fenchel_young_gap(p, v, xi) <= tol


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
            worst = min(worst, p.value(r * v / np.linalg.norm(v)))
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

    sup_ok = True
    sup_detail = ""
    for v in PROBES:
        vhat = v / np.linalg.norm(v)
        ratios = np.array([p.value(r * vhat) / r for r in RADII])
        nondecreasing = bool(np.all(np.diff(ratios) >= -1e-9 * (1.0 + np.abs(ratios[:-1]))))
        exceeds = bool(ratios[-1] >= SUPERLIN_BOUND)
        if not (nondecreasing and exceeds):
            sup_ok = False
            sup_detail = (f"direction {np.round(vhat, 3).tolist()}: "
                          f"final ratio {ratios[-1]:.3e} vs bound {SUPERLIN_BOUND:.1e}, "
                          f"nondecreasing={nondecreasing}")
            break
    rows.append(AxiomCheck("superlinearity", sup_ok,
                           sup_detail or f"all ratios reach {SUPERLIN_BOUND:.1e}"))

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


def rate_bound_radius(p: DissipationPotential, tau: float, budget: float
                      ) -> float:
    """Smallest R (within a factor ~2) with tau * psi_scalar(R / tau) >= budget.

    Inverts the scalar growth of a resolved separable potential; this bounds
    the coercivity box of the per-step objective in 1D, since any candidate
    minimizer U must satisfy tau Psi((U - u)/tau) <= budget.
    """
    if budget <= 0.0:
        return max(1e-12, 1e-9 * tau)
    r = max(tau, 1e-6)
    for _ in range(400):
        if tau * float(p.scalar(r / tau)) >= budget:
            return r
        r *= 2.0
    return r


def scalar_derivative(p: DissipationPotential, s: float) -> float:
    """d/ds psi_scalar(s) away from the l1 kink (s != 0 when one_hom > 0)."""
    g = float(p.smooth_scalar_grad(s))
    if p.one_hom:
        g += p.one_hom * float(np.sign(s))
    return g
