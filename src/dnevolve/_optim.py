"""Small deterministic 1D optimization helpers.

Everything here is derivative-free and reproducible: bracket expansion by
doubling, bounded Brent minimization, a vectorized golden-section minimizer
for batches of independent 1D problems, and a guarded stationarity polish
built on Brent's root finder. The package solves its scalar problems with
scan_min and polish_root. bracket_max, max_scalar and golden_min_batched
serve only the tests' reference routes (the numeric conjugate in
potentials, the grid-and-golden eta search in tests/test_energy.py), and
certbench/tracer.py hooks them by name.

The two Brent methods (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 4 and 5) are ports of SciPy's bounded
minimize_scalar and brentq. They make the same float operations in the
same order, so they return the same bits; tests/test_optim.py cross-checks
them against SciPy when it is installed. Carrying them here keeps SciPy's
optimize package, and the subpackages it loads, out of every import.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MaximizationFailureError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_SQRT_EPS = math.sqrt(2.2e-16)
BRACKET_EXPANSIONS = 600   # doublings bracket_max makes at most
BRACKET_CAP = 1e150        # |x| past which bracket_max gives up


def bracket_max(g, x0: float = 0.0, step: float = 1e-2):
    """Expand [x0, x0 + step*2^k] until the concave objective g stops
    increasing; return a bracket (a, b) containing the maximizer.

    A plateau counts as bracketed (g constant beyond the sup is fine).
    Raises MaximizationFailureError if g keeps strictly increasing past
    BRACKET_CAP.
    """
    xs = [x0, x0 + step]
    gs = [g(xs[0]), g(xs[1])]
    if not np.isfinite(gs[1]) or gs[1] <= gs[0]:
        return (x0 - step, x0 + step)
    for _ in range(BRACKET_EXPANSIONS):
        nxt = x0 + (xs[-1] - x0) * 2.0
        if abs(nxt) > BRACKET_CAP:
            break
        val = g(nxt)
        xs.append(nxt)
        gs.append(val)
        if not np.isfinite(val) or val <= gs[-2]:
            return (xs[-3], xs[-1])
    raise MaximizationFailureError(
        "objective still increasing at |x| = %.3e; supremum looks infinite" % xs[-1])


def _direction(v):
    """np.sign(v) + (v == 0): +1 or -1, +1 at zero; NaN stays NaN."""
    if v < 0.0:
        return -1.0
    if v >= 0.0:
        return 1.0
    return v


def _bounded_brent(func, x1: float, x2: float, xatol: float, maxiter: int):
    """Minimize func on [x1, x2] by Brent's bounded method (golden section
    plus parabolic steps); returns the best abscissa found.

    Raises ValueError on non-finite bounds or x1 > x2. Stops after maxiter
    evaluations of func.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = x1, x2
    fulc = a + _INVPHI2 * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _direction(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _INVPHI2 * e
        x = xf + _direction(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf


def max_scalar(g, a: float, b: float, xtol: float = 1e-12):
    """Maximize g on [a, b] with bounded Brent; returns (x, g(x))."""
    x = float(_bounded_brent(lambda x: -g(x), a, b, xtol, 500))
    candidates = [(a, g(a)), (b, g(b)), (x, g(x))]
    x, gx = max(candidates, key=lambda p: p[1])
    return x, gx


def min_scalar(f, a: float, b: float, xtol: float = 1e-12):
    """Bounded Brent on [a, b]; returns (x, f(x)) at the abscissa Brent
    settles on, f(x) taken from Brent's own evaluation. The ends a and b
    are not evaluated: a caller holding f(a) and f(b) compares them."""
    seen = {}

    def recorded(x):
        fx = seen[x] = f(x)
        return fx

    # _bounded_brent returns one of the abscissae it passed to recorded
    x = float(_bounded_brent(recorded, a, b, xtol, 500))
    return x, seen[x]


def golden_min_batched(f, lo: np.ndarray, hi: np.ndarray, iters: int = 90):
    """Vectorized golden-section minimization of independent 1D problems.

    f maps an array of abscissae to an array of values (elementwise
    independent problems). lo/hi are arrays of the same shape. 90 iterations
    shrink the interval by phi^-90 ~ 1e-19, i.e. to rounding.
    Returns (x, f(x)) at the better of the two interior probes.
    """
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(iters):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_new = a + _INVPHI2 * (b - a)
        d_new = a + _INVPHI * (b - a)
        # only one new evaluation per side is needed, but evaluating both
        # keeps the update branch-free; f is assumed cheap and vectorized
        fc = f(c_new)
        fd = f(d_new)
        c, d = c_new, d_new
    x = np.where(fc < fd, c, d)
    fx = np.minimum(fc, fd)
    return x, fx


def local_min_indices(vals: np.ndarray) -> np.ndarray:
    """Indices i with vals[i] <= both neighbors (ends compared one-sided)."""
    v = np.asarray(vals)
    n = v.shape[0]
    if n == 1:
        return np.array([0])
    left_ok = np.empty(n, dtype=bool)
    right_ok = np.empty(n, dtype=bool)
    left_ok[0] = True
    left_ok[1:] = v[1:] <= v[:-1]
    right_ok[-1] = True
    right_ok[:-1] = v[:-1] <= v[1:]
    return np.nonzero(left_ok & right_ok)[0]


def scan_min(f, f_batched, lo: float, hi: float, n_points: int,
             xtol: float = 1e-13):
    """Global 1D minimization: coarse scan, then bounded Brent around every
    local basin of the scan. Returns (x_best, f_best, basins) where basins is
    the list of all refined (x, f) local minima.

    f_batched evaluates f on an array and must equal it elementwise, bit
    for bit: the scan values stand in for f at each basin's bracket ends.
    """
    grid = np.linspace(lo, hi, n_points)
    vals = f_batched(grid)
    basins = []
    for i in local_min_indices(vals):
        ia, ib = max(i - 1, 0), min(i + 1, n_points - 1)
        a, b = float(grid[ia]), float(grid[ib])
        if a == b:
            basins.append((float(grid[i]), float(vals[i])))
            continue
        basins.append(min([(a, float(vals[ia])), (b, float(vals[ib])),
                           min_scalar(f, a, b, xtol=xtol)],
                          key=lambda p: p[1]))
    x_best, f_best = min(basins, key=lambda p: p[1])
    return x_best, f_best, basins


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float,
            rtol: float, maxiter: int):
    """Brent's root finder on [xa, xb], given fa = f(xa) and fb = f(xb).

    Returns the root, or None where it finds none: f(xa) and f(xb) have
    the same sign bit, f returns NaN, or maxiter iterations do not
    converge. Exceptions raised by f propagate.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # the sign bits, not fa * fb, which can underflow to 0
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # IEEE gives +-inf or NaN here, and either one bisects
                stry = math.nan
            bound = abs(spre)
            if not bound < 3.0 * abs(sbis) - delta:
                bound = 3.0 * abs(sbis) - delta
            if 2.0 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            return None
    return None


def polish_root(dphi, x: float, radius: float):
    """Refine a stationary point: if dphi changes sign across
    [x - radius, x + radius], return the Brent root there, else x unchanged.

    Used to sharpen scan/Brent minimizers to machine precision when the
    objective derivative is available and smooth near x. At a kinked
    minimum the sign change persists, so the root finder locates the kink,
    which is exactly the stationarity condition wanted. Any failure (dphi
    raising or returning NaN, no sign change, no convergence in 200
    iterations) keeps x.
    """
    a, b = x - radius, x + radius
    try:
        fa, fb = dphi(a), dphi(b)
    except Exception:
        return x
    if not (np.isfinite(fa) and np.isfinite(fb)) or fa == fb:
        return x
    try:
        root = _brentq(dphi, a, b, fa, fb, xtol=1e-15, rtol=1e-15,
                       maxiter=200)
    except Exception:
        return x
    return x if root is None else root
