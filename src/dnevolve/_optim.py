"""Small deterministic 1D optimization helpers.

Everything here is reproducible: bracket expansion by doubling, bounded
Brent minimization of many problems in lockstep, a vectorized
golden-section minimizer for batches of independent 1D problems, and a
guarded stationarity polish of many problems in lockstep, built on
Brent's root finder. The package solves its scalar problems with
scan_min, which scans many problems as one array and refines all their
basins in one lockstep Brent, and polish_rows. bracket_max, max_scalar,
golden_min_batched and polish_root serve only the tests' reference
routes (the numeric conjugate in potentials, the grid-and-golden eta
search in tests/test_energy.py, the polish of one problem), and
certbench/tracer.py hooks them by name.

The two Brent methods (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 4 and 5) are ports of SciPy's bounded
minimize_scalar and brentq. They make the same float operations in the
same order, so they return the same bits; tests/test_optim.py cross-checks
them against SciPy when it is installed. Each is one generator, which
yields the abscissae it needs and takes their values by send: the bounded
method is _brent_min, the root finder _brent_root. One driver,
_lockstep, runs them: it evaluates the next abscissa of every running
problem in one call, so each problem keeps the bits it gets alone.
_bounded_brent_rows and polish_rows only build the runs and read the
results, and max_scalar and polish_root are their one-problem calls.
Carrying the methods here keeps SciPy's optimize package, and the
subpackages it loads, out of every import.
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
SCAN_XTOL = 1e-13          # Brent's tolerance on scan_min's basins
POLISH_XTOL = 1e-15        # the stationarity polish's xtol and rtol
POLISH_ITERS = 200         # and its iterations per root


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


def _brent_min(x1: float, x2: float, xatol: float, maxiter: int):
    """Brent's bounded method (golden section plus parabolic steps) on
    [x1, x2], as a generator: it yields each abscissa to evaluate, takes
    the value by send, and returns (x, fx), the best abscissa found and the
    value sent for it. _bounded_brent_rows runs many problems of it in
    lockstep.

    Raises ValueError on non-finite bounds or x1 > x2. Stops after maxiter
    evaluations.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = x1, x2
    fulc = a + _INVPHI2 * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = yield xf
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
        fu = yield x
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
    return xf, fx


def _lockstep(runs, values):
    """Drive the generators runs in lockstep: runs[k] is problem k's run,
    or None for a problem with no run. Each round makes one call
    values(x, rows), rows the array of the indices of the runs still
    running and x the array of the abscissae they yielded, and sends each
    run its value. Returns the list of what each run returned, None for a
    problem with no run. Each run takes only its own values, so it gets the
    bits it gets alone. An exception raised by a run or by values
    propagates."""
    out = [None] * len(runs)
    live, x = [], []
    for k, run in enumerate(runs):
        if run is not None:
            try:
                x.append(next(run))
                live.append(k)
            except StopIteration as stop:
                out[k] = stop.value
    while live:
        running, nxt = [], []
        for k, fu in zip(live, values(np.array(x), np.array(live))):
            try:
                nxt.append(runs[k].send(fu))
                running.append(k)
            except StopIteration as stop:
                out[k] = stop.value
        live, x = running, nxt
    return out


def _bounded_brent_rows(func, x1, x2, xatol: float, maxiter: int):
    """Brent's bounded method for K problems at once, in lockstep: problem
    k minimizes on [x1[k], x2[k]] by its own _brent_min, at most maxiter
    evaluations, and _lockstep evaluates the next abscissa of every
    problem still running in one call func(x, rows). Returns (x, fx), each
    problem's best abscissa and the value func gave there. ValueError on a
    non-finite bound or x1 > x2."""
    runs = [_brent_min(a, b, xatol, maxiter)
            for a, b in zip(np.asarray(x1, dtype=float).tolist(),
                            np.asarray(x2, dtype=float).tolist())]
    best = _lockstep(runs, lambda x, rows: np.asarray(
        func(x, rows), dtype=float).tolist())
    return np.array(best, dtype=float).reshape(-1, 2).T


def max_scalar(g, a: float, b: float, xtol: float = 1e-12):
    """Maximize g on [a, b] by one bounded Brent problem; returns (x, g(x))."""
    x = float(_bounded_brent_rows(lambda x, rows: [-g(float(x[0]))],
                                  [a], [b], xtol, 500)[0][0])
    candidates = [(a, g(a)), (b, g(b)), (x, g(x))]
    x, gx = max(candidates, key=lambda p: p[1])
    return x, gx


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


def local_min_indices(vals: np.ndarray):
    """The pairs (rows, i) with vals[rows, i] <= both neighbours in its row
    of a (B, n) array (ends compared one-sided), in row order, as
    np.nonzero gives them; one row is the case B = 1."""
    v = np.asarray(vals)
    ok = np.ones(v.shape, dtype=bool)
    ok[:, 1:] = v[:, 1:] <= v[:, :-1]
    ok[:, :-1] &= v[:, :-1] <= v[:, 1:]
    return np.nonzero(ok)


def scan_min(f, lo, hi, n_points: int):
    """Global 1D minimization of B problems at once: coarse scan, then
    bounded Brent, to SCAN_XTOL, around every local basin of the scan. Problem b minimizes
    f(., b) on [lo[b], hi[b]]. Returns (x_best, f_best, basins), arrays of
    length B; basins[b] counts the refined local minima of problem b, and
    each problem's best is the first basin of least value.

    f(x, rows) evaluates problem rows[...] at x[...] for arrays that
    broadcast: the scan is one call on a (B, n_points) grid with rows a
    (B, 1) column, and one lockstep _bounded_brent_rows refines every basin
    of every problem. f must give each point the same bits whatever the
    shape of the call: the scan values stand in for f at each basin's
    bracket ends.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    B = lo.shape[0]
    grid = np.linspace(lo, hi, n_points).T
    vals = f(grid, np.arange(B)[:, None])
    rows, i = local_min_indices(vals)
    basins = np.bincount(rows, minlength=B)
    if not basins.all():
        raise ValueError("the scan of a problem has no local minimum")
    # each basin's best of its bracket ends and Brent's abscissa, the first
    # of least value; a bracket of zero width is its midpoint alone
    ia, ib = np.maximum(i - 1, 0), np.minimum(i + 1, n_points - 1)
    xa, xb = grid[rows, ia], grid[rows, ib]
    wide = np.flatnonzero(xa != xb)
    bx = np.where(xa != xb, xa, grid[rows, i])
    bf = np.where(xa != xb, vals[rows, ia], vals[rows, i])
    refined = rows[wide]
    for x_new, f_new in ((xb[wide], vals[refined, ib[wide]]),
                         _bounded_brent_rows(
                             lambda x, k: f(x, refined[k]),
                             xa[wide], xb[wide], SCAN_XTOL, 500)):
        at = f_new < bf[wide]
        bx[wide[at]], bf[wide[at]] = x_new[at], f_new[at]
    # each problem's first basin of least value, rank by rank
    first = np.cumsum(basins) - basins
    x_best, f_best = bx[first], bf[first]
    for j in range(1, int(basins.max())):
        has = np.flatnonzero(basins > j)
        k = first[has] + j
        better = bf[k] < f_best[has]
        x_best[has[better]] = bx[k[better]]
        f_best[has[better]] = bf[k[better]]
    return x_best, f_best, basins


def _brent_root(xa: float, xb: float, fa: float, fb: float, xtol: float,
                rtol: float, maxiter: int):
    """Brent's root finder on [xa, xb], given fa = f(xa) and fb = f(xb), as
    a generator: it yields each abscissa to evaluate, takes f there by
    send, and returns the root, or None where it finds none: f(xa) and
    f(xb) have the same sign bit, f gives NaN, or maxiter iterations do
    not converge. polish_rows runs many problems of it in lockstep.
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
        fcur = float((yield xcur))
        if fcur != fcur:
            return None
    return None


def _row_values(f, x, rows):
    """f(x, rows) as a list of floats. When the call raises, each point is
    evaluated alone, in order, and a point that raises alone reads NaN."""
    try:
        return np.asarray(f(x, rows), dtype=float).tolist()
    except Exception:
        out = []
        for i in range(len(rows)):
            try:
                out.append(float(np.asarray(f(x[i:i + 1], rows[i:i + 1]),
                                            dtype=float)[0]))
            except Exception:
                out.append(math.nan)
        return out


def polish_rows(dphi, x, radius):
    """Refine the stationary points x[b] of B problems at once: where
    dphi(., b) changes sign across [x[b] - radius[b], x[b] + radius[b]],
    row b gets the Brent root there, else keeps x[b]. Returns the (B,)
    array.

    Used to sharpen scan/Brent minimizers to machine precision when the
    objective derivative is available and smooth near x. At a kinked
    minimum the sign change persists, so the root finder locates the kink,
    which is exactly the stationarity condition wanted. Any failure (dphi
    raising or giving NaN, no sign change, no convergence in POLISH_ITERS
    iterations) keeps x[b].

    dphi(x, rows) gives the derivative of problem rows[i] at x[i], for
    arrays. One call takes both bracket ends of every row, and _lockstep
    then makes one call per round of the next abscissa of every row still
    running, each row by its own _brent_root. A call that raises is made
    again point by point, and a point that raises alone reads NaN, which
    ends its row's run (_row_values): only the rows whose points raise
    keep their x.
    """
    x = np.asarray(x, dtype=float)
    B = len(x)
    a, b = x - radius, x + radius
    ends = _row_values(dphi, np.concatenate((a, b)), np.arange(2 * B) % B)
    roots = _lockstep(
        [_brent_root(ak, bk, fa, fb, POLISH_XTOL, POLISH_XTOL, POLISH_ITERS)
         if math.isfinite(fa) and math.isfinite(fb) and fa != fb else None
         for ak, bk, fa, fb in zip(a.tolist(), b.tolist(), ends[:B],
                                   ends[B:])],
        lambda x, rows: _row_values(dphi, x, rows))
    return np.array([xb if r is None else r
                     for xb, r in zip(x.tolist(), roots)])


def polish_root(dphi, x: float, radius: float):
    """The one-row call of polish_rows, dphi a function of one float: x
    refined to the Brent root of dphi on [x - radius, x + radius], or x
    unchanged."""
    return float(polish_rows(lambda x, rows: [dphi(v) for v in x.tolist()],
                             [x], radius)[0])
