"""Hot numeric kernels, in numpy.

These are the inner-loop costs of the solver: the Allen-Cahn grid energy
and gradient (called once per objective/gradient evaluation of the
proximal-gradient inner solver, which computes their shared grid terms
once per state) and the piecewise-quadratic double well of
PhaseField1D. numpy is the only backend, so one config writes the same
bytes wherever it runs; BACKEND names it for benchmark records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _forward_diff(u: np.ndarray, dx: float) -> np.ndarray:
    """D+ u with ghost zeros at both ends (Dirichlet): N + 1 differences."""
    g = np.empty(u.shape[0] + 1)
    g[0] = u[0] / dx
    g[1:-1] = (u[1:] - u[:-1]) / dx
    g[-1] = -u[-1] / dx
    return g


def ac_terms(u: np.ndarray, dx: float):
    """The grid terms that ac_energy and ac_grad share: D+ u and u^2 - 1.
    A caller that needs both at one state computes them once and passes
    them to each."""
    return _forward_diff(u, dx), u * u - 1.0


# the Allen-Cahn on-site nonlinearity is the quartic well
# W(s) = (s^2-1)^2/4, with W'(s) = s(s^2-1)


def ac_energy(u: np.ndarray, dx: float, q: float, load: np.ndarray,
              terms=None) -> float:
    g, s = ac_terms(u, dx) if terms is None else terms
    # np.add.reduce is ndarray.sum without its Python frame: the same sum
    grad_term = np.add.reduce(np.abs(g) ** q) * dx / q
    well_term = np.add.reduce(0.25 * s * s) * dx
    load_term = np.dot(load, u) * dx
    return float(grad_term + well_term - load_term)


def ac_grad(u: np.ndarray, dx: float, q: float, load: np.ndarray,
            terms=None) -> np.ndarray:
    g, s = ac_terms(u, dx) if terms is None else terms
    if q == 2.0:
        beta = g
    else:
        # sign(g) |g|^(q-1): the well-defined form of |g|^(q-2) g at g = 0
        beta = np.sign(g) * np.abs(g) ** (q - 1.0)
    out = beta[:-1] - beta[1:]
    out += (u * s - load) * dx
    return out


def double_well(eta):
    """Piecewise-quadratic double well:

        W(eta) = (eta+1)^2        for eta < -1/2
                 -eta^2 + 1/2     for |eta| <= 1/2
                 (eta-1)^2        for eta > 1/2

    Continuous at +-1/2 (both branches give 1/4); wells at eta = +-1.
    Vectorized over eta.
    """
    e = np.asarray(eta, dtype=float)
    out = np.where(
        e < -0.5,
        (e + 1.0) ** 2,
        np.where(e > 0.5, (e - 1.0) ** 2, 0.5 - e * e),
    )
    return out if out.ndim else float(out)
