"""Convex-analysis layer: values, conjugates, gaps, admissibility.

The independent oracle here is a dense-grid supremum for conjugates,
written before the closed forms were trusted; every closed-form conjugate
must agree with it on its sampled range, and with the certified numeric
route to 1e-12 relative.
"""

import numpy as np
import pytest

from dnevolve import models, potentials
from dnevolve.errors import DimensionMismatchError, MaximizationFailureError
from dnevolve.models import MODEL_NAMES, build
from dnevolve.potentials import (OneHomPlusQuad, PNorm, Quadratic, Scaled,
                                 StateWeighted, TwoSlope, WeightedSum,
                                 as_state, check_admissible, conjugate,
                                 fenchel_young_gap)


def grid_conjugate(p, xi, lo=-100.0, hi=100.0, step=1e-4):
    """sup over a dense v-grid of xi*v - scalar(v); scalar potentials only."""
    vs = np.arange(lo, hi + step, step)
    return float(np.max(xi * vs - np.asarray(p.scalar(vs), dtype=float)))


def catalogue():
    """Admissible shipped kinds at a few parameter points."""
    return [
        Quadratic(1.0),
        Quadratic(2.5),
        PNorm(1.0, 2.0),
        PNorm(0.5, 3.0),
        PNorm(2.0, 1.5),
        OneHomPlusQuad(1.0, 1.0),
        OneHomPlusQuad(0.3, 0.5),
        WeightedSum((PNorm(1.0, 1.0), PNorm(1.0, 2.0))),
        WeightedSum((PNorm(0.5, 1.0), Quadratic(2.0))),
        Scaled(Quadratic(1.0), 1.7),
    ]


def shipped():
    """(id, frozen potential) for every dissipation models.build or a
    config `dissipation` yields, the id the model name (or "config") and
    the frozen potential's repr."""
    specs = [build(name) for name in MODEL_NAMES if name != "AllenCahn1D"]
    specs += [build("AllenCahn1D", {"N": 4, "p": p, "rho": rho})
              for p in (1.5, 2.0, 3.0) for rho in (0.0, 1.0)]
    frozen = [(s.name, s.dissipation.at_state(np.full(s.dim, 0.3)))
              for s in specs]
    out = [(f"{name}:{p!r}", p) for name, p in frozen]
    for d in ({"kind": "quadratic", "c": 0.7},
              {"kind": "pnorm", "c": 0.7, "p": 1.5},
              {"kind": "one_hom_plus_quad", "rho": 0.4, "eps": 0.7}):
        p = models.build_dissipation(d)
        out.append((f"config:{p!r}", p))
    return out


SHIPPED = shipped()


# ---------------------------------------------------------------------------
# values


def test_eval_quadratic():
    assert Quadratic(1.0).value(np.array([2.0])) == 2.0


def test_eval_one_hom_plus_quad_zero():
    assert OneHomPlusQuad(1.0, 1.0).value(np.array([0.0])) == 0.0


def test_eval_one_hom_plus_quad_mixed():
    # |2| + 0.25 * 4
    assert OneHomPlusQuad(1.0, 0.5).value(np.array([2.0])) \
        == pytest.approx(3.0)


def test_gap_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        fenchel_young_gap(Quadratic(1.0), [1.0], [0.0, 0.0])


def test_as_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_state([np.nan])


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_quadratic_self_dual():
    assert conjugate(Quadratic(1.0), [3.0]) == pytest.approx(4.5)


def test_conjugate_one_hom_plus_quad_frozen():
    # ((|3| - 1)_+)^2 / (2 * 0.5) = 4
    p = OneHomPlusQuad(1.0, 0.5)
    assert conjugate(p, [3.0]) == pytest.approx(4.0)
    assert conjugate(p, [3.0]) == pytest.approx(
        grid_conjugate(p, 3.0), abs=1e-6)


def test_conjugate_zero_is_zero_exactly():
    for p in catalogue():
        assert conjugate(p, [0.0]) == 0.0


def test_conjugate_closed_vs_grid_oracle():
    for p in catalogue():
        if not p.separable:
            continue
        for xi in (-4.0, -1.0, -0.2, 0.7, 2.5):
            closed = conjugate(p, [xi])
            if not np.isfinite(closed):
                continue
            assert closed == pytest.approx(grid_conjugate(p, xi), abs=1e-6)


def test_conjugate_pnorm_p1_indicator():
    p = PNorm(1.0, 1.0)
    assert conjugate(p, [0.5]) == 0.0
    assert conjugate(p, [1.0]) == 0.0
    assert conjugate(p, [2.0]) == np.inf


def test_conjugate_numeric_plateau_is_bracketed():
    # the two-slope profile has flat sup objectives at its slope values
    p = TwoSlope()
    assert conjugate(p, [1.0]) == pytest.approx(0.0, abs=1e-9)
    assert conjugate(p, [1.5]) == pytest.approx(0.5, abs=1e-8)
    assert conjugate(p, [2.0]) == pytest.approx(1.0, abs=1e-8)


def test_conjugate_numeric_unbounded_raises():
    with pytest.raises(MaximizationFailureError):
        conjugate(TwoSlope(), [2.5])


def test_pnorm_conjugate_with_tiny_c_does_not_overflow():
    # c^(1-q) = 1e600 leaves the float range (q = 3); the conjugate
    # (1/3) c^-2 |xi|^3 is +inf at xi = 1, 0 at xi = 0, and 1/3 at 1e-200
    p = PNorm(1e-300, 1.5)
    assert conjugate(p, [1.0]) == np.inf
    assert conjugate(p, [0.0]) == 0.0
    assert conjugate(p, [1e-200]) == pytest.approx(1.0 / 3.0, rel=1e-12)


# the catalogue and every shipped potential, by repr, and for the numeric
# cross-check three more sums
BUILT = {repr(p): p for p in catalogue() + [p for _, p in SHIPPED]}
CLOSED_VS_NUMERIC = {**BUILT, **{repr(p): p for p in (
    WeightedSum((PNorm(0.3, 1.0), PNorm(0.2, 1.0), PNorm(0.5, 3.0))),
    WeightedSum((PNorm(0.4, 1.0), OneHomPlusQuad(0.3, 0.5))),
    Scaled(WeightedSum((PNorm(0.25, 1.0), PNorm(0.25, 1.5))), 1.7))}}


@pytest.mark.parametrize("p", CLOSED_VS_NUMERIC.values(),
                         ids=CLOSED_VS_NUMERIC.keys())
def test_closed_conjugate_matches_numeric_reference(p):
    # |xi_i| = rho, the l1 weight, puts the sup objective on a plateau
    # around s = 0, the case the bracket expansion must handle
    assert p.separable
    rho = p.one_hom or 1.0
    for xi in ([rho, -rho, 2.5], [-rho, 0.0, 0.6 * rho],
               [-3.0, 1.1 * rho, -0.4], [rho, rho, -rho]):
        xi = np.array(xi)
        closed = conjugate(p, xi)
        ref = sum(potentials._scalar_conjugate_numeric(p, float(s))
                  for s in xi)
        assert abs(closed - ref) <= 1e-12 * (1.0 + abs(closed)), (xi, closed,
                                                                   ref)


@pytest.mark.parametrize("thresh", [0.0, 1e-300, 1e-3, 1.0, 3.0])
def test_soft_threshold_is_bitwise_the_sign_form(thresh):
    # the clip form z - clip(z, -t, t) against sign(z) max(|z| - t, 0):
    # equal bit for bit at every nonzero value, +0.0 at every zero for t > 0
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, thresh, -thresh, np.nextafter(thresh, 9.0),
             -np.nextafter(thresh, 9.0), np.inf, -np.inf]
    z = np.concatenate([rng.normal(size=2000) * scale
                        for scale in (1e-300, 1e-5, 1.0, 1e5)] + [edges])
    got = potentials._soft(z, thresh)
    ref = np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0)
    nonzero = ref != 0.0
    assert np.array_equal(got[nonzero].view(np.int64),
                          ref[nonzero].view(np.int64))
    assert np.all(got[~nonzero] == 0.0)
    if thresh > 0.0:
        assert not np.signbit(got[~nonzero]).any()


@pytest.mark.parametrize("parts", [
    (PNorm(0.5, 1.0), PNorm(1.0, 1.5)),
    (Quadratic(2.0), PNorm(0.25, 1.0)),
    (PNorm(0.3, 1.0), OneHomPlusQuad(0.5, 2.0), PNorm(0.2, 1.0)),
    (PNorm(1.0, 3.0),),
])
def test_weighted_sum_smooth_part_is_its_members_sum_bitwise(parts):
    # the smooth part is the non-l1 member's plus 0.0, not the sum over
    # every member: the same bits, the sign of every zero included (the
    # member's gradient at s = -0.0 is -0.0, which the sum made +0.0)
    ws = WeightedSum(parts)
    rng = np.random.default_rng(2)
    s = np.concatenate([rng.normal(size=200) * scale
                        for scale in (1e-300, 1e-3, 1.0, 1e3)]
                       + [[0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf]])
    for got, want in ((ws.smooth_scalar(s),
                       sum(p.smooth_scalar(s) for p in parts)),
                      (ws.smooth_scalar_grad(s),
                       sum(p.smooth_scalar_grad(s) for p in parts))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for x in (0.0, -0.0, 0.5, -2.0):
        assert float(ws.smooth_scalar_grad(x)).hex() == float(
            sum(p.smooth_scalar_grad(x) for p in parts)).hex()


def test_weighted_sum_without_exactly_one_non_l1_member_is_rejected():
    # only a sum of l1 members and one other member has a closed conjugate
    for parts in ((PNorm(0.5, 1.0), PNorm(1.0, 1.5), Quadratic(1.0)),
                  (PNorm(1.0, 1.5), Quadratic(1.0)),
                  (PNorm(0.5, 1.0), PNorm(0.2, 1.0)),
                  ()):
        with pytest.raises(ValueError, match="exactly one member"):
            WeightedSum(parts)


@pytest.mark.parametrize("label,p", SHIPPED, ids=[lab for lab, _ in SHIPPED])
def test_shipped_potentials_have_closed_conjugates(label, p):
    assert conjugate(p, np.linspace(-3.0, 3.0, 4)) > 0.0


def test_biconjugation_on_samples():
    # (Psi*)* computed numerically from the closed conjugate must return Psi
    for p in catalogue():
        if not p.separable:
            continue
        for v in (-2.0, -0.5, 0.0, 1.0, 3.0):
            xis = np.arange(-60.0, 60.0, 1e-3)
            stars = np.array([conjugate(p, [x]) for x in
                              np.arange(-60.0, 60.0, 0.25)])
            coarse = np.arange(-60.0, 60.0, 0.25)
            bicon = np.max(coarse * v - stars)
            assert bicon <= p.value(np.array([v])) + 1e-8
    # the coarse xi-grid undershoots; a matching fine check on one kind
    p = OneHomPlusQuad(1.0, 1.0)
    xis = np.arange(-10.0, 10.0, 1e-3)
    stars = (np.maximum(np.abs(xis) - 1.0, 0.0) ** 2) / 2.0
    for v in (-2.0, -0.5, 0.0, 1.0, 3.0):
        bicon = float(np.max(xis * v - stars))
        assert bicon == pytest.approx(p.value(np.array([v])), abs=1e-5)


# ---------------------------------------------------------------------------
# Fenchel-Young gap


def test_gap_quadratic_equality_case():
    assert fenchel_young_gap(Quadratic(1.0), [2.0], [2.0]) == 0.0


def test_gap_quadratic_frozen():
    assert fenchel_young_gap(Quadratic(1.0), [2.0], [0.0]) \
        == pytest.approx(2.0)


def test_gap_one_hom_ball_interior():
    assert fenchel_young_gap(OneHomPlusQuad(1.0, 1.0), [0.0], [0.5]) \
        == pytest.approx(0.0, abs=1e-15)


def test_gap_nonnegative_on_random_pairs():
    rng = np.random.default_rng(20260816)
    cat = catalogue()
    worst = 0.0
    for _ in range(2000):
        p = cat[rng.integers(len(cat))]
        v = rng.normal(scale=3.0, size=1)
        xi = rng.normal(scale=3.0, size=1)
        g = fenchel_young_gap(p, v, xi)
        if np.isfinite(g):
            worst = min(worst, g)
    assert worst >= -1e-12


def test_gap_certifies_subdifferential_membership_frozen_cases():
    # xi in dPsi(v) iff the Fenchel-Young gap is 0; up to a tolerance
    assert fenchel_young_gap(Quadratic(1.0), [2.0], [2.0]) <= 1e-10
    # gap = Psi*(1.2) = 0.02 exactly
    assert not fenchel_young_gap(OneHomPlusQuad(1.0, 1.0), [0.0],
                                 [1.2]) <= 1e-10
    assert fenchel_young_gap(PNorm(1.0, 2.0), [0.0], [0.0]) <= 1e-10


# ---------------------------------------------------------------------------
# state-dependent potentials


def _omega(u):
    return 1.0 + 0.5 * np.tanh(float(u[0]))


def test_state_weighted_scaling_exact():
    base = Quadratic(1.0)
    w = StateWeighted(base, _omega, (0.5, 1.5))
    u = np.array([0.7])
    om = _omega(u)
    v = np.array([1.3])
    assert w.at_state(u).value(v) == om * base.value(v)
    xi = np.array([2.1])
    assert conjugate(w.at_state(u), xi) == pytest.approx(
        om * base.closed_conjugate(xi / om), abs=1e-10)


def test_state_weighted_requires_state():
    # an unfrozen family is refused by every query, as a TypeError
    w = StateWeighted(Quadratic(1.0), _omega, (0.5, 1.5))
    for query in (lambda: w.value(np.array([1.0])),
                  lambda: conjugate(w, [1.0]),
                  lambda: fenchel_young_gap(w, [1.0], [1.0]),
                  lambda: check_admissible(w)):
        with pytest.raises(TypeError, match="at_state"):
            query()


def test_state_weighted_rejects_weight_outside_bounds():
    w = StateWeighted(Quadratic(1.0), lambda u: 2.0, (0.5, 1.5))
    with pytest.raises(ValueError):
        w.at_state(np.array([0.0]))


def test_scaled_matches_weighted_sum_of_one():
    p = Scaled(Quadratic(2.0), 0.6)
    v = np.array([1.1])
    assert p.value(v) == pytest.approx(0.6 * Quadratic(2.0).value(v))
    xi = np.array([0.9])
    assert conjugate(p, xi) == pytest.approx(
        0.6 * Quadratic(2.0).closed_conjugate(xi / 0.6), abs=1e-12)


# ---------------------------------------------------------------------------
# admissibility audit


def test_admissibility_catalogue_passes():
    for p in catalogue():
        rep = check_admissible(p)
        assert rep.passed, f"{p!r}: {rep.to_dict()}"


def test_admissibility_state_weighted_frozen_slice_passes():
    w = StateWeighted(Quadratic(1.0), _omega, (0.5, 1.5))
    rep = check_admissible(w.at_state(np.array([0.3])))
    assert rep.passed


def test_admissibility_counterexample_fails_equal_conjugates():
    rep = check_admissible(TwoSlope())
    rows = {r.name: r for r in rep.rows}
    assert rows["nonnegativity"].passed
    assert rows["zero_at_origin"].passed
    assert rows["convexity"].passed
    # linear growth: the two-slope profile also fails the superlinearity
    # witness, and that is correct; the designed failure is the conjugate one
    assert not rows["superlinearity"].passed
    assert not rows["equal_conjugates"].passed
    assert not rep.passed


@pytest.mark.parametrize("p", [
    PNorm(1.0, 1.5), Quadratic(1e-3),
    build("AllenCahn1D", {"N": 32, "p": 1.5}).dissipation,
    build("AllenCahn1D", {"N": 1024, "p": 1.5}).dissipation], ids=repr)
def test_superlinearity_is_scale_free(p):
    # the row reads Psi's log-slope over the last decade of RADII, which the
    # scale c does not move; each of these failed the ratio bound
    # Psi(1e6 v) / 1e6 >= 1e3 it replaced
    rep = check_admissible(p)
    assert rep.row("superlinearity").passed, rep.to_dict()
    assert rep.passed


def test_linear_growth_fails_superlinearity():
    rep = check_admissible(PNorm(1.0, 1.0))
    assert not rep.row("superlinearity").passed
    assert "log-slope 1.000000" in rep.row("superlinearity").detail


def test_lambda_derivatives_are_bitwise_the_two_quotients():
    # the equal_conjugates row's one-sided quotients of lambda -> Psi(lambda v)
    # at 1, against the two Richardson-refined quotients they replaced
    h = potentials.LAMBDA_STEP
    for p in catalogue() + [TwoSlope()]:
        for v in potentials.PROBES:
            def f(lam):
                return p.value(lam * v)

            def dplus(step):
                return (p.value((1.0 + step) * v) - p.value(v)) / step

            def dminus(step):
                return (p.value(v) - p.value((1.0 - step) * v)) / step

            assert potentials._one_sided(f, 1.0, h, +1.0) \
                == 2.0 * dplus(h / 2) - dplus(h)
            assert potentials._one_sided(f, 1.0, h, -1.0) \
                == 2.0 * dminus(h / 2) - dminus(h)


def test_admissibility_counterexample_one_sided_slopes():
    # lambda -> Psi(lambda v) at v = 1 has slopes 1 (left) and 2 (right)
    p = TwoSlope()
    h = 1e-7
    left = (p.value(np.array([1.0])) - p.value(np.array([1.0 - h]))) / h
    right = (p.value(np.array([1.0 + h])) - p.value(np.array([1.0]))) / h
    assert left == pytest.approx(1.0, abs=1e-6)
    assert right == pytest.approx(2.0, abs=1e-6)


def test_admissibility_report_serializes():
    rep = check_admissible(Quadratic(1.0))
    assert rep.passed
    d = rep.to_dict()
    assert set(d) == {"nonnegativity", "zero_at_origin", "convexity",
                      "superlinearity", "equal_conjugates"}
    assert all(entry["passed"] for entry in d.values())
    assert rep.row("convexity").passed


# ---------------------------------------------------------------------------
# finite parameters


@pytest.mark.parametrize("make", [
    lambda: Quadratic(np.inf), lambda: Quadratic(np.nan),
    lambda: PNorm(np.inf), lambda: PNorm(1.0, np.inf),
    lambda: PNorm(np.nan), lambda: PNorm(1.0, np.nan),
    lambda: OneHomPlusQuad(rho=np.inf), lambda: OneHomPlusQuad(rho=np.nan),
    lambda: OneHomPlusQuad(eps=np.inf), lambda: OneHomPlusQuad(eps=np.nan),
    lambda: Scaled(Quadratic(), float("inf")),
    lambda: Scaled(Quadratic(), np.float64(np.inf)),
    lambda: Scaled(Quadratic(), float("nan")),
    lambda: Scaled(Quadratic(), np.array([1.0, np.inf])),
    lambda: Scaled(Quadratic(), np.array([np.nan, 1.0])),
])
def test_constructors_reject_non_finite_parameters(make):
    # an infinite constant or weight gave NaN values (inf * 0 at v = 0)
    with pytest.raises(ValueError, match="finite"):
        make()


def test_finite_parameters_are_unchanged():
    zero, one = np.zeros(1), np.ones(1)
    big = [Quadratic(1e308), PNorm(1e308, 8.0), OneHomPlusQuad(1e308, 1e308),
           OneHomPlusQuad(0.0, 1e-300), Scaled(Quadratic(), 1e308),
           Scaled(Quadratic(), 5e-324)]
    for p in big:
        assert p.value(zero) == 0.0
    assert Quadratic(1e308).value(one) == 5e307
    assert PNorm(2.0, 8.0).value(one) == 0.25
    assert Scaled(Quadratic(), 2.0).value(one) == 1.0
    rows = Scaled(Quadratic(), np.array([1.0, 1e308]))
    assert rows.value(np.zeros((2, 1))).tolist() == [0.0, 0.0]
    assert rows.value(np.ones((2, 1))).tolist() == [0.5, 5e307]
    assert rows[1] == Scaled(Quadratic(), 1e308)


# ---------------------------------------------------------------------------
# scheme-facing helpers


def test_rate_bound_radius_inverts_budget():
    for p in (Quadratic(1.0), OneHomPlusQuad(1.0, 0.5),
              WeightedSum((PNorm(1.0, 1.0), PNorm(1.0, 2.0)))):
        tau, budget = 2.0 ** -7, 0.8
        (R,) = potentials.rate_bound_radius(p, [tau], [budget])
        # tau Psi(R'/tau) > budget for any R' noticeably beyond R
        beyond = 1.01 * R + 1e-9
        assert tau * float(p.scalar(beyond / tau)) >= budget


def per_class_scalar(p, s):
    """The per-class scalar formulas the one base-class scalar replaced."""
    if isinstance(p, Quadratic):
        return 0.5 * p.c * np.square(s)
    if isinstance(p, PNorm):
        return p.c / p.p * np.abs(s) ** p.p
    if isinstance(p, OneHomPlusQuad):
        s = np.asarray(s, dtype=float)
        return p.rho * np.abs(s) + 0.5 * p.eps * np.square(s)
    if isinstance(p, WeightedSum):
        return sum(per_class_scalar(q, s) for q in p.parts)
    assert isinstance(p, Scaled)
    return p.w * per_class_scalar(p.base, s)


@pytest.mark.parametrize("p", BUILT.values(), ids=BUILT.keys())
def test_scalar_is_bitwise_the_per_class_formula(p):
    grid = np.concatenate(([0.0, 1e6, -1e6, 1e-300, -1e-12],
                           np.linspace(-4.0, 4.0, 81)))
    for s in [grid] + [float(s) for s in grid[:5]]:
        assert (np.asarray(p.scalar(s)).tobytes()
                == np.asarray(per_class_scalar(p, s)).tobytes())


SEPARABLE = [p for p in catalogue() if p.separable]
ONE_COORDINATE = {repr(p): p for p in SEPARABLE + [
    Scaled(p, 1.7) for p in SEPARABLE if not isinstance(p, Scaled)]}


@pytest.mark.parametrize("p", ONE_COORDINATE.values(),
                         ids=ONE_COORDINATE.keys())
def test_scalar_is_bitwise_the_value_of_one_coordinate(p):
    # the 1-D scan and rate_bound_radius read scalar, the witness and the
    # certificate value: Psi in d = 1 has one body
    rng = np.random.default_rng(3)
    s = np.concatenate(([0.0, -0.0], 4.0 * rng.standard_normal(30000),
                        rng.uniform(-1e-3, 1e-3, 30000)))
    assert (np.asarray(p.scalar(s)).tobytes()
            == np.asarray(p.value(s[:, None])).tobytes())


def test_scalar_derivative_matches_finite_differences():
    for p in (Quadratic(2.0), OneHomPlusQuad(0.7, 1.3), PNorm(1.0, 3.0)):
        for s in (-1.4, -0.3, 0.8, 2.2):
            h = 1e-7
            fd = (float(p.scalar(s + h)) - float(p.scalar(s - h))) / (2 * h)
            assert potentials.scalar_derivative(p, s) == pytest.approx(
                fd, abs=1e-5)


MODULI = [
    (Quadratic(2.5), lambda r: 2.5),
    (OneHomPlusQuad(0.3, 0.5), lambda r: 0.5),
    (PNorm(1.0, 2.0), lambda r: 1.0),
    (PNorm(2.0, 1.5), lambda r: r ** -0.5),
    (PNorm(0.5, 3.0), lambda r: 0.0),
    (PNorm(1.0, 1.0), lambda r: 0.0),
    (WeightedSum((PNorm(1.0, 1.0), WeightedSum((PNorm(0.5, 1.0),
                                                 Quadratic(0.5))))),
     lambda r: 0.5),
    (Scaled(PNorm(2.0, 1.5), 1.7), lambda r: 1.7 * r ** -0.5),
    (TwoSlope(), lambda r: 0.0),
]


@pytest.mark.parametrize("p,expect", MODULI,
                         ids=[repr(p) for p, _ in MODULI])
def test_modulus_is_a_sound_strong_convexity_bound(p, expect):
    # the declared value, and the midpoint inequality it promises on [-r, r]
    def f(s):
        return np.asarray(p.scalar(s), dtype=float)

    for r in (0.5, 2.0, 10.0):
        mu = p.modulus(r)
        assert mu == pytest.approx(expect(r), rel=1e-15, abs=0.0)
        a, b = np.meshgrid(r * np.linspace(-1.0, 1.0, 41),
                           r * np.linspace(-1.0, 1.0, 41))
        viol = f(0.5 * (a + b)) - 0.5 * (f(a) + f(b)) \
            + mu / 8.0 * np.square(a - b)
        assert np.max(viol) <= 1e-12 * (1.0 + np.max(f(a)))
