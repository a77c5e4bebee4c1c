"""The package's value classes: equality, hashing, repr, immutability and
argument validation of every class built on _record's bases, the two
classes that stay dataclasses, and an import guard against new
@dataclass decorations (each costs generated-code compiles on every
import)."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dnevolve import diagnostics as D
from dnevolve import energy as E
from dnevolve import models as M
from dnevolve import potentials as P
from dnevolve import scheme as S
from dnevolve.errors import RangeError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_Z, _ONE = np.zeros(1), np.ones(1)
_ROW = D.RefinementRow(tau=0.1, N=10)

# (make, make_other, repr): make() builds a fresh value equal to the last,
# make_other() one of the same class that differs from it (None when the
# class has no fields), and repr is make()'s repr as the dataclass wrote it
CASES = {
    "Quadratic": (lambda: P.Quadratic(c=2.5), lambda: P.Quadratic(),
                  "Quadratic(c=2.5)"),
    "PNorm": (lambda: P.PNorm(c=1.0, p=1.5), lambda: P.PNorm(2.0, 1.0),
              "PNorm(c=1.0, p=1.5)"),
    "OneHomPlusQuad": (lambda: P.OneHomPlusQuad(rho=0.5, eps=2.0),
                       lambda: P.OneHomPlusQuad(),
                       "OneHomPlusQuad(rho=0.5, eps=2.0)"),
    "WeightedSum": (
        lambda: P.WeightedSum(parts=(P.PNorm(c=0.5, p=1.0), P.Quadratic())),
        lambda: P.WeightedSum((P.Quadratic(),)),
        "WeightedSum(parts=(PNorm(c=0.5, p=1.0), Quadratic(c=1.0)))"),
    "Scaled": (lambda: P.Scaled(base=P.Quadratic(1.0), w=2.0),
               lambda: P.Scaled(), "Scaled(base=Quadratic(c=1.0), w=2.0)"),
    "StateWeighted": (
        lambda: P.StateWeighted(base=P.Quadratic(), omega=sum,
                                omega_bounds=(0.5, 2.0)),
        lambda: P.StateWeighted(),
        "StateWeighted(base=Quadratic(c=1.0), omega=<built-in function "
        "sum>, omega_bounds=(0.5, 2.0))"),
    "TwoSlope": (lambda: P.TwoSlope(), None, "TwoSlope()"),
    "AxiomCheck": (lambda: P.AxiomCheck("convexity", True, "ok"),
                   lambda: P.AxiomCheck("convexity", False, "ok"),
                   "AxiomCheck(name='convexity', passed=True, detail='ok')"),
    "AdmissibilityReport": (
        lambda: P.AdmissibilityReport(
            rows=(P.AxiomCheck("zero_at_origin", False, "x"),)),
        lambda: P.AdmissibilityReport(),
        "AdmissibilityReport(rows=(AxiomCheck(name='zero_at_origin', "
        "passed=False, detail='x'),))"),
    "EnergyConstants": (lambda: E.EnergyConstants(1.0, 2.0, 3.0, 0.5),
                        lambda: E.EnergyConstants(1.0, 2.0, 3.0, 0.25),
                        "EnergyConstants(C0=1.0, C1=2.0, C2=3.0, tau_o=0.5)"),
    "ModelSpec": (
        lambda: M.ModelSpec(name="m", dim=1, energy=None,
                            dissipation=P.Quadratic()),
        lambda: M.ModelSpec("m", 1, None, P.Quadratic(), parameters={"a": 1}),
        "ModelSpec(name='m', dim=1, energy=None, dissipation=Quadratic(c=1.0),"
        " exact_solution=None, parameters={})"),
    "TimeGrid": (lambda: S.TimeGrid(T=1.0, tau=0.25),
                 lambda: S.TimeGrid(1.0, 0.125), "TimeGrid(T=1.0, tau=0.25)"),
    "SolveOptions": (lambda: S.SolveOptions(seed=3, eps_quad=1e-6),
                     lambda: S.SolveOptions(),
                     "SolveOptions(seed=3, eps_quad=1e-06)"),
    "StepTerms": (
        lambda: D.StepTerms(psi=_Z, conj=_Z, P=_Z, gap=_Z, chain=_Z),
        lambda: D.StepTerms(_Z, _Z, _Z, _Z, _ONE),
        "StepTerms(psi=array([0.]), conj=array([0.]), P=array([0.]), "
        "gap=array([0.]), chain=array([0.]))"),
    "StepInequalityResult": (
        lambda: D.StepInequalityResult(max_defects=_Z, end_defects=_Z,
                                       eps_quad=1e-6, m=8),
        lambda: D.StepInequalityResult(_Z, _Z, 1e-6, 4),
        "StepInequalityResult(max_defects=array([0.]), end_defects=array("
        "[0.]), eps_quad=1e-06, m=8)"),
    "RefinementTable": (
        lambda: D.RefinementTable(rows=[_ROW]),
        lambda: D.RefinementTable([]),
        "RefinementTable(rows=[RefinementRow(tau=0.1, N=10, status='ok', "
        "energy_identity_defect=None, dissipation_integral=None, "
        "conjugate_dissipation_integral=None, P_integral=None, "
        "sup_interpolant_distance=None, dissipation_integral_diff=None)], "
        "finest=None)"),
    "DiagnosticsReport": (
        lambda: D.DiagnosticsReport(per_step=[], overall={}),
        lambda: D.DiagnosticsReport([], {}, refinement=[]),
        "DiagnosticsReport(per_step=[], overall={}, refinement=None)"),
}
MUTABLE = {"RefinementTable", "DiagnosticsReport"}
UNHASHABLE_FIELDS = {"ModelSpec", "StepTerms", "StepInequalityResult"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_repr(name):
    make, make_other, text = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert repr(a) == text
    if make_other is not None:
        assert a != make_other() and not a == make_other()
    assert a != object() and a.__eq__(5) is NotImplemented
    other = P.TwoSlope() if name != "TwoSlope" else P.Quadratic()
    assert a != other


@pytest.mark.parametrize("name", sorted(CASES))
def test_hash_and_immutability(name):
    make = CASES[name][0]
    a = make()
    fields = list(inspect.signature(type(a)).parameters)
    field = fields[0] if fields else "c"
    if name in MUTABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
        setattr(a, field, None)
        assert getattr(a, field) is None
        return
    if name in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
    else:
        assert hash(a) == hash(make())
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"cannot assign to field '{field}'"):
        setattr(a, field, 1.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'new'"):
        a.new = 1
    if fields:
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{field}'"):
            delattr(a, field)
    assert a == make()


@pytest.mark.parametrize("make,exc,message", [
    (lambda: P.Quadratic(c=0), ValueError, "Quadratic needs c > 0"),
    (lambda: P.PNorm(c=-1), ValueError, "PNorm needs c > 0"),
    (lambda: P.PNorm(p=0.5), ValueError, "PNorm needs p >= 1"),
    (lambda: P.OneHomPlusQuad(rho=-1), ValueError,
     "OneHomPlusQuad needs rho >= 0 and eps > 0"),
    (lambda: P.OneHomPlusQuad(eps=0), ValueError,
     "OneHomPlusQuad needs rho >= 0 and eps > 0"),
    (lambda: P.WeightedSum(), ValueError,
     "WeightedSum needs exactly one member that is not an l1 PNorm"),
    (lambda: P.WeightedSum(parts=(P.TwoSlope(),)), ValueError,
     "WeightedSum members must be separable"),
    (lambda: P.WeightedSum((P.Quadratic(), P.Quadratic())), ValueError,
     "WeightedSum needs exactly one member that is not an l1 PNorm"),
    (lambda: P.Scaled(w=0), ValueError, "Scaled needs w > 0"),
    (lambda: S.TimeGrid(T=0, tau=1), RangeError,
     "TimeGrid requires T > 0; got 0"),
    (lambda: S.TimeGrid(T=float("inf"), tau=1), RangeError,
     "TimeGrid requires T > 0; got inf"),
    (lambda: S.TimeGrid(T=1, tau=2), RangeError,
     "TimeGrid requires 0 < tau <= T; got tau=2"),
    (lambda: S.TimeGrid(1.0), TypeError,
     r"TimeGrid.__init__\(\) missing 1 required positional argument: 'tau'"),
    (lambda: P.Quadratic(x=1), TypeError,
     r"Quadratic.__init__\(\) got an unexpected keyword argument 'x'"),
    (lambda: E.EnergyConstants(1, 2, 3), TypeError,
     r"EnergyConstants.__init__\(\) missing 1 required positional "
     r"argument: 'tau_o'"),
    (lambda: M.ModelSpec("m", 1), TypeError,
     r"ModelSpec.__init__\(\) missing 2 required positional arguments: "
     r"'energy' and 'dissipation'"),
    (lambda: D.StepTerms(_Z), TypeError,
     r"StepTerms.__init__\(\) missing 4 required positional arguments"),
    (lambda: S.SolveOptions(1, 2, 3), TypeError,
     r"SolveOptions.__init__\(\) takes from 1 to 3 positional arguments "
     r"but 4 were given"),
    (lambda: P.TwoSlope(1), TypeError, "TwoSlope"),
])
def test_constructors_reject_bad_arguments(make, exc, message):
    with pytest.raises(exc, match=message):
        make()


def test_dataclass_replace_gives_a_trajectory_an_empty_memo():
    spec = M.build("QuadraticBenchmark", {})
    traj = S.solve(spec.energy, spec.dissipation, np.zeros(1),
                   S.TimeGrid(0.5, 0.125))
    terms = D._certified(traj, "_per_step_terms")
    copy = dataclasses.replace(traj)
    assert "_certificate_memo" not in vars(copy)
    assert D._certified(copy, "_per_step_terms") is not terms
    assert D._certified(traj, "_per_step_terms") is terms


def test_refinement_row_columns_are_unchanged():
    # the header and cell order of refinement.csv
    assert [f.name for f in dataclasses.fields(D.RefinementRow)] == [
        "tau", "N", "status", "energy_identity_defect",
        "dissipation_integral", "conjugate_dissipation_integral",
        "P_integral", "sup_interpolant_distance",
        "dissipation_integral_diff"]
    assert dataclasses.astuple(_ROW)[:3] == (0.1, 10, "ok")


GUARD = """
import dataclasses, json
decorated = []
dataclass = dataclasses.dataclass
def counting(cls=None, /, **kw):
    def wrap(c):
        if c.__module__.startswith("dnevolve"):
            decorated.append(c.__qualname__)
        return dataclass(c, **kw)
    return wrap if cls is None else wrap(cls)
dataclasses.dataclass = counting
import dnevolve, dnevolve.cli
print(json.dumps(sorted(decorated)))
"""


def test_import_decorates_only_the_two_dataclasses():
    # a dataclass compiles its generated methods at import; the package
    # keeps the two whose dataclasses.fields/astuple/replace are used
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", GUARD], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["DiscreteTrajectory", "RefinementRow"]
