"""README.md names the package's modules and functions in backticks:
`dnevolve.scheme`, `scheme._solve_grids`, `models.P_MAX`. Every such name
whose first part is `dnevolve` or one of its modules must resolve against
the package, so a renamed or removed name fails here instead of going
stale in the README."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import dnevolve

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(dnevolve.__path__)}
# backticked dotted words that start with a module's name but name no
# package object, each with what it is
NOT_NAMES = {"diagnostics.json": "an output file",
             "diagnostics.windows": "a config key"}
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def package_names(text):
    """The dotted names in the backticked spans of text whose first part
    is dnevolve or one of its modules, in order of first appearance."""
    names = []
    for span in _SPAN.findall(text):
        for name in _DOTTED.findall(span):
            first = name.split(".")[0]
            if ((first == "dnevolve" or first in MODULES)
                    and name not in NOT_NAMES and name not in names):
                names.append(name)
    return names


def resolves(name):
    """Whether name, with or without its dnevolve prefix, is an object
    of the package: a module, then attributes."""
    parts = name.split(".")
    if parts[0] == "dnevolve":
        parts = parts[1:]
    try:
        obj = (importlib.import_module(f"dnevolve.{parts[0]}")
               if parts[0] in MODULES else getattr(dnevolve, parts[0]))
        for part in parts[1:]:
            obj = getattr(obj, part)
    except (AttributeError, ImportError):
        return False
    return True


def test_readme_names_resolve():
    names = package_names(README.read_text(encoding="utf-8"))
    # the module table alone names every public module
    assert {f"dnevolve.{m}" for m in ("cli", "diagnostics", "energy",
                                      "models", "potentials",
                                      "scheme")} <= set(names)
    assert [n for n in names if not resolves(n)] == []


@pytest.mark.parametrize("text,stale", [
    ("calls `scheme._solve_grids` and `models.lookup(name)`", []),
    ("see `dnevolve.scheme` and `dnevolve.nowhere`", ["dnevolve.nowhere"]),
    ("the driver `_optim._lock_step` (`scheme.solve`)",
     ["_optim._lock_step"]),
    ("writes `diagnostics.json`; `numpy.linalg` is not ours", []),
    ("`models.P_MAX.real` but `energy.EnergyModel.no_such`",
     ["energy.EnergyModel.no_such"]),
])
def test_the_guard_sees_planted_names(text, stale):
    assert [n for n in package_names(text) if not resolves(n)] == stale
