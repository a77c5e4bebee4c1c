"""The benchmark's tracer hooks dnevolve functions by module and name, and
reads two result shapes; a refactor that renames one of them, or changes
what the hooks read, would silently zero a per-layer metric."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from dnevolve import potentials, scheme
from dnevolve.models import build

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "certbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("certbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_are_callables(tracer):
    names = sorted({(m, f) for table in (tracer.TIMED, tracer.COUNTED)
                    for m, fns in table.items() for f in fns})
    assert names
    for mod, fn in names:
        module = importlib.import_module(f"dnevolve.{mod}")
        assert callable(getattr(module, fn, None)), f"dnevolve.{mod}.{fn}"


def test_hooked_result_shapes():
    # Tracer._prox_grad reads the iteration count at index 3, and
    # Tracer._incremental_step the status dict at index 3
    spec = build("AllenCahn1D", {"N": 4})
    u_prev = np.array([0.05, 0.1, 0.1, 0.05])
    box = (np.full(4, -2.0), np.full(4, 2.0))
    out = scheme._prox_grad(spec.energy, potentials.Quadratic(1.0), u_prev,
                            0.125, 0.125, u_prev, box, 0.0, 1e-8, 50)
    assert isinstance(out[3], int) and out[3] >= 1
    step = scheme.incremental_step(spec.energy, spec.dissipation, u_prev,
                                   0.125, 0.125)
    assert isinstance(step[3], dict) and step[3]["method"] == "proxgrad"
