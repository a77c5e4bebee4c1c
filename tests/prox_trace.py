"""A per-call trace of the n-D inner solver, scheme._prox_grad, over one
`dnevolve run`.

    PYTHONPATH=src python tests/prox_trace.py ac-ladder-s3
    PYTHONPATH=src python tests/prox_trace.py path/to/config.json

runs the corpus config tests/corpus/<name>.json, or a config file, in a
temporary directory and prints the run's exit code with the totals, then
one line per _prox_grad call: its rows, whether every row starts at its
previous state, per row its L0, the call's grid evaluations (calls of an
at_times query), and per row its iterations, trials, Newton moves and
final L.
tests/test_newton.py reads the same trace through traced_run.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
from unittest import mock

import numpy as np

from dnevolve import cli, scheme

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"


class _CountedModel:
    """The model one traced call reads: the traced model's attributes,
    with every evaluation of an at_times query counted on the call."""

    def __init__(self, model, call):
        self._model, self._call = model, call

    def __getattr__(self, name):
        return getattr(self._model, name)

    def at_times(self, t):
        energy = self._model.at_times(t)

        def at(U):
            self._call["evaluations"] += 1
            return energy(U)
        return at


def traced_run(config, out_dir):
    """(exit code, calls) of `dnevolve run` on config, a corpus name or a
    config path, writing into out_dir. Each call is a dict: rows, L0,
    start (its x0) and u_prev, evaluations, sweeps (per Newton sweep, in
    order, whether it formed a candidate), and from its result the lists
    iterations, trials, newton and L of its rows (None for a call that
    raised)."""
    path = pathlib.Path(config)
    if path.suffix != ".json":
        path = CORPUS / f"{config}.json"
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["output_dir"] = str(pathlib.Path(out_dir) / "out")
    cfg_path = pathlib.Path(out_dir) / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    calls = []
    prox_grad, newton_row = scheme._prox_grad, scheme._newton_row

    def traced_prox_grad(model, p, u_prev, t, tau, x0, *args):
        call = {"rows": len(u_prev), "L0": list(args[-1]),
                "start": np.array(x0), "u_prev": np.array(u_prev),
                "evaluations": 0, "sweeps": [], "L": None,
                "iterations": None, "trials": None, "newton": None}
        calls.append(call)
        out = prox_grad(_CountedModel(model, call), p, u_prev, t, tau, x0,
                        *args)
        call.update(L=list(out[4]), iterations=list(out[5]),
                    trials=list(out[6]), newton=list(out[8]))
        return out

    def traced_newton_row(*args):
        y = newton_row(*args)
        calls[-1]["sweeps"].append(y is not None)
        return y

    with mock.patch.object(scheme, "_prox_grad", traced_prox_grad), \
            mock.patch.object(scheme, "_newton_row", traced_newton_row):
        code = cli.main(["run", str(cfg_path)])
    return code, calls


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code, calls = traced_run(argv[0], tmp)
    done = [c for c in calls if c["iterations"] is not None]
    print(f"run exit {code}: {len(calls)} _prox_grad calls; evaluations "
          f"{sum(c['evaluations'] for c in calls)}, and over the "
          f"{len(done)} that returned, iterations "
          f"{sum(sum(c['iterations']) for c in done)}, trials "
          f"{sum(sum(c['trials']) for c in done)}, newton "
          f"{sum(sum(c['newton']) for c in done)}")
    for i, c in enumerate(calls, 1):
        start = ("u_prev" if np.array_equal(c["start"], c["u_prev"])
                 else "other")
        print(f"call {i}: rows {c['rows']} start {start} L0 {c['L0']} "
              f"evaluations {c['evaluations']} iterations "
              f"{c['iterations']} trials {c['trials']} newton "
              f"{c['newton']} L {c['L']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
