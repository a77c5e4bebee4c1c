"""Outside-in tracer for dnevolve: calls and time per function, from outside.

`Tracer.install` replaces each traced function by a wrapper, both in the
module that defines it and in every dnevolve module that imported it by
name (energy_value in scheme and diagnostics, double_well in models,
generalized_time_derivative in diagnostics, solve in cli, ...). Calls made
through a module attribute (`_optim.golden_min_batched`) or a global name
then both reach the wrapper.

Timed wrappers keep a stack of open spans. A module's self time is the time
during which one of its spans is the innermost open one, i.e. its spans'
time minus the time of the traced callees nested in them. double_well is
the hottest leaf (about a million calls per pf-certify run at T = 1), so it
is only counted, with the number of array elements it evaluates; its time
goes to the innermost timed caller.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

MODULES = ("_kernels", "_optim", "potentials", "energy", "scheme",
           "diagnostics", "cli")

# functions whose inclusive time is reported, in seconds
TIMED = {
    "_kernels": ("ac_energy", "ac_grad"),
    "_optim": ("golden_min_batched", "scan_min", "max_scalar"),
    "potentials": ("conjugate",),
    "energy": ("argmin_set", "generalized_time_derivative"),
    "scheme": ("solve", "_solve_1d", "_solve_nd", "_prox_grad",
               "_select_multiplier", "de_giorgi_interpolant"),
    "diagnostics": ("_per_step_terms", "step_inequality", "build_report",
                    "refinement_study"),
    "cli": ("load_plan", "run_checks", "write_trajectory_csv",
            "read_trajectory_csv"),
}

# functions whose call count is reported
COUNTED = {
    "_kernels": ("ac_energy", "ac_grad", "double_well"),
    "_optim": ("golden_min_batched", "scan_min", "max_scalar", "bracket_max",
               "polish_root"),
    "potentials": ("conjugate", "_scalar_conjugate_numeric",
                   "fenchel_young_gap"),
    "energy": ("argmin_set", "_marginal_candidates",
               "generalized_time_derivative", "energy_value"),
    "scheme": ("solve", "incremental_step", "_solve_1d", "_solve_nd",
               "_prox_grad", "_select_multiplier", "de_giorgi_interpolant",
               "slope_multiplier"),
    "diagnostics": ("_per_step_terms", "step_inequality",
                    "energy_identity_defect", "fenchel_young_profile",
                    "chain_rule_defects"),
}

UNTIMED = {("_kernels", "double_well")}

# metrics that cannot be nonzero for a verb: `check` never solves, builds a
# report or writes outputs, and `run` never reads a trajectory back
_NOT_IN = {
    "run": {"cli.read_trajectory_csv.s"},
    "check": {"scheme.solve.calls", "scheme.solve.s",
              "diagnostics.build_report.s",
              "diagnostics.refinement_study.s",
              "cli.write_trajectory_csv.s", "cli.output_bytes"},
}


def layer_metric_units(verb: str) -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric of one verb, unprefixed."""
    out = []
    for mod in MODULES:
        for fn in COUNTED.get(mod, ()):
            out.append((f"{mod}.{fn}.calls", "count"))
        for fn in TIMED.get(mod, ()):
            out.append((f"{mod}.{fn}.s", "s"))
        out.append((f"{mod}.self_s", "s"))
    out += [("_kernels.double_well.points", "count"),
            ("energy.argmin_set.repeat_frac", "frac"),
            ("scheme._prox_grad.iters", "count"),
            ("scheme.fell_back_frac", "frac"),
            ("cli.output_bytes", "bytes")]
    return [(n, u) for n, u in out if n not in _NOT_IN[verb]]


def all_layer_metric_units() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric the traced run prints."""
    out = [(f"{verb}.{n}", u) for verb in ("run", "check")
           for n, u in layer_metric_units(verb)]
    return out + [("trace_overhead_frac", "frac")]


class Tracer:
    """Counters and span times for the functions in TIMED and COUNTED."""

    def __init__(self):
        keys = sorted({(m, f) for table in (TIMED, COUNTED)
                       for m, fns in table.items() for f in fns})
        self.keys = keys
        self.stats: Dict[Tuple[str, str], List[float]] = {
            k: [0, 0.0] for k in keys}
        self.self_s: Dict[str, float] = {m: 0.0 for m in MODULES}
        self.extra: Dict[str, int] = {}
        self._seen = set()
        self._stack: List[List[float]] = []
        self.sites: Dict[str, List[str]] = {}
        self._hooks = {("energy", "argmin_set"): self._argmin_set,
                       ("scheme", "_prox_grad"): self._prox_grad,
                       ("scheme", "incremental_step"): self._incremental_step}
        self.reset()

    def reset(self) -> None:
        """Zero every counter; the repeat memory of argmin_set too."""
        for s in self.stats.values():
            s[0], s[1] = 0, 0.0
        for m in self.self_s:
            self.self_s[m] = 0.0
        self.extra.update(double_well_points=0, argmin_repeats=0,
                          prox_iters=0, fell_back=0)
        self._seen.clear()

    # -- per-function hooks on (args, result) ------------------------------

    def _argmin_set(self, args, result):
        key = (float(args[1]), np.asarray(args[2], dtype=float).tobytes())
        if key in self._seen:
            self.extra["argmin_repeats"] += 1
        else:
            self._seen.add(key)

    def _prox_grad(self, args, result):
        self.extra["prox_iters"] += int(result[3])

    def _incremental_step(self, args, result):
        if result[3].get("fell_back_to_prev"):
            self.extra["fell_back"] += 1

    # -- wrappers -----------------------------------------------------------

    def _count_points(self, key, fn):
        """Count calls and array elements; no timing (double_well)."""
        stat, extra = self.stats[key], self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            extra["double_well_points"] += np.size(args[0])
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, key, fn):
        stat, self_s, stack = self.stats[key], self.self_s, self._stack
        mod, hook, clock = key[0], self._hooks.get(key), time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of traced callees nested in this span
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                self_s[mod] += dt - frame[0]
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever dnevolve holds it."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "dnevolve" or name.startswith("dnevolve.")]
        for key in self.keys:
            mod, fn = key
            orig = getattr(sys.modules[f"dnevolve.{mod}"], fn)
            wrapper = (self._count_points(key, orig) if key in UNTIMED
                       else self._timed(key, orig))
            sites = []
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        sites.append(f"{m.__name__}.{attr}")
            self.sites[f"{mod}.{fn}"] = sites

    # -- results ------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Raw counters: calls and inclusive seconds per function, self
        seconds per module, and the extra counters."""
        return {
            "functions": {f"{m}.{f}": {"calls": int(s[0]), "seconds": s[1]}
                          for (m, f), s in self.stats.items()},
            "self_seconds": dict(self.self_s),
            "extra": dict(self.extra),
        }


def layer_metrics(verb: str, snap: Dict, output_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of one verb from its snapshot."""
    fns, extra = snap["functions"], snap["extra"]
    vals = {}
    for mod in MODULES:
        for fn in COUNTED.get(mod, ()):
            vals[f"{mod}.{fn}.calls"] = fns[f"{mod}.{fn}"]["calls"]
        for fn in TIMED.get(mod, ()):
            vals[f"{mod}.{fn}.s"] = fns[f"{mod}.{fn}"]["seconds"]
        vals[f"{mod}.self_s"] = snap["self_seconds"][mod]
    argmin = fns["energy.argmin_set"]["calls"]
    steps = fns["scheme.incremental_step"]["calls"]
    vals["_kernels.double_well.points"] = extra["double_well_points"]
    vals["energy.argmin_set.repeat_frac"] = (
        extra["argmin_repeats"] / argmin if argmin else 0.0)
    vals["scheme._prox_grad.iters"] = extra["prox_iters"]
    vals["scheme.fell_back_frac"] = (
        extra["fell_back"] / steps if steps else 0.0)
    vals["cli.output_bytes"] = output_bytes
    return {n: vals[n] for n, _ in layer_metric_units(verb)}
