"""Workload definitions and seeded inputs for the solve-and-certify benchmark.

Each workload is one dnevolve config. Seed 0 gives the canonical inputs;
seed k > 0 perturbs u0 (PhaseField1D: u0 uniform in 0.55 +- 0.05;
AllenCahn1D: u0 = a sin(pi x) with a uniform in 0.1 +- 0.01), because the
config seed alone leaves these trajectories bit-identical. The config's own
`seed` field is k. Seeds are replicates: they change the output bits, not
the amount of work.

`horizon` is the T the timed runs use. The canonical horizon is T = 1; the
timed runs shorten it (4 to 16 steps) so that one repetition takes about
two seconds on a 2-core machine and a 40-second run gets 14 to 24 of them,
and scale the report windows with it. Everything else (model, tau, checks)
is the canonical setting.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

CANONICAL_T = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: float
    make: Callable[[float, Optional[random.Random]], Dict]


def _ac_u0(N: int, rng: Optional[random.Random]) -> List[float]:
    # a smooth amplitude perturbation keeps the work per seed the same; a
    # per-cell one makes the prox-grad work vary by tens of percent between
    # seeds and stalls the p = 1.5 solve on some of them (exit 3)
    amp = 0.1 + (0.01 * rng.uniform(-1.0, 1.0) if rng is not None else 0.0)
    # cell midpoints x_i = (i + 1/2) / N, as in the AllenCahn1D model
    return [amp * math.sin(math.pi * (i + 0.5) / N) for i in range(N)]


def _pf_certify(T, rng):
    return {
        "model": {"name": "PhaseField1D"},
        "u0": 0.55 + (0.05 * rng.uniform(-1.0, 1.0)
                      if rng is not None else 0.0),
        "T": T,
        "tau": 2.0 ** -7,
        "diagnostics": {"step_inequality": True,
                        "windows": [[0.0, T / 2], [T / 2, T]]},
    }


def _ac_ladder(T, rng):
    return {
        "model": {"name": "AllenCahn1D", "params": {"N": 64, "rho": 1.0}},
        "u0": _ac_u0(64, rng),
        "T": T,
        "tau_ladder": [2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
        "diagnostics": {"windows": [[0.0, T / 2]]},
    }


def _ac_pnorm(T, rng):
    return {
        "model": {"name": "AllenCahn1D", "params": {"N": 32, "p": 1.5}},
        "u0": _ac_u0(32, rng),
        "T": T,
        "tau": 2.0 ** -6,
    }


WORKLOADS = {w.name: w for w in (
    Workload("pf-certify", 0.03125, _pf_certify),
    Workload("ac-ladder", 0.125, _ac_ladder),
    Workload("ac-pnorm", 0.0625, _ac_pnorm),
)}


def make_config(name: str, seed: int, output_dir: str,
                T: Optional[float] = None) -> Tuple[Dict, List[str]]:
    """The config for one workload and seed, and the check names that
    every `run` and `check` of it must report, in order."""
    w = WORKLOADS[name]
    T = w.horizon if T is None else T
    cfg = w.make(T, random.Random(seed) if seed > 0 else None)
    cfg["output_dir"] = output_dir
    cfg["seed"] = seed
    diag = cfg.get("diagnostics", {})
    names = ["minimality", "fenchel_young", "chain_rule", "energy_identity"]
    names += [f"energy_identity[{float(s)},{float(t)}]"
              for s, t in diag.get("windows", [])]
    if diag.get("step_inequality"):
        names.append("step_inequality")
    return cfg, names
