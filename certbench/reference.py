"""Check the tracer's counts against the reference counts at canonical size.

    python3 certbench/reference.py

Runs one traced repetition of each workload at seed 0 and the canonical
horizon T = 1 (the timed runs use a shorter T), and compares the `run`
counts below, which a separate prototype tracer measured on the package as
it stood when this benchmark was added. Exits 1 on any mismatch or failed
check. Takes under a minute for all three workloads on a 2-core machine.
"""

from __future__ import annotations

import sys
import time

from run import Session, judge
from workloads import CANONICAL_T

# `run` verb, seed 0, T = 1: function calls, plus the extra counters
REFERENCE = {
    "pf-certify": {
        "energy.argmin_set": 5376,
        "argmin_repeats": 4351,
        "_optim.golden_min_batched": 5376,
        "_kernels.double_well": 989184,
        "double_well_points": 7182336,
        "diagnostics.step_inequality": 2,
        "diagnostics._per_step_terms": 9,
        "scheme.de_giorgi_interpolant": 1792,
    },
    "ac-ladder": {
        "scheme.solve": 4,
        "scheme._prox_grad": 1760,
        "prox_iters": 81636,
        "_kernels.ac_energy": 89672,
        "_kernels.ac_grad": 83748,
    },
    "ac-pnorm": {
        "potentials.conjugate": 512,
        "potentials._scalar_conjugate_numeric": 16384,
        "_optim.max_scalar": 32769,
        "diagnostics._per_step_terms": 5,
    },
}


def main() -> int:
    bad = 0
    for name in REFERENCE:
        session = Session(name, 0, time.time() + 600.0, T=CANONICAL_T)
        try:
            rec = session.rep("traced")
        finally:
            session.close()
        _, failures = judge([rec], session.expected_checks)
        for f in failures:
            print(f"{name}: FAILED {f[1]}: {f[2]}")
        bad += len(failures)
        if "error" in rec:
            continue
        snap = rec["run"]["trace"]
        got = {k: v["calls"] for k, v in snap["functions"].items()}
        got.update(snap["extra"])
        for key, want in REFERENCE[name].items():
            tag = "ok" if got[key] == want else "MISMATCH"
            bad += tag != "ok"
            print(f"{name}: {key} = {got[key]} (reference {want}) {tag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
