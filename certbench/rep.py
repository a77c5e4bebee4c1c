"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 rep.py SRC CONFIG RESULT_JSON MODE

MODE is `warm` (import and load the plan only), `plain` or `traced`. The
repetition imports dnevolve from SRC and loads the plan (setup), then calls
`cli.main(["run", CONFIG])` and `cli.main(["check", CONFIG])` on the output
that `run` just wrote. It records the wall time, CPU time and host speed
(see SpeedProbe) of setup and of each verb, the exit code and printed
verdicts of each verb, the sha256 of every output file, the process's peak
RSS and the environment, and writes them to RESULT_JSON. In `traced` mode
the tracer is installed after setup and its counters are taken per verb.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
import traceback

OUTPUTS = ("trajectory.csv", "diagnostics.json", "refinement.csv")
VERDICT = re.compile(r"^check (\S+): (PASS|FAIL)\b", re.MULTILINE)

PROBE_PERIOD_S = 0.002
# The probe loop's time at full speed, about its time on an idle core of
# the 2-vCPU Intel Xeon VM the benchmark was tuned on. It only scales the
# reported times; their ratios between commits do not depend on it.
PROBE_REF_S = 12e-6
PROBE_WINDOW_S = 0.05


class SpeedProbe:
    """How fast the host runs this process, sampled while it runs.

    Other tenants of a shared host slow a running process by up to 2x, in
    bursts that last from a fraction of a second to minutes; CPU time grows
    with wall time under that slowdown, so neither shows it. Every
    PROBE_PERIOD_S of wall time a SIGALRM handler times a fixed pure-Python
    loop in this process; PROBE_REF_S over that time is the host's speed at
    that moment. A section's CPU time, which leaves out the time the host
    did not run the process at all (steal), times its mean speed estimates
    its time at full speed.
    """

    def __init__(self):
        self.samples = []  # (start, seconds) of each probe

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(200):
            s += i * 0.5
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def speed(self, t0, t1):
        """Mean speed of the probes started within PROBE_WINDOW_S of the
        section [t0, t1]; the margin gives short sections enough probes."""
        return statistics.mean(
            PROBE_REF_S / d for t, d in self.samples
            if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S)


def _invoke(cli, verb, config, probe):
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([verb, config])
    except Exception:  # a traceback is a failed invocation, not a crash
        rc = None
        err.write(traceback.format_exc())
    c1, t1 = time.process_time(), time.perf_counter()
    return {"seconds": t1 - t0, "cpu_s": c1 - c0,
            "speed": probe.speed(t0, t1), "rc": rc,
            "verdicts": VERDICT.findall(out.getvalue()),
            "stderr": err.getvalue()[-2000:]}


def _outputs(output_dir):
    """sha256 of each byte-stable output, and the bytes of every file."""
    hashes, size = {}, 0
    if not os.path.isdir(output_dir):
        return hashes, size
    for entry in os.scandir(output_dir):
        if entry.is_file():
            size += entry.stat().st_size
    for name in OUTPUTS:
        path = os.path.join(output_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes, size


def main(argv):
    src, config, result_path, mode = argv
    probe = SpeedProbe()
    probe.start()
    c0, t0 = time.process_time(), time.perf_counter()
    sys.path.insert(0, src)
    import dnevolve
    from dnevolve import cli
    plan = cli.load_plan(config)
    c1, t1 = time.process_time(), time.perf_counter()

    import numpy
    import scipy
    from dnevolve import _kernels
    rec = {
        "mode": mode,
        "setup": {"seconds": t1 - t0, "cpu_s": c1 - c0,
                  "speed": probe.speed(t0, t1)},
        "package_file": dnevolve.__file__,
        "env": {"backend": _kernels.BACKEND,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    if mode != "warm":
        tracer = None
        if mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            rec["trace_sites"] = tracer.sites
        for verb in ("run", "check"):
            if tracer is not None:
                tracer.reset()
            rec[verb] = _invoke(cli, verb, config, probe)
            if tracer is not None:
                rec[verb]["trace"] = tracer.snapshot()
            if verb == "run":
                rec["outputs"], rec["output_bytes"] = _outputs(plan.output_dir)
    probe.stop()
    rec["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
