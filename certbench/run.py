"""Solve-and-certify benchmark for dnevolve.

    python3 certbench/run.py --workload pf-certify --seed 0 --seconds 40

Run it from a repository checkout; it imports dnevolve from `src/` there.

Load model: closed loop, one client. Each repetition is a fresh Python
process, started after the previous one ended, because users pay import and
first-call costs on every `dnevolve run`. A repetition imports dnevolve and
loads the plan (setup), calls `cli.main(["run", cfg])`, then
`cli.main(["check", cfg])` on the output `run` just wrote. BLAS and OpenMP
are pinned to one thread.

--trace 0: repetitions run for --seconds (at least 5), and the last stdout
line reports the median over repetitions of run_s, check_s, setup_s and
peak_rss_mb, and pass_frac (1 - failed invocations / attempted
invocations). The three times are at full host speed: each repetition's
CPU time of the section times the host's mean speed during it, as
rep.SpeedProbe samples it from inside the process. Other tenants of a
shared host slow a process by up to 2x for seconds to minutes, and stop it
outright at times, which moves raw wall-time medians between runs by more
than any bound worth setting. The result file keeps every wall time, CPU
time and speed.

--trace 1: half of --seconds goes to untraced repetitions, half to traced
ones (at least 2). The last line reports every per-layer metric of
tracer.py for `run` and `check` (median over the traced repetitions) and
trace_overhead_frac, the median traced over the median untraced run_s,
minus 1. Per-layer times are raw wall seconds.

Correctness gate: every `run` and `check` exits 0, prints every check the
workload enables, and prints only PASS; trajectory.csv, diagnostics.json
and refinement.csv are byte-identical across the repetitions of one
invocation; traced repetitions agree on every count. A violation fails the
invocation.

Each invocation also writes certbench/out/results/<workload>-seed<n>-
trace<t>.json with the environment (backend, Python, numpy and scipy
versions, nproc, thread pins), every repetition and the output hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from tracer import all_layer_metric_units, layer_metrics
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
MIN_REPS = {"plain": 5, "traced": 2}
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}
END_TO_END = (("run_s", "s"), ("check_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_frac", "frac"))


def _log(msg):
    print(f"[certbench] {msg}", file=sys.stderr, flush=True)


class Session:
    """Repetitions of one workload and seed, in a private work directory."""

    def __init__(self, workload: str, seed: int, deadline: float,
                 T: Optional[float] = None):
        self.work = OUT / f"{workload}-seed{seed}-{os.getpid()}"
        self.output_dir = self.work / "output"
        cfg, self.expected_checks = make_config(workload, seed,
                                                str(self.output_dir), T)
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_PINS)
        # the warm-up writes bytecode, which an installed package also has
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def rep(self, mode: str) -> dict:
        shutil.rmtree(self.output_dir, ignore_errors=True)
        result = self.work / "rep.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "rep.py"), str(SRC),
               str(self.config), str(result), mode]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True,
                                  timeout=max(self.deadline - time.time(), 1))
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": "timed out",
                    "wall_s": time.perf_counter() - t0}
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not result.exists():
            return {"mode": mode, "wall_s": wall,
                    "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        rec = json.loads(result.read_text(encoding="utf-8"))
        rec["wall_s"] = wall
        return rec

    def phase(self, mode: str, budget: float) -> list:
        """Repetitions until `budget` seconds are used (at least MIN_REPS)."""
        recs, start = [], time.perf_counter()
        while True:
            last = recs[-1]["wall_s"] if recs else 0.0
            used = time.perf_counter() - start
            if len(recs) >= MIN_REPS[mode] and used + last > budget:
                break
            if time.time() + last > self.deadline:
                _log(f"deadline reached after {len(recs)} {mode} reps")
                break
            rec = self.rep(mode)
            recs.append(rec)
            if "error" in rec:
                _log(f"{mode} rep {len(recs)} failed: {rec['error']}")
            else:
                _log(f"{mode} rep {len(recs)}: "
                     f"setup {rec['setup']['seconds']:.3f} s, "
                     f"run {rec['run']['seconds']:.3f} s, "
                     f"check {rec['check']['seconds']:.3f} s, "
                     f"speed {rec['run']['speed']:.2f}")
        return recs

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _counts(snap: dict) -> dict:
    return {"calls": {k: v["calls"] for k, v in snap["functions"].items()},
            "extra": snap["extra"]}


def judge(recs: list, expected_checks: list) -> tuple:
    """(attempted invocations, list of failures as [rep, verb, reason])."""
    attempted, failures = 0, []
    ref_outputs, ref_counts = None, {}
    for i, rec in enumerate(recs):
        for verb in ("run", "check"):
            attempted += 1
            if "error" in rec:
                failures.append([i, verb, rec["error"]])
                continue
            problems = []
            if not rec["package_file"].startswith(str(SRC) + os.sep):
                problems.append(f"imported {rec['package_file']}")
            res = rec[verb]
            if res["rc"] != 0:
                problems.append(f"exit code {res['rc']}: {res['stderr']}")
            names = [name for name, _ in res["verdicts"]]
            missing = [n for n in expected_checks if n not in names]
            if missing:
                problems.append(f"checks {missing} not reported")
            failed = [name for name, tag in res["verdicts"] if tag != "PASS"]
            if failed:
                problems.append(f"failing checks {failed}")
            if verb == "run":
                if not {"trajectory.csv", "diagnostics.json"} <= set(
                        rec["outputs"]):
                    problems.append(f"outputs missing: {rec['outputs']}")
                if ref_outputs is None:
                    ref_outputs = rec["outputs"]
                elif rec["outputs"] != ref_outputs:
                    problems.append("outputs differ from the first repetition")
            if "trace" in res:
                counts = _counts(res["trace"])
                ref = ref_counts.setdefault(verb, counts)
                if counts != ref:
                    problems.append("traced counts differ between repetitions")
            if problems:
                failures.append([i, verb, "; ".join(problems)])
    return attempted, failures


def environment(warm: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return dict(warm.get("env", {}), nproc=os.cpu_count(),
                usable_cpus=len(os.sched_getaffinity(0)),
                thread_pins=THREAD_PINS, cpu_model=cpu,
                platform=platform.platform())


def full_speed(section: dict) -> float:
    """A section's time at full host speed: its CPU time times the mean
    host speed during it (see rep.SpeedProbe)."""
    return section["cpu_s"] * section["speed"]


def main(argv=None) -> int:
    started = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "dnevolve" / "__init__.py").is_file():
        _log(f"no dnevolve sources under {SRC}; run from a checkout")
        return 2

    session = Session(args.workload, args.seed, started + DEADLINE_S)
    try:
        warm = session.rep("warm")  # byte-compiles, fills the file cache
        if "error" in warm:
            _log(f"warm-up failed: {warm['error']}")
            return 1
        if args.trace:
            plain = session.phase("plain", args.seconds / 2)
            traced = session.phase("traced", args.seconds / 2)
        else:
            plain, traced = session.phase("plain", args.seconds), []
    finally:
        session.close()

    recs = plain + traced
    attempted, failures = judge(recs, session.expected_checks)
    ok_plain = [r for r in plain if "error" not in r]
    ok_traced = [r for r in traced if "error" not in r]
    if not ok_plain or (args.trace and not ok_traced):
        _log(f"no repetition completed: {failures[:2]}")
        return 1

    samples = {"run_s": [full_speed(r["run"]) for r in ok_plain],
               "check_s": [full_speed(r["check"]) for r in ok_plain],
               "setup_s": [full_speed(r["setup"]) for r in ok_plain],
               "peak_rss_mb": [r["peak_rss_mb"] for r in ok_plain]}
    if args.trace:
        per_rep = [{f"{verb}.{name}": value for verb in ("run", "check")
                    for name, value in layer_metrics(
                        verb, r[verb]["trace"], r["output_bytes"]).items()}
                   for r in ok_traced]
        # counts are exact (judge() requires them equal); times vary
        values = {name: (value if isinstance(value, int)
                         else statistics.median([m[name] for m in per_rep]))
                  for name, value in per_rep[0].items()}
        values["trace_overhead_frac"] = (
            statistics.median(full_speed(r["run"]) for r in ok_traced)
            / statistics.median(samples["run_s"]) - 1.0)
        units = all_layer_metric_units()
    else:
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["pass_frac"] = 1.0 - len(failures) / attempted
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}

    env = environment(warm)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = results_dir / (f"{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    detail.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "env": env,
         "expected_checks": session.expected_checks, "failures": failures,
         "repetitions": recs, "result": result}, indent=1), encoding="utf-8")
    for f in failures:
        _log(f"FAILED rep {f[0]} {f[1]}: {f[2]}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
