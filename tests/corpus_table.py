"""The output corpus: the configs of tests/corpus/*.json, each run by
`dnevolve run` and then `dnevolve check` in process, and the table of what
they gave, tests/corpus/table.json.

Per config the table holds the exit codes of run and check, the verdict
each prints per check, the sha256 of trajectory.csv, diagnostics.json and
refinement.csv (null where run wrote none) and of each verb's stdout and
stderr, and diagnostics.json itself. It also records the environment it
was made in. tests/test_corpus.py compares a fresh sweep with it.

    PYTHONPATH=src python tests/corpus_table.py    # rewrite the table

Before it rewrites the table it prints one line per entry that moved
against the stored table: a new or removed config, changed exit codes or
verdicts, the names of the changed hashes, and the largest change of any
diagnostics.json number, relative to max(1, |old|, |new|) as
tests/test_corpus.py scales it, with its path. A change that moves
outputs on purpose rewrites the table and says, from those lines, which
entries moved and why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import re
import sys
import tempfile

import numpy as np

from dnevolve import cli

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"
TABLE = CORPUS / "table.json"
OUTPUTS = ("trajectory.csv", "diagnostics.json", "refinement.csv")
_VERDICT = re.compile(r"^check (\S+): (PASS|FAIL)", re.MULTILINE)


def environment():
    """What the bits of a sweep depend on beyond the package's source."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "system": platform.system(), "machine": platform.machine(),
            "libc": " ".join(platform.libc_ver())}


def configs():
    """{name: path} of the corpus configs, in name order."""
    return {p.stem: p for p in sorted(CORPUS.glob("*.json"))
            if p != TABLE}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(*argv):
    """cli.main(argv) with stdout and stderr captured apart."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sweep_one(path) -> dict:
    """run, then check, of the config at path inside a fresh temporary
    directory, with DNEVOLVE_OUTPUT_ROOT unset, so its relative
    output_dir, and so its stdout, is the same wherever it runs."""
    old_cwd = os.getcwd()
    old_root = os.environ.pop("DNEVOLVE_OUTPUT_ROOT", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            cfg = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            entry = {"exit": [], "verdicts": {}, "sha256": {}}
            for verb in ("run", "check"):
                code, out, err = _main(verb, "config.json")
                entry["exit"].append(code)
                entry["verdicts"][verb] = dict(_VERDICT.findall(out))
                entry["sha256"][f"{verb}.stdout"] = _sha(out.encode())
                entry["sha256"][f"{verb}.stderr"] = _sha(err.encode())
            diag = None
            for name in OUTPUTS:
                f = pathlib.Path(cfg["output_dir"]) / name
                data = f.read_bytes() if f.exists() else None
                entry["sha256"][name] = None if data is None else _sha(data)
                if name == "diagnostics.json" and data is not None:
                    diag = json.loads(data)
            entry["diagnostics"] = diag
    finally:
        os.chdir(old_cwd)
        if old_root is not None:
            os.environ["DNEVOLVE_OUTPUT_ROOT"] = old_root
    return entry


def sweep() -> dict:
    """The table of a fresh sweep of the corpus."""
    return {"environment": environment(),
            "configs": {name: sweep_one(path)
                        for name, path in configs().items()}}


def _numbers(value, path="diagnostics"):
    """{path: number} of every number in a parsed JSON value, at the paths
    tests/test_corpus.py names."""
    if isinstance(value, dict):
        return {k: v for key in value
                for k, v in _numbers(value[key], f"{path}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in _numbers(item, f"{path}[{i}]").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path: float(value)}
    return {}


def largest_change(old, new):
    """(change, path) of the number of two diagnostics.json values that
    moved most, relative to max(1, |old|, |new|), over the paths both
    have; (0.0, None) when none moved. A non-finite number that changes
    moves by inf."""
    a, b = _numbers(old), _numbers(new)
    worst = (0.0, None)
    for path in sorted(a.keys() & b.keys()):
        x, y = a[path], b[path]
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if math.isfinite(x) and math.isfinite(y):
            change = abs(x - y) / max(1.0, abs(x), abs(y))
        else:
            change = math.inf
        if change > worst[0]:
            worst = (change, path)
    return worst


def moved_entries(old, new):
    """One line per config whose entry differs between two tables' configs
    maps old and new, in name order."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: {'new' if name in new else 'removed'}")
            continue
        a, b = old[name], new[name]
        if a == b:
            continue
        parts = []
        if a["exit"] != b["exit"]:
            parts.append(f"exit {a['exit']} -> {b['exit']}")
        if a["verdicts"] != b["verdicts"]:
            parts.append(f"verdicts {a['verdicts']} -> {b['verdicts']}")
        hashes = sorted(k for k in a["sha256"].keys() | b["sha256"].keys()
                        if a["sha256"].get(k) != b["sha256"].get(k))
        if hashes:
            parts.append("hashes " + ", ".join(hashes))
        change, path = largest_change(a["diagnostics"], b["diagnostics"])
        if path is not None:
            parts.append(f"largest diagnostics change {change:.2e} at "
                         f"{path}")
        if _numbers(a["diagnostics"]).keys() != _numbers(
                b["diagnostics"]).keys():
            parts.append("diagnostics numbers added or removed")
        lines.append(f"{name}: " + "; ".join(parts or ["changed"]))
    return lines


def main() -> int:
    table = sweep()
    if TABLE.exists():
        stored = json.loads(TABLE.read_text(encoding="utf-8"))
        if stored["environment"] != table["environment"]:
            print(f"environment {stored['environment']} -> "
                  f"{table['environment']}")
        moved = moved_entries(stored["configs"], table["configs"])
        for line in moved:
            print(line)
        print(f"{len(moved)} of {len(table['configs'])} entries moved")
    with open(TABLE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {TABLE} ({len(table['configs'])} configs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
