"""The output corpus: each config of tests/corpus/ gives what the stored
table says it gave (tests/corpus_table.py rewrites the table).

Every environment compares the exit codes of run and check, the verdict
of every check, and every value of diagnostics.json: strings, booleans
and nulls exactly, numbers within REL_TOL of max(1, |stored|, |fresh|),
so values below 1, such as defects and gaps, within REL_TOL absolute. In
the environment the table was made in (Python, numpy, system, machine
and libc alike) the sweep must also be byte-identical: the sha256 of
trajectory.csv, diagnostics.json, refinement.csv and of each verb's
stdout and stderr. Each test prints which mode it ran."""

import copy
import json

import pytest

from corpus_table import (TABLE, configs, environment, largest_change,
                          moved_entries, sweep_one)

REL_TOL = 1e-6

STORED = json.loads(TABLE.read_text(encoding="utf-8"))
SAME_ENV = STORED["environment"] == environment()


def value_faults(stored, fresh, path="diagnostics"):
    """The paths at which fresh differs from stored, a parsed JSON value:
    numbers beyond REL_TOL of max(1, |stored|, |fresh|), any other value
    or shape at all."""
    num = (int, float)
    if (isinstance(stored, num) and isinstance(fresh, num)
            and not isinstance(stored, bool) and not isinstance(fresh, bool)):
        scale = max(1.0, abs(stored), abs(fresh))
        return [] if abs(stored - fresh) <= REL_TOL * scale else [path]
    if isinstance(stored, dict) and isinstance(fresh, dict):
        if stored.keys() != fresh.keys():
            return [path]
        return [f for k in stored
                for f in value_faults(stored[k], fresh[k], f"{path}.{k}")]
    if isinstance(stored, list) and isinstance(fresh, list):
        if len(stored) != len(fresh):
            return [path]
        return [f for i, (a, b) in enumerate(zip(stored, fresh))
                for f in value_faults(a, b, f"{path}[{i}]")]
    return [] if type(stored) is type(fresh) and stored == fresh else [path]


def test_corpus_has_the_table_configs():
    assert sorted(STORED["configs"]) == sorted(configs())


@pytest.mark.parametrize("name", sorted(configs()))
def test_corpus_config_gives_its_table_entry(name):
    mode = ("hashes" if SAME_ENV else
            f"tolerance (table made in {STORED['environment']}, "
            f"this is {environment()})")
    print(f"corpus mode: {mode}")
    want, got = STORED["configs"][name], sweep_one(configs()[name])
    assert got["exit"] == want["exit"], mode
    assert got["verdicts"] == want["verdicts"], mode
    assert value_faults(want["diagnostics"], got["diagnostics"]) == [], mode
    if SAME_ENV:
        moved = sorted(k for k in want["sha256"]
                       if got["sha256"][k] != want["sha256"][k])
        assert moved == [], mode


def test_value_faults_sees_every_form():
    entry = STORED["configs"]["pf-certify-s0"]["diagnostics"]
    assert value_faults(entry, copy.deepcopy(entry)) == []
    moved = copy.deepcopy(entry)
    moved["global"]["energy_identity_defect"] += 2e-6
    moved["global"]["P_integral"] += 5e-7   # within REL_TOL
    moved["checks"][0]["passed"] = not moved["checks"][0]["passed"]
    moved["model"] = "PhaseField"
    del moved["tau"]
    assert value_faults(entry, moved) == ["diagnostics"]
    moved["tau"] = entry["tau"]
    assert value_faults(entry, moved) == [
        "diagnostics.checks[0].passed",
        "diagnostics.global.energy_identity_defect", "diagnostics.model"]
    assert value_faults([1.0, 2.0], [1.0]) == ["diagnostics"]
    assert value_faults(1.0, True) == ["diagnostics"]
    assert value_faults(None, 0.0) == ["diagnostics"]


def test_moved_entries_names_what_moved():
    # the lines corpus_table.py prints before it rewrites the table
    old = copy.deepcopy(STORED["configs"])
    new = copy.deepcopy(old)
    assert moved_entries(old, new) == []
    entry = new["pf-certify-s0"]
    entry["sha256"]["trajectory.csv"] = "0" * 64
    entry["diagnostics"]["global"]["P_integral"] += 3e-9
    entry["diagnostics"]["global"]["energy_identity_defect"] += 1e-12
    new["ac-ladder-s0"]["exit"] = [1, 1]
    del new["quadratic-dim1"]
    new["extra"] = copy.deepcopy(entry)
    lines = moved_entries(old, new)
    assert lines[0].startswith("ac-ladder-s0: exit [0, 0] -> [1, 1]")
    assert lines[1] == "extra: new"
    assert lines[2] == (
        "pf-certify-s0: hashes trajectory.csv; largest diagnostics change "
        "3.00e-09 at diagnostics.global.P_integral")
    assert lines[3] == "quadratic-dim1: removed"
    assert len(lines) == 4
    # relative to max(1, |old|, |new|), as test_corpus scales it
    assert largest_change({"a": [2.0, 0.5]}, {"a": [3.0, 0.5]}) == (
        1.0 / 3.0, "diagnostics.a[0]")
    assert largest_change({"a": 1.0}, {"a": float("inf")}) == (
        float("inf"), "diagnostics.a")
    assert largest_change({"a": "x"}, {"a": "y"}) == (0.0, None)
