"""Property tests of the input boundary: `dnevolve run` on one-field
mutations of small valid configs, and `dnevolve check` on mutated
trajectory.csv files of those configs, return a documented exit code
(0 pass, 1 check failure, 2 config error, 3 solver failure) and never
raise."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dnevolve import cli  # noqa: E402

# Every base solves in 1 or 2 steps, well under 0.1 s.
BASES = (
    {"model": {"name": "QuadraticBenchmark",
               "params": {"dim": 1, "a": 1.0, "offset": 1.0}},
     "dissipation": {"kind": "quadratic", "c": 1.0},
     "u0": 0.0, "T": 0.25, "tau": 0.125, "subdiff_mode": "analytic",
     "diagnostics": {"step_inequality": False, "windows": [[0.0, 0.125]],
                     "eps_quad": 1e-6},
     "output_dir": "out", "seed": 0},
    {"model": {"name": "StateWeightedToy",
               "params": {"dim": 2, "a": [1.0, -1.0], "omega_scale": 0.5}},
     "u0": [0.0, 0.5], "T": 0.25, "tau_ladder": [0.25, 0.125],
     "output_dir": "out"},
    {"model": {"name": "AbsoluteMarginal",
               "params": {"alpha": 0.5, "beta": 0.25, "t_cap": 1.0}},
     "dissipation": {"kind": "pnorm", "c": 1.0, "p": 1.5},
     "subdiff_mode": "clarke", "u0": -0.5, "T": 0.25, "tau": 0.125,
     "output_dir": "out"},
    {"model": {"name": "PhaseField1D", "params": {"load_amp": 0.3}},
     "u0": 0.55, "T": 0.125, "tau": 0.125, "output_dir": "out"},
    {"model": {"name": "AllenCahn1D",
               "params": {"N": 4, "q": 2.0, "p": 2.0, "rho": 1.0}},
     "dissipation": {"kind": "one_hom_plus_quad", "rho": 0.25, "eps": 0.25},
     "u0": [0.1, 0.2, 0.2, 0.1], "T": 0.125, "tau": 0.125,
     "output_dir": "out"},
    # the Clarke kink with the step inequality on: P is undefined at the
    # r = 0 sample's multiplier 0, so run and check fail on conditioning
    {"model": {"name": "AbsoluteMarginal", "params": {}},
     "subdiff_mode": "clarke", "u0": 0.0, "T": 0.25, "tau": 0.125,
     "diagnostics": {"step_inequality": True}, "output_dir": "out"},
)
# each base's exit code under run and under check
BASE_EXITS = (0, 0, 0, 0, 0, 1)

MAX_FUZZ_STEPS = 4

# No "/" or "\": a mutated output_dir stays relative, so every run writes
# inside the temporary directory it runs in.
_TEXT = st.text(alphabet="abcxyzAZ019._- ", max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(-2, 40), st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, 0.125, 0.5, 1.0, 1.5, 16.0,
                     "QuadraticBenchmark", "AllenCahn1D", "analytic",
                     "marginal", "clarke", "pnorm", "quadratic"]),
)
_JUNK = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.lists(st.lists(_SCALARS, max_size=2), max_size=2),
    st.dictionaries(_TEXT, _SCALARS, max_size=2),
)


def _paths(node, prefix=()):
    """Every path into a config: dict keys and list indices."""
    out = [prefix] if prefix else []
    if isinstance(node, dict):
        for k, v in node.items():
            out += _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out += _paths(v, prefix + (i,))
    return out


def _mutate(cfg, path, action, junk):
    cfg = json.loads(json.dumps(cfg))
    *head, last = path
    parent = cfg
    for key in head:
        parent = parent[key]
    if action == "delete":
        del parent[last]
    elif action == "replace":
        parent[last] = junk
    elif action == "nest_list":
        parent[last] = [parent[last]]
    elif action == "nest_dict":
        parent[last] = {"x": parent[last]}
    else:  # "extra": an unknown key beside, or an extra list element
        if isinstance(parent, dict):
            parent["surprise"] = junk
        else:
            parent.append(junk)
    return cfg


def _too_long(cfg):
    """True when the grid is accepted by the step cap but longer than the
    fuzz affords to solve."""
    T = cfg.get("T")
    taus = cfg.get("tau_ladder")
    taus = (taus if isinstance(taus, list) else []) + [cfg.get("tau")]
    for tau in taus:
        if all(isinstance(x, (int, float)) and not isinstance(x, bool)
               and abs(x) < 1e308 for x in (T, tau)):
            if tau > 0 and MAX_FUZZ_STEPS < T / tau <= cli.MAX_STEPS:
                return True
    return False


def _main(*argv):
    """cli.main(argv) with its printed output captured; returns
    (exit code, printed output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(list(argv))
    return code, sink.getvalue()


def _run(cfg):
    """cli.main(["run", ...]) on cfg inside a temporary directory, with
    DNEVOLVE_OUTPUT_ROOT unset; returns (exit code, printed output)."""
    old_cwd, old_root = os.getcwd(), os.environ.pop("DNEVOLVE_OUTPUT_ROOT", None)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            with open("cfg.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            return _main("run", "cfg.json")
        finally:
            os.chdir(old_cwd)
            if old_root is not None:
                os.environ["DNEVOLVE_OUTPUT_ROOT"] = old_root


def test_fuzz_bases_pass():
    for base, want in zip(BASES, BASE_EXITS):
        code, out = _run(base)
        assert code == want, out
        if want == 1:
            assert out.startswith("check conditioning: FAIL"), out


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_run_on_mutated_configs_returns_exit_code(data):
    base = data.draw(st.sampled_from(BASES), label="base")
    path = data.draw(st.sampled_from(_paths(base)), label="path")
    action = data.draw(st.sampled_from(
        ["delete", "replace", "nest_list", "nest_dict", "extra"]),
        label="action")
    junk = data.draw(_JUNK, label="junk")
    cfg = _mutate(base, path, action, junk)
    assume(not _too_long(cfg))
    code, out = _run(cfg)
    assert code in (0, 1, 2, 3), out


# ---------------------------------------------------------------------------
# check on mutated trajectory.csv files


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """Every base run once: (config path, trajectory.csv path, its text)."""
    out = []
    for i, base in enumerate(BASES):
        tmp = tmp_path_factory.mktemp(f"base{i}")
        path = tmp / "cfg.json"
        path.write_text(json.dumps(dict(base, output_dir=str(tmp / "out"))))
        assert _main("run", str(path))[0] == BASE_EXITS[i]
        assert _main("check", str(path))[0] == BASE_EXITS[i]
        csv = tmp / "out" / "trajectory.csv"
        out.append((str(path), csv, csv.read_text()))
    return out


_CSV_EDITS = ["cell", "drop_cell", "add_cell", "drop_row", "add_row",
              "truncate", "shift"]


def _mutate_csv(text, kind, data):
    """text with one edit of the given kind; "shift" moves a data row's
    gap_n or energy_n by +-0.5 and keeps the file well formed."""
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    lines = text.splitlines()
    i = data.draw(st.integers(1 if kind == "shift" else 0, len(lines) - 1),
                  label="row")
    cells = lines[i].split(",")
    if kind == "drop_row":
        del lines[i]
    elif kind == "add_row":
        lines.insert(i, lines[data.draw(st.integers(0, len(lines) - 1),
                                        label="copy")])
    elif kind == "shift":
        j = data.draw(st.sampled_from([-2, -1]), label="col")
        cells[j] = repr(float(cells[j])
                        + data.draw(st.sampled_from([-0.5, 0.5]), label="by"))
    else:
        j = data.draw(st.integers(0, len(cells) - 1), label="col")
        if kind == "drop_cell":
            del cells[j]
        else:
            cell = data.draw(st.sampled_from(
                ["nan", "inf", "-inf", "NaN", "abc", "", "1e5x"]),
                label="value")
            if kind == "cell":
                cells[j] = cell
            else:
                cells.insert(j, cell)
    if kind in ("cell", "drop_cell", "add_cell", "shift"):
        lines[i] = ",".join(cells)
    return "".join(ln + "\n" for ln in lines)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_check_on_mutated_trajectories_returns_exit_code(solved, data):
    path, csv, text = data.draw(st.sampled_from(solved), label="base")
    kind = data.draw(st.sampled_from(_CSV_EDITS), label="edit")
    csv.write_text(_mutate_csv(text, kind, data))
    code, out = _main("check", path)
    # a finite change to a stored gap or energy is caught by stored_gap or
    # stored_energy
    assert code in ((1,) if kind == "shift" else (0, 1, 2, 3)), out
