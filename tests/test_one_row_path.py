"""The package has one row path: the step solvers _solve_1d and _solve_nd,
the step finisher _finish_steps and the block size ROW_BLOCK are read only
inside scheme._steps, the row entry every step, ladder round and
interpolant sample goes through. A second caller would bring back its own
freezing, grouping, blocking and failure handling of rows."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dnevolve"

ROW_PATH = ("_solve_1d", "_solve_nd", "_finish_steps", "ROW_BLOCK")


def row_path_leaks(sources, entry=("scheme", "_steps")):
    """(module, line, name) of every read of a ROW_PATH name in sources
    ({module: text}) outside the module-level function entry, a (module,
    function) pair: a call, or any other load, by name or attribute.
    Definitions and assignments are not reads."""
    out = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        inside = set()
        for stmt in tree.body:
            if (isinstance(stmt, ast.FunctionDef)
                    and (mod, stmt.name) == entry):
                inside = {id(n) for n in ast.walk(stmt)}
        for n in ast.walk(tree):
            if id(n) in inside or not isinstance(getattr(n, "ctx", None),
                                                 ast.Load):
                continue
            name = (n.id if isinstance(n, ast.Name)
                    else n.attr if isinstance(n, ast.Attribute) else None)
            if name in ROW_PATH:
                out.append((mod, n.lineno, name))
    return sorted(out)


def test_package_reads_the_row_path_only_in_steps():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert "_steps" in sources["scheme"]
    assert row_path_leaks(sources) == []


def test_row_path_leaks_sees_every_form():
    scheme = ("ROW_BLOCK = 64\n"                       # 1: assignment
              "def _solve_1d(x):\n"                    # 2: definition
              "    return x\n"
              "def _steps(x):\n"
              "    def block(y):\n"
              "        return _solve_1d(y) + ROW_BLOCK\n"  # 6: inside
              "    return block(x)\n"
              "def solve(x):\n"
              "    return _solve_1d(x)\n"              # 9: call
              "def _finish(x):\n"
              "    return ROW_BLOCK\n"                 # 11: read
              "alias = _finish_steps\n")               # 12: alias
    other = ("from . import scheme\n"
             "def _steps(x):\n"
             "    return scheme._solve_nd(x)\n")       # 3: wrong module
    assert row_path_leaks({"scheme": scheme, "other": other}) == [
        ("other", 3, "_solve_nd"), ("scheme", 9, "_solve_1d"),
        ("scheme", 11, "ROW_BLOCK"), ("scheme", 12, "_finish_steps")]
