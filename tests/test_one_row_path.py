"""The package has one row path: the step solvers _solve_1d and _solve_nd,
the step finisher _finish_steps and the block size ROW_BLOCK are read only
inside scheme._steps, the row entry every step, ladder round and
interpolant sample goes through. A second caller would bring back its own
freezing, grouping, blocking and failure handling of rows. And the
certificate's scalar terms (energies, P, conjugates, values, gaps and
witnesses) are row calls, never one call per sample in a loop."""

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


# The certificate's scalar terms are row calls: inside the functions of
# CERTIFY, none of ROW_TERMS, nor a potential's .value or .closed_conjugate,
# is called in a loop or a comprehension, where it would be one call per
# sample again.
CERTIFY = {("diagnostics", "_per_step_terms"),
           ("diagnostics", "step_inequality"),
           ("diagnostics", "chain_rule_constant"),
           ("scheme", "_finish_steps"), ("scheme", "_select_multiplier"),
           ("scheme", "slope_multiplier"), ("scheme", "_steps"),
           ("cli", "read_trajectory_csv")}
ROW_TERMS = ("conjugate", "generalized_time_derivative", "energy_value",
             "fenchel_young_gap", "minimality_witness", "value",
             "closed_conjugate")
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def _repeated(loop):
    """The nodes a loop or comprehension evaluates once per iteration: all
    but the iterable a for loop or the first generator reads once."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        parts = loop.body + loop.orelse + [loop.target]
    elif isinstance(loop, ast.While):
        parts = [loop.test] + loop.body + loop.orelse
    else:
        first, *rest = loop.generators
        parts = ([getattr(loop, "elt", None), getattr(loop, "key", None),
                  getattr(loop, "value", None), first.target]
                 + first.ifs + rest)
    return {id(n) for p in parts if p is not None for n in ast.walk(p)}


def per_sample_calls(sources, functions=CERTIFY):
    """(module, function, line, name) of every call of a ROW_TERMS name,
    by name or attribute, inside a loop or comprehension of one of the
    module-level functions (module, function) of sources ({module: text}),
    their nested functions included."""
    out = []
    for mod, text in sources.items():
        for stmt in ast.parse(text).body:
            if not (isinstance(stmt, ast.FunctionDef)
                    and (mod, stmt.name) in functions):
                continue
            looped = set()
            for n in ast.walk(stmt):
                if isinstance(n, _LOOPS):
                    looped |= _repeated(n)
            for n in ast.walk(stmt):
                if not (isinstance(n, ast.Call) and id(n) in looped):
                    continue
                f = n.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name in ROW_TERMS:
                    out.append((mod, stmt.name, n.lineno, name))
    return sorted(out)


def test_certificate_terms_are_row_calls():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    names = {(mod, stmt.name) for mod, text in sources.items()
             for stmt in ast.parse(text).body
             if isinstance(stmt, ast.FunctionDef)}
    assert CERTIFY <= names
    assert per_sample_calls(sources) == []


def test_per_sample_calls_sees_every_form():
    # the loops these functions had before their terms became rows
    diagnostics = (
        "def _per_step_terms(traj):\n"
        "    for n in range(1, N + 1):\n"
        "        psi = p.value(v)\n"                                # 3
        "        conj = potentials.conjugate(p, xi)\n"              # 4
        "        Ps[n] = generalized_time_derivative(m, t, u, x)\n"  # 5
        "def step_inequality(traj, m):\n"
        "    for n in range(1, N + 1):\n"
        "        xis = [slope_multiplier(m, psi, t0, U0)]\n"
        "        conj_vals = [potentials.conjugate(p, -x) for x in xis]\n"
        "        for k in range(1, m + 1):\n"
        "            lhs = r * p.value((s[k] - U0) / r)\n"          # 11
        "    vals = [conjugate(p, x) for x in conjugate(p, X)]\n"   # 12: elt
        "    total = conjugate(p, X)\n"                             # once
        "def chain_rule_constant(traj):\n"
        "    return max(energy_value(m, t(n), u) for n in ns)\n"    # 15
        "def other(traj):\n"
        "    return [p.value(v) for v in vs]\n")                    # not one
    scheme = (
        "def _finish_steps(model, p):\n"
        "    def step(b):\n"
        "        return minimality_witness(model, p, b)\n"          # once
        "    while rows:\n"
        "        e = energy_value(model, t, U)\n"                   # 5
        "    return {b: fenchel_young_gap(p, v, x) for b in bs}\n"  # 6
        "def _steps(model):\n"
        "    def block(p, rows):\n"
        "        return [energy_value(model, s, u) for s in rows]\n")  # 9
    cli = ("def read_trajectory_csv(path):\n"
           "    for n in range(N):\n"
           "        e, w = minimality_witness(m, psi.at_state(U[n]))\n"  # 3
           "        q = psi.closed_conjugate(x)\n")                  # 4
    assert per_sample_calls({"diagnostics": diagnostics, "scheme": scheme,
                             "cli": cli}) == [
        ("cli", "read_trajectory_csv", 3, "minimality_witness"),
        ("cli", "read_trajectory_csv", 4, "closed_conjugate"),
        ("diagnostics", "_per_step_terms", 3, "value"),
        ("diagnostics", "_per_step_terms", 4, "conjugate"),
        ("diagnostics", "_per_step_terms", 5, "generalized_time_derivative"),
        ("diagnostics", "chain_rule_constant", 15, "energy_value"),
        ("diagnostics", "step_inequality", 9, "conjugate"),
        ("diagnostics", "step_inequality", 11, "value"),
        ("diagnostics", "step_inequality", 12, "conjugate"),
        ("scheme", "_finish_steps", 5, "energy_value"),
        ("scheme", "_finish_steps", 6, "fenchel_young_gap"),
        ("scheme", "_steps", 9, "energy_value")]
