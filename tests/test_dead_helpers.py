"""No module of the package keeps a private helper that nothing uses: every
module-level `_name` function or constant in src/dnevolve/*.py is read
somewhere in the package outside its own definition, or is hooked by name
by the benchmark's tracer (certbench/tracer.py), which reads it from
outside the package."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dnevolve"
TRACER = ROOT / "certbench" / "tracer.py"


def _defined(stmt):
    """Private names a module-level statement defines (dunders excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(stmt):
    """Names a statement reads: loaded names, attributes, imported names."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def dead_helpers(sources, hooked=frozenset()):
    """(module, name) of every private module-level function or constant in
    sources ({module: text}) that no other statement reads and that is not
    in hooked, a set of (module, name)."""
    stmts = [(mod, stmt) for mod, text in sources.items()
             for stmt in ast.parse(text).body]
    reads = [_reads(stmt) for _, stmt in stmts]
    dead = []
    for i, (mod, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if (mod, name) in hooked:
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                dead.append((mod, name))
    return sorted(dead)


def tracer_hooks():
    spec = importlib.util.spec_from_file_location("certbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(mod, fn) for table in (tracer.TIMED, tracer.COUNTED)
            for mod, fns in table.items() for fn in fns}


def test_package_has_no_dead_private_helper():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources, tracer_hooks()) == []


def test_dead_helpers_sees_every_form():
    a = ("_K = 1\n"
         "_USED: int = 2\n"
         "__all__ = ['x']\n"
         "def _self_only():\n"
         "    return _self_only()\n"
         "def _g():\n"
         "    return _USED\n"
         "def _hooked():\n"
         "    pass\n"
         "def _by_attribute():\n"
         "    pass\n"
         "def _by_import():\n"
         "    pass\n"
         "x = _g()\n")
    b = ("from . import a\n"
         "from .a import _by_import\n"
         "y = a._by_attribute()\n")
    assert dead_helpers({"a": a, "b": b}, {("a", "_hooked")}) == [
        ("a", "_K"), ("a", "_self_only")]


# clarke_subdifferential_1d's ResolutionError tells users to shrink h
ALLOWED_UNPASSED = {("energy", "clarke_subdifferential_1d", "h")}


def _defaulted(fn):
    """Names of fn's parameters that carry a default, in order, with
    their positional index (None for keyword-only ones)."""
    a = fn.args
    pos = a.posonlyargs + a.args
    out = [(p.arg, i) for i, p in enumerate(pos)
           if i >= len(pos) - len(a.defaults)]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _passes(call, name, index):
    """True when call passes the parameter by position, keyword, or
    through a starred argument."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if index is not None and len(call.args) > index:
        return True
    return any(k.arg is None or k.arg == name for k in call.keywords)


def unpassed_defaults(sources, callers):
    """(module, function, parameter) of every defaulted parameter of a
    module-level function in sources ({module: text}) that no call in
    callers (a list of texts) passes. A call is matched by the called
    name or attribute alone."""
    calls = {}
    for text in callers:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Call):
                f = n.func
                key = (f.id if isinstance(f, ast.Name)
                       else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(key, []).append(n)
    out = []
    for mod, text in sources.items():
        for stmt in ast.parse(text).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name, index in _defaulted(stmt):
                if not any(_passes(c, name, index)
                           for c in calls.get(stmt.name, ())):
                    out.append((mod, stmt.name, name))
    return sorted(out)


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8")
               for d in (SRC, ROOT / "tests", ROOT / "certbench")
               for p in sorted(d.glob("*.py"))]
    found = set(unpassed_defaults(sources, callers))
    assert sorted(found - ALLOWED_UNPASSED) == []


def test_unpassed_defaults_sees_every_form():
    a = ("def f(x, y=1, *, z=2):\n"
         "    pass\n"
         "def g(x, y=1, z=2):\n"
         "    pass\n"
         "def h(x, y=1):\n"
         "    pass\n"
         "def k(x=0, y=1):\n"
         "    pass\n"
         "class C:\n"
         "    def m(self, w=3):\n"
         "        pass\n")
    b = ("f(0, 1)\n"
         "g(0, z=5)\n"
         "mod.h(*args)\n"
         "k(**kw)\n")
    assert unpassed_defaults({"a": a}, [a, b]) == [
        ("a", "f", "z"), ("a", "g", "y")]
