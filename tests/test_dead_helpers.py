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
