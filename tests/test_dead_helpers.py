"""No module of the package keeps code that nothing uses:

- every module-level `_name` function or constant in src/dnevolve/*.py is
  read somewhere in the package outside its own definition, or is hooked by
  name by the benchmark's tracer (certbench/tracer.py), which reads it from
  outside the package;
- every defaulted parameter of a module-level function is passed by some
  call, and every defaulted field of a dataclass or of a record class (one
  that names its fields in `_fields`, on dnevolve._record's bases) is set
  somewhere;
- every attribute an `__init__` sets is read outside that `__init__`;
- every public module-level constant is read in its own module, or by
  certbench/ (for example `_kernels.BACKEND`, which only the benchmark's
  environment record reads), so it lives with its reader;
- every public module-level function, and every method of a class, is
  read in src/dnevolve or certbench/ outside a definition of the same
  name, or is a function the package exports in `dnevolve.__all__`: code
  that only the tests reach leaves src/.

Callers and readers are searched in src/, tests/ and certbench/; for the
last rule, in src/ and certbench/ alone."""

import ast
import importlib.util
import pathlib

import dnevolve

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dnevolve"
BENCH = ROOT / "certbench"
TRACER = BENCH / "tracer.py"


def _assigned(stmt):
    """Names a module-level assignment binds."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _defined(stmt):
    """Private names a module-level statement defines (dunders excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names = [stmt.name]
    else:
        names = _assigned(stmt)
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


def misplaced_constants(sources, outside=()):
    """(module, name) of every public module-level constant in sources
    ({module: text}) that no other statement of its own module reads and
    that no text in outside (a list of texts) reads."""
    read_outside = set()
    for text in outside:
        read_outside |= _reads(ast.parse(text))
    out = []
    for mod, text in sources.items():
        body = ast.parse(text).body
        reads = [_reads(stmt) for stmt in body]
        for i, stmt in enumerate(body):
            for name in _assigned(stmt):
                if name.startswith("_") or name in read_outside:
                    continue
                if not any(name in r for j, r in enumerate(reads) if j != i):
                    out.append((mod, name))
    return sorted(out)


def test_every_public_constant_lives_with_its_reader():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))]
    assert misplaced_constants(sources, bench) == []


def test_misplaced_constants_sees_every_form():
    a = ("K = 1\n"
         "READ: int = 2\n"
         "LO, HI = 0, 1\n"
         "BENCH_ONLY = 'x'\n"
         "_PRIVATE = 3\n"
         "__version__ = '0'\n"
         "def f():\n"
         "    return READ + HI\n")
    b = ("from .a import K\n"
         "x = K + 1\n")
    bench = "import a\nprint(a.BENCH_ONLY)\n"
    assert misplaced_constants({"a": a, "b": b}, [bench]) == [
        ("a", "K"), ("a", "LO"), ("b", "x")]


def _named_reads(tree):
    """Names a tree reads outside a function definition of the same name:
    loaded names, attributes, imported names and string constants (the
    tracer's tables, and names a caller passes as strings)."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        stored = isinstance(getattr(node, "ctx", None), ast.Store)
        if isinstance(node, ast.Name) and not stored:
            name = node.id
        elif isinstance(node, ast.Attribute) and not stored:
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def unread_functions(sources, readers, exported=frozenset()):
    """(module, name) of every public module-level function and
    (module, "Class.method") of every method, dunders aside, of a class in
    sources ({module: text}) whose name no text in readers (a list of
    texts, which should include the sources) reads outside a definition
    of that name, functions named in exported aside. Names are matched
    alone, so an override is read wherever its base method is."""
    reads = set()
    for text in readers:
        reads |= _named_reads(ast.parse(text))
    out = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not stmt.name.startswith("_")
                    and stmt.name not in exported
                    and stmt.name not in reads):
                out.append((mod, stmt.name))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))
                        and fn.name not in reads):
                    out.append((mod, f"{cls.name}.{fn.name}"))
    return sorted(out)


# the paper's De Giorgi estimate over a window: whether it becomes a
# step_inequality[s,t] check or goes waits for the quadrature to know its
# error (ROADMAP item 4)
ALLOWED_UNREAD = {("diagnostics", "window_upper_estimate_defect")}


def test_every_function_and_method_has_a_package_reader():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for d in (SRC, BENCH) for p in sorted(d.glob("*.py"))]
    found = unread_functions(sources, readers, set(dnevolve.__all__))
    assert sorted(set(found) - ALLOWED_UNREAD) == []
    assert ALLOWED_UNREAD <= set(found)


def test_unread_functions_sees_every_form():
    a = ("__all__ = ['exported']\n"
         "def exported():\n"
         "    pass\n"
         "def unread():\n"
         "    return unread()\n"
         "def by_name():\n"
         "    pass\n"
         "def by_import():\n"
         "    pass\n"
         "def by_string():\n"
         "    pass\n"
         "def _private():\n"
         "    return by_name()\n"
         "class C:\n"
         "    def __repr__(self):\n"
         "        return ''\n"
         "    def by_attribute(self):\n"
         "        pass\n"
         "    def label(self):\n"
         "        return type(self).__name__\n"
         "    def _helper(self):\n"
         "        return self.by_attribute()\n"
         "    def prop(self):\n"
         "        return self.prop\n"
         "class D(C):\n"
         "    def label(self):\n"
         "        return 'D ' + self.base.label()\n"
         "    def by_attribute(self):\n"
         "        return 1\n")
    b = ("from .a import by_import\n"
         "TABLE = {'a': ('by_string',)}\n"
         "def helper(c):\n"
         "    return c._helper()\n"
         "x = helper(by_import())\n"
         "def prop(c):\n"
         "    c.unread = 1\n"
         "    return c.prop\n")
    assert unread_functions({"a": a, "b": b}, [a, b], {"exported"}) == [
        ("a", "C.label"), ("a", "C.prop"), ("a", "D.label"),
        ("a", "unread"), ("b", "prop")]


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
    assert unpassed_defaults(sources, callers) == []


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


def _is_dataclass(cls):
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None) \
                == "dataclass":
            return True
    return False


def _fields(cls, classes):
    """(name, defaulted) of every field of the dataclass cls, in
    constructor order: those of dataclass bases in classes first."""
    out = []
    for b in cls.bases:
        if isinstance(b, ast.Name) and b.id in classes:
            out += _fields(classes[b.id], classes)
    for stmt in cls.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)):
            out.append((stmt.target.id, stmt.value is not None))
    return out


def _record_fields(cls):
    """(fields, inside) of a class that names its fields in a class-level
    `_fields` tuple and sets them in a written __init__: the (name,
    defaulted, positional index or None) of each field, from that
    __init__'s parameters, and the ids of the nodes of that __init__.
    ([], set()) for any other class."""
    names = [n.value for stmt in cls.body if isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "_fields"
                     for t in stmt.targets)
             for n in ast.walk(stmt.value) if isinstance(n, ast.Constant)]
    init = next((f for f in cls.body if isinstance(f, ast.FunctionDef)
                 and f.name == "__init__"), None)
    if not names or init is None:
        return [], set()
    pos = [p.arg for p in init.args.posonlyargs + init.args.args][1:]
    defaulted = {name for name, _ in _defaulted(init)}
    return ([(name, name in defaulted, pos.index(name) if name in pos
              else None) for name in names],
            {id(n) for n in ast.walk(init)})


def unset_fields(sources, setters):
    """(module, class, field) of every defaulted field of a dataclass or
    record class in sources ({module: text}) that nothing in setters (a
    list of texts, which should include the sources) sets: no constructor
    call passes it by position, keyword or `**`, no `replace` call passes
    it by keyword or `**`, and no statement stores to an attribute of that
    name, other than a record's own __init__. Calls are matched by the
    called name or attribute alone."""
    trees = {text: ast.parse(text)
             for text in set(setters) | set(sources.values())}
    calls, stores = {}, []
    for text in setters:
        for n in ast.walk(trees[text]):
            if isinstance(n, ast.Call):
                f = n.func
                key = (f.id if isinstance(f, ast.Name)
                       else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(key, []).append(n)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                stores.append(n)
    out = []
    for mod, text in sources.items():
        body = [c for c in trees[text].body if isinstance(c, ast.ClassDef)]
        classes = {c.name: c for c in body if _is_dataclass(c)}
        for cls in body:
            if cls.name in classes:
                fields = [(name, defaulted, index) for index, (name, defaulted)
                          in enumerate(_fields(cls, classes))]
                inside = set()
            else:
                fields, inside = _record_fields(cls)
            for name, defaulted, index in fields:
                if not defaulted or any(n.attr == name and id(n) not in inside
                                        for n in stores):
                    continue
                if any(_passes(c, name, index)
                       for c in calls.get(cls.name, ())):
                    continue
                if any(_passes(c, name, None) for c in calls.get("replace", ())):
                    continue
                out.append((mod, cls.name, name))
    return sorted(out)


def test_every_defaulted_dataclass_field_is_set_somewhere():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    setters = [p.read_text(encoding="utf-8")
               for d in (SRC, ROOT / "tests", ROOT / "certbench")
               for p in sorted(d.glob("*.py"))]
    assert unset_fields(sources, setters) == []


def test_unset_fields_sees_every_form():
    a = ("from dataclasses import dataclass, field, replace\n"
         "from typing import ClassVar\n"
         "@dataclass(frozen=True)\n"
         "class P:\n"
         "    x: int\n"
         "    by_pos: int = 0\n"
         "    by_kw: int = 0\n"
         "    by_replace: int = 0\n"
         "    by_store: int = 0\n"
         "    never: list = field(default_factory=list)\n"
         "    shared: ClassVar[int] = 0\n"
         "    plain = 0\n"
         "@dataclass\n"
         "class Q(P):\n"
         "    q_by_pos: int = 0\n"
         "    q_never: int = 0\n"
         "@dataclass\n"
         "class R:\n"
         "    by_star: int = 0\n"
         "class NotData:\n"
         "    y: int = 0\n")
    b = ("p = P(0, 1, by_kw=2)\n"
         "p = replace(p, by_replace=3)\n"
         "p.by_store = 4\n"
         "q = mod.Q(0, 1, 2, 3, 4, 5, 6)\n"
         "r = R(**kw)\n")
    assert unset_fields({"a": a}, [a, b]) == [
        ("a", "P", "never"), ("a", "Q", "q_never")]
    c = ("class S(FrozenRecord):\n"
         "    _fields = ('x', 'by_pos', 'by_kw', 'by_store', 'never', 'kw')\n"
         "    plain = 0\n"
         "    def __init__(self, x, by_pos=0, by_kw=0, by_store=0, never=0,\n"
         "                 *, kw=0):\n"
         "        self.x, self.by_pos, self.by_kw = x, by_pos, by_kw\n"
         "        self.by_store, self.never = by_store, never\n"
         "        object.__setattr__(self, 'kw', kw)\n"
         "class T(S):\n"
         "    pass\n"
         "class U:\n"
         "    def __init__(self, y=0):\n"
         "        self.y = y\n")
    d = ("s = S(0, 1, by_kw=2)\n"
         "s.by_store = 3\n")
    assert unset_fields({"c": c}, [c, d]) == [
        ("c", "S", "kw"), ("c", "S", "never")]


def _sets_on_self(n):
    """True for a call object.__setattr__(self, "X", value)."""
    return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__setattr__"
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id == "object" and len(n.args) == 3
            and isinstance(n.args[0], ast.Name) and n.args[0].id == "self"
            and isinstance(n.args[1], ast.Constant))


def unread_init_attributes(sources, readers):
    """(module, class, attribute) of every `self.X` that an `__init__` of a
    class in sources ({module: text}) stores, directly or by
    object.__setattr__(self, "X", ...), and that no code in readers
    (a list of texts, which should include the sources) loads as an
    attribute outside that `__init__`. Attributes are matched by name
    alone."""
    trees = {text: ast.parse(text)
             for text in set(readers) | set(sources.values())}
    loads = [n for text in readers for n in ast.walk(trees[text])
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    out = []
    for mod, text in sources.items():
        for cls in ast.walk(trees[text]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef)
                        and init.name == "__init__"):
                    continue
                inside = {id(n) for n in ast.walk(init)}
                stored = {n.attr for n in ast.walk(init)
                          if isinstance(n, ast.Attribute)
                          and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name)
                          and n.value.id == "self"}
                stored |= {n.args[1].value for n in ast.walk(init)
                           if _sets_on_self(n)}
                for name in sorted(stored):
                    if not any(n.attr == name and id(n) not in inside
                               for n in loads):
                        out.append((mod, cls.name, name))
    return sorted(out)


def test_every_attribute_an_init_sets_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for d in (SRC, ROOT / "tests", ROOT / "certbench")
               for p in sorted(d.glob("*.py"))]
    assert unread_init_attributes(sources, readers) == []


def test_unread_init_attributes_sees_every_form():
    a = ("class E(Exception):\n"
         "    def __init__(self, msg, detail=None):\n"
         "        self.detail = detail\n"
         "        self.code = 2\n"
         "        self.only_here = 1\n"
         "        self.a, self.b = 1, 2\n"
         "        print(self.only_here)\n"
         "    def show(self):\n"
         "        return self.a\n"
         "class F:\n"
         "    def __init__(self):\n"
         "        self.local = 0\n"
         "        other.x = 1\n")
    b = ("try:\n"
         "    pass\n"
         "except E as err:\n"
         "    print(err.code)\n")
    assert unread_init_attributes({"a": a}, [a, b]) == [
        ("a", "E", "b"), ("a", "E", "detail"), ("a", "E", "only_here"),
        ("a", "F", "local")]
    c = ("class G(FrozenRecord):\n"
         "    _fields = ('x', 'y')\n"
         "    def __init__(self, x, y):\n"
         "        object.__setattr__(self, 'x', x)\n"
         "        object.__setattr__(self, 'y', y)\n"
         "        object.__setattr__(other, 'z', 0)\n"
         "        self.w = 0\n")
    d = "print(g.x)\n"
    assert unread_init_attributes({"c": c}, [c, d]) == [
        ("c", "G", "w"), ("c", "G", "y")]
