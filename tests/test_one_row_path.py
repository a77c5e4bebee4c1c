"""The package has one row path: the step solvers _solve_1d and _solve_nd,
the step finisher _finish_steps and the block size ROW_BLOCK are read only
inside scheme._steps, the row entry every step, ladder round and
interpolant sample goes through. A second caller would bring back its own
freezing, grouping, blocking and failure handling of rows. And the
certificate's scalar terms (energies, P, conjugates, values, gaps and
witnesses) are row calls, never one call per sample in a loop. Each energy
query has one body, and the package reads E, its gradient and P only
through their row forms."""

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


# Each energy query has one body. An EnergyModel subclass writes a scalar
# hook (value, grad, time_deriv_P), which the base class's default rows
# loop over, or its own row form (at_times, time_deriv_P_rows), never
# both; no energy class writes subdiff, whose rows are subdiff_rows; and
# the package calls a scalar hook of an energy model only inside the base
# class's defaults built on them (its two row forms, and the d = 1 scan's
# derivative_1d of one scalar state), so every other reader takes E, its
# gradient and P as rows.
ENERGY_BASE = "EnergyModel"
SCALAR_HOOKS = ("value", "grad", "time_deriv_P")
HOOK_READERS = {("energy", ENERGY_BASE, "at_times"),
                ("energy", ENERGY_BASE, "time_deriv_P_rows"),
                ("energy", ENERGY_BASE, "derivative_1d")}


def _members(cls):
    """{name: its def or assignment} of a class body."""
    out = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            out[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            out.update({t.id: stmt for t in stmt.targets
                        if isinstance(t, ast.Name)})
    return out


def _is_base_default(stmt):
    """Whether stmt is the assignment at_times = EnergyModel.at_times."""
    v = getattr(stmt, "value", None)
    return (isinstance(v, ast.Attribute) and v.attr == "at_times"
            and isinstance(v.value, ast.Name) and v.value.id == ENERGY_BASE)


def energy_query_faults(sources):
    """(module, line, fault) of every breach of the rule above in sources
    ({module: text}). A subclass is judged on its members together with
    those it inherits from the energy classes of sources below
    EnergyModel; a call's receiver is an energy model when it is self in
    an energy class, or a name or attribute called model or energy."""
    classes = {stmt.name: (mod, stmt) for mod, text in sources.items()
               for stmt in ast.parse(text).body
               if isinstance(stmt, ast.ClassDef)}

    def lineage(name):
        """name and its energy ancestors below EnergyModel, nearest first;
        None for a class that is no energy."""
        if name == ENERGY_BASE:
            return []
        if name not in classes:
            return None
        for base in classes[name][1].bases:
            up = lineage(base.id if isinstance(base, ast.Name)
                         else getattr(base, "attr", None))
            if up is not None:
                return [name] + up
        return None

    energy = {name for name in classes if lineage(name) is not None}
    out = []
    for name in sorted(energy):
        mod, cls = classes[name]
        own = _members(cls)
        if "subdiff" in own:
            out.append((mod, own["subdiff"].lineno, f"{name} defines subdiff"))
        if name == ENERGY_BASE:
            continue
        eff = {}
        for c in reversed(lineage(name)):
            eff.update(_members(classes[c][1]))
        if ("value" in eff and "at_times" in eff
                and not _is_base_default(eff["at_times"])):
            out.append((mod, cls.lineno, f"{name} writes value and at_times"))
        if "time_deriv_P" in eff and "time_deriv_P_rows" in eff:
            out.append((mod, cls.lineno,
                        f"{name} writes time_deriv_P and time_deriv_P_rows"))

    for mod, text in sources.items():
        scopes = []
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.ClassDef):
                scopes += [(stmt.name, getattr(m, "name", None), m)
                           for m in stmt.body]
            else:
                scopes.append((None, None, stmt))
        for cls, fn, node in scopes:
            if (mod, cls, fn) in HOOK_READERS:
                continue
            for n in ast.walk(node):
                if not (isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr in SCALAR_HOOKS):
                    continue
                r = n.func.value
                name = (r.id if isinstance(r, ast.Name)
                        else r.attr if isinstance(r, ast.Attribute) else None)
                if name in ("model", "energy") or (name == "self"
                                                   and cls in energy):
                    out.append((mod, n.lineno, f"calls .{n.func.attr}"))
    return sorted(out)


def test_each_energy_query_has_one_body():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert ENERGY_BASE in sources["energy"]
    assert energy_query_faults(sources) == []


def test_energy_query_faults_sees_every_form():
    # the energy classes and readers as they were while each query had a
    # scalar form and a row form, bridged both ways
    energy = (
        "class EnergyModel:\n"
        "    def value(self, t, u):\n"
        "        raise NotImplementedError\n"
        "    def derivative_1d(self, t, u):\n"
        "        return float(self.grad(t, np.array([u]))[0])\n"  # default
        "    def at_times(self, t):\n"
        "        def at(U):\n"
        "            return ([self.value(tb, u) for tb, u in U],\n"  # default
        "                    lambda: [self.grad(tb, ub) for tb in t])\n"
        "        return at\n"
        "    def subdiff(self, t, u):\n"                               # 11
        "        return [self.grad(t, u)]\n"                           # 12
        "    def time_deriv_P_rows(self, t, U, XI):\n"
        "        return [self.time_deriv_P(tb, u, x) for tb in t]\n"  # default
        "class MarginalEnergy(EnergyModel):\n"                         # 15
        "    def value(self, t, u):\n"
        "        return float(np.min(_marginal_candidates(self, t, u)))\n"
        "    def subdiff(self, t, u):\n"                               # 18
        "        return marginal_subdifferential(self, t, u)\n"
        "    def time_deriv_P(self, t, u, xi):\n"
        "        return self.time_deriv_P_rows((t,), u[None], xi[None])[0]\n"
        "    def time_deriv_P_rows(self, t, U, XI):\n"
        "        return []\n"
        "def energy_value(model, t, u):\n"
        "    return float(model.value(t, u))\n"                        # 25
        "def clarke_subdifferential_1d(model, t, u):\n"
        "    def f(y):\n"
        "        return model.value(t, np.array([y]))\n"               # 28
        "    return f\n")
    models = (
        "class _QuadraticEnergy(EnergyModel):\n"
        "    def value(self, t, u):\n"
        "        return 0.5 * float(np.dot(u, u))\n"
        "    def grad(self, t, u):\n"
        "        return u\n"
        "    def time_deriv_P(self, t, u, xi):\n"
        "        return 0.0\n"
        "class _StateWeightedQuadEnergy(_QuadraticEnergy):\n"         # not
        "    pass\n"
        "class _AbsoluteMarginalEnergy(energy.MarginalEnergy):\n"      # 10
        "    def subdiff(self, t, u):\n"                               # 11
        "        return []\n"
        "class _PhaseFieldEnergy(MarginalEnergy):\n"                   # 13
        "    def value(self, t, u):\n"
        "        return u[0] * u[0]\n"
        "    at_times = EnergyModel.at_times\n"                       # default
        "class _AllenCahnEnergy(EnergyModel):\n"                       # 17
        "    def value(self, t, u):\n"
        "        return _kernels.ac_energy(u, self.dx)\n"
        "    def at_times(self, t):\n"
        "        return lambda U: [self.value(t, u) for u in U]\n"     # 21
        "    def time_deriv_P(self, t, u, xi):\n"
        "        return self.time_deriv_P_rows((t,), u[None], None)[0]\n"
        "    def time_deriv_P_rows(self, t, U, XI):\n"
        "        return []\n"
        "class _Alias(_StateWeightedQuadEnergy):\n"                   # 26
        "    at_times = MarginalEnergy.at_times\n")
    scheme = (
        "def _solve_nd(model, p, u_prev, t, xp):\n"
        "    for b in range(3):\n"
        "        e = p.value(xp[b]) + model.value(t[b], xp[b])\n"      # 3
        "    return spec.energy.grad(t, xp) + traj.model.time_deriv_P()\n"  # 4
        "class Trajectory:\n"
        "    def rate(self, n):\n"
        "        return self.value(n) + self.psi.value(n)\n")          # not
    assert energy_query_faults({"energy": energy, "models": models,
                                "scheme": scheme}) == [
        ("energy", 11, "EnergyModel defines subdiff"),
        ("energy", 12, "calls .grad"),
        ("energy", 15, "MarginalEnergy writes time_deriv_P and "
                       "time_deriv_P_rows"),
        ("energy", 18, "MarginalEnergy defines subdiff"),
        ("energy", 25, "calls .value"),
        ("energy", 28, "calls .value"),
        ("models", 10, "_AbsoluteMarginalEnergy writes time_deriv_P and "
                       "time_deriv_P_rows"),
        ("models", 11, "_AbsoluteMarginalEnergy defines subdiff"),
        ("models", 13, "_PhaseFieldEnergy writes time_deriv_P and "
                       "time_deriv_P_rows"),
        ("models", 17, "_AllenCahnEnergy writes time_deriv_P and "
                       "time_deriv_P_rows"),
        ("models", 17, "_AllenCahnEnergy writes value and at_times"),
        ("models", 21, "calls .value"),
        ("models", 26, "_Alias writes value and at_times"),
        ("scheme", 3, "calls .value"),
        ("scheme", 4, "calls .grad"),
        ("scheme", 4, "calls .time_deriv_P")]
