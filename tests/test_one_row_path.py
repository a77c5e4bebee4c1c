"""The package has one row path: the step solvers _solve_1d and _solve_nd,
the step finisher _finish_steps and the block size ROW_BLOCK are read only
inside scheme._steps, the row entry every step, ladder round and
interpolant sample goes through. A second caller would bring back its own
freezing, grouping, blocking and failure handling of rows. And the
certificate's scalar terms (energies, P, conjugates, values, gaps and
witnesses) are row calls, never one call per sample in a loop, and so
is the freezing of a potential at the states of many rows, and each stage
of the 1-D step block. Each energy query has one body, its row form, and
the package reads E, its gradient and P only through it."""

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


# Each energy query has one body, its row form: no energy class defines
# a scalar hook (value, grad, time_deriv_P), which a row form would loop
# over, or subdiff, whose rows are subdiff_rows; no class re-binds
# at_times to another class's; and the package calls no scalar hook of
# an energy model, so every reader takes E, its gradient and P as rows.
ENERGY_BASE = "EnergyModel"
SCALAR_HOOKS = ("value", "grad", "time_deriv_P", "subdiff")


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


def energy_query_faults(sources):
    """(module, line, fault) of every breach of the rule above in sources
    ({module: text}). The energy classes are EnergyModel and the classes
    of sources below it; a call's receiver is an energy model when it is
    self in an energy class, or a name or attribute called model or
    energy."""
    classes = {stmt.name: (mod, stmt) for mod, text in sources.items()
               for stmt in ast.parse(text).body
               if isinstance(stmt, ast.ClassDef)}

    def is_energy(name):
        if name == ENERGY_BASE:
            return True
        if name not in classes:
            return False
        return any(is_energy(b.id if isinstance(b, ast.Name)
                             else getattr(b, "attr", None))
                   for b in classes[name][1].bases)

    energy = {name for name in classes if is_energy(name)}
    out = []
    for name in sorted(energy):
        mod, cls = classes[name]
        for member, stmt in _members(cls).items():
            if member in SCALAR_HOOKS:
                out.append((mod, stmt.lineno, f"{name} defines {member}"))
            elif (member == "at_times" and isinstance(stmt, ast.Assign)):
                out.append((mod, stmt.lineno,
                            f"{name} borrows another class's at_times"))

    for mod, text in sources.items():
        scopes = []
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.ClassDef):
                scopes += [(stmt.name, m) for m in stmt.body]
            else:
                scopes.append((None, stmt))
        for cls, node in scopes:
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
    # the energy classes and readers as they were while a model wrote a
    # scalar hook that the base class's rows looped over
    energy = (
        "class EnergyModel:\n"
        "    def value(self, t, u):\n"                                # 2
        "        raise NotImplementedError\n"
        "    def derivative_1d(self, t, u):\n"
        "        return float(self.grad(t, np.array([u]))[0])\n"      # 5
        "    def at_times(self, t):\n"
        "        def at(U):\n"
        "            return ([self.value(tb, u) for tb, u in U],\n"   # 8
        "                    lambda: [self.grad(tb, ub) for tb in t])\n"
        "        return at\n"
        "    def subdiff(self, t, u):\n"                               # 11
        "        return [self.grad(t, u)]\n"                           # 12
        "    def time_deriv_P_rows(self, t, U, XI):\n"
        "        return [self.time_deriv_P(tb, u, x) for tb in t]\n"  # 14
        "class MarginalEnergy(EnergyModel):\n"
        "    def time_deriv_P(self, t, u, xi):\n"                      # 16
        "        return self.time_deriv_P_rows((t,), u[None], xi[None])[0]\n"
        "def energy_value(model, t, u):\n"
        "    return float(model.value(t, u))\n")                       # 19
    models = (
        "class _QuadraticEnergy(EnergyModel):\n"
        "    def value(self, t, u):\n"                                # 2
        "        return 0.5 * float(np.dot(u, u))\n"
        "    def grad(self, t, u):\n"                                 # 4
        "        return u\n"
        "class _StateWeightedQuadEnergy(_QuadraticEnergy):\n"         # not
        "    pass\n"
        "class _PhaseFieldEnergy(MarginalEnergy):\n"
        "    def value(self, t, u):\n"                                # 9
        "        return u[0] * u[0]\n"
        "    at_times = EnergyModel.at_times\n"                        # 11
        "class Trajectory:\n"
        "    def rate(self, n):\n"
        "        return self.value(n) + self.psi.value(n)\n")          # not
    scheme = (
        "def _solve_nd(model, p, u_prev, t, xp):\n"
        "    e = p.value(xp) + model.value(t, xp)\n"                   # 2
        "    return spec.energy.grad(t, xp) + traj.model.time_deriv_P()\n")
    assert energy_query_faults({"energy": energy, "models": models,
                                "scheme": scheme}) == [
        ("energy", 2, "EnergyModel defines value"),
        ("energy", 5, "calls .grad"),
        ("energy", 8, "calls .value"),
        ("energy", 9, "calls .grad"),
        ("energy", 11, "EnergyModel defines subdiff"),
        ("energy", 12, "calls .grad"),
        ("energy", 14, "calls .time_deriv_P"),
        ("energy", 16, "MarginalEnergy defines time_deriv_P"),
        ("energy", 19, "calls .value"),
        ("models", 2, "_QuadraticEnergy defines value"),
        ("models", 4, "_QuadraticEnergy defines grad"),
        ("models", 9, "_PhaseFieldEnergy defines value"),
        ("models", 11, "_PhaseFieldEnergy borrows another class's at_times"),
        ("scheme", 2, "calls .value"),
        ("scheme", 3, "calls .grad"),
        ("scheme", 3, "calls .time_deriv_P")]


# E has one body in d = 1 as well: the scan reads at_times, so no module
# defines, calls or otherwise names value_batch_1d, the scan's second body
# of E that could pick a minimizer by one formula and the certificate
# judge it by another.
SECOND_BODIES = ("value_batch_1d",)


def second_bodies(sources, names=SECOND_BODIES):
    """(module, line, name) of every def of, attribute named, or name
    reading one of names in sources ({module: text})."""
    out = []
    for mod, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            name = (n.name if isinstance(n, ast.FunctionDef)
                    else n.attr if isinstance(n, ast.Attribute)
                    else n.id if isinstance(n, ast.Name) else None)
            if name in names:
                out.append((mod, n.lineno, name))
    return sorted(out)


def test_e_has_no_second_body_in_1d():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert second_bodies(sources) == []


def test_second_bodies_sees_every_form():
    # the scan's E and its overrides as they were, and their other forms
    energy = ("class EnergyModel:\n"
              "    def value_batch_1d(self, t, us):\n"             # 2
              "        raise NotImplementedError\n"
              "    def at_times(self, t):\n"
              "        return 'value_batch_1d'\n")                 # not
    models = ("class _PhaseFieldEnergy(MarginalEnergy):\n"
              "    def value_batch_1d(self, t, us):\n"             # 2
              "        return us * us\n"
              "    scan = EnergyModel.value_batch_1d\n")           # 4
    scheme = ("def _solve_1d(model, p, u_prev, t, tau, e_prev):\n"
              "    def phi(x, rows):\n"
              "        return model.value_batch_1d(t[rows], x)\n"  # 3
              "    f = getattr(model, 'at_times')\n"              # not
              "    value_batch_1d = f\n")                          # 5
    assert second_bodies({"energy": energy, "models": models,
                          "scheme": scheme}) == [
        ("energy", 2, "value_batch_1d"), ("models", 2, "value_batch_1d"),
        ("models", 4, "value_batch_1d"), ("scheme", 3, "value_batch_1d"),
        ("scheme", 5, "value_batch_1d")]


# A potential is frozen as rows: psi.at_state takes the rows of a (B, d)
# array, so no at_state call in the package sits in a loop or a
# comprehension, where it would freeze one state per iteration again. And
# the 1-D step block is solved in rows: the stationarity polish, the
# coercivity radius and the derivatives it reads take every row of a
# block in one call, so none of ROW_STAGES is called per row either.
ROW_STAGES = ("polish_root", "rate_bound_radius", "_coercivity_radius",
              "scalar_derivative", "derivative_1d")


def per_row_calls(sources, names):
    """(module, line, name) of every call of one of names, by name or
    attribute, that a loop or comprehension of sources ({module: text})
    evaluates once per iteration."""
    out = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        looped = set()
        for n in ast.walk(tree):
            if isinstance(n, _LOOPS):
                looped |= _repeated(n)
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call) and id(n) in looped):
                continue
            f = n.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name in names:
                out.append((mod, n.lineno, name))
    return sorted(out)


def per_row_freezes(sources):
    """(module, line) of every at_state call that a loop or comprehension
    of sources ({module: text}) evaluates once per iteration."""
    return [(mod, line) for mod, line, _ in per_row_calls(sources,
                                                          ("at_state",))]


def test_package_freezes_potentials_as_rows():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert per_row_freezes(sources) == []


def test_per_row_freezes_sees_every_form():
    # the freezing loops of the package before at_state took rows
    scheme = (
        "def _steps(model, psi, u_prev, tau):\n"
        "    for b, h in enumerate(tau):\n"
        "        groups.setdefault(psi.at_state(u_prev[b]), []).append(b)\n"
        "def slope_multiplier(model, psi, t, u):\n"
        "    frozen = [psi.at_state(u) for u in U]\n"                  # 5
        "    return psi.at_state(U)\n"                                 # once
        "class DiscreteTrajectory:\n"
        "    def psi_at(self, n):\n"
        "        return self.psi.at_state(self.U[n - 1])\n")           # once
    diagnostics = (
        "def _step_rows(traj, ns):\n"
        "    frozen = [traj.psi_at(n) for n in ns.tolist()]\n"         # not
        "def passes(steps):\n"
        "    return {n: traj.psi.at_state(U[n]) for n in steps}\n")    # 4
    cli = ("def read_trajectory_csv(path, plan):\n"
           "    ws = frozen_query(\n"
           "        [psi.at_state(u) for u in U[:-1]],\n"               # 3
           "        witness, steps)\n"
           "    while rows:\n"
           "        p = plan.psi.at_state(rows.pop())\n")               # 6
    assert per_row_freezes({"scheme": scheme, "diagnostics": diagnostics,
                            "cli": cli}) == [
        ("cli", 3), ("cli", 6), ("diagnostics", 4), ("scheme", 3),
        ("scheme", 5)]


def test_package_solves_the_1d_step_block_in_rows():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert per_row_calls(sources, ROW_STAGES) == []


def test_per_row_calls_sees_the_per_row_stages():
    # _solve_1d's and _solve_nd's per-row stages before they took rows
    scheme = (
        "def _solve_1d(model, p, u_prev, t, tau, e_prev):\n"
        "    ps = [p[b] for b in range(B)]\n"
        "    for b in range(B):\n"
        "        R = _coercivity_radius(ps[b], tau[b], e_prev[b] - C0)\n"  # 4
        "    def dphi(b):\n"
        "        return lambda x: (potentials.scalar_derivative(\n"      # once
        "            ps[b], x) + model.derivative_1d(t[b], x))\n"        # once
        "    x_pol = np.array([_optim.polish_root(dphi(b), x_best[b],\n"  # 8
        "                                         2.0 * spacing[b])\n"
        "                      for b in range(B)])\n"
        "def _solve_nd(model, p, u_prev, t, tau, e_prev):\n"
        "    R = [_coercivity_radius(q, h, e - C0)\n"                   # 12
        "         for q, h, e in zip(ps, tau, e_prev)]\n"
        "    R = _coercivity_radius(p, tau, e_prev)\n")                 # once
    potentials = (
        "def rate_bound_radius(p, tau, budget):\n"
        "    return potentials.rate_bound_radius(p, tau, budget)\n"    # once
        "def radii(ps, taus, budgets):\n"
        "    while ps:\n"
        "        yield rate_bound_radius(ps.pop(), taus.pop(), 1.0)\n"   # 5
        "def slopes(p, s):\n"
        "    return {x: scalar_derivative(p, x) for x in s}\n")        # 7
    energy = ("def derivatives(model, t, u):\n"
              "    return [model.derivative_1d(tb, x) for tb, x in t]\n")  # 2
    assert per_row_calls({"scheme": scheme, "potentials": potentials,
                          "energy": energy}, ROW_STAGES) == [
        ("energy", 2, "derivative_1d"),
        ("potentials", 5, "rate_bound_radius"),
        ("potentials", 7, "scalar_derivative"),
        ("scheme", 4, "_coercivity_radius"),
        ("scheme", 8, "polish_root"),
        ("scheme", 12, "_coercivity_radius")]
