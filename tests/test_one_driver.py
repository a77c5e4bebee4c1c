"""One place drives the generators: the Brent methods of _optim are
generators, and _optim._lockstep is the one loop that sends them values.
A second .send( site would be a second driver, with its own start, stop
and failure handling of the runs."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dnevolve"


def send_sites(sources, driver=("_optim", "_lockstep")):
    """(module, line, top-level name) of every .send( call in sources
    ({module: text}) outside the module-level function driver, a (module,
    function) pair."""
    out = []
    for mod, text in sources.items():
        for stmt in ast.parse(text).body:
            name = getattr(stmt, "name", None)
            if (mod, name) == driver:
                continue
            out += [(mod, n.lineno, name) for n in ast.walk(stmt)
                    if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "send"]
    return sorted(out)


def test_package_drives_generators_only_in_lockstep():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert "def _lockstep(" in sources["_optim"]
    assert send_sites(sources) == []


def test_send_sites_sees_the_three_loops_lockstep_replaced():
    # the lockstep loops of _optim before _lockstep drove them all
    optim = (
        "def _lockstep(runs, values):\n"
        "    for k, fu in zip(live, values(x, rows)):\n"
        "        nxt.append(runs[k].send(fu))\n"                # the driver
        "def _bounded_brent_rows(func, x1, x2, xatol, maxiter):\n"
        "    while live:\n"
        "        for k, fu in zip(live, vals):\n"
        "            try:\n"
        "                x[k] = runs[k].send(fu)\n"             # 8
        "            except StopIteration as stop:\n"
        "                x_best[k], f_best[k] = stop.value\n"
        "def _brentq(f, xa, xb, fa, fb, xtol, rtol, maxiter):\n"
        "    run = _brent_root(xa, xb, fa, fb, xtol, rtol, maxiter)\n"
        "    try:\n"
        "        x = next(run)\n"
        "        while True:\n"
        "            x = run.send(f(x))\n"                      # 16
        "    except StopIteration as stop:\n"
        "        return stop.value\n"
        "def polish_rows(dphi, x, radius):\n"
        "    while sent:\n"
        "        for k, fu in sent.items():\n"
        "            try:\n"
        "                nxt[k] = runs[k].send(fu)\n"           # 23
        "            except StopIteration as stop:\n"
        "                out[k] = stop.value\n")
    scheme = ("def _lockstep(runs):\n"
              "    return [r.send(None) for r in runs]\n")   # wrong module
    assert send_sites({"_optim": optim, "scheme": scheme}) == [
        ("_optim", 8, "_bounded_brent_rows"), ("_optim", 16, "_brentq"),
        ("_optim", 23, "polish_rows"), ("scheme", 2, "_lockstep")]
