"""The package reads nothing of numpy.linalg or scipy: no import of
either, and no attribute or name `linalg` or `scipy` anywhere in src/.

The reason is memory, which the benchmark bounds per process. On the
benchmark's 2-core Xeon host (Python 3.11, numpy 2.4), np.linalg.solve on
a (3, 64, 64) batch raised a fresh process's peak RSS by 444 kB, more
than 4x the 0.1 MB bound of `peak_rss_mb`, while three 64-point
tridiagonal Thomas sweeps on Python floats, as the n-D inner solver's
Newton candidate runs them, added 0 kB. Comments and strings may still
name them."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dnevolve"

BANNED = ("linalg", "scipy")


def lapack_uses(sources):
    """(module, line, what) of every import of, or attribute or name
    reading, one of BANNED in sources ({module: text})."""
    out = []
    for mod, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""] + [a.name for a in n.names]
            elif isinstance(n, ast.Attribute):
                names = [n.attr]
            elif isinstance(n, ast.Name):
                names = [n.id]
            else:
                continue
            out += [(mod, n.lineno, b) for name in names
                    for b in BANNED if b in name.split(".")]
    return sorted(out)


def test_package_reads_no_linalg_or_scipy():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert "scheme" in sources
    assert lapack_uses(sources) == []


def test_lapack_uses_sees_every_form():
    planted = (
        "import numpy as np\n"
        "import scipy\n"                                  # 2
        "from scipy.linalg import solve_banded\n"         # 3
        "import numpy.linalg\n"                           # 4
        "from numpy import linalg\n"                      # 5
        "from numpy.linalg import norm as n2\n"           # 6
        "def f(x):\n"
        "    # np.linalg.norm in a comment is fine\n"
        "    s = 'scipy in a string is fine'\n"
        "    return np.linalg.solve(x, x)\n"              # 10
        "def g(x, linalg=None):\n"
        "    return linalg\n")                            # 12
    assert lapack_uses({"m": planted}) == [
        ("m", 2, "scipy"), ("m", 3, "linalg"), ("m", 3, "scipy"),
        ("m", 4, "linalg"), ("m", 5, "linalg"), ("m", 6, "linalg"),
        ("m", 10, "linalg"), ("m", 12, "linalg")]
