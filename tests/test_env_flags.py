"""Every environment variable the package reads is documented: the names
read by src/dnevolve/*.py equal the flags listed under README
"Environment flags"."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dnevolve"


def _is_os_attr(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _literal(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    raise AssertionError(f"environment read with a computed name at line "
                         f"{node.lineno}")


def env_reads(tree):
    """Names read through os.environ[...], os.environ.get(...),
    os.getenv(...) and `... in os.environ`; any other use of os.environ
    or os.getenv fails, so no read goes uncounted."""
    names, seen = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if _is_os_attr(f, "getenv"):
                names.add(_literal(node.args[0]))
                seen.add(id(f))
            elif (isinstance(f, ast.Attribute) and f.attr == "get"
                  and _is_os_attr(f.value, "environ")):
                names.add(_literal(node.args[0]))
                seen.add(id(f.value))
        elif isinstance(node, ast.Subscript) and _is_os_attr(node.value,
                                                             "environ"):
            names.add(_literal(node.slice))
            seen.add(id(node.value))
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
              and isinstance(node.ops[0], (ast.In, ast.NotIn))
              and _is_os_attr(node.comparators[0], "environ")):
            names.add(_literal(node.left))
            seen.add(id(node.comparators[0]))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            bad = {a.name for a in node.names} & {"environ", "getenv"}
            assert not bad, f"`from os import {', '.join(sorted(bad))}`"
    for node in ast.walk(tree):
        if (_is_os_attr(node, "environ") or _is_os_attr(node, "getenv")) \
                and id(node) not in seen:
            raise AssertionError(f"unrecognised use of os.{node.attr} at "
                                 f"line {node.lineno}")
    return names


def readme_flags():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment flags", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `([A-Z][A-Z0-9_]*)=", section, re.M))


def test_env_reads_are_the_documented_flags():
    read = set()
    for path in sorted(SRC.glob("*.py")):
        read |= env_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert read == readme_flags() == {"DNEVOLVE_OUTPUT_ROOT"}


def test_env_reads_sees_every_form():
    tree = ast.parse("import os\n"
                     "a = os.environ.get('A')\n"
                     "b = os.getenv('B', '')\n"
                     "c = os.environ['C']\n"
                     "d = 'D' in os.environ\n")
    assert env_reads(tree) == {"A", "B", "C", "D"}


@pytest.mark.parametrize("src", [
    "import os\nx = dict(os.environ)\n",
    "import os\nk = 'A'\nx = os.getenv(k)\n",
    "from os import environ\n",
])
def test_env_reads_rejects_uncounted_access(src):
    with pytest.raises(AssertionError):
        env_reads(ast.parse(src))
