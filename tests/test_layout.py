"""The library keeps what runs: no public unit of ``src/planarflows`` is
there only for the tests.

A public module-level function or class (a ``namedtuple`` assignment
included) counts as used when library code outside its own definition names
it, as a name or an attribute (comments and docstrings do not count), when a
``perfbench`` module names it, or when the wrapper list of
``perfbench/spans.py`` names it as a string.  There is no exception: oracles,
input generators and paper models that only tests call belong in
``tests/helpers.py``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "planarflows").glob("*.py")}
BENCH = [ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")]

def _names(node):
    """Every identifier ``node`` reads: names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _public_units():
    """(module, name, definition) of each public module-level function or class."""
    for module, tree in sorted(LIBRARY.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)
                  and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "namedtuple"):
                name = node.targets[0].id
            else:
                continue
            if not name.startswith("_"):
                yield module, name, node


def _bench_names():
    """What perfbench names of the library: identifiers it reads, less those
    it defines itself, and the strings of the wrapper list in ``spans.install``."""
    own = {n.name for tree in BENCH for n in ast.walk(tree)
           if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    names = set().union(*map(_names, BENCH)) - own
    for tree in BENCH:
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name == "install":
                names |= {n.value for n in ast.walk(fn)
                          if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return names


def _unused():
    bench = _bench_names()
    tops = [(top, _names(top)) for tree in LIBRARY.values() for top in tree.body]
    out = set()
    for module, name, node in _public_units():
        library = any(name in names for top, names in tops if top is not node)
        if not library and name not in bench:
            out.add(f"{module}.{name}")
    return out


def test_every_public_library_unit_has_a_caller_outside_the_tests():
    assert sorted(_unused()) == []


def test_the_scan_sees_units_and_callers():
    units = {f"{module}.{name}" for module, name, _ in _public_units()}
    assert {"flows.FlowFunction", "lindstrom.GadgetFactor", "cli.main"} <= units
    assert not any(name.startswith("_") for name in units)
    assert {"fg_value", "ssyt_fillings", "two_pattern"} <= _bench_names()
