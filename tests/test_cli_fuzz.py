"""Seeded fuzzing of the command line: every command, one mutated input node
per run.

Each run takes one set-up (a command with valid inputs), changes one node of
one input (a JSON file or an option value) and runs ``main`` in-process. For
every run the exit code is 0, 1 or 2, no exception escapes ``main``, an exit
2 prints exactly one ``error: `` line and nothing else on stderr beyond
argparse's usage, and an exit 0 or 1 prints nothing on stderr. The error
names its field first, as ``error: <where>: <what>`` (argparse's own
``argument --name: ...`` counts).

Written integers stay within 10**3. ``schur`` is the exception: its numbers
size the whole computation (N variables, parts up to l), as a pattern's m
does, so its set-ups write integers up to 5 only.
"""

import copy
import json
import os
import random
import re

from planarflows import INTEGERS, TROPICAL_INT
from planarflows.basis import interval_values_from_weights, pressed_values_from_network
from planarflows.cli import main
from planarflows.network import build_grid, build_half_grid, network_to_json
from planarflows.patterns import pattern_to_json, stock_pattern
from planarflows.relations import default_sets

from helpers import unit_weights

SEED = 31
RUNS = 520
# <where> is one field path, such as members[0].A or weights['1,1'].
ERROR_FORM = re.compile(r"error: (argument )?\S+?: \S")

POOL = (None, True, False, 0, 1, -1, 2, 3, 1000, -1000, 0.5, "", "x", "1", "1/2",
        "1..2", "1|1", "1,2", [], [1], [1, 1], [[1]], {}, {"x": 1})


def _pair(kind):
    a, b = stock_pattern(kind)
    return {"A0": pattern_to_json(a), "B0": pattern_to_json(b)}


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


def _weighted(net, rng):
    return net.with_vertex_weights({v: rng.randint(1, 4) for v in net.vertices})


def _setups():
    """(command, files, options, largest integer written): ``files`` maps an
    option to the JSON document its file holds, ``options`` an option to its
    text."""
    rng = random.Random(SEED)
    p3, unbalanced = _fixture("p3_flag.json"), _fixture("unbalanced_p3.json")
    rows = _pair("rowdecomposition3")
    X, Y, Xp, Yp = default_sets(3, 3)
    sets = {"X": sorted(X), "Y": sorted(Y), "Xprime": sorted(Xp), "Yprime": sorted(Yp)}
    grid = _weighted(build_grid(3, 3), rng)
    half = _weighted(build_half_grid(3), rng)
    flag = interval_values_from_weights(TROPICAL_INT, half.weights, 3)
    pressed = pressed_values_from_network(INTEGERS, unit_weights(build_grid(2, 2), INTEGERS), 2, 2)
    big, small = 10 ** 3, 5
    return [
        ("check-balance", {"--patterns": p3}, {}, big),
        ("check-balance", {"--patterns": unbalanced}, {}, big),
        ("verify-relation",
         {"--patterns": p3, "--network": network_to_json(unit_weights(build_half_grid(3), INTEGERS),
                                                         INTEGERS)},
         {"--semiring": "integers"}, big),
        ("verify-relation",
         {"--patterns": rows, "--network": network_to_json(grid, INTEGERS), "--sets": sets},
         {"--semiring": "tropical-int"}, big),
        ("witness", {"--patterns": unbalanced}, {"--audit": None}, big),
        ("witness", {"--patterns": unbalanced,
                     "--sets": {"X": [1], "Y": [2, 3, 4], "Xprime": [1, 2], "Yprime": [3]}},
         {}, big),
        ("eval-fg", {"--network": network_to_json(grid, INTEGERS), "--args": {"I": [1, 2],
                                                                             "Iprime": [2, 3]}},
         {"--semiring": "integers"}, big),
        ("compile-matrix", {"--matrix": {"entries": [[1, 2, 0], ["1/2", 0, 3]]}}, {}, big),
        ("schur", {}, {"--identity": "tworow", "--params": "1,2,3,4", "--nvars": "3"}, small),
        ("schur", {}, {"--identity": "condensation", "--params": "2,1", "--nvars": "2"}, small),
        ("reconstruct",
         {"--basis": {"case": "flag-intervals", "n": 3,
                      "values": {f"{p}..{q}": v for (p, q), v in flag.items()}}},
         {"--semiring": "tropical-int", "--target": "1,3"}, big),
        ("reconstruct",
         {"--basis": {"case": "pressed-double-intervals", "n": 2, "n_prime": 2,
                      "values": {f"{p}..{q}|{r}..{s}": v
                                 for ((p, q), (r, s)), v in pressed.items()}}},
         {"--semiring": "rationals", "--target": "1,2|1,2"}, big),
        ("validate-network", {"--network": network_to_json(build_grid(3, 3))}, {}, big),
    ]


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replacement(rng, old, top):
    """A new value for ``old``: from the pool, or a near edit of it; no
    integer beyond ``top`` in size."""
    options = list(POOL)
    if type(old) is int:
        options += [old + 1, old - 1, -old]
    if isinstance(old, (str, list)) and old:
        options += [old[:-1], old[1:]]
    if isinstance(old, list) and old:
        options.append(old + old[:1])
    options = [v for v in options if type(v) is not int or abs(v) <= top]
    return copy.deepcopy(rng.choice(options))


def _mutate(rng, files, options, top):
    """Copies of ``files`` and ``options`` with one node replaced or deleted."""
    files, options = copy.deepcopy(files), dict(options)
    targets = [("file", name, path) for name, doc in files.items() for path in _nodes(doc)]
    targets += [("option", name, ()) for name, text in options.items() if text is not None]
    kind, name, path = rng.choice(targets)
    if kind == "option":
        value = _replacement(rng, options[name], top)
        options[name] = value if isinstance(value, str) else json.dumps(value)
        return files, options
    if not path:
        files[name] = _replacement(rng, files[name], top)
        return files, options
    parent = files[name]
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _replacement(rng, parent[path[-1]], top)
    return files, options


def test_no_mutated_input_escapes_main(tmp_path, capsys):
    rng = random.Random(SEED)
    setups = _setups()
    failures = []
    codes = {0: 0, 1: 0, 2: 0}
    for run in range(RUNS):
        command, files, options, top = setups[run % len(setups)]
        files, options = _mutate(rng, files, options, top)
        argv = [command]
        for name, doc in files.items():
            path = tmp_path / f"{name[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [name, str(path)]
        for name, text in options.items():
            argv += [name] if text is None else [name, text]
        try:
            code = main(argv)
        except Exception as exc:  # an escape is what this test looks for
            failures.append((argv, files, f"escaped: {exc!r}"))
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        lines = err.splitlines()
        if code == 2:
            ok = sum("error: " in line for line in lines) == 1 and all(
                ERROR_FORM.search(line) if "error: " in line
                else line.startswith("usage: ") or line.startswith(" ")
                for line in lines)
        else:
            ok = code in (0, 1) and not err
        if not ok:
            failures.append((argv, files, f"exit {code}: {err!r}"))
        else:
            codes[code] += 1
    assert not failures, failures[:3]
    # The mutations reach both the accepting and the refusing paths.
    assert codes[2] > RUNS // 4 and codes[0] + codes[1] > RUNS // 10, codes
