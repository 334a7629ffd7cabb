import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import planarflows
from planarflows import INTEGERS, RATIONALS, TROPICAL_INT
from planarflows.basis import flag_values_from_network, pressed_values_from_network
from planarflows.cli import main
from planarflows.lindstrom import exact_matrix
from planarflows.network import build_grid, build_half_grid, network_to_json
from planarflows.patterns import pattern_from_json, pattern_to_json

from helpers import unit_weights

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.mark.parametrize(
    "name",
    [
        "p3_flag.json",
        "p4_flag.json",
        "quintuple_flag.json",
        "homogeneous3.json",
        "dodgson.json",
        "rowdecomposition3.json",
    ],
)
def test_check_balance_on_stock_fixtures(capsys, name):
    code, out = run(capsys, "check-balance", "--patterns", fixture(name))
    assert code == 0
    assert out == {"balanced": True}


def test_check_balance_unbalanced(capsys):
    code, out = run(capsys, "check-balance", "--patterns", fixture("unbalanced_p3.json"))
    assert code == 1
    assert not out["balanced"]
    assert out["witness"]["lower"] == [[1, 2]]
    assert out["counts"] == [1, 0]


def test_witness_command(capsys, tmp_path):
    assert main(["witness", "--patterns", fixture("unbalanced_p3.json"), "--audit"]) == 1
    text = capsys.readouterr().out
    with open(fixture("unbalanced_p3_witness_audit.json")) as fh:
        assert text == fh.read()
    out = json.loads(text)
    assert out["lhs"] == 1 and out["rhs"] == 0
    assert out["audit_ok"]
    net_file = tmp_path / "witness_net.json"
    net_file.write_text(json.dumps(out["network"]))
    code2, report = run(capsys, "validate-network", "--network", str(net_file))
    assert code2 == 0 and report["ok"]


def test_verify_relation_command(capsys, tmp_path):
    for spec in (INTEGERS, TROPICAL_INT):
        net = unit_weights(build_half_grid(3), spec)
        net_file = tmp_path / "net.json"
        net_file.write_text(json.dumps(network_to_json(net, spec)))
        code, out = run(
            capsys,
            "verify-relation",
            "--patterns",
            fixture("p3_flag.json"),
            "--semiring",
            spec.name,
            "--network",
            str(net_file),
        )
        assert code == 0
        assert out["equal"]


def test_eval_fg_command(capsys, tmp_path):
    net = unit_weights(build_half_grid(3), INTEGERS)
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network_to_json(net, INTEGERS)))
    args_file = tmp_path / "args.json"
    args_file.write_text(json.dumps({"I": [1, 2], "Iprime": [1, 2]}))
    code, out = run(
        capsys,
        "eval-fg",
        "--network",
        str(net_file),
        "--semiring",
        "integers",
        "--args",
        str(args_file),
    )
    assert code == 0
    assert out == {"value": 1}


def test_compile_matrix_command(capsys, tmp_path):
    mat_file = tmp_path / "m.json"
    mat_file.write_text(
        json.dumps({"rows": 2, "cols": 2, "entries": [["1/2", 3], [0, "5"]]})
    )
    code, out = run(capsys, "compile-matrix", "--matrix", str(mat_file))
    assert code == 0
    assert out["exact"]
    assert out["flow_matrix"]["entries"] == [["1/2", 3], [0, 5]]
    # Neville elimination: at most n(n-1) + 1 factors for a square matrix.
    rng = random.Random(0)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(8)]
            for _ in range(8)]
    mat_file.write_text(json.dumps(exact_matrix(RATIONALS, rows).to_json()))
    code, out = run(capsys, "compile-matrix", "--matrix", str(mat_file))
    assert code == 0
    assert out["exact"] and len(out["factors"]) <= 57


def test_schur_command(capsys):
    code, out = run(
        capsys, "schur", "--identity", "tworow", "--params", "1,2,2,3", "--nvars", "3"
    )
    assert code == 0 and out["equal"]
    code, out = run(
        capsys, "schur", "--identity", "condensation", "--params", "3,1", "--nvars", "3"
    )
    assert code == 0 and out["equal"]


def test_reconstruct_command(capsys, tmp_path):
    basis_file = tmp_path / "basis.json"
    basis_file.write_text(
        json.dumps(
            {
                "case": "flag-intervals",
                "n": 3,
                "values": {
                    "1..1": 2, "2..2": 3, "3..3": 5,
                    "1..2": 7, "2..3": 11, "1..3": 13,
                },
            }
        )
    )
    code, out = run(
        capsys,
        "reconstruct",
        "--basis",
        str(basis_file),
        "--semiring",
        "tropical-int",
        "--target",
        "1,3",
    )
    assert code == 0
    assert out == {"value": max(7 + 5, 2 + 11) - 3}


@pytest.mark.parametrize("empty_key", [False, True], ids=["no-empty-key", "empty-key"])
@pytest.mark.parametrize("flag, target, I, Iprime", [
    (True, "1,3", [1, 3], [1, 2]),
    (True, "", [], []),
    (False, "1,3|1,3", [1, 3], [1, 3]),
    (False, "|", [], []),
], ids=["flag", "flag-empty", "pressed", "pressed-empty"])
def test_reconstruct_agrees_with_eval_fg(capsys, tmp_path, flag, target, I, Iprime, empty_key):
    """The flag basis of a weighted half-grid of 4, or the pressed basis of a
    weighted 3x3 grid, gives the value eval-fg reads off the network.  The
    empty target reads as the empty set, whose value is the semiring's one;
    ``empty_key`` also lists that value under the empty basis key."""
    rng = random.Random(0)
    base = build_half_grid(4) if flag else build_grid(3, 3)
    net = base.with_vertex_weights({v: TROPICAL_INT.random_value(rng) for v in base.vertices})
    if flag:
        values = {f"{p}..{q}": v
                  for (p, q), v in flag_values_from_network(TROPICAL_INT, net, 4).items()}
        basis = {"case": "flag-intervals", "n": 4, "values": values}
    else:
        values = {f"{p}..{q}|{r}..{s}": v for ((p, q), (r, s)), v
                  in pressed_values_from_network(TROPICAL_INT, net, 3, 3).items()}
        basis = {"case": "pressed-double-intervals", "n": 3, "n_prime": 3, "values": values}
    if empty_key:
        values["" if flag else "|"] = TROPICAL_INT.to_json(TROPICAL_INT.one())
    files = {"basis": basis, "net": network_to_json(net, TROPICAL_INT),
             "args": {"I": I, "Iprime": Iprime}}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    outputs = []
    for argv in (["reconstruct", "--basis", str(tmp_path / "basis.json"), "--target", target],
                 ["eval-fg", "--network", str(tmp_path / "net.json"),
                  "--args", str(tmp_path / "args.json")]):
        assert main(argv + ["--semiring", "tropical-int"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text", ["{not json", "\udcff", "[" * 100_000],
                         ids=["syntax", "encoding", "depth"])
@pytest.mark.parametrize("command, option", [
    ("check-balance", "--patterns"),
    ("verify-relation", "--patterns"),
    ("verify-relation", "--network"),
    ("verify-relation", "--sets"),
    ("witness", "--patterns"),
    ("witness", "--sets"),
    ("eval-fg", "--network"),
    ("eval-fg", "--args"),
    ("compile-matrix", "--matrix"),
    ("reconstruct", "--basis"),
    ("validate-network", "--network"),
])
def test_a_file_that_is_not_json_is_refused_naming_the_file(
        capsys, tmp_path, command, option, text):
    """Bad syntax, bytes that are not UTF-8 and nesting too deep to parse
    each exit 2 with the file's path, on every option that names a file."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    args_file = tmp_path / "args.json"
    args_file.write_text(json.dumps({"I": [1], "Iprime": [1]}))
    required = {
        "check-balance": ["--patterns", fixture("p3_flag.json")],
        "verify-relation": ["--patterns", fixture("p3_flag.json"), "--semiring", "integers",
                            "--network", _half_grid_file(tmp_path)],
        "witness": ["--patterns", fixture("p3_flag.json")],
        "eval-fg": ["--network", _half_grid_file(tmp_path), "--semiring", "integers",
                    "--args", str(args_file)],
        "compile-matrix": ["--matrix", str(bad)],
        "reconstruct": ["--basis", str(bad), "--semiring", "integers", "--target", "1"],
        "validate-network": ["--network", str(bad)],
    }
    assert main([command] + required[command] + [option, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: cannot read as JSON: ")


def test_eval_fg_reads_many_star_prefixes_as_one(capsys, tmp_path):
    net = unit_weights(build_half_grid(3), TROPICAL_INT)
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network_to_json(net, TROPICAL_INT)))
    for I, Iprime in (([2, 3], [1, 2]), ([1], [3])):  # one flow, then none
        args_file = tmp_path / "args.json"
        args_file.write_text(json.dumps({"I": I, "Iprime": Iprime}))
        outs = [run(capsys, "eval-fg", "--network", str(net_file), "--semiring",
                    "star:" * stars + "tropical-int", "--args", str(args_file))
                for stars in (1, 1200)]
        assert outs[0][0] == 0 and outs[0] == outs[1]


def test_eval_fg_without_a_zero_values_no_flow_as_star(capsys, tmp_path):
    """Over tropical-int, which has no zero, a value with no flow is "star",
    as verify-relation reads it; the weights are still tropical integers."""
    net = unit_weights(build_half_grid(3), TROPICAL_INT)
    data = network_to_json(net, TROPICAL_INT)
    net_file, args_file = tmp_path / "net.json", tmp_path / "args.json"
    net_file.write_text(json.dumps(data))
    argv = ["eval-fg", "--network", str(net_file), "--semiring", "tropical-int",
            "--args", str(args_file)]
    for I, Iprime, value in (([2, 3], [1, 2], 0), ([1], [3], "star")):
        args_file.write_text(json.dumps({"I": I, "Iprime": Iprime}))
        assert run(capsys, *argv) == (0, {"value": value})
    data["weights"]["1,1"] = "star"
    net_file.write_text(json.dumps(data))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weights['1,1']: expected tropical integer, got 'star'\n"


def test_validate_network_failure(capsys, tmp_path):
    data = {
        "vertices": [
            {"id": "s1", "x": "0", "y": "0"},
            {"id": "t1", "x": "0", "y": "1"},
        ],
        "edges": [["s1", "t1"], ["t1", "s1"]],
        "sources": ["s1"],
        "sinks": ["t1"],
        "weight_mode": "vertex",
        "weights": {},
    }
    net_file = tmp_path / "bad.json"
    net_file.write_text(json.dumps(data))
    code, report = run(capsys, "validate-network", "--network", str(net_file))
    assert code == 1
    assert not report["acyclic"]


def test_validate_network_rejects_non_planar_drawings(capsys, tmp_path):
    # Two paths crossing where distinct vertices are drawn at one point.
    code, report = run(capsys, "validate-network", "--network", fixture("crossing_paths.json"))
    assert code == 1
    assert report["planar_ok"] is False and report["crossings"]
    # Two edges from one vertex overlapping along one ray.
    data = {
        "vertices": [{"id": "a", "x": "0", "y": "0"}, {"id": "c", "x": "1", "y": "1"},
                     {"id": "b", "x": "2", "y": "2"}],
        "edges": [["a", "b"], ["a", "c"]],
        "sources": ["a"],
        "sinks": ["b"],
    }
    net_file = tmp_path / "overlap.json"
    net_file.write_text(json.dumps(data))
    code, report = run(capsys, "validate-network", "--network", str(net_file))
    assert code == 1
    assert report["crossings"] == [[["a", "b"], ["a", "c"]]]


def _eval_fg(capsys, tmp_path, data, I, Iprime):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(data))
    args_file = tmp_path / "args.json"
    args_file.write_text(json.dumps({"I": I, "Iprime": Iprime}))
    return run(capsys, "eval-fg", "--network", str(net_file), "--semiring",
               "integers", "--args", str(args_file))


def _chain(n):
    """Vertex-weighted path v0 -> ... -> v(n-1) along the x axis."""
    return {
        "vertices": [{"id": f"v{i}", "x": str(i), "y": "0"} for i in range(n)],
        "edges": [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)],
        "sources": ["v0"],
        "sinks": [f"v{n - 1}"],
        "weight_mode": "vertex",
        "weights": {f"v{i}": 2 if i % 100 == 0 else 1 for i in range(n)},
    }


def test_eval_fg_refuses_a_cyclic_network(capsys, tmp_path):
    data = {
        "vertices": [
            {"id": "a", "x": "0", "y": "0"},
            {"id": "b", "x": "1", "y": "1"},
        ],
        "edges": [["a", "b"], ["b", "a"]],
        "sources": ["a"],
        "sinks": ["b"],
        "weight_mode": "vertex",
        "weights": {"a": 1, "b": 1},
    }
    code, out = _eval_fg(capsys, tmp_path, data, [1], [1])
    assert code == 2 and out is None


def test_eval_fg_on_a_chain_longer_than_the_recursion_limit(capsys, tmp_path):
    n = sys.getrecursionlimit() + 200
    code, out = _eval_fg(capsys, tmp_path, _chain(n), [1], [1])
    assert code == 0
    assert out == {"value": 2 ** len(range(0, n, 100))}


def test_validate_network_on_a_chain_longer_than_the_recursion_limit(capsys, tmp_path):
    net_file = tmp_path / "chain.json"
    net_file.write_text(json.dumps(_chain(sys.getrecursionlimit() + 200)))
    code, report = run(capsys, "validate-network", "--network", str(net_file))
    assert code == 0
    assert report["acyclic"] and report["cycle"] is None and report["ok"]


def test_a_vertex_may_be_both_a_source_and_a_sink(capsys, tmp_path):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(_two_vertices(sources=["a", "b"], sinks=["b"])))
    code, report = run(capsys, "validate-network", "--network", str(net_file))
    assert code == 0 and report["ok"]
    # A self-loop is an edge, not a repeated terminal: it is reported as a cycle.
    net_file.write_text(json.dumps(_two_vertices(edges=[["a", "b"], ["b", "b"]])))
    code, report = run(capsys, "validate-network", "--network", str(net_file))
    assert code == 1 and not report["acyclic"] and report["cycle"]


def test_schur_on_a_row_longer_than_the_recursion_limit(capsys):
    ell = sys.getrecursionlimit() + 200
    code, out = run(capsys, "schur", "--identity", "tworow", "--params",
                    f"1,2,2,{ell}", "--nvars", "1")
    assert code == 0
    assert out["equal"] is True


def test_usage_errors(capsys):
    assert main(["check-balance", "--patterns", "/nonexistent.json"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_output_is_byte_stable(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code = main(
            [
                "witness",
                "--patterns",
                fixture("unbalanced_p3.json"),
                "--output",
                str(target),
            ]
        )
        assert code == 1
    assert first.read_bytes() == second.read_bytes()


def _two_vertices(**changes):
    data = {
        "vertices": [{"id": "a", "x": "0", "y": "0"}, {"id": "b", "x": "1", "y": "1"}],
        "edges": [["a", "b"]],
        "sources": ["a"],
        "sinks": ["b"],
        "weight_mode": "vertex",
        "weights": {"a": 1, "b": 1},
    }
    data.update(changes)
    return data


@pytest.mark.parametrize("data, message, needs_semiring", [
    ({"vertices": "oops"}, "vertices: expected a JSON list", False),
    ([1, 2], "network: expected a JSON object", False),
    (_two_vertices(edges=[["a", "b"], ["b", "zz"]]), "edges[1]: unknown vertex 'zz'", False),
    (_two_vertices(edges=[["a", "b", "a"]]), "edges[0]: expected 2 vertex ids", False),
    (_two_vertices(sinks=["c"]), "sinks: unknown vertex 'c'", False),
    (_two_vertices(vertices=[{"id": "a", "x": "0", "y": "0"}, {"id": "b", "x": "one", "y": "1"}]),
     "vertices[1].x: ", False),
    (_two_vertices(vertices=[{"id": "a", "x": "0", "y": "0"}, {"id": "a", "x": "1", "y": "1"}]),
     "vertices[1]: needs a new string id", False),
    (_two_vertices(weight_mode="faces"), "weight_mode: unknown mode 'faces'", False),
    (_two_vertices(weight_mode="edge", weights={"a->c": 1}), "weights['a->c']: unknown edge", False),
    (_two_vertices(weights={"a": 1}), "weights: no weight for vertex 'b'", True),
    (_two_vertices(weights={"a": 1, "b": "two"}), "weights['b']: ", True),
    (_two_vertices(weights={"a": True, "b": 1}), "weights['a']: expected integer, got True", True),
    (_two_vertices(vertices=[{"id": "a", "x": 0.1, "y": "0"}, {"id": "b", "x": "1", "y": "1"}]),
     "vertices[0].x: expected an integer or a 'p/q' string, got 0.1", False),
    (_two_vertices(vertices=[{"id": "a", "x": True, "y": "0"}, {"id": "b", "x": "1", "y": "1"}]),
     "vertices[0].x: expected an integer or a 'p/q' string, got True", False),
    (_two_vertices(sources=["a", "a"]), "sources: vertex 'a' repeats", False),
    (_two_vertices(sinks=["b", "b"]), "sinks: vertex 'b' repeats", False),
])
def test_malformed_networks_are_refused_naming_the_field(
        capsys, tmp_path, data, message, needs_semiring):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(data))
    args_file = tmp_path / "args.json"
    args_file.write_text(json.dumps({"I": [1], "Iprime": [1]}))
    commands = [["eval-fg", "--network", str(net_file), "--semiring", "integers",
                 "--args", str(args_file)]]
    if not needs_semiring:  # validate-network parses no weight values
        commands.append(["validate-network", "--network", str(net_file)])
    for argv in commands:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def _dodgson_pair(**changes):
    with open(fixture("dodgson.json")) as fh:
        data = json.load(fh)
    data.update(changes)
    return data


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


_DODGSON = _dodgson_pair()


@pytest.mark.parametrize("data, message", [
    ({"A0": "oops", "B0": [1]}, "A0: expected a pattern object"),
    ({"A0": _DODGSON["A0"]}, "B0: expected a pattern object"),
    ([1, 2], "A0: expected a pattern object"),
    (_dodgson_pair(A0=_without(_DODGSON["A0"], "m_prime")), "A0.m_prime: expected an integer"),
    (_dodgson_pair(B0=dict(_DODGSON["B0"], m="3")), "B0.m: expected an integer"),
    (_dodgson_pair(A0=dict(_DODGSON["A0"], members={})), "A0.members: expected a list"),
    (_dodgson_pair(A0=dict(_DODGSON["A0"], members=[7])), "A0.members[0]: expected a JSON object"),
    (_dodgson_pair(A0=dict(_DODGSON["A0"], members=[{"A": "13"}])),
     "A0.members[0].A: expected a list of integers"),
    (_dodgson_pair(B0=dict(_DODGSON["B0"], members=[{"A": [1], "Aprime": [1.5]}])),
     "B0.members[0].Aprime: expected a list of integers"),
    ({"A0": {"flag": True, "m": 3, "members": [{"A": [1, 3]}]}, "B0": {}},
     "A0.p: expected an integer"),
    ({"A0": {"flag": True, "m": 3, "p": 2, "members": [{"A": [1, 3], "mult": None}]}, "B0": {}},
     "A0.members[0].mult: expected an integer"),
    ({"A0": {"m": 2, "m_prime": 0, "members": [{"A": [1], "mult": -1}]},
      "B0": {"m": 2, "m_prime": 0, "members": []}},
     "A0.members[0].mult: expected an integer >= 1, got -1"),
    (_dodgson_pair(B0=dict(_DODGSON["B0"], members=[{"A": [2], "Aprime": [1], "mult": 0}])),
     "B0.members[0].mult: expected an integer >= 1, got 0"),
    ({"A0": {"m": -3, "m_prime": -1, "members": []}, "B0": {"m": -3, "m_prime": -1, "members": []}},
     "A0.m: expected an integer >= 0, got -3"),
    (_dodgson_pair(B0=dict(_DODGSON["B0"], m_prime=-2)),
     "B0.m_prime: expected an integer >= 0, got -2"),
    ({"A0": {"flag": True, "m": 3, "p": 4, "members": []}, "B0": {}},
     "A0.p: expected an integer in 0..3, got 4"),
    ({"A0": {"flag": True, "m": 3, "p": -1, "members": []}, "B0": {}},
     "A0.p: expected an integer in 0..3, got -1"),
    ({"A0": {"m": 2, "m_prime": 0, "members": [{"A": [1, 1]}]}, "B0": {}},
     "A0.members[0].A: an element repeats"),
    (_dodgson_pair(B0=dict(_DODGSON["B0"], members=[{"A": [2], "Aprime": [1, 1]}])),
     "B0.members[0].Aprime: an element repeats"),
    ({"A0": {"flag": "no", "m": 2, "p": 1, "m_prime": 0, "members": [{"A": [1]}]}, "B0": {}},
     "A0.flag: expected true or false, got 'no'"),
    ({"A0": {"flag": True, "m": 3, "p": 2, "members": [{"A": [1, 3]}, {"A": [1]}]}, "B0": {}},
     "error: A0.members[1].A: [1] is not a 2-subset of [3]"),
    (_dodgson_pair(A0=dict(_DODGSON["A0"], members=[{"A": [5], "Aprime": [1]}])),
     "error: A0.members[0].A: [5] escapes [2]"),
    (_dodgson_pair(B0=dict(_DODGSON["B0"], members=[{"A": [2], "Aprime": [3]}])),
     "error: B0.members[0].Aprime: [3] escapes [2]"),
    (_dodgson_pair(A0=dict(_DODGSON["A0"], members=[{"A": [1, 2], "Aprime": [1]}])),
     "error: A0.members[0]: ([1, 2],[1]) violates the parity condition"),
])
def test_malformed_patterns_are_refused_naming_the_field(capsys, tmp_path, data, message):
    pattern_file = tmp_path / "patterns.json"
    pattern_file.write_text(json.dumps(data))
    for command in ("check-balance", "witness"):
        assert main([command, "--patterns", str(pattern_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def _unit_network_file(tmp_path, net):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network_to_json(unit_weights(net, TROPICAL_INT), TROPICAL_INT)))
    return str(net_file)


@pytest.mark.parametrize("pair, witness, embedded, sets", [
    # A flag pattern with 2p < m: m = 4, p = 1 lives on ([4], [2]) with A' empty.
    ({"A0": {"flag": True, "m": 4, "p": 1, "members": [{"A": [1]}]},
      "B0": {"flag": True, "m": 4, "p": 1, "members": [{"A": [2]}]}},
     {"lower": [[2, 3]], "upper": [], "vertical": [[1, 1], [4, 2]]},
     {"lower": [[2, 3]], "upper": [], "vertical": [[1, 2], [4, 3]]},
     {"X": [], "Y": [1, 2, 3, 4], "Xprime": [1], "Yprime": [2, 3]}),
    # m < m': the default sets put X before Y on the source side.
    ({"A0": {"m": 1, "m_prime": 3, "members": [{"A": [1], "Aprime": [1, 2]}]},
      "B0": {"m": 1, "m_prime": 3, "members": [{"A": [], "Aprime": [2]}]}},
     {"lower": [], "upper": [[1, 2]], "vertical": [[1, 3]]},
     {"lower": [], "upper": [[1, 2]], "vertical": [[2, 3]]},
     {"X": [1], "Y": [2], "Xprime": [], "Yprime": [1, 2, 3]}),
])
def test_default_sets_of_lopsided_shapes(capsys, tmp_path, pair, witness, embedded, sets):
    """Without --sets, the witness network embeds the differing matching on
    the default sets, which verify-relation reports."""
    pattern_file = tmp_path / "pair.json"
    pattern_file.write_text(json.dumps(pair))
    code, out = run(capsys, "check-balance", "--patterns", str(pattern_file))
    assert (code, out) == (1, {"balanced": False, "witness": witness, "counts": [0, 1]})
    code, out = run(capsys, "witness", "--patterns", str(pattern_file), "--audit")
    assert code == 1 and out["matching"] == embedded
    assert (out["lhs"], out["rhs"], out["counts"]) == (0, 1, [0, 1])
    assert out["audit_ok"] is True and out["audit_failures"] == []
    grid = build_grid(max(sets["X"] + sets["Y"]), max(sets["Xprime"] + sets["Yprime"]))
    code, out = run(capsys, "verify-relation", "--patterns", str(pattern_file),
                    "--semiring", "tropical-int", "--network", _unit_network_file(tmp_path, grid))
    assert out["sets"] == sets


@pytest.mark.parametrize("name", ["p3_flag.json", "p4_flag.json", "quintuple_flag.json",
                                  "unbalanced_p3.json"])
def test_a_flag_file_runs_as_the_two_pattern_file_written_for_it(capsys, tmp_path, name):
    with open(fixture(name)) as fh:
        flag = json.load(fh)
    two = {key: pattern_to_json(pattern_from_json(flag[key])) for key in ("A0", "B0")}
    assert flag["A0"]["flag"] and "flag" not in two["A0"]
    two_file = tmp_path / "two.json"
    two_file.write_text(json.dumps(two))
    network = _unit_network_file(tmp_path, build_half_grid(flag["A0"]["m"]))
    for argv in (["check-balance"], ["witness", "--audit"],
                 ["verify-relation", "--semiring", "tropical-int", "--network", network]):
        outputs = []
        for path in (fixture(name), str(two_file)):
            code = main(argv + ["--patterns", path])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1], argv


def test_check_balance_on_a_nested_pair_of_400_points(tmp_path):
    # A = 1..m/2 on Y = 1..m, Y' empty: one feasible matching, nested chords.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(planarflows.__file__)))
    for m in (400, 2000):
        pattern = {"m": m, "m_prime": 0, "members": [{"A": list(range(1, m // 2 + 1))}]}
        pattern_file = tmp_path / f"nested{m}.json"
        pattern_file.write_text(json.dumps({"A0": pattern, "B0": pattern}))
        proc = subprocess.run(
            [sys.executable, "-m", "planarflows.cli", "check-balance", "--patterns",
             str(pattern_file)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"balanced": True}


def _one_gigabyte():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("basis, target", [
    ({"case": "flag-intervals", "n": 10 ** 6, "values": {"1..1": 1}}, "1"),
    ({"case": "pressed-double-intervals", "n": 10 ** 6, "n_prime": 10 ** 6,
      "values": {"1..1|1..1": 1}}, "1|1"),
])
def test_reconstruct_from_one_value_of_a_basis_over_a_million_points(tmp_path, basis, target):
    # Checking the keys and the target lists neither the basis nor 1..n, so
    # this runs in well under the 1 GB address space the child gets.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(planarflows.__file__)))
    basis_file = tmp_path / "basis.json"
    basis_file.write_text(json.dumps(basis))
    proc = subprocess.run(
        [sys.executable, "-m", "planarflows.cli", "reconstruct", "--basis", str(basis_file),
         "--semiring", "tropical-int", "--target", target],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_one_gigabyte,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"value": 1}


@pytest.mark.parametrize("data, message", [
    ({"entries": 5}, "entries: expected a list of rows"),
    ([[1, 2]], "entries: expected a list of rows"),
    ({"entries": [[1, 2], [3]]}, "entries[1]: has 1 values, entries[0] has 2"),
    ({"entries": [[1, 2], 3]}, "entries[1]: expected a list"),
    ({"entries": [["x", 2]]}, "entries[0][0]: "),
    ({"entries": [[1, "2"], [3, [4]]]}, "entries[1][1]: "),
    ({"entries": [["1/0"]]}, "entries[0][0]: "),
    ({"entries": [[True, 0], [0, 1]]}, "entries[0][0]: cannot parse exact rational from True"),
])
def test_malformed_matrices_are_refused_naming_the_field(capsys, tmp_path, data, message):
    mat_file = tmp_path / "m.json"
    mat_file.write_text(json.dumps(data))
    assert main(["compile-matrix", "--matrix", str(mat_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("terms, message", [
    ([{"exps": {"a": 1}, "coeff": 2.5}], "term 1: coeff 2.5 is not an integer"),
    ([{"exps": {"a": 1}, "coeff": "x"}], "term 1: coeff 'x' is not an integer"),
    ([{"exps": {"a": 1}, "coeff": 2}, {"exps": {"a": 1}, "coeff": 3}],
     "term 2: repeats the monomial of an earlier term"),
    ({"a": 1}, "expected a list of terms"),
    ([[1]], "term 1: expected an object"),
    ([{"exps": {"a": True}, "coeff": 1}], "term 1: exponent True of 'a' is not an integer"),
    ([{"exps": {"b": 1}, "coeff": 1}], "term 1: unknown variable 'b'"),
])
def test_polynomial_weights_are_refused_naming_the_term(capsys, tmp_path, terms, message):
    data = network_to_json(build_grid(2, 2))
    data["weights"] = {v["id"]: terms for v in data["vertices"]}
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(data))
    args_file = tmp_path / "args.json"
    args_file.write_text(json.dumps({"I": [1, 2], "Iprime": [1, 2]}))
    argv = ["eval-fg", "--network", str(net_file), "--semiring", "poly:a", "--args", str(args_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"weights['1,1']: {message}" in captured.err


def test_polynomial_variable_names_are_refused_when_repeated(capsys, tmp_path):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network_to_json(build_grid(2, 2))))
    args_file = tmp_path / "args.json"
    args_file.write_text(json.dumps({"I": [1], "Iprime": [1]}))
    argv = ["eval-fg", "--network", str(net_file), "--semiring", "poly:x,y,x",
            "--args", str(args_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "poly: variable 'x' repeats" in captured.err


def _half_grid_file(tmp_path):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network_to_json(unit_weights(build_half_grid(3), INTEGERS), INTEGERS)))
    return str(net_file)


@pytest.mark.parametrize("command, flag, data, message", [
    ("witness", "--sets", {"Y": 5}, "Y: expected a list of integers"),
    ("witness", "--sets", {"X": [1]}, "Y: expected a list of integers"),
    ("witness", "--sets", [1, 2], "X: expected a list of integers"),
    ("verify-relation", "--sets", {"Y": 5}, "Y: expected a list of integers"),
    ("verify-relation", "--sets", {"Y": [1, 2, 3], "Yprime": ["1"]},
     "Yprime: expected a list of integers"),
    ("reconstruct", "--basis", {"values": 5, "n": 3}, "values: expected a JSON object"),
    ("reconstruct", "--basis", [1], "values: expected a JSON object"),
    ("eval-fg", "--args", {"I": 5, "Iprime": [1]}, "I: expected a list of integers"),
    ("eval-fg", "--args", {"I": [1]}, "Iprime: expected a list of integers"),
    ("reconstruct", "--basis", {"values": {"x": 1}, "n": 3}, "values['x']: "),
    ("reconstruct", "--basis", {"values": {"1..1": "1/0"}, "n": 1}, "values['1..1']: "),
    ("reconstruct", "--basis", {"values": {"1..1": 1}}, "n: expected a positive integer"),
    ("reconstruct", "--basis", {"values": {"1..1": 1}, "n": "x"}, "n: expected a positive integer"),
    ("reconstruct", "--basis", {"case": "pressed-double-intervals", "values": {"1..1|1..1": 1}, "n": 2},
     "n_prime: expected a positive integer"),
    ("reconstruct", "--basis", {"values": {"1..1": 1, "3..1": 1}, "n": 2},
     "values['3..1']: not an interval of 1..2"),
    ("reconstruct", "--basis", {"values": {"1..1": 1, "1..9": 1}, "n": 2},
     "values['1..9']: not an interval of 1..2"),
    ("reconstruct", "--basis", {"case": "pressed-double-intervals", "n": 2, "n_prime": 2,
                                "values": {"1..1|1..1": 2, "2..2|2..2": 100}},
     "values['2..2|2..2']: not a pressed double interval of 1..2|1..2"),
    ("eval-fg", "--args", {"I": [1, 9], "Iprime": [1, 2]}, "I: index 9 is not in 1..3"),
    ("eval-fg", "--args", {"I": [1, 1], "Iprime": [1, 2]}, "I: index 1 repeats"),
    ("eval-fg", "--args", {"I": [1, 2], "Iprime": [1, 4]}, "Iprime: index 4 is not in 1..3"),
    ("witness", "--sets", {"Y": [0, 2, 3], "Xprime": [1], "Yprime": [2]},
     "Y: index 0 is not positive"),
    ("verify-relation", "--sets", {"Y": [0, 2, 3], "Xprime": [1], "Yprime": [2]},
     "Y: index 0 is not in 1..3"),
    ("verify-relation", "--sets", {"Y": [1, 2, 9], "Xprime": [1], "Yprime": [2]},
     "Y: index 9 is not in 1..3"),
    ("verify-relation", "--sets", {"Y": [1, 2, 3], "Xprime": [1], "Yprime": [5]},
     "Yprime: index 5 is not in 1..3"),
    ("verify-relation", "--network",
     network_to_json(unit_weights(build_half_grid(2), INTEGERS), INTEGERS),
     "Y: index 3 is not in 1..2 (default sets; pass --sets)"),    ("eval-fg", "--args", {"I": [], "Iprime": [1, 3]},
     "error: Iprime: expected as many indices as I (0), got 2"),
])
def test_malformed_sets_basis_and_args_are_refused_naming_the_field(
        capsys, tmp_path, command, flag, data, message):
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps(data))
    argv = [command, flag, str(data_file)]
    if command in ("witness", "verify-relation"):
        argv += ["--patterns", fixture("p3_flag.json")]
    if command in ("verify-relation", "eval-fg"):
        argv += ["--semiring", "integers"]
        if flag != "--network":
            argv += ["--network", _half_grid_file(tmp_path)]
    if command == "reconstruct":
        argv += ["--semiring", "rationals", "--target", "1,2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


_BASIS = {
    "case": "flag-intervals",
    "n": 3,
    "values": {"1..1": 2, "2..2": 3, "3..3": 5, "1..2": 7, "2..3": 11, "1..3": 13},
}


_PRESSED = {"case": "pressed-double-intervals", "n": 2, "n_prime": 2,
            "values": {"1..1|1..1": 2, "1..1|2..2": 3, "2..2|1..1": 5, "1..2|1..2": 7}}


@pytest.mark.parametrize("argv, basis, message", [
    (["reconstruct", "--target", "1,9"], _BASIS, "target: expected a subset of 1..3, got '1,9'"),
    (["reconstruct", "--target", "1,x"], _BASIS, "target: "),
    (["reconstruct", "--target", "1,2"], _PRESSED, "target: expected a subset of 1..2|a subset"),
    (["reconstruct", "--target", "1|1,2"], _PRESSED, "of equal sizes, got '1|1,2'"),
    (["schur", "--identity", "tworow", "--params", "1,x", "--nvars", "3"], None, "params: "),
    (["schur", "--identity", "tworow", "--params", "1", "--nvars", "3"], None,
     "params: tworow takes four integers"),
    (["schur", "--identity", "tworow", "--params", "1,2,2,3", "--nvars", "-1"], None,
     "nvars: expected a nonnegative integer, got -1"),
    (["reconstruct", "--target", "1,3"],
     dict(_BASIS, values={k: v for k, v in _BASIS["values"].items() if k != "2..3"}),
     "values: no value for interval '2..3'"),
    (["reconstruct", "--target", "1,2|1,2"],
     dict(_PRESSED, values={k: v for k, v in _PRESSED["values"].items() if k != "1..2|1..2"}),
     "values: no value for interval '1..2|1..2'"),
    (["reconstruct", "--target", "1"], {"case": "flag", "n": 3, "values": {"1..1": 2}},
     "case: expected 'flag-intervals' or 'pressed-double-intervals', got 'flag'"),
    (["reconstruct", "--target", "1"],
     {"case": "flag-intervals", "n": 2, "values": {"1..1": 2, "01..1": 5}},
     "values['01..1']: interval '1..1' is also values['1..1']"),
    (["reconstruct", "--target", "1|1"],
     dict(_PRESSED, values=dict(_PRESSED["values"], **{"1..1|1..01": 5})),
     "values['1..1|1..01']: interval '1..1|1..1' is also values['1..1|1..1']"),
])
def test_malformed_target_and_params_are_refused_naming_the_field(
        capsys, tmp_path, argv, basis, message):
    if basis is not None:
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps(basis))
        argv = argv + ["--basis", str(basis_file), "--semiring", "tropical-int"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_witness_sets_of_the_wrong_size_are_refused_naming_the_sizes(capsys, tmp_path):
    sets_file = tmp_path / "sets.json"
    sets_file.write_text(json.dumps({"Y": [1, 2], "Yprime": []}))
    argv = ["witness", "--patterns", fixture("unbalanced_p3.json"), "--sets", str(sets_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|Y|=2 |Y'|=0 but pattern is on ([3],[1])" in captured.err


def test_witness_sizes_its_network_to_the_sets(capsys, tmp_path):
    sets_file = tmp_path / "sets.json"
    sets_file.write_text(json.dumps({"Y": [1, 2, 9], "Xprime": [1], "Yprime": [2]}))
    code, out = run(capsys, "witness", "--patterns", fixture("unbalanced_p3.json"),
                    "--sets", str(sets_file), "--audit")
    assert code == 1 and out["audit_ok"] and out["lhs"] != out["rhs"]


def test_witness_audit_lists_the_failing_cases(capsys, monkeypatch):
    argv = ["witness", "--patterns", fixture("unbalanced_p3.json"), "--audit"]
    code, out = run(capsys, *argv)
    assert code == 1 and out["audit_ok"] and out["audit_failures"] == []

    bad = {"C": [1], "Cprime": [], "feasible": True, "counts": [0, 1], "ok": False}
    good = dict(bad, C=[2], counts=[1, 1], ok=True)
    monkeypatch.setattr("planarflows.witness.audit_witness",
                        lambda *args: {"ok": False, "cases": [good, bad]})
    code, out = run(capsys, *argv)
    assert code == 1 and out["audit_ok"] is False
    assert out["audit_failures"] == [{"C": [1], "Cprime": [], "feasible": True, "counts": [0, 1]}]


_CORE = {"cli", "errors"}
_FLOWS = _CORE | {"flows", "network", "semiring"}


def _isolation_argv(tmp_path, command):
    net_file = _half_grid_file(tmp_path)
    files = {"args.json": {"I": [1, 2], "Iprime": [1, 2]}, "basis.json": _BASIS,
             "m.json": {"entries": [["1/2", 3], [0, "5"]]}}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    return {
        "check-balance": ["--patterns", fixture("rowdecomposition3.json")],
        "verify-relation": ["--patterns", fixture("p3_flag.json"), "--semiring", "integers",
                            "--network", net_file],
        "witness": ["--patterns", fixture("unbalanced_p3.json"), "--audit"],
        "eval-fg": ["--network", net_file, "--semiring", "integers",
                    "--args", str(tmp_path / "args.json")],
        "compile-matrix": ["--matrix", str(tmp_path / "m.json")],
        "schur": ["--identity", "tworow", "--params", "1,2,2,3", "--nvars", "3"],
        "reconstruct": ["--basis", str(tmp_path / "basis.json"), "--semiring", "tropical-int",
                        "--target", "1,3"],
        "validate-network": ["--network", net_file],
    }[command]


@pytest.mark.parametrize("command, code, modules", [
    ("check-balance", 0, _CORE | {"patterns"}),
    ("verify-relation", 0, _FLOWS | {"patterns", "relations"}),
    ("witness", 1, _FLOWS | {"lindstrom", "patterns", "relations", "witness"}),
    ("eval-fg", 0, _FLOWS),
    ("compile-matrix", 0, _CORE | {"lindstrom", "network", "semiring"}),
    ("schur", 0, _FLOWS | {"schur"}),
    ("reconstruct", 0, _CORE | {"basis", "flows", "semiring"}),
    ("validate-network", 0, _CORE | {"network"}),
])
def test_each_command_imports_only_the_modules_it_uses(tmp_path, command, code, modules):
    script = (
        "import json, sys\n"
        "from planarflows import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('planarflows.')]))\n"
        "sys.exit(code)\n"
    )
    argv = [command] + _isolation_argv(tmp_path, command)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(planarflows.__file__)))
    proc = subprocess.run([sys.executable, "-c", script] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert set(loaded) == {f"planarflows.{m}" for m in modules}
    assert json.loads(proc.stdout.splitlines()[-2]) == []


@pytest.mark.parametrize("command", ["verify-relation", "eval-fg", "reconstruct"])
def test_an_unknown_semiring_is_refused_naming_the_option(capsys, tmp_path, command):
    argv = _isolation_argv(tmp_path, command)
    argv[argv.index("--semiring") + 1] = "star:floats"
    assert main([command] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: semiring: unknown semiring 'floats'\n"
