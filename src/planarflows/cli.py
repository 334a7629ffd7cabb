"""Command-line interface: batch verification with JSON input and output.

Exit codes: 0 when the check succeeds or a relation holds, 1 when a
relation fails or patterns are unbalanced, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import basis as basis_mod
from . import semiring as sr
from .errors import BadInput, PlanarFlowsError
from .flows import fg_value
from .lindstrom import compile_matrix_to_network, flow_matrix, matrix_from_json
from .network import network_from_json, network_to_json, validate
from .patterns import _normalize_pattern, embed_two, is_balanced, pattern_from_json
from .relations import RelationInstance, default_sets, evaluate_sq
from .schur import verify_schur_identity
from .witness import audit_witness, demonstrate_violation


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(data, output):
    text = json.dumps(data, indent=2, sort_keys=True)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_pattern_pair(path):
    """Both patterns of a pattern file, a bad field named from the file's root."""
    data = _load(path)
    pair = []
    for key in ("A0", "B0"):
        if not isinstance(data, dict) or not isinstance(data.get(key), dict):
            raise BadInput(f"{key}: expected a pattern object")
        try:
            pair.append(pattern_from_json(data[key]))
        except BadInput as exc:
            raise BadInput(f"{key}.{exc}") from None
    return pair


def _default_sets(pattern):
    shape = _normalize_pattern(pattern)
    return default_sets(shape.m, shape.m_prime)


def _indices(data, key, default=None):
    """``data[key]`` as a list of integers; a bad or missing one is named."""
    value = data.get(key, default) if isinstance(data, dict) else None
    if not isinstance(value, list) or any(type(a) is not int for a in value):
        raise BadInput(f"{key}: expected a list of integers")
    return value


def _sets_from_file(path):
    data = _load(path)
    return tuple(frozenset(_indices(data, key, None if key == "Y" else []))
                 for key in ("X", "Y", "Xprime", "Yprime"))


def cmd_check_balance(args):
    a, b = _load_pattern_pair(args.patterns)
    result = is_balanced(a, b)
    out = {"balanced": result.balanced}
    if not result.balanced:
        out["witness"] = result.witness.to_json()
        out["counts"] = [result.count_a, result.count_b]
    _emit(out, args.output)
    return 0 if result.balanced else 1


def cmd_verify_relation(args):
    a, b = _load_pattern_pair(args.patterns)
    spec = sr.parse_semiring(args.semiring)
    net = network_from_json(_load(args.network), spec)
    sets = _sets_from_file(args.sets) if args.sets else _default_sets(a)
    a2, b2 = _normalize_pattern(a), _normalize_pattern(b)
    X, Y, Xp, Yp = sets
    ri = RelationInstance(
        spec,
        net,
        X,
        Y,
        Xp,
        Yp,
        embed_two(a2, sorted(Y), sorted(Yp)),
        embed_two(b2, sorted(Y), sorted(Yp)),
    )
    result = evaluate_sq(ri)
    eff = result["spec"]
    _emit(
        {
            "lhs": eff.to_json(result["lhs"]),
            "rhs": eff.to_json(result["rhs"]),
            "equal": result["equal"],
            "sets": {
                "X": sorted(X),
                "Y": sorted(Y),
                "Xprime": sorted(Xp),
                "Yprime": sorted(Yp),
            },
        },
        args.output,
    )
    return 0 if result["equal"] else 1


def cmd_witness(args):
    a, b = _load_pattern_pair(args.patterns)
    if args.sets:
        X, Y, Xp, Yp = _sets_from_file(args.sets)
    else:
        X, Y, Xp, Yp = _default_sets(a)
    result = demonstrate_violation(a, b, X, Y, Xp, Yp)
    wn = result["network"]
    out = {
        "network": network_to_json(wn.network, sr.INTEGERS),
        "matching": result["matching"].to_json(),
        "lhs": result["lhs"],
        "rhs": result["rhs"],
        "counts": [result["count_a"], result["count_b"]],
        "edge_classes": {
            f"{t}->{h}": c for (t, h), c in sorted(wn.edge_class.items())
        },
    }
    if args.audit:
        out["audit_ok"] = audit_witness(wn, X, Y, Xp, Yp)["ok"]
    _emit(out, args.output)
    return 1 if not result["equal"] else 0


def cmd_eval_fg(args):
    spec = sr.parse_semiring(args.semiring)
    net = network_from_json(_load(args.network), spec)
    fargs = _load(args.args)
    value = fg_value(spec, net, _indices(fargs, "I"), _indices(fargs, "Iprime"))
    _emit({"value": spec.to_json(value)}, args.output)
    return 0


def cmd_compile_matrix(args):
    mat = matrix_from_json(_load(args.matrix), sr.RATIONALS)
    net, chain = compile_matrix_to_network(mat)
    realized = flow_matrix(net, sr.RATIONALS)
    out = {
        "network": network_to_json(net, sr.RATIONALS),
        "factors": [
            {"kind": f.kind, "index": f.index, "size": list(f.size)}
            for f in chain.factors
        ],
        "flow_matrix": realized.to_json(),
        "exact": realized.entries == mat.entries,
    }
    _emit(out, args.output)
    return 0 if out["exact"] else 1


def cmd_schur(args):
    params = [int(x) for x in args.params.split(",")]
    result = verify_schur_identity(args.identity, params, args.nvars)
    ring = result["ring"]
    _emit(
        {
            "lhs": ring.to_json(result["lhs"]),
            "rhs": ring.to_json(result["rhs"]),
            "equal": result["equal"],
        },
        args.output,
    )
    return 0 if result["equal"] else 1


def cmd_reconstruct(args):
    spec = sr.parse_semiring(args.semiring)
    data = _load(args.basis)
    if not isinstance(data, dict) or not isinstance(data.get("values"), dict):
        raise BadInput("values: expected a JSON object")
    case = data.get("case", "flag-intervals")

    def parse_iv(text):
        if not text:
            return ()
        p, q = text.split("..")
        return (int(p), int(q))

    if case == "flag-intervals":
        values = {parse_iv(k): spec.from_json(v) for k, v in data["values"].items()}
        assignment = basis_mod.flag_assignment(spec, data["n"], values)
        target = frozenset(int(x) for x in args.target.split(","))
    else:
        values = {}
        for key, v in data["values"].items():
            left, right = key.split("|")
            values[(parse_iv(left), parse_iv(right))] = spec.from_json(v)
        assignment = basis_mod.pressed_assignment(
            spec, data["n"], data["n_prime"], values
        )
        left, right = args.target.split("|")
        target = (
            frozenset(int(x) for x in left.split(",")),
            frozenset(int(x) for x in right.split(",")),
        )
    value = basis_mod.reconstruct_value(assignment, target)
    _emit({"value": spec.to_json(value)}, args.output)
    return 0


def cmd_validate_network(args):
    net = network_from_json(_load(args.network))
    report = validate(net)
    _emit(report, args.output)
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="planarflows",
        description="flow-generated functions and quadratic relation checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-balance", help="decide balancedness of a pattern pair")
    p.add_argument("--patterns", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_check_balance)

    p = sub.add_parser("verify-relation", help="evaluate both sides on a network")
    p.add_argument("--patterns", required=True)
    p.add_argument("--semiring", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--sets")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify_relation)

    p = sub.add_parser("witness", help="synthesize a violating network")
    p.add_argument("--patterns", required=True)
    p.add_argument("--sets")
    p.add_argument("--audit", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("eval-fg", help="evaluate one flow-function value")
    p.add_argument("--network", required=True)
    p.add_argument("--semiring", required=True)
    p.add_argument("--args", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_eval_fg)

    p = sub.add_parser("compile-matrix", help="matrix to planar network")
    p.add_argument("--matrix", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_compile_matrix)

    p = sub.add_parser("schur", help="check a quadratic Schur identity")
    p.add_argument("--identity", required=True, choices=["tworow", "condensation"])
    p.add_argument("--params", required=True)
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("reconstruct", help="reconstruct a value from basis data")
    p.add_argument("--basis", required=True)
    p.add_argument("--semiring", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("validate-network", help="acyclicity/planarity report")
    p.add_argument("--network", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_validate_network)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PlanarFlowsError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
