"""Command-line interface: batch verification with JSON input and output.

Exit codes: 0 when the check succeeds or a relation holds, 1 when a
relation fails or patterns are unbalanced, 2 on usage or input errors.
Each command imports the library modules it uses only when it runs, so a
one-shot command compiles no module it does not need.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BadInput, NotProper, PlanarFlowsError


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
    from .patterns import pattern_from_json

    data = _load(path)
    pair = []
    for key in ("A0", "B0"):
        if not isinstance(data, dict) or not isinstance(data.get(key), dict):
            raise BadInput(f"{key}: expected a pattern object")
        try:
            pair.append(pattern_from_json(data[key]))
        except (BadInput, NotProper) as exc:
            raise BadInput(f"{key}.{exc}") from None
    return pair


def _indices(data, key, default=None, top=None):
    """``data[key]`` as a list of distinct integers in 1..top (any positive
    integer when ``top`` is None); a bad or missing one is named."""
    value = data.get(key, default) if isinstance(data, dict) else None
    if not isinstance(value, list) or any(type(a) is not int for a in value):
        raise BadInput(f"{key}: expected a list of integers")
    allowed = "positive" if top is None else f"in 1..{top}"
    for k, a in enumerate(value):
        if a in value[:k]:
            raise BadInput(f"{key}: index {a} repeats")
        if a < 1 or top is not None and a > top:
            raise BadInput(f"{key}: index {a} is not {allowed}")
    return value


def _sets(path, pattern, net=None):
    """(X, Y, X', Y') from the ``--sets`` file at ``path``, else the pattern's
    default sets; X and Y index sources and X', Y' sinks of ``net``, when given."""
    from .relations import default_sets

    keys = ("X", "Y", "Xprime", "Yprime")
    if path:
        data, note = _load(path), ""
    else:
        data = dict(zip(keys, map(sorted, default_sets(pattern.m, pattern.m_prime))))
        note = " (default sets; pass --sets)"
    tops = (None, None) if net is None else (net.n_sources, net.n_sinks)
    try:
        return tuple(frozenset(_indices(data, key, None if key == "Y" else [], tops[k // 2]))
                     for k, key in enumerate(keys))
    except BadInput as exc:
        raise BadInput(f"{exc}{note}") from None


def cmd_check_balance(args):
    from .patterns import is_balanced

    a, b = _load_pattern_pair(args.patterns)
    result = is_balanced(a, b)
    out = {"balanced": result.balanced}
    if not result.balanced:
        out["witness"] = result.witness.to_json()
        out["counts"] = [result.count_a, result.count_b]
    _emit(out, args.output)
    return 0 if result.balanced else 1


def cmd_verify_relation(args):
    from .network import network_from_json
    from .relations import RelationInstance, evaluate_sq
    from .semiring import parse_semiring

    a, b = _load_pattern_pair(args.patterns)
    spec = parse_semiring(args.semiring)
    net = network_from_json(_load(args.network), spec)
    X, Y, Xp, Yp = _sets(args.sets, a, net)
    ri = RelationInstance.from_patterns(a, b, X, Y, Xp, Yp)
    result = evaluate_sq(ri, spec, net)
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
    from . import witness
    from .network import network_to_json
    from .semiring import INTEGERS

    a, b = _load_pattern_pair(args.patterns)
    X, Y, Xp, Yp = _sets(args.sets, a)
    result = witness.demonstrate_violation(a, b, X, Y, Xp, Yp)
    wn = result["network"]
    out = {
        "network": network_to_json(wn.network, INTEGERS),
        "matching": result["matching"].to_json(),
        "lhs": result["lhs"],
        "rhs": result["rhs"],
        "counts": [result["count_a"], result["count_b"]],
        "edge_classes": {
            f"{t}->{h}": c for (t, h), c in sorted(wn.edge_class.items())
        },
    }
    if args.audit:
        audit = witness.audit_witness(wn, X, Y, Xp, Yp)
        out["audit_ok"] = audit["ok"]
        out["audit_failures"] = [
            {k: case[k] for k in ("C", "Cprime", "feasible", "counts")}
            for case in audit["cases"] if not case["ok"]
        ]
    _emit(out, args.output)
    return 1 if not result["equal"] else 0


def cmd_eval_fg(args):
    from .flows import fg_value
    from .network import network_from_json
    from .semiring import parse_semiring

    spec = parse_semiring(args.semiring)
    net = network_from_json(_load(args.network), spec)
    fargs = _load(args.args)
    I, Ip = _indices(fargs, "I", top=net.n_sources), _indices(fargs, "Iprime", top=net.n_sinks)
    if len(Ip) != len(I):
        raise BadInput(f"Iprime: expected as many indices as I ({len(I)}), got {len(Ip)}")
    value = fg_value(spec, net, I, Ip)
    _emit({"value": spec.to_json(value)}, args.output)
    return 0


def cmd_compile_matrix(args):
    from .lindstrom import compile_matrix_to_network, flow_matrix, matrix_from_json
    from .network import network_to_json
    from .semiring import RATIONALS

    mat = matrix_from_json(_load(args.matrix), RATIONALS)
    net, chain = compile_matrix_to_network(mat)
    realized = flow_matrix(net, RATIONALS)
    out = {
        "network": network_to_json(net, RATIONALS),
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
    from .schur import verify_schur_identity

    try:
        params = [int(x) for x in args.params.split(",")]
    except ValueError:
        raise BadInput(f"params: expected comma-separated integers, got {args.params!r}") from None
    if args.identity == "tworow" and len(params) != 4:
        raise BadInput(f"params: tworow takes four integers i,j,k,l, got {len(params)}")
    if args.nvars < 0:
        raise BadInput(f"nvars: expected a nonnegative integer, got {args.nvars}")
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
    from . import basis as basis_mod
    from .semiring import parse_semiring

    spec = parse_semiring(args.semiring)
    data = _load(args.basis)
    if not isinstance(data, dict) or not isinstance(data.get("values"), dict):
        raise BadInput("values: expected a JSON object")
    case = data.get("case", "flag-intervals")
    if case not in ("flag-intervals", "pressed-double-intervals"):
        raise BadInput(
            f"case: expected 'flag-intervals' or 'pressed-double-intervals', got {case!r}")
    flag = case == "flag-intervals"
    fields = ["n"] if flag else ["n", "n_prime"]

    def sides(text):  # "left|right" in the pressed case, one side in the flag case
        parts = text.split("|")
        if len(parts) != len(fields):
            raise ValueError(f"expected {len(fields)} side(s) separated by '|'")
        return parts

    def parse_iv(text):
        if not text:
            return ()
        p, q = text.split("..")
        return (int(p), int(q))

    def show(ivs):  # a basis element as its canonical key
        return "|".join(f"{iv[0]}..{iv[1]}" if iv else "" for iv in ([ivs] if flag else ivs))

    parsed = {}
    for key, v in data["values"].items():
        try:
            ivs = tuple(parse_iv(side) for side in sides(key))
            parsed[key] = (ivs[0] if flag else ivs, spec.from_json(v))
        except (ArithmeticError, ValueError) as exc:
            raise BadInput(f"values[{key!r}]: {exc}") from None
    sizes = [data.get(field) for field in fields]
    for field, size in zip(fields, sizes):
        if type(size) is not int or size < 1:
            raise BadInput(f"{field}: expected a positive integer")
    basis = ({()} | set(basis_mod.intervals(sizes[0])) if flag
             else set(basis_mod.pressed_basis(*sizes)))
    keys = {}
    for key, (ivs, _) in parsed.items():
        if ivs not in basis:
            what = "an interval" if flag else "a pressed double interval"
            ground = "|".join(f"1..{size}" for size in sizes)
            raise BadInput(f"values[{key!r}]: not {what} of {ground}")
        first = keys.setdefault(ivs, key)
        if first != key:
            raise BadInput(f"values[{key!r}]: interval {show(ivs)!r} is also values[{first!r}]")
    values = dict(parsed.values())
    try:
        sets = [frozenset(int(x) for x in side.split(",")) for side in sides(args.target)]
        if len({len(S) for S in sets}) > 1 or any(
                not S <= set(range(1, size + 1)) for S, size in zip(sets, sizes)):
            raise ValueError
    except ValueError:
        shape = "|".join(f"a subset of 1..{size}" for size in sizes) + ("" if flag else " of equal sizes")
        raise BadInput(f"target: expected {shape}, got {args.target!r}") from None
    if flag:
        assignment = basis_mod.flag_assignment(spec, sizes[0], values)
    else:
        assignment = basis_mod.pressed_assignment(spec, *sizes, values)
    try:
        value = basis_mod.reconstruct_value(assignment, sets[0] if flag else tuple(sets))
    except KeyError as exc:  # the descent needs an interval the basis lacks
        key = exc.args[0]  # pressed: a flag interval is its source side
        raise BadInput(f"values: no value for interval {show(key[0] if flag else key)!r}") from None
    _emit({"value": spec.to_json(value)}, args.output)
    return 0


def cmd_validate_network(args):
    from .network import network_from_json, validate

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
