"""The four workloads: seeded op lists, each op with its correctness gate.

An op is one user-facing request.  ``run`` is the timed call into the
library; ``check`` is the gate, run after the clock stops, and returns True
only when the output is right.  Ops call the library through module
attributes (``pf.flows.fg_value``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import cli_child
import inputs
import oracle


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# prove: balanced pairs verified symbolically, plus Schur identities

PROVE_ROUNDS = 10
SCHUR_AFTER = 3   # one Schur identity after every third pair
PROVE_ROUND_OPS = inputs.BALANCED_PER_ROUND + inputs.BALANCED_PER_ROUND // SCHUR_AFTER


def _prove_op(pf, a, b):
    config = pf.relations.InstanceConfig(max_cases=2, vertex_budget=25)

    def run():
        return pf.patterns.is_balanced(a, b), pf.relations.verify_symbolic(a, b, config)

    def check(out):
        balance, report = out
        return (
            balance.balanced
            and report["all_equal"]
            and len(report["cases"]) == 2
            and all(c["network_vertices"] <= 25 for c in report["cases"])
        )

    return Op("pair", run, check)


def _schur_op(pf, kind, params, N):
    def run():
        return pf.schur.verify_schur_identity(kind, params, N)

    return Op("schur", run, lambda out: out["equal"] is True)


def setup_prove(pf, rng, workdir, tracer):
    schur = []
    ops = []
    for _ in range(PROVE_ROUNDS):
        for k, (a, b) in enumerate(inputs.balanced_round(pf, rng), start=1):
            ops.append(_prove_op(pf, a, b))
            if k % SCHUR_AFTER == 0:
                if not schur:
                    schur = inputs.schur_cases()
                    rng.shuffle(schur)
                ops.append(_schur_op(pf, *schur.pop()))
    return ops


# ---------------------------------------------------------------------------
# refute: unbalanced pairs, witness network, audit

REFUTE_ROUNDS = 32


def _refute_op(pf, a, b, ctx):
    def run():
        balance = pf.patterns.is_balanced(a, b)
        result = pf.witness.demonstrate_violation(a, b, *ctx)
        audit = pf.witness.audit_witness(result["network"], *ctx)
        return balance, result, audit

    def check(out):
        balance, result, audit = out
        return (
            not balance.balanced
            and result["lhs"] == result["count_a"]
            and result["rhs"] == result["count_b"]
            and result["lhs"] != result["rhs"]
            and audit["ok"]
            and pf.network.validate(result["network"].network)["ok"]
        )

    return Op("witness", run, check)


def setup_refute(pf, rng, workdir, tracer):
    ops = []
    for _ in range(REFUTE_ROUNDS):
        for a, b in inputs.unbalanced_round(pf, rng):
            shape = pf.patterns._normalize_pattern(a)
            for ctx in inputs.contexts(shape.m, shape.m_prime):
                ops.append(_refute_op(pf, a, b, ctx))
    return ops


# ---------------------------------------------------------------------------
# evaluate: compiler, planarity check, flow values, basis reconstruction

EVALUATE_CYCLES = 40
COMPILE_SIZES = (3, 4, 5)


def _compile_op(pf, matrix, compiled):
    def run():
        net, _ = pf.lindstrom.compile_matrix_to_network(matrix)
        compiled[:] = [net]
        return pf.lindstrom.flow_matrix(net, pf.semiring.RATIONALS)

    return Op(f"compile{matrix.n_rows}", run, lambda out: out.entries == matrix.entries)


def _validate_op(pf, compiled, n):
    # Validates the network the preceding compile op built.
    def run():
        return pf.network.validate(compiled.pop())

    return Op(f"validate{n}", run, lambda out: out["ok"] is True)


def _eval_op(pf, net, spec, I, Ip):
    def run():
        return pf.flows.fg_value(spec, net, I, Ip)

    def check(out):
        if spec is pf.semiring.INTEGERS:
            matrix = pf.lindstrom.flow_matrix(net, spec)
            return out == pf.lindstrom.minor(matrix, I, Ip)
        return out == oracle.tropical_value(net, I, Ip)

    return Op("eval", run, check)


def _recon_op(pf, kind, size, net, spec, targets):
    B = pf.basis
    if kind == "flag":
        def run():
            values = B.flag_values_from_network(spec, net, size)
            assignment = B.flag_assignment(spec, size, values)
            return [B.reconstruct_value(assignment, S) for S in targets]

        def direct(S):
            return pf.flows.fg_value(spec, net, sorted(S), list(range(1, len(S) + 1)))
    else:
        def run():
            values = B.pressed_values_from_network(spec, net, *size)
            assignment = B.pressed_assignment(spec, *size, values)
            return [B.reconstruct_value(assignment, S) for S in targets]

        def direct(S):
            return pf.flows.fg_value(spec, net, sorted(S[0]), sorted(S[1]))

    def check(out):
        return len(out) == len(targets) and all(
            value == direct(S) for value, S in zip(out, targets))

    return Op("reconstruct", run, check)


def setup_evaluate(pf, rng, workdir, tracer):
    """Cycles of 15 ops: compile and validate at n = 3, 4, 5, the five eval
    cases and the four reconstruction cases, over integers or positive
    rationals on even cycles and tropical integers on odd ones."""
    S = pf.semiring
    ops = []
    for cycle in range(EVALUATE_CYCLES):
        ring, division = (S.INTEGERS, S.POSITIVE_RATIONALS) if cycle % 2 == 0 \
            else (S.TROPICAL_INT, S.TROPICAL_INT)
        evals = [_eval_op(pf, *inputs.eval_case(pf, rng, slot, ring))
                 for slot in range(len(inputs.EVAL_CASES))]
        recons = [_recon_op(pf, *inputs.recon_case(pf, rng, slot, division))
                  for slot in range(len(inputs.RECON_CASES))]
        for n in COMPILE_SIZES:
            compiled = []
            ops.append(_compile_op(pf, inputs.rational_matrix(pf, rng, n), compiled))
            ops.append(_validate_op(pf, compiled, n))
            ops.append(evals.pop(0))
            ops.append(recons.pop(0))
        ops += [recons.pop(0), evals.pop(0), evals.pop(0)]
    return ops


# ---------------------------------------------------------------------------
# cli: one subprocess per command, round robin over all eight commands

CLI_ROUNDS = 24
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


def _cli_inputs(pf, rng, workdir):
    """Write the small JSON inputs; returns (argv, expected exit, check) per command."""
    S, N, P = pf.semiring, pf.network, pf.patterns

    def write(name, data):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def pair_file(name, a, b):
        return write(name, {"A0": P.pattern_to_json(a), "B0": P.pattern_to_json(b)})

    a, b = P.stock_pattern("rowdecomposition3")
    balanced = pair_file("balanced.json", a, b)
    shape = P._normalize_pattern(a)
    X, Y, Xp, Yp = inputs.contexts(shape.m, shape.m_prime)[0]
    grid = inputs.vertex_weighted(
        pf, N.build_grid(max(X | Y), max(Xp | Yp)), S.TROPICAL_INT, rng)
    relation_net = write("relation_net.json", N.network_to_json(grid, S.TROPICAL_INT))

    ua, ub = inputs.unbalanced_pair(pf, rng, 4, 2, 2, 2)
    unbalanced = pair_file("unbalanced.json", ua, ub)

    eval_net = inputs.vertex_weighted(pf, N.build_grid(4, 4), S.INTEGERS, rng)
    I, Ip = sorted(rng.sample(range(1, 5), 2)), sorted(rng.sample(range(1, 5), 2))
    eval_value = oracle.flow_value(
        eval_net, I, Ip, int.__add__, int.__mul__, eval_net.weights.__getitem__) or 0
    eval_path = write("eval_net.json", N.network_to_json(eval_net, S.INTEGERS))
    eval_args = write("eval_args.json", {"I": I, "Iprime": Ip})

    matrix = inputs.rational_matrix(pf, rng, 3)
    matrix_path = write("matrix.json", matrix.to_json())

    tworow = sorted(rng.sample(range(1, 6), 4))

    half = inputs.vertex_weighted(pf, N.build_half_grid(4), S.TROPICAL_INT, rng)
    basis_values = pf.basis.interval_values_from_weights(S.TROPICAL_INT, half.weights, 4)
    basis_path = write("basis.json", {
        "case": "flag-intervals", "n": 4,
        "values": {f"{p}..{q}": v for (p, q), v in basis_values.items()}})
    target = sorted(rng.choice([{1, 3}, {2, 4}, {1, 4}, {1, 2, 4}, {1, 3, 4}]))
    recon_value = oracle.tropical_value(half, target, list(range(1, len(target) + 1)))

    validate_path = write("validate_net.json", N.network_to_json(N.build_grid(5, 5)))

    def has(*keys, **values):
        def check(out):
            return all(k in out for k in keys) and all(out.get(k) == v for k, v in values.items())
        return check

    def witness_ok(out):
        return has("network", "matching", "counts", "edge_classes",
                   audit_ok=True)(out) and out["lhs"] != out["rhs"]

    return [
        (["check-balance", "--patterns", balanced], 0, has(balanced=True)),
        (["verify-relation", "--patterns", balanced, "--semiring", "tropical-int",
          "--network", relation_net], 0, has("lhs", "rhs", "sets", equal=True)),
        (["witness", "--patterns", unbalanced, "--audit"], 1, witness_ok),
        (["eval-fg", "--network", eval_path, "--semiring", "integers",
          "--args", eval_args], 0, has(value=eval_value)),
        (["compile-matrix", "--matrix", matrix_path], 0,
         has("network", "factors", "flow_matrix", exact=True)),
        (["schur", "--identity", "tworow", "--params", ",".join(map(str, tworow)),
          "--nvars", "3"], 0, has("lhs", "rhs", equal=True)),
        (["reconstruct", "--basis", basis_path, "--semiring", "tropical-int",
          "--target", ",".join(map(str, target))], 0, has(value=recon_value)),
        (["validate-network", "--network", validate_path], 0,
         has("acyclic", "planar_ok", ok=True)),
    ]


class CliRunner:
    """Runs one command in a fresh interpreter.

    While the tracer is on, the command runs through ``cli_child.py``, which
    also reports when the interpreter was up, when ``planarflows.cli`` was
    imported and when ``main`` returned.
    """

    def __init__(self, root, tracer):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root
        self.tracer = tracer

    def __call__(self, argv):
        traced = self.tracer is not None and self.tracer.enabled
        cmd = [CHILD] if traced else ["-m", "planarflows.cli"]
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable] + cmd + argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        stderr = proc.stderr
        if traced:
            stderr, _, stamps = stderr.rpartition(cli_child.MARKER)
            up, imported, done = json.loads(stamps)
            self.tracer.add("cli.interpreter_s", up - spawned)
            self.tracer.add("cli.import_s", imported - up)
            self.tracer.add("cli.main.s", done - imported)
        return proc.returncode, proc.stdout, stderr


def _cli_op(runner, argv, expected, check):
    def gate(out):
        code, stdout, _ = out
        return code == expected and check(json.loads(stdout))

    return Op(argv[0], lambda: runner(argv), gate)


def setup_cli(pf, rng, workdir, tracer):
    runner = CliRunner(os.path.dirname(os.path.dirname(CHILD)), tracer)
    commands = _cli_inputs(pf, rng, workdir)
    return [_cli_op(runner, *cmd) for _ in range(CLI_ROUNDS) for cmd in commands]


@dataclass
class Workload:
    setup: Callable      # (pf, rng, workdir, tracer) -> list of Op
    trace_ops: int       # size of the traced run's trace set: the first ops
    unit: int            # the timed loop stops on a multiple of this many ops


WORKLOADS = {
    "prove": Workload(setup_prove, 64, PROVE_ROUND_OPS),
    "refute": Workload(setup_refute, 128, 1),
    "evaluate": Workload(setup_evaluate, 30, 15),
    "cli": Workload(setup_cli, 16, 8),
}
