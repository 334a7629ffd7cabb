"""Tests of the benchmark itself: seeded inputs, gates and the traced run.

Benchmark runs happen in subprocesses: ``run.load_library`` re-imports
planarflows and the traced run patches it, which must not leak into the
process running the repository's other tests.
"""

import functools
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import inputs
import oracle
import run
import spans
import workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)
PF = SimpleNamespace(**{m: importlib.import_module(f"planarflows.{m}") for m in run.MODULES})


def bench(*args, code=None, cwd=run.ROOT):
    """Run ``perfbench/run.py`` under ``cwd`` (or ``code`` standing in for it);
    returns (exit code, parsed last stdout line or None)."""
    cmd = [sys.executable] + (["-c", code] if code else ["perfbench/run.py"]) + list(args)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def run_traced(workload, seed=3):
    code, result = bench("--workload", workload, "--seed", str(seed),
                         "--seconds", "0.1", "--trace", "1")
    assert code == 0 and result["correct"], result
    return {name: entry["value"] for name, entry in result["metrics"].items()}


traced = functools.lru_cache(maxsize=None)(run_traced)


# ---------------------------------------------------------------------------
# seeded generators

def _snapshot(value):
    """A comparable form of generated inputs (patterns, networks, matrices)."""
    return repr(value)


@pytest.mark.parametrize("generate", [
    lambda rng: inputs.balanced_round(PF, rng),
    lambda rng: inputs.unbalanced_round(PF, rng),
    lambda rng: [inputs.rational_matrix(PF, rng, n) for n in (3, 4, 5)],
    lambda rng: [inputs.eval_case(PF, rng, s, PF.semiring.TROPICAL_INT)
                 for s in range(len(inputs.EVAL_CASES))],
    lambda rng: [inputs.recon_case(PF, rng, s, PF.semiring.POSITIVE_RATIONALS)
                 for s in range(len(inputs.RECON_CASES))],
])
def test_generators_repeat_for_a_seed_and_differ_across_seeds(generate):
    first = _snapshot(generate(random.Random(7)))
    assert _snapshot(generate(random.Random(7))) == first
    assert _snapshot(generate(random.Random(8))) != first


def test_cli_inputs_repeat_for_a_seed(tmp_path):
    def files(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir(exist_ok=True)
        workloads._cli_inputs(PF, random.Random(seed), str(workdir))
        return {p.name: p.read_text() for p in sorted(workdir.iterdir())}

    first = files(7)
    shutil.rmtree(tmp_path / "7")
    assert files(7) == first
    assert files(8) != first


def test_generated_pairs_are_what_their_workload_claims():
    for a, b in inputs.balanced_round(PF, random.Random(1)):
        shape = PF.patterns._normalize_pattern(a)
        assert shape.m + shape.m_prime <= inputs.MAX_TOTAL
        assert PF.patterns.is_balanced(a, b).balanced
    assert len(inputs.unbalanced_round(PF, random.Random(1))) == len(inputs.REFUTE_RECIPES)


def test_oracle_agrees_with_the_library_on_the_eval_cases():
    rng = random.Random(2)
    for slot, (_, _, I, Ip, flows) in enumerate(inputs.EVAL_CASES):
        net, spec, _, _ = inputs.eval_case(PF, rng, slot, PF.semiring.TROPICAL_INT)
        assert len(net.vertices) <= 36 and len(I) <= 3
        assert oracle.count_flows(net, I, Ip) == flows
        assert oracle.tropical_value(net, I, Ip) == PF.flows.fg_value(spec, net, I, Ip)


# ---------------------------------------------------------------------------
# gates and exit codes

INJECT = """
import sys
sys.path.insert(0, "perfbench")
import run
load = run.load_library
def faulty():
    pf = load()
    real = pf.witness.audit_witness
    pf.witness.audit_witness = lambda *a, **k: dict(real(*a, **k), ok=False)
    return pf
run.load_library = faulty
sys.exit(run.main(sys.argv[1:]))
"""


def test_a_wrong_answer_fails_its_op_and_the_run():
    code, result = bench("--workload", "refute", "--seed", "1", "--seconds", "0.3", code=INJECT)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_the_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench("--workload", "prove", "--seed", "1", "--seconds", "1",
                         cwd=str(tmp_path))
    assert code != 0 and result is None


# ---------------------------------------------------------------------------
# the traced run

def test_layer_self_times_add_up_to_the_traced_op_time():
    metrics = traced("evaluate")
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + metrics["op.self_s"] == pytest.approx(metrics["op.s"], rel=1e-9)
    assert set(metrics) == {name for name, _ in spans.PER_LAYER}


def test_traced_counts_repeat_for_a_seed():
    first, second = traced("evaluate"), run_traced("evaluate")
    counts = [name for name, unit in spans.PER_LAYER if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("workload, nonzero, zero", [
    ("prove", ["semiring.poly_mul.calls", "relations.verify_symbolic.calls",
               "schur.verify_schur_identity.calls"],
     ["network.validate.calls", "witness.audit_witness.calls",
      "lindstrom.compile_matrix_to_network.calls"]),
    ("refute", ["witness.audit_witness.calls", "network.validate.calls"],
     ["semiring.poly_mul.calls", "lindstrom.compile_matrix_to_network.calls"]),
    ("evaluate", ["lindstrom.compile_matrix_to_network.calls", "network.validate.calls",
                  "basis.reconstruct_value.calls"],
     ["semiring.poly_mul.calls", "witness.build_witness_network.calls"]),
    ("cli", ["cli.import_s", "cli.main.s"],
     ["flows.fg_value.calls", "semiring.poly_mul.calls"]),
])
def test_traced_run_isolates_the_layers_each_workload_exercises(workload, nonzero, zero):
    metrics = traced(workload)
    assert all(metrics[name] > 0 for name in nonzero)
    assert all(metrics[name] == 0 for name in zero)
