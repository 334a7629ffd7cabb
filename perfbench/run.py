"""planarflows benchmark: closed-loop workloads with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in one process with no threads.  Set-up (importing the
library from ``src/`` and generating the seeded inputs) is repeated
SETUP_REPEATS times and its median reported.  The timed loop then issues one
op at a time until ``--seconds`` of wall time have passed; each op's gate
runs after its clock stops.  With ``--trace 1`` the workload's fixed trace
set (its first ops) runs once untraced and then, traced, in whole passes
until the time is up; per-layer metrics are totals over one pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every op passed its gate.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
MODULES = ("semiring", "network", "flows", "patterns", "relations", "witness",
           "lindstrom", "schur", "basis")
SETUP_REPEATS = 5
P90_MIN_OPS = 100   # from here on p90 has at least ten samples beyond it


def load_library():
    """Import planarflows afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "planarflows" or m.startswith("planarflows.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pf = SimpleNamespace(**{m: importlib.import_module(f"planarflows.{m}") for m in MODULES})
    if not pf.flows.__file__.startswith(SRC + os.sep):
        raise ImportError(f"planarflows was imported from {pf.flows.__file__}, not {SRC}")
    return pf


def set_up(name, seed, tracer):
    """Repeat the set-up; returns (median seconds, library, ops of the last one)."""
    setup = workloads.WORKLOADS[name].setup
    os.makedirs(WORKDIR, exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pf = load_library()
        ops = setup(pf, random.Random(seed), WORKDIR, tracer)
        times.append(time.perf_counter() - start)
    return statistics.median(times), pf, ops


def run_gated(op, tracer=None, op_id=0):
    """One op: returns (seconds, passed).  The gate runs after the clock stops
    and, in the traced run, with the tracer off."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            tracer.enabled = True
            try:
                out = tracer.run_op(op_id, op.run)
            finally:
                tracer.enabled = False
    except Exception as exc:  # a failing op is counted, never fatal
        print(f"op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    try:
        passed = bool(op.check(out))
    except Exception as exc:
        print(f"gate of op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        passed = False
    if not passed:
        print(f"op {op.kind} failed its gate", file=sys.stderr)
    return elapsed, passed


def percentile(ascending, q):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(ascending) * q // 100))
    return ascending[rank - 1]


def measure(name, ops, seconds):
    """Closed loop until ``seconds`` have passed and a whole unit of the
    workload's schedule is done."""
    unit = workloads.WORKLOADS[name].unit
    latencies = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(latencies) % unit or time.perf_counter() < deadline:
        elapsed, passed = run_gated(ops[len(latencies) % len(ops)])
        latencies.append(elapsed)
        failed += not passed
    latencies.sort()
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    if len(latencies) < P90_MIN_OPS:
        print(f"warning: {len(latencies)} ops; latency_p90_ms has fewer than ten "
              "samples beyond it", file=sys.stderr)
    metrics = {
        "throughput_ops_per_s": ((len(latencies) - failed) / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return len(latencies), failed, metrics


def measure_traced(name, pf, ops, seconds, tracer, trace_path):
    """One untraced pass over the trace set, then traced passes until time is up."""
    trace_set = ops[:workloads.WORKLOADS[name].trace_ops]
    deadline = time.perf_counter() + seconds
    runs = [run_gated(op) for op in trace_set]
    untraced = sum(elapsed for elapsed, _ in runs)
    attempted, failed = len(runs), sum(not passed for _, passed in runs)
    spans.install(tracer, pf)
    passes = 0
    traced = 0.0
    while passes == 0 or time.perf_counter() < deadline:
        for op in trace_set:
            elapsed, passed = run_gated(op, tracer, attempted)
            traced += elapsed
            attempted += 1
            failed += not passed
        passes += 1
    metrics = tracer.per_layer(passes)
    metrics["trace.overhead_frac"] = (traced / passes / untraced - 1, "ratio")
    tracer.write(trace_path)
    return attempted, failed, metrics


def run_workload(name, seed, seconds, trace):
    tracer = spans.Tracer() if trace else None
    setup_s, pf, ops = set_up(name, seed, tracer)
    if trace:
        path = os.path.join(WORKDIR, f"trace-{name}-seed{seed}.json")
        attempted, failed, metrics = measure_traced(name, pf, ops, seconds, tracer, path)
    else:
        attempted, failed, metrics = measure(name, ops, seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    print(f"{name}: seed {seed}, {attempted} ops attempted, {failed} failed, "
          f"failed_ops_frac {failed / attempted:.4g}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own process; the result keys are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "planarflows", "__init__.py")):
        print(f"error: no planarflows package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
