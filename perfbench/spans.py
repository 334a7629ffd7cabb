"""In-memory span tracer for the traced run, installed from outside the library.

Wrappers replace the library's public functions at every place a loaded
``planarflows`` module holds them (``relations.fg_value``, ``basis.fg_value``
and ``flows.fg_value`` are one function imported three times), and the
arithmetic methods of the semiring classes.  Each wrapped call opens a frame;
on return its duration, minus the time covered by its child frames, is added
to its layer's self time.  Coarse calls are also kept as spans (name, start,
end, parent span, op id) and written out when the run ends; hot leaf calls
(polynomial and scalar arithmetic, successor lists) only add to totals.
While ``enabled`` is False (set-up, the untraced pass, the gates) every
wrapper calls straight through and records nothing.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("semiring", "network", "flows", "patterns", "relations", "witness",
          "lindstrom", "schur", "basis")

# (metric, unit) reported by the traced run, as totals over one pass of the
# workload's trace set.  ``op.s`` is the traced op time and ``op.self_s`` the
# part of it spent outside every wrapped call, so the self times of the
# layers plus ``op.self_s`` add up to ``op.s``.
PER_LAYER = [
    ("semiring.self_s", "s"),
    ("semiring.poly_mul.calls", "count"),
    ("semiring.poly_mul.s", "s"),
    ("semiring.poly_mul.term_pairs", "count"),
    ("semiring.poly_add.calls", "count"),
    ("semiring.poly_add.s", "s"),
    ("semiring.scalar_ops.calls", "count"),
    ("flows.self_s", "s"),
    ("flows.enumerate_flows.calls", "count"),
    ("flows.enumerate_flows.s", "s"),
    ("flows.enumerate_flows.flows", "count"),
    ("flows.fg_value.calls", "count"),
    ("flows.fg_value.s", "s"),
    ("flows.path_weight_sum.calls", "count"),
    ("flows.path_weight_sum.s", "s"),
    ("network.self_s", "s"),
    ("network.validate.calls", "count"),
    ("network.validate.s", "s"),
    ("network.validate.edge_pairs", "count"),
    ("network.topological_order.calls", "count"),
    ("network.topological_order.s", "s"),
    ("network.successors.calls", "count"),
    ("lindstrom.self_s", "s"),
    ("lindstrom.compile_matrix_to_network.calls", "count"),
    ("lindstrom.compile_matrix_to_network.s", "s"),
    ("lindstrom.compiled_vertices", "count"),
    ("lindstrom.flow_matrix.calls", "count"),
    ("lindstrom.flow_matrix.s", "s"),
    ("lindstrom.minor.calls", "count"),
    ("lindstrom.minor.s", "s"),
    ("witness.self_s", "s"),
    ("witness.build_witness_network.calls", "count"),
    ("witness.build_witness_network.s", "s"),
    ("witness.audit_witness.calls", "count"),
    ("witness.audit_witness.s", "s"),
    ("witness.audit_witness.cases", "count"),
    ("patterns.self_s", "s"),
    ("patterns.is_balanced.calls", "count"),
    ("patterns.is_balanced.s", "s"),
    ("patterns.feasible_matchings.calls", "count"),
    ("patterns.feasible_matchings.matchings", "count"),
    ("relations.self_s", "s"),
    ("relations.verify_symbolic.calls", "count"),
    ("relations.verify_symbolic.s", "s"),
    ("relations.evaluate_sq.calls", "count"),
    ("relations.evaluate_sq.s", "s"),
    ("schur.self_s", "s"),
    ("schur.verify_schur_identity.calls", "count"),
    ("schur.verify_schur_identity.s", "s"),
    ("schur.ssyt_fillings.tableaux", "count"),
    ("basis.self_s", "s"),
    ("basis.flag_values_from_network.s", "s"),
    ("basis.pressed_values_from_network.s", "s"),
    ("basis.reconstruct_value.calls", "count"),
    ("basis.reconstruct_value.s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.s", "s"),
    ("op.s", "s"),
    ("op.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.totals = defaultdict(float)
        self.spans = []      # [name, start, end, parent span index, op id]
        self.op_id = -1
        self._stack = []     # open frames: [child time, nearest recorded span]
        self._depth = defaultdict(int)

    def add(self, metric, value):
        self.totals[metric] += value

    @contextmanager
    def paused(self):
        """Calls made inside (the gates) are not traced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def call(self, layer, name, record, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        index = parent
        if record:
            index = len(self.spans)
            self.spans.append(None)
        frame = [0.0, index]
        stack.append(frame)
        depth = self._depth[name]
        self._depth[name] = depth + 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._depth[name] = depth
            elapsed = end - start
            totals = self.totals
            totals[layer + ".self_s"] += elapsed - frame[0]
            totals[name + ".calls"] += 1
            if depth == 0:  # inclusive time counts the outermost call only
                totals[name + ".s"] += elapsed
            if stack:
                stack[-1][0] += elapsed
            if record:
                self.spans[index] = [name, start, end, parent, self.op_id]

    def run_op(self, op_id, fn):
        self.op_id = op_id
        return self.call("op", "op", True, fn, (), {})

    def wrap(self, layer, name, fn, record=True, count=None):
        """``count(args, result)`` adds to the metric ``count_name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer.call(layer, name, record, fn, args, kwargs)
            if count is not None:
                tracer.totals[count[0]] += count[1](args, result)
            return result

        return wrapper

    def wrap_generator(self, metric, fn):
        """Count the items a generator function yields (it is not timed)."""
        tracer = self

        def counted(gen):
            for item in gen:
                tracer.totals[metric] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return counted(gen) if tracer.enabled else gen

        return wrapper

    def per_layer(self, passes):
        return {name: (self.totals.get(name, 0.0) / passes, unit)
                for name, unit in PER_LAYER if name != "trace.overhead_frac"}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _replace_everywhere(original, wrapper):
    """Swap ``original`` for ``wrapper`` in every loaded planarflows module."""
    for modname, module in list(sys.modules.items()):
        if modname == "planarflows" or modname.startswith("planarflows."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer, pf):
    """Wrap the library's public functions and semiring arithmetic."""
    S = pf.semiring

    def leaf(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap("semiring", name, getattr(cls, attr),
                                       record=False, count=count))

    leaf(S.Polynomial, "__mul__", "semiring.poly_mul",
         count=("semiring.poly_mul.term_pairs",
                lambda args, _: len(args[0].terms) * len(args[1].terms)))
    leaf(S.Polynomial, "__add__", "semiring.poly_add")
    for cls in (S.IntegerRing, S.RationalField, S.PositiveRationals,
                S.TropicalIntegers, S.StarExtended):
        for attr in ("add", "mul", "negate", "divide"):
            if attr in vars(cls):
                leaf(cls, attr, "semiring.scalar_ops")

    N = pf.network
    for attr in ("successors", "predecessors"):
        setattr(N.PlanarNetwork, attr, tracer.wrap(
            "network", f"network.{attr}", getattr(N.PlanarNetwork, attr), record=False))

    def edge_pairs(args, _):
        edges = len(args[0].edges)
        return edges * (edges - 1) // 2

    # (layer, function, record as span, count)
    functions = [
        ("semiring", "fold_sum", False, None),
        ("semiring", "fold_product", False, None),
        ("network", "validate", True, ("network.validate.edge_pairs", edge_pairs)),
        ("network", "topological_order", True, None),
        ("network", "concatenate", False, None),
        ("network", "build_grid", False, None),
        ("network", "build_half_grid", False, None),
        ("network", "build_gv_grid", False, None),
        ("network", "truncated_grid", False, None),
        ("flows", "enumerate_flows", True,
         ("flows.enumerate_flows.flows", lambda _, result: len(result))),
        ("flows", "fg_value", True, None),
        ("flows", "path_weight_sum", True, None),
        ("patterns", "is_balanced", True, None),
        ("patterns", "feasible_matchings", True,
         ("patterns.feasible_matchings.matchings", lambda _, result: len(result))),
        ("relations", "verify_symbolic", True, None),
        ("relations", "evaluate_sq", True, None),
        ("witness", "build_witness_network", True, None),
        ("witness", "audit_witness", True,
         ("witness.audit_witness.cases", lambda _, result: len(result["cases"]))),
        ("witness", "demonstrate_violation", True, None),
        ("lindstrom", "compile_matrix_to_network", True,
         ("lindstrom.compiled_vertices", lambda _, result: len(result[0].vertices))),
        ("lindstrom", "flow_matrix", True, None),
        ("lindstrom", "minor", True, None),
        ("schur", "verify_schur_identity", True, None),
        ("schur", "schur_poly", False, None),
        ("basis", "flag_values_from_network", True, None),
        ("basis", "pressed_values_from_network", True, None),
        ("basis", "reconstruct_value", True, None),
    ]
    for layer, attr, record, count in functions:
        original = getattr(getattr(pf, layer), attr)
        _replace_everywhere(original, tracer.wrap(
            layer, f"{layer}.{attr}", original, record=record, count=count))
    original = pf.schur.ssyt_fillings
    _replace_everywhere(original, tracer.wrap_generator(
        "schur.ssyt_fillings.tableaux", original))
