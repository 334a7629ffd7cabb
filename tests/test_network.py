import json
import os
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from planarflows import INTEGERS, RATIONALS, polynomial_ring
from planarflows.errors import ArityMismatch, PlanarFlowsError
from planarflows.flows import enumerate_flows, fg_value
from planarflows.lindstrom import (
    compile_matrix_to_network,
    exact_matrix,
    flow_matrix,
    mat_mul,
    minor,
)
from planarflows.network import (
    PlanarNetwork,
    build_grid,
    build_gv_grid,
    build_half_grid,
    concatenate,
    convex_hull,
    cross,
    edge_to_vertex_mode,
    find_cycle,
    network_from_json,
    network_to_json,
    split_vertices,
    topological_order,
    truncated_grid,
    validate,
)
from planarflows.patterns import _normalize_pattern
from planarflows.witness import demonstrate_violation

from helpers import (
    contexts_for,
    random_unbalanced_patterns,
    scanned_hull_position,
    validate_oracle,
)


def test_grid_shape():
    g = build_grid(5, 4)
    assert len(g.vertices) == 20
    assert g.sources == tuple(f"{i},1" for i in range(1, 6))
    assert g.sinks == tuple(f"1,{j}" for j in range(1, 5))
    assert validate(g)["ok"]


def test_half_grid_shape():
    h = build_half_grid(4)
    assert len(h.vertices) == 10
    assert h.sinks == ("1,1", "2,2", "3,3", "4,4")
    assert validate(h)["ok"]


def test_gv_grid_shape():
    g = build_gv_grid(2, 2)
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    ring = polynomial_ring("x1", "x2")
    weighted = build_gv_grid(2, 2, {1: ring.var(0), 2: ring.var(1)})
    horiz = [(e, w) for e, w in weighted.weights.items()]
    assert len(horiz) == 2
    assert weighted.weights[("1,1", "2,1")] == ring.var(0)
    assert weighted.weights[("1,2", "2,2")] == ring.var(1)
    assert validate(g)["ok"]


def test_split_counts_half_grid():
    split = split_vertices(build_half_grid(3))
    # 2 * 6 + 3 + 3 vertices; 6 split + 6 ordinary + 6 extra edges
    assert len(split.network.vertices) == 18
    assert len(split.network.edges) == 18
    classes = {}
    for e in split.network.edges:
        classes[split.edge_class[e]] = classes.get(split.edge_class[e], 0) + 1
    assert classes == {"split": 6, "ordinary": 6, "extra": 6}


def test_split_counts_grid():
    # 2|V| + n + n' vertices and |V| + |E| + n + n' edges
    split = split_vertices(build_grid(2, 2))
    assert len(split.network.vertices) == 2 * 4 + 2 + 2
    assert len(split.network.edges) == 4 + 4 + 2 + 2


def test_split_handles_coincident_corner():
    # s_1 and t_1 share the corner vertex; the split graph keeps them apart
    split = split_vertices(build_grid(2, 2))
    flows = enumerate_flows(split.network, [1], [1])
    assert len(flows) == 1
    assert flows[0].paths[0] == ("src:1", "in:1,1", "out:1,1", "snk:1")


def test_split_structure_laws():
    net = build_half_grid(3)
    split = split_vertices(net)
    adj_out = {}
    adj_in = {}
    for tail, head in split.network.edges:
        adj_out.setdefault(tail, []).append((tail, head))
        adj_in.setdefault(head, []).append((tail, head))
    terminals = set(split.network.sources) | set(split.network.sinks)
    for v in split.network.vertices:
        incident = adj_out.get(v, []) + adj_in.get(v, [])
        split_edges = [e for e in incident if split.edge_class[e] == "split"]
        if v in terminals:
            assert len(adj_out.get(v, [])) + len(adj_in.get(v, [])) == 1
        else:
            assert len(split_edges) == 1
    for e in split.network.edges:
        if split.edge_class[e] == "split":
            tail, head = e
            assert len(adj_out.get(tail, [])) == 1
            assert len(adj_in.get(head, [])) == 1


def test_split_preserves_flow_counts():
    from itertools import combinations

    for net in [
        build_half_grid(3),
        build_grid(2, 2),
        build_grid(3, 2),
        build_half_grid(4),
    ]:
        split = split_vertices(net)
        n, np_ = net.n_sources, net.n_sinks
        for k in range(0, min(n, np_) + 1):
            for I in combinations(range(1, n + 1), k):
                for Ip in combinations(range(1, np_ + 1), k):
                    direct = enumerate_flows(net, I, Ip)
                    lifted = enumerate_flows(split.network, I, Ip)
                    assert len(direct) == len(lifted)


def test_validate_detects_cycle():
    g = build_grid(2, 2)
    edges = g.edges + (("1,2", "2,1"),)  # sink back to source area: cycle
    bad = PlanarNetwork(g.vertices, edges, g.sources, g.sinks)
    report = validate(bad)
    assert not report["acyclic"] and report["cycle"]


def test_find_cycle_reports_a_directed_cycle():
    g = build_grid(3, 3)
    for extra in ((("1,3", "3,1"),), (("2,2", "2,2"),), (("1,2", "2,1"), ("3,3", "3,2"))):
        net = PlanarNetwork(g.vertices, g.edges + extra, g.sources, g.sinks)
        cycle = find_cycle(net)
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
        assert all(e in net.edges for e in zip(cycle, cycle[1:]))
        with pytest.raises(PlanarFlowsError):
            topological_order(net)
    assert find_cycle(g) is None


def test_validate_detects_crossing():
    vertices = {
        "s1": (Fraction(0), Fraction(0)),
        "s2": (Fraction(2), Fraction(0)),
        "t1": (Fraction(0), Fraction(2)),
        "t2": (Fraction(2), Fraction(2)),
    }
    edges = (("s1", "t2"), ("s2", "t1"))
    bad = PlanarNetwork(vertices, edges, ("s1", "s2"), ("t1", "t2"))
    report = validate(bad)
    assert not report["planar_ok"]
    assert report["crossings"]


def test_validate_rejects_paths_crossing_at_two_vertices_drawn_at_one_point():
    # s1 -> u -> t2 and s2 -> w -> t1 cross where u and w are drawn, so the
    # flow value f(12|12) = 0 differs from the flow matrix minor -1.
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "crossing_paths.json")) as fh:
        net = network_from_json(json.load(fh), INTEGERS)
    report = validate(net)
    assert report["acyclic"] and report["terminal_order_ok"]
    assert not report["planar_ok"] and not report["ok"]
    assert len(report["crossings"]) == 4
    assert report == validate_oracle(net)
    assert minor(flow_matrix(net, INTEGERS), [1, 2], [1, 2]) == -1
    assert fg_value(INTEGERS, net, [1, 2], [1, 2]) == 0


def test_validate_rejects_overlapping_edges_at_a_shared_vertex():
    F = Fraction
    vertices = {"a": (F(0), F(0)), "c": (F(1), F(1)), "b": (F(2), F(2))}

    def report(edges):
        net = PlanarNetwork(vertices, edges, ("a",), ("b",))
        out = validate(net)
        assert out == validate_oracle(net)
        return out

    # c lies on the segment ab, so a -> b and a -> c overlap from a on.
    assert report((("a", "b"), ("a", "c")))["crossings"] == [[["a", "b"], ["a", "c"]]]
    assert not report((("a", "b"), ("a", "b")))["planar_ok"]  # one edge twice
    assert not report((("a", "c"), ("c", "b"), ("a", "b")))["planar_ok"]
    # A subdivided segment meets itself only at its inner vertex.
    assert report((("a", "c"), ("c", "b")))["ok"]


def test_validate_reports_a_terminal_repeated_within_sources_or_sinks():
    F = Fraction
    vertices = {"a": (F(0), F(0)), "b": (F(0), F(1))}
    net = PlanarNetwork(vertices, (("a", "b"),), ("a", "a"), ("b", "b"))
    report = validate(net)
    assert not report["ok"] and not report["terminal_order_ok"]
    assert report["terminal_issues"] == ["a repeats in sources", "b repeats in sinks"]
    assert report == validate_oracle(net)
    only_sinks = PlanarNetwork(vertices, (("a", "b"),), ("a",), ("b", "b"))
    assert validate(only_sinks)["terminal_issues"] == ["b repeats in sinks"]
    # One vertex may still be both a source and a sink.
    assert validate(PlanarNetwork(vertices, (("a", "b"),), ("a", "b"), ("b",)))["ok"]


def test_validate_detects_bad_terminal_order():
    vertices = {
        "s1": (Fraction(0), Fraction(0)),
        "s2": (Fraction(2), Fraction(0)),
        "t1": (Fraction(0), Fraction(2)),
        "t2": (Fraction(2), Fraction(2)),
    }
    good = PlanarNetwork(vertices, (), ("s1", "s2"), ("t1", "t2"))
    assert validate(good)["terminal_order_ok"]
    swapped = PlanarNetwork(vertices, (), ("s1", "s2"), ("t2", "t1"))
    assert not validate(swapped)["terminal_order_ok"]
    inside = dict(vertices)
    inside["t1"] = (Fraction(1), Fraction(1))
    inside["corner"] = (Fraction(0), Fraction(2))  # keeps t1 strictly interior
    report = validate(PlanarNetwork(inside, (), ("s1", "s2"), ("t1", "t2")))
    assert not report["terminal_order_ok"]
    assert report["terminal_issues"]


def test_concatenate_identity_gadgets():
    from planarflows.lindstrom import quasi_diagonal_gadget

    one = [Fraction(1)] * 3
    a = quasi_diagonal_gadget(one, 3, 3)
    b = quasi_diagonal_gadget(one, 3, 3)
    net = concatenate(a, b)
    fm = flow_matrix(net, RATIONALS)
    assert fm.entries == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )


def test_concatenate_multiplicativity():
    from planarflows.lindstrom import adjacent_add_gadget, adjacent_swap_gadget

    rng = random.Random(2)
    for _ in range(10):
        parts = []
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                parts.append(adjacent_swap_gadget(3, rng.randint(1, 2), RATIONALS))
            else:
                parts.append(
                    adjacent_add_gadget(
                        3, rng.randint(1, 2), Fraction(rng.randint(-3, 3)), RATIONALS
                    )
                )
        net = parts[0]
        product = flow_matrix(parts[0], RATIONALS)
        for part in parts[1:]:
            net = concatenate(net, part)
            product = mat_mul(flow_matrix(part, RATIONALS), product)
        assert flow_matrix(net, RATIONALS).entries == product.entries


def test_concatenate_swap_twice_is_identity():
    from planarflows.lindstrom import adjacent_swap_gadget

    g = adjacent_swap_gadget(3, 1, RATIONALS)
    net = concatenate(g, adjacent_swap_gadget(3, 1, RATIONALS))
    fm = flow_matrix(net, RATIONALS)
    assert fm.entries == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )


def test_concatenate_arity_mismatch():
    from planarflows.lindstrom import quasi_diagonal_gadget

    a = quasi_diagonal_gadget([Fraction(1)] * 2, 2, 2)
    b = quasi_diagonal_gadget([Fraction(1)] * 3, 3, 3)
    with pytest.raises(ArityMismatch):
        concatenate(a, b)


def test_edge_to_vertex_mode_preserves_values():
    ring = polynomial_ring("x1", "x2")
    net = build_gv_grid(2, 3, {1: ring.var(0), 2: ring.var(1)})
    converted = edge_to_vertex_mode(net, ring)
    assert converted.weight_mode == "vertex"
    for I in ([1], [2], [1, 2], [2, 3]):
        for Ip in ([1], [3], [1, 2], [1, 3]):
            if len(I) != len(Ip):
                continue
            assert fg_value(ring, net, I, Ip) == fg_value(ring, converted, I, Ip)


def test_truncated_grid_budget():
    net = truncated_grid(8, 4, 25)
    assert len(net.vertices) <= 25
    assert net.n_sources == 8 and net.n_sinks == 4
    assert validate(net)["ok"]
    # the interior cells kept are the first by (i + j, vertex id)
    net = truncated_grid(4, 4, 10)
    assert " ".join(net.vertices) == "1,1 1,2 1,3 1,4 2,1 2,2 2,3 3,1 3,2 4,1"
    assert len(net.edges) == 12


def test_network_json_round_trip():
    g = build_half_grid(3).with_vertex_weights(
        {v: k for k, v in enumerate(build_half_grid(3).vertices)}
    )
    data = network_to_json(g, INTEGERS)
    back = network_from_json(data, INTEGERS)
    assert back.vertices == g.vertices
    assert back.edges == g.edges
    assert back.sources == g.sources and back.sinks == g.sinks
    assert back.weights == g.weights
    # byte-stable serialization
    import json

    assert json.dumps(data, sort_keys=True) == json.dumps(
        network_to_json(back, INTEGERS), sort_keys=True
    )


def _random_drawing(rng):
    """A small drawing on a coarse lattice with denominators 1, 2 and 3, so
    coincident vertices, collinear overlaps, shared endpoints, axis-parallel
    edges, cycles and terminals inside hull edges all come up often.  Some
    coordinates are plain ints."""
    def coord():
        d = rng.choice((1, 1, 2, 3))
        k = rng.randint(0, 3 * d)
        return k if d == 1 and rng.random() < 0.5 else Fraction(k, d)

    ids = [f"v{k}" for k in range(rng.randint(1, 9))]
    vertices = {v: (coord(), coord()) for v in ids}
    edges = tuple(
        (rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 12))
    )
    sources = tuple(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
    sinks = tuple(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
    return PlanarNetwork(vertices, edges, sources, sinks)


def _drawing_features(net, report):
    coords = net.vertices
    points = list(coords.values())
    hull = convex_hull(points)
    segments = [(coords[a], coords[b]) for a, b in net.edges]
    return {
        "coincident vertices": len(set(points)) < len(points),
        "plain int coordinate": any(type(c) is int for p in points for c in p),
        "cycle": not report["acyclic"],
        "crossing": bool(report["crossings"]),
        "shared endpoint": any(
            {p, q} & {r, s} for (p, q), (r, s) in combinations(segments, 2)
        ),
        "vertical edge": any(p[0] == q[0] and p != q for p, q in segments),
        "horizontal edge": any(p[1] == q[1] and p != q for p, q in segments),
        "terminal inside a hull edge": any(
            getattr(scanned_hull_position(coords[t], hull), "denominator", 1) != 1
            for t in net.sources + net.sinks
        ),
        "terminal off the hull": any(
            "boundary" in issue for issue in report["terminal_issues"]
        ),
        "terminals out of order": any(
            "clockwise" in issue for issue in report["terminal_issues"]
        ),
        "collinear overlap": any(
            cross(coords[a], coords[b], coords[c]) == 0
            and cross(coords[a], coords[b], coords[d]) == 0
            and coords[a] != coords[b]
            for (a, b), (c, d) in report["crossings"]
        ),
    }


def test_validate_matches_the_all_pairs_oracle_on_random_drawings():
    rng = random.Random(31)
    seen = Counter()
    for _ in range(2500):
        net = _random_drawing(rng)
        expected = validate_oracle(net)
        assert validate(net) == expected
        features = _drawing_features(net, expected)
        seen.update(name for name, present in features.items() if present)
    assert len(seen) == len(features) and min(seen.values()) >= 20, seen


def test_validate_matches_the_all_pairs_oracle_on_compiled_and_witness_networks():
    rng = random.Random(8)
    nets = []
    for n in (3, 4, 5, 6):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        nets.append(compile_matrix_to_network(exact_matrix(RATIONALS, rows))[0])
    for a, b in random_unbalanced_patterns(5, 6):
        shape = _normalize_pattern(a)
        for ctx in contexts_for(shape.m, shape.m_prime):
            nets.append(demonstrate_violation(a, b, *ctx)["network"].network)
    largest = max(c.denominator for net in nets for p in net.vertices.values() for c in p)
    assert largest.bit_length() > 40
    for net in nets:
        report = validate(net)
        assert report["ok"] and report == validate_oracle(net)
        # The same drawing with a few chords between random vertices: cycles,
        # crossings and overlaps at the network's own coordinates.
        ids = list(net.vertices)
        for _ in range(1 if len(ids) > 100 else 4):
            chords = tuple((rng.choice(ids), rng.choice(ids)) for _ in range(3))
            chorded = PlanarNetwork(net.vertices, net.edges + chords, net.sources, net.sinks)
            assert validate(chorded) == validate_oracle(chorded)
