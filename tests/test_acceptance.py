"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (no tolerances anywhere); the stated wall-clock budget
for each criterion is asserted as well.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

from planarflows import INTEGERS, POSITIVE_RATIONALS, RATIONALS, TROPICAL_INT, polynomial_ring
from planarflows.basis import (
    flag_assignment,
    flag_values_from_network,
    pressed_assignment,
    pressed_values_from_network,
    reconstruct_value,
)
from planarflows.flows import fg_value
from planarflows.lindstrom import compile_matrix_to_network, exact_matrix, flow_matrix
from planarflows.network import (
    PlanarNetwork,
    build_grid,
    build_gv_grid,
    build_half_grid,
    validate,
)
from planarflows.patterns import (
    LOWER,
    UPPER,
    _normalize_pattern,
    is_balanced,
    stock_pattern,
)
from planarflows.relations import InstanceConfig, verify_symbolic
from planarflows.schur import Partition, ssyt_fillings, verify_schur_identity
from planarflows.witness import audit_witness, demonstrate_violation

from helpers import (
    check_matrix_sq,
    contexts_for,
    count_flows,
    decompose_double_flow,
    enumerate_double_flows,
    exchange,
    flag_feasible_matchings,
    flow_edges,
    flow_to_tableau,
    laurent_expand,
    matching_from_parts,
    matching_multiset,
    product_matrix,
    random_balanced_patterns,
    random_unbalanced_patterns,
    split_vertices,
    tableau_to_flow,
    unit_weights,
    verify_lindstrom,
    weights_from_intervals,
    weights_from_pressed,
)


def _report(number, label, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s) {label}")


def test_criterion_1_worked_matching_sets():
    started = time.time()
    Y3 = {1, 2, 3}
    assert flag_feasible_matchings(Y3, {1, 2}, 2, 1) == [frozenset({(2, 3)})]
    assert flag_feasible_matchings(Y3, {2, 3}, 2, 1) == [frozenset({(1, 2)})]
    assert flag_feasible_matchings(Y3, {1, 3}, 2, 1) == [
        frozenset({(1, 2)}),
        frozenset({(2, 3)}),
    ]
    Y4 = {1, 2, 3, 4}
    assert flag_feasible_matchings(Y4, {1, 2}, 2, 2) == [frozenset({(1, 4), (2, 3)})]
    assert flag_feasible_matchings(Y4, {1, 4}, 2, 2) == [frozenset({(1, 2), (3, 4)})]
    assert set(flag_feasible_matchings(Y4, {1, 3}, 2, 2)) == {
        frozenset({(1, 4), (2, 3)}),
        frozenset({(1, 2), (3, 4)}),
    }
    Y5 = {1, 2, 3, 4, 5}
    M = lambda A: set(flag_feasible_matchings(Y5, set(A), 3, 2))
    assert M({2, 3, 4}) == {frozenset({(1, 2), (4, 5)})}
    assert M({1, 2, 5}) == {frozenset({(1, 4), (2, 3)}), frozenset({(2, 3), (4, 5)})}
    assert M({1, 4, 5}) == {frozenset({(1, 2), (3, 4)}), frozenset({(2, 5), (3, 4)})}
    assert M({1, 3, 5}) == M({2, 3, 4}) | M({1, 2, 5}) | M({1, 4, 5})
    for kind in ("p3", "p4", "quintuple", "homogeneous3", "dodgson", "rowdecomposition3"):
        a0, b0 = stock_pattern(kind)
        a0, b0 = _normalize_pattern(a0), _normalize_pattern(b0)
        assert matching_multiset(a0) == matching_multiset(b0), kind
    dodg_a, _ = stock_pattern("dodgson")
    assert matching_multiset(dodg_a) == Counter(
        {
            matching_from_parts(vertical=[(1, 1), (2, 2)]): 1,
            matching_from_parts(lower=[(1, 2)], upper=[(1, 2)]): 1,
        }
    )
    _report(1, "worked matching sets reproduced exactly", started, 1.0)


def test_criterion_2_soundness():
    started = time.time()
    stock = [
        stock_pattern(k)
        for k in ("p3", "p4", "quintuple", "dodgson", "homogeneous3", "rowdecomposition3")
    ]
    stock.append(stock_pattern("aa4", m=5, p=3, A0={1, 2, 4}, Z={3, 5}))
    stock.append(stock_pattern("aa5", m=4, p=2, Z={2}, Zprime=set()))
    sampled = random_balanced_patterns(20250101, 200)
    config = InstanceConfig(max_cases=2, vertex_budget=25)
    checked = 0
    for a, b in stock + sampled:
        assert is_balanced(a, b).balanced
        report = verify_symbolic(a, b, config)
        assert report["all_equal"]
        assert all(c["network_vertices"] <= 25 for c in report["cases"])
        checked += len(report["cases"])
    _report(2, f"{len(stock + sampled)} balanced pairs, {checked} symbolic identities", started, 300.0)


def test_criterion_3_necessity():
    started = time.time()
    pairs = random_unbalanced_patterns(20250202, 200)
    audited = 0
    for a, b in pairs:
        shape = _normalize_pattern(a)
        for X, Y, Xp, Yp in contexts_for(shape.m, shape.m_prime):
            res = demonstrate_violation(a, b, X, Y, Xp, Yp)
            assert res["lhs"] == res["count_a"]
            assert res["rhs"] == res["count_b"]
            assert res["lhs"] != res["rhs"]
            assert validate(res["network"].network)["ok"]
            assert audit_witness(res["network"], X, Y, Xp, Yp)["ok"]
            audited += 1
    _report(3, f"200 unbalanced pairs, {audited} audited witness networks", started, 300.0)


def test_criterion_4_lindstrom_and_compiler():
    started = time.time()
    rng = random.Random(20250303)
    corpus = [
        build_grid(3, 3),
        build_grid(4, 3),
        build_grid(4, 4),
        build_half_grid(4),
        build_half_grid(5),
        build_grid(5, 4),
        _vertexify(build_gv_grid(3, 4)),
        _vertexify(build_gv_grid(2, 5)),
    ]
    for net in corpus:
        assert len(net.vertices) <= 20
        ints = net.with_vertex_weights({v: rng.randint(-3, 3) for v in net.vertices})
        assert verify_lindstrom(ints, INTEGERS)["ok"]
        ring = polynomial_ring(*[f"w{k}" for k in range(len(net.vertices))])
        sym = net.with_vertex_weights(
            {v: ring.var(k) for k, v in enumerate(net.vertices)}
        )
        assert verify_lindstrom(sym, ring)["ok"]
    for _ in range(100):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        mat = exact_matrix(
            RATIONALS,
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nc)]
                for _ in range(nr)
            ],
        )
        net, factors = compile_matrix_to_network(mat)
        assert product_matrix(factors).entries == mat.entries
        assert flow_matrix(net, RATIONALS).entries == mat.entries
    _report(4, "Lindstrom corpus + 100 compiler round trips", started, 120.0)


def test_criterion_5_matrix_sq():
    started = time.time()
    rng = random.Random(20250404)
    cases = [
        ("p3", 2, 3, (set(), {1, 2, 3}, {1}, {2})),
        ("p4", 2, 4, (set(), {1, 2, 3, 4}, {1, 2}, set())),
        ("quintuple", 3, 5, (set(), {1, 2, 3, 4, 5}, {1, 2}, {3})),
        ("dodgson", 3, 3, ({2}, {1, 3}, {2}, {1, 3})),
        ("homogeneous3", 4, 5, ({4}, {1, 2, 3}, {1}, {2, 3, 4})),
        ("rowdecomposition3", 4, 5, ({4}, {1, 2, 3}, {1}, {2, 3, 4})),
    ]
    extra = [
        (stock_pattern("aa4", m=5, p=3, A0={1, 2, 4}, Z={3, 5}), 4, 5,
         (set(), {1, 2, 3, 4, 5}, {1, 2}, {3})),
        (stock_pattern("aa5", m=4, p=2, Z={2}, Zprime=set()), 2, 4,
         (set(), {1, 2, 3, 4}, {1, 2}, set())),
    ]
    total = 0
    for kind, nrows, ncols, sets in cases:
        a0, b0 = stock_pattern(kind)
        for _ in range(50):
            mat = exact_matrix(
                INTEGERS,
                [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)],
            )
            assert check_matrix_sq(mat, a0, b0, *sets)["equal"]
            total += 1
    for (a0, b0), nrows, ncols, sets in extra:
        for _ in range(50):
            mat = exact_matrix(
                INTEGERS,
                [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)],
            )
            assert check_matrix_sq(mat, a0, b0, *sets)["equal"]
            total += 1
    _report(5, f"{total} random integer matrices across stock patterns", started, 60.0)


def _partitions_inside(box, length):
    if length == 0:
        yield ()
        return
    for first in range(box, -1, -1):
        for rest in _partitions_inside(first, length - 1):
            yield (first,) + rest


def test_criterion_6_schur_suite():
    started = time.time()
    # the displayed tableau and its flow
    lam, mu = Partition((6, 5, 3, 3, 2)), Partition((2, 2, 1, 1, 0))
    rows = [[1, 3, 3, 5], [2, 4, 4], [1, 3], [2, 6], [2, 5]]
    flow = tableau_to_flow(lam, mu, rows, 6)
    assert flow.source_idx == (1, 3, 4, 6, 7)
    assert flow.sink_idx == (3, 5, 6, 9, 11)
    back = flow_to_tableau(flow, 6)
    assert (back[0].parts, back[1].parts, back[2]) == (lam.parts, mu.parts, rows)
    # exhaustive bijection counts for shapes inside (3,3,3)
    checked = 0
    for N in range(1, 5):
        for lam_t in _partitions_inside(3, 3):
            for mu_t in _partitions_inside(3, 3):
                if any(m > l for m, l in zip(mu_t, lam_t)):
                    continue
                tabs = sum(
                    1 for _ in ssyt_fillings(Partition(lam_t), Partition(mu_t), N)
                )
                assert tabs == count_flows(Partition(lam_t), Partition(mu_t), N)
                checked += 1
    # the two quadratic identities
    for N in range(1, 5):
        for i in range(1, 6):
            for j in range(i + 1, 6):
                for k in range(j, 6):
                    for ell in range(k + 1, 6):
                        assert verify_schur_identity("tworow", [i, j, k, ell], N)["equal"]
    for r in range(2, 5):
        for lam_t in _partitions_inside(4, r):
            if not lam_t or lam_t[-1] == 0:
                continue
            assert verify_schur_identity("condensation", list(lam_t), 4)["equal"]
    _report(6, f"tableau bijections ({checked} shapes) and both identities", started, 180.0)


def test_criterion_7_basis_laurent():
    started = time.time()
    rng = random.Random(20250505)
    for n in range(2, 7):
        h = build_half_grid(n)
        for spec in (POSITIVE_RATIONALS, TROPICAL_INT):
            net = h.with_vertex_weights(
                {v: spec.random_value(rng) for v in h.vertices}
            )
            values = flag_values_from_network(spec, net, n)
            assert weights_from_intervals(spec, values, n) == net.weights
    for n in range(2, 6):
        h = build_half_grid(n)
        for spec in (POSITIVE_RATIONALS, TROPICAL_INT):
            net = h.with_vertex_weights(
                {v: spec.random_value(rng) for v in h.vertices}
            )
            assignment = flag_assignment(
                spec, n, flag_values_from_network(spec, net, n)
            )
            for r in range(1, n + 1):
                for S in combinations(range(1, n + 1), r):
                    expect = fg_value(spec, net, list(S), list(range(1, r + 1)))
                    assert reconstruct_value(assignment, frozenset(S)) == expect
    g = build_grid(4, 3)
    for spec in (POSITIVE_RATIONALS, TROPICAL_INT):
        net = g.with_vertex_weights({v: spec.random_value(rng) for v in g.vertices})
        values = pressed_values_from_network(spec, net, 4, 3)
        assert weights_from_pressed(spec, values, 4, 3) == net.weights
        assignment = pressed_assignment(spec, 4, 3, values)
        for k in range(1, 4):
            for S in combinations(range(1, 5), k):
                for Sp in combinations(range(1, 4), k):
                    assert reconstruct_value(
                        assignment, (frozenset(S), frozenset(Sp))
                    ) == fg_value(spec, net, list(S), list(Sp))
    exponents = set()
    for n in range(2, 6):
        for r in range(1, n + 1):
            for S in combinations(range(1, n + 1), r):
                exponents |= laurent_expand(n, S).exponent_range()
    assert exponents <= {-1, 0, 1, 2}
    _report(7, "weight recovery, reconstruction, Laurent exponents", started, 120.0)


def _vertexify(net):
    return PlanarNetwork(
        net.vertices, net.edges, net.sources, net.sinks, "vertex",
        {v: 1 for v in net.vertices},
    )


def _sweep_contexts(n, np_):
    ground, ground_p = list(range(1, n + 1)), list(range(1, np_ + 1))
    for ky in range(n + 1):
        for Y in combinations(ground, ky):
            rest = [v for v in ground if v not in Y]
            for kx in range(len(rest) + 1):
                for X in combinations(rest, kx):
                    for kyp in range(np_ + 1):
                        kxp2 = 2 * kx + ky - kyp
                        if kxp2 < 0 or kxp2 % 2:
                            continue
                        kxp = kxp2 // 2
                        for Yp in combinations(ground_p, kyp):
                            restp = [v for v in ground_p if v not in Yp]
                            if kxp > len(restp):
                                continue
                            yield X, Y, tuple(restp[:kxp]), Yp


def test_criterion_8_double_flow_algebra():
    started = time.time()
    rng = random.Random(20250606)
    from helpers import diamond_network

    corpus = [
        _vertexify(build_gv_grid(2, 2)),
        _vertexify(build_gv_grid(2, 3)),
        unit_weights(build_half_grid(3), INTEGERS),
        unit_weights(build_grid(3, 2), INTEGERS),
        _vertexify(build_gv_grid(3, 3)),
        diamond_network(),
        unit_weights(build_half_grid(4), INTEGERS),
        _vertexify(build_gv_grid(3, 4)),
    ]
    total_flows = 0
    exchanges = 0
    for net in corpus:
        assert len(net.vertices) <= 12
        split = split_vertices(net)
        for X, Y, Xp, Yp in _sweep_contexts(net.n_sources, net.n_sinks):
            ky, kyp = len(Y), len(Yp)
            for ka in range(ky + 1):
                kap2 = 2 * ka - (ky - kyp)
                if kap2 < 0 or kap2 % 2:
                    continue
                kap = kap2 // 2
                if kap > kyp:
                    continue
                for A in combinations(Y, ka):
                    for Ap in combinations(Yp, kap):
                        dfs = enumerate_double_flows(split, X, Y, Xp, Yp, A, Ap)
                        total_flows += len(dfs)
                        for df in dfs:
                            dec = decompose_double_flow(df)
                            sym = flow_edges(df.phi) ^ flow_edges(df.phi_prime)
                            pieces = set()
                            for circuit in dec.circuits:
                                pieces |= set(circuit)
                            for walk in dec.paths:
                                for a, b in zip(walk, walk[1:]):
                                    pieces.add((a, b) if (a, b) in sym else (b, a))
                            assert pieces == sym
                            assert len(dec.paths) == (ky + kyp) // 2
                            white = {(LOWER, y) for y in A} | {(UPPER, y) for y in Ap}
                            for p, q in dec.couples:
                                same_side = p[0] == q[0]
                                same_color = (p in white) == (q in white)
                                assert same_side != same_color
                            if dec.couples:
                                pick = [
                                    c for c in dec.couples if rng.random() < 0.5
                                ] or [dec.couples[0]]
                                new = exchange(df, pick)
                                exchanges += 1
                                before = Counter(
                                    list(flow_edges(df.phi)) + list(flow_edges(df.phi_prime))
                                )
                                after = Counter(
                                    list(flow_edges(new.phi)) + list(flow_edges(new.phi_prime))
                                )
                                assert before == after
                                assert decompose_double_flow(new).matching == dec.matching
                                back = exchange(new, pick)
                                assert back.phi == df.phi
                                assert back.phi_prime == df.phi_prime
    _report(
        8,
        f"{total_flows} double flows decomposed, {exchanges} exchanges",
        started,
        120.0,
    )
