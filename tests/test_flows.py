import random
from collections import Counter

import pytest

from planarflows import INTEGERS, RATIONALS, TROPICAL_INT, polynomial_ring, star_extend
from planarflows.errors import (
    CoupleNotInMatching,
    EmptySumWithoutNeutral,
    InconsistentSets,
    PlanarFlowsError,
    SizeMismatch,
)
from planarflows.doubleflows import (
    decompose_double_flow,
    enumerate_double_flows,
    exchange,
    make_double_flow,
)
from planarflows.flows import (
    FlowFunction,
    enumerate_flows,
    fg_value,
    path_weight_sum,
)
from planarflows.lindstrom import compile_matrix_to_network, exact_matrix
from planarflows.network import (
    PlanarNetwork,
    build_grid,
    build_gv_grid,
    build_half_grid,
    split_vertices,
)
from planarflows.patterns import LOWER, UPPER, _normalize_pattern
from planarflows.witness import demonstrate_violation

from helpers import (
    brute_force_flows,
    contexts_for,
    diamond_network,
    flow_weight,
    random_unbalanced_patterns,
)


def test_interval_flow_is_unique_on_half_grid():
    for n in (3, 4, 5):
        h = build_half_grid(n)
        for q in range(1, n + 1):
            for r in range(q, n + 1):
                I = list(range(q, r + 1))
                flows = enumerate_flows(h, I, list(range(1, len(I) + 1)))
                assert len(flows) == 1
                used = {v for p in flows[0].paths for v in p}
                expect = {
                    f"{i},{j}"
                    for i in range(1, r + 1)
                    for j in range(1, min(i, r - q + 1) + 1)
                }
                assert used == expect


def test_grid_two_flows():
    flows = enumerate_flows(build_grid(2, 2), [2], [2])
    assert [f.paths for f in flows] == [
        (("2,1", "1,1", "1,2"),),
        (("2,1", "2,2", "1,2"),),
    ]


def test_empty_flow():
    flows = enumerate_flows(build_grid(2, 2), [], [])
    assert len(flows) == 1
    assert flows[0].paths == ()
    assert fg_value(INTEGERS, build_grid(2, 2).unit_weights(INTEGERS), [], []) == 1


def test_enumeration_matches_brute_force():
    rng = random.Random(4)
    nets = [build_grid(3, 3), build_half_grid(4), diamond_network(), build_gv_grid(3, 3)]
    for net in nets:
        n, np_ = net.n_sources, net.n_sinks
        for _ in range(12):
            k = rng.randint(0, min(n, np_))
            I = sorted(rng.sample(range(1, n + 1), k))
            Ip = sorted(rng.sample(range(1, np_ + 1), k))
            fast = [f.paths for f in enumerate_flows(net, I, Ip)]
            assert fast == list(brute_force_flows(net, I, Ip))


def test_errors():
    g = build_grid(2, 2)
    with pytest.raises(SizeMismatch):
        enumerate_flows(g, [1, 2], [1])
    # empty flow set over a semiring with no zero
    net = diamond_network().unit_weights(TROPICAL_INT)
    with pytest.raises(EmptySumWithoutNeutral):
        fg_value(TROPICAL_INT, net, [1], [3])


def test_fg_counts_and_star():
    g = build_grid(3, 3).unit_weights(INTEGERS)
    assert fg_value(INTEGERS, g, [3], [3]) == 6  # monotone lattice paths
    assert fg_value(INTEGERS, g, [2], [1]) == 1
    star_trop = star_extend(TROPICAL_INT)
    h = build_grid(2, 2).unit_weights(star_trop)
    from planarflows.semiring import STAR

    assert fg_value(star_trop, h, [2], [1]) == 0  # tropical one is 0
    net = diamond_network().unit_weights(star_trop)
    assert fg_value(star_trop, net, [1], [3]) is STAR


def test_fg_tropical_matches_bruteforce():
    rng = random.Random(17)
    g = build_grid(3, 3)
    w = {v: rng.randint(-9, 9) for v in g.vertices}
    net = g.with_vertex_weights(w)
    for I, Ip in ([[1], [2]], [[1, 2], [1, 3]], [[2, 3], [2, 3]], [[1, 2, 3], [1, 2, 3]]):
        flows = brute_force_flows(net, I, Ip)
        expect = max(sum(w[v] for p in sys for v in p) for sys in flows)
        assert fg_value(TROPICAL_INT, net, I, Ip) == expect


def test_path_weight_sum_matches_fg_on_singletons():
    rng = random.Random(23)
    g = build_grid(3, 4)
    w = {v: rng.randint(-3, 3) for v in g.vertices}
    net = g.with_vertex_weights(w)
    for i in range(1, 4):
        for j in range(1, 5):
            assert path_weight_sum(INTEGERS, net, i, j) == fg_value(
                INTEGERS, net, [i], [j]
            )


def _differential_corpus():
    nets = [
        build_grid(3, 3),
        build_grid(2, 4),
        build_half_grid(4),
        build_gv_grid(3, 4),
        diamond_network(),
        split_vertices(build_half_grid(3)).network,
        split_vertices(diamond_network()).network,
    ]
    # n = 3 matrices whose compiled networks have few enough flows to list
    for rows in ([[1, 0, 0], [2, 1, 0], [1, 3, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                 [[1, 1, 0], [1, 2, 1], [0, 1, 2]], [[2, 0, 0], [2, -2, 1], [-1, -2, -1]]):
        nets.append(compile_matrix_to_network(exact_matrix(RATIONALS, rows))[0])
    for a, b in random_unbalanced_patterns(5, 3, max_total=6):
        shape = _normalize_pattern(a)
        ctx = contexts_for(shape.m, shape.m_prime)[-1]
        nets.append(demonstrate_violation(a, b, *ctx)["network"].network)
    return nets


def _reweighted(net, spec, rng):
    """``net`` with random weights from ``spec``; edge weights on a random
    subset of edges, the others counting as one."""
    if net.weight_mode == "vertex":
        return net.with_vertex_weights({v: spec.random_value(rng) for v in net.vertices})
    weights = {e: spec.random_value(rng) for e in net.edges if rng.random() < 0.7}
    return PlanarNetwork(net.vertices, net.edges, net.sources, net.sinks, "edge", weights)


def _brute_value(spec, net, I, Ip):
    """Sum over brute-force flows of the used weights' product; None if none."""
    total = None
    for system in brute_force_flows(net, I, Ip):
        if net.weight_mode == "vertex":
            factors = [net.weights[v] for path in system for v in path]
        else:
            factors = [net.weights[e] for path in system
                       for e in zip(path, path[1:]) if e in net.weights]
        weight = spec.one()
        for w in factors:
            weight = spec.mul(weight, w)
        total = weight if total is None else spec.add(total, weight)
    return total


def test_engine_matches_brute_force_across_networks_and_semirings():
    rng = random.Random(2024)
    semirings = [INTEGERS, TROPICAL_INT, star_extend(TROPICAL_INT), polynomial_ring("a", "b")]
    seen = Counter()
    for base in _differential_corpus():
        n, np_ = base.n_sources, base.n_sinks
        for spec in semirings:
            net = _reweighted(base, spec, rng)
            for _ in range(6):
                k = rng.randint(0, min(n, np_, 3))
                I = sorted(rng.sample(range(1, n + 1), k))
                Ip = sorted(rng.sample(range(1, np_ + 1), k))
                flows = enumerate_flows(net, I, Ip)
                assert [f.paths for f in flows] == brute_force_flows(net, I, Ip)
                expect = _brute_value(spec, net, I, Ip)
                seen["empty" if expect is None else "nonempty"] += 1
                if expect is None and not spec.has_zero:
                    with pytest.raises(EmptySumWithoutNeutral):
                        fg_value(spec, net, I, Ip)
                    seen["raised"] += 1
                    continue
                got = fg_value(spec, net, I, Ip)
                assert spec.equal(got, spec.zero() if expect is None else expect)
    assert seen["empty"] and seen["nonempty"] and seen["raised"]


def test_flow_function_matches_fresh_calls_and_brute_force():
    """One FlowFunction per network answers many calls: target tuples
    repeat with different sources (sharing the walk memo) and also occur
    once; every value equals a fresh ``fg_value`` and the brute force."""
    rng = random.Random(77)
    semirings = [INTEGERS, TROPICAL_INT, star_extend(TROPICAL_INT), polynomial_ring("a", "b")]
    seen = Counter()
    for base in _differential_corpus():
        n, np_ = base.n_sources, base.n_sinks
        for spec in semirings:
            net = _reweighted(base, spec, rng)
            f = FlowFunction(spec, net)
            sources_per_target = {}
            for _ in range(10):
                k = rng.randint(0, min(n, np_, 3))
                Ip = sorted(rng.sample(range(1, np_ + 1), k))
                for _ in range(rng.choice((1, 3))):
                    I = sorted(rng.sample(range(1, n + 1), k))
                    sources_per_target.setdefault(tuple(Ip), set()).add(tuple(I))
                    expect = _brute_value(spec, net, I, Ip)
                    if expect is None and not spec.has_zero:
                        with pytest.raises(EmptySumWithoutNeutral):
                            f(I, Ip)
                        seen["raised"] += 1
                        continue
                    got = f(I, Ip)
                    assert spec.equal(got, fg_value(spec, net, I, Ip))
                    assert spec.equal(got, spec.zero() if expect is None else expect)
                    seen["empty" if expect is None else "nonempty"] += 1
            for sources in sources_per_target.values():
                seen["shared targets" if len(sources) > 1 else "unshared targets"] += 1
    assert all(seen[key] > 20 for key in
               ("raised", "empty", "nonempty", "shared targets", "unshared targets"))


class _CountingIntegers(type(INTEGERS)):
    def __init__(self):
        self.products = 0

    def mul(self, a, b):
        self.products += 1
        return a * b


def test_flow_function_reuses_walk_states_across_sources():
    spec = _CountingIntegers()
    net = build_grid(4, 4).unit_weights(INTEGERS)
    f = FlowFunction(spec, net)
    assert f([3, 4], [1, 2]) == fg_value(INTEGERS, net, [3, 4], [1, 2])
    spec.products = 0
    shared = f([2, 4], [1, 2])
    reused = spec.products
    spec.products = 0
    assert fg_value(spec, net, [2, 4], [1, 2]) == shared
    assert reused < spec.products


def test_a_repeated_query_is_answered_without_a_walk():
    spec = _CountingIntegers()
    f = FlowFunction(spec, build_grid(4, 4).unit_weights(INTEGERS))
    first = f([2, 4], [1, 2])
    spec.products = 0
    assert f((4, 2), frozenset({2, 1})) == first and spec.products == 0


def test_flow_function_answers_repeats_complements_and_refusals_like_fresh_values():
    """Seeded query orders on one FlowFunction per network, in vertex and edge
    mode over the integers, tropical integers and a polynomial ring: repeats,
    complements, index sets in any container and order, and refused indices.
    Every answer equals a fresh ``fg_value``, and a refused call changes no
    later answer."""
    rng = random.Random(2020)
    seen = Counter()
    nets = [build_grid(3, 3), build_half_grid(4), build_gv_grid(3, 4),
            split_vertices(build_half_grid(3)).network]
    containers = (list, tuple, frozenset, lambda idx: sorted(idx, reverse=True))
    for base in nets:
        n = base.n_sources
        assert base.n_sinks == n  # so every complement is a query
        refused = (([0], [1]), ([n + 1], [1]), ([1], [n + 1]), ([1, 1], [1, 2]), ([1], [1, 2]))
        for spec in (INTEGERS, TROPICAL_INT, polynomial_ring("a", "b")):
            net = _reweighted(base, spec, rng)
            f = FlowFunction(spec, net)
            asked = []
            for _ in range(40):
                roll = rng.random()
                if roll < 0.15:
                    with pytest.raises(PlanarFlowsError):
                        f(*rng.choice(refused))
                    seen["refused"] += 1
                    continue
                if asked and roll < 0.35:
                    I, Ip = rng.choice(asked)
                    seen["repeat"] += 1
                elif asked and roll < 0.55:
                    I, Ip = (sorted(set(range(1, n + 1)) - set(idx)) for idx in rng.choice(asked))
                    seen["complement"] += 1
                else:
                    k = rng.randint(0, min(n, 3))
                    I, Ip = rng.sample(range(1, n + 1), k), rng.sample(range(1, n + 1), k)
                asked.append((I, Ip))
                ask = rng.choice(containers)
                try:
                    expect = fg_value(spec, net, I, Ip)
                except EmptySumWithoutNeutral:
                    with pytest.raises(EmptySumWithoutNeutral):
                        f(ask(I), ask(Ip))
                    seen["no flow"] += 1
                    continue
                assert spec.equal(f(ask(I), ask(Ip)), expect)
    assert all(seen[key] > 20 for key in ("refused", "repeat", "complement", "no flow")), seen


# ---------------------------------------------------------------------------
# double flows

def _fig_double_flow():
    split = split_vertices(diamond_network())
    dfs = enumerate_double_flows(
        split, X=set(), Y={1, 2, 3}, Xp={1}, Yp={2}, A={1, 3}, Ap={2}
    )
    # pick the pair where phi routes via d and phi' via c (the drawn one)
    for df in dfs:
        phi_mid = {v for p in df.phi.paths for v in p}
        phip_mid = {v for p in df.phi_prime.paths for v in p}
        if "in:d" in phi_mid and "in:c" in phip_mid:
            return df
    raise AssertionError("expected double flow not found")


def test_double_flow_refuses_overlapping_sets_like_relations():
    df = _fig_double_flow()
    with pytest.raises(InconsistentSets, match="disjoint"):
        make_double_flow(df.split, {1}, {1, 2, 3}, {1}, {2}, df.A, df.Ap, df.phi, df.phi_prime)
    with pytest.raises(InconsistentSets, match="must equal"):
        make_double_flow(df.split, set(), {1, 2, 3}, set(), {2}, df.A, df.Ap,
                         df.phi, df.phi_prime)


def test_decomposition_of_drawn_instance():
    df = _fig_double_flow()
    dec = decompose_double_flow(df)
    assert dec.couples == (((LOWER, 1), (UPPER, 2)), ((LOWER, 2), (LOWER, 3)))
    assert len(dec.circuits) == 1  # the c/d diamond
    assert len(dec.paths) == (3 + 1) // 2


def test_exchange_of_drawn_instance():
    df = _fig_double_flow()
    # exchange along the source-source path: A = 13 -> B = 12
    new = exchange(df, [((LOWER, 2), (LOWER, 3))])
    assert sorted(new.A) == [1, 2] and sorted(new.Ap) == [2]
    psi_vertices = {v for p in new.phi.paths for v in p}
    assert {"src:1", "src:2", "in:d", "snk:1", "snk:2"} <= psi_vertices
    # exchange along the source-sink path: A = 13 -> B = 3
    new2 = exchange(df, [((LOWER, 1), (UPPER, 2))])
    assert sorted(new2.A) == [3] and sorted(new2.Ap) == []


def test_exchange_involution_and_conservation():
    df = _fig_double_flow()
    dec = decompose_double_flow(df)
    for couple in dec.couples:
        new = exchange(df, [couple])
        back = exchange(new, [couple])
        assert back.phi == df.phi and back.phi_prime == df.phi_prime
        before = Counter(list(df.phi.edges()) + list(df.phi_prime.edges()))
        after = Counter(list(new.phi.edges()) + list(new.phi_prime.edges()))
        assert before == after
        assert decompose_double_flow(new).matching == dec.matching
    assert exchange(df, []).phi == df.phi


def test_exchange_preserves_weight_product():
    split = split_vertices(diamond_network())
    rng = random.Random(31)
    weights = {
        e: rng.randint(1, 5)
        for e, cls in split.edge_class.items()
        if cls == "split"
    }
    net = PlanarNetwork(
        split.network.vertices,
        split.network.edges,
        split.network.sources,
        split.network.sinks,
        "edge",
        weights,
    )
    df = _fig_double_flow()
    dec = decompose_double_flow(df)
    def product(flow):
        return flow_weight(INTEGERS, net, flow)
    base = product(df.phi) * product(df.phi_prime)
    for couple in dec.couples:
        new = exchange(df, [couple])
        assert product(new.phi) * product(new.phi_prime) == base


def test_exchange_unknown_couple():
    df = _fig_double_flow()
    with pytest.raises(CoupleNotInMatching):
        exchange(df, [((LOWER, 1), (LOWER, 2))])


def test_empty_second_flow_decomposition():
    # A = Y, A' = Y': phi' is empty, the decomposition is phi itself
    net = build_gv_grid(2, 2)
    net = PlanarNetwork(
        net.vertices, net.edges, net.sources, net.sinks, "vertex",
        {v: 1 for v in net.vertices},
    )
    split = split_vertices(net)
    dfs = enumerate_double_flows(
        split, X=set(), Y={1, 2}, Xp=set(), Yp={1, 2}, A={1, 2}, Ap={1, 2}
    )
    assert dfs
    for df in dfs:
        assert df.phi_prime.paths == ()
        dec = decompose_double_flow(df)
        assert not dec.circuits
        assert dec.matching.verticals() == [(1, 1), (2, 2)]
        # the decomposition is phi's own path system (up to reversal)
        walked = {
            frozenset(frozenset(e) for e in zip(w, w[1:])) for w in dec.paths
        }
        assert walked == {
            frozenset(frozenset(e) for e in zip(p, p[1:])) for p in df.phi.paths
        }


def test_flow_json_round_trip():
    from helpers import flow_from_json, flow_to_json

    flows = enumerate_flows(build_grid(2, 2), [2], [2])
    for f in flows:
        assert flow_from_json(flow_to_json(f)) == f


def test_endpoint_classes_on_sweep():
    """Decomposition path endpoints never join S(Y-A) with T(A')."""
    net = diamond_network()
    split = split_vertices(net)
    from helpers import proper_pairs

    for A, Ap in proper_pairs({1, 2, 3}, {2}):
        for df in enumerate_double_flows(
            split, set(), {1, 2, 3}, {1}, {2}, A, Ap
        ):
            dec = decompose_double_flow(df)
            for (p, q) in dec.couples:
                sides = (p[0], q[0])
                white = (
                    p[1] in (A if p[0] == LOWER else Ap),
                    q[1] in (A if q[0] == LOWER else Ap),
                )
                if sides[0] == sides[1]:
                    assert white[0] != white[1]
                else:
                    assert white[0] == white[1]
