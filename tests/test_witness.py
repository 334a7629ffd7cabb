from collections import Counter

import pytest

from planarflows import INTEGERS, flows
from planarflows.errors import NotPlanarMatching, PatternsBalanced
from planarflows.flows import enumerate_flows, fg_value
from planarflows.network import PlanarNetwork, validate
from planarflows.patterns import (
    LOWER,
    UPPER,
    _normalize_pattern,
    embed_matching,
    feasible_matchings,
    one_pattern,
    stock_pattern,
    two_pattern,
)
from planarflows.witness import (
    audit_witness,
    build_witness_network,
    demonstrate_violation,
    find_discriminating_matching,
)

from helpers import (
    audit_by_masks,
    contexts_for,
    matching_from_parts,
    proper_pairs,
    random_unbalanced_patterns,
)


def test_find_discriminating_matching():
    a = one_pattern(3, 2, [{1, 3}])
    b = one_pattern(3, 2, [{1, 2}])
    matching, ca, cb = find_discriminating_matching(a, b)
    assert (ca, cb) == (1, 0)
    assert matching.lower_couples() == [(1, 2)]
    with pytest.raises(PatternsBalanced):
        find_discriminating_matching(*stock_pattern("p3"))


def test_dodgson_without_one_member():
    a0, b0 = stock_pattern("dodgson")
    b_smaller = two_pattern(2, 2, [({2}, {1})])  # drop the 12|12 member
    matching, ca, cb = find_discriminating_matching(a0, b_smaller)
    assert matching.verticals() == [(1, 1), (2, 2)]
    assert (ca, cb) == (1, 0)


def test_all_vertical_identity_matching():
    matching = matching_from_parts(vertical=[(1, 1), (2, 2), (3, 3)])
    wn = build_witness_network(set(), {1, 2, 3}, set(), {1, 2, 3}, matching)
    assert len(wn.network.edges) == 3
    assert all(cls == "v-edge" for cls in wn.edge_class.values())
    assert validate(wn.network)["ok"]


def test_drawn_seven_terminal_instance():
    matching = matching_from_parts(
        lower=[(1, 6), (2, 3), (4, 5)],
        upper=[(1, 2), (4, 7), (5, 6)],
        vertical=[(7, 3)],
    )
    Y = set(range(1, 8))
    wn = build_witness_network(set(), Y, set(), Y, matching)
    assert validate(wn.network)["ok"]
    # the long couple 16 subdivides into 5 interior vertices
    assert sorted(v for v in wn.network.vertices if v.startswith("L1.6.")) == [
        f"L1.6.{k}" for k in range(1, 6)
    ]
    # one middle bridge per lower couple
    b_chains = {
        e[0]
        for e, cls in wn.edge_class.items()
        if cls == "b-edge" and e[0].startswith("L")
    }
    assert len(b_chains) == 3


@pytest.mark.parametrize("X, Y, Xp, Yp, matching", [
    (set(), set(range(1, 8)), set(), set(range(1, 8)), matching_from_parts(
        lower=[(1, 6), (2, 3), (4, 5)], upper=[(1, 2), (4, 7), (5, 6)], vertical=[(7, 3)])),
    # 2 nests inside the lower couple 13; 1' is outermost on the upper side
    ({2}, {1, 3, 4}, {1}, {2, 3, 4}, matching_from_parts(
        lower=[(1, 3)], upper=[(2, 3)], vertical=[(4, 4)])),
])
def test_degree_law(X, Y, Xp, Yp, matching):
    wn = build_witness_network(X, Y, Xp, Yp, matching)
    net = wn.network
    thick = {"lower-bridge", "upper-bridge", "b-edge"}
    # Each element of X or X' is one terminal on one thick edge.
    x_terminals = [net.sources[e - 1] for e in X] + [net.sinks[e - 1] for e in Xp]
    for v in x_terminals:
        (edge,) = [e for e in net.edges if v in e]
        assert wn.edge_class[edge] in thick
    incoming = {v: [] for v in net.vertices}
    outgoing = {v: [] for v in net.vertices}
    for e in net.edges:
        outgoing[e[0]].append(e)
        incoming[e[1]].append(e)
    terminals = set(net.sources) | set(net.sinks)
    for v in net.vertices:
        ins, outs = incoming[v], outgoing[v]
        if v in terminals:
            assert len(ins) + len(outs) == 1
            continue
        assert len(ins) + len(outs) == 3
        thick_in = [e for e in ins if wn.edge_class[e] in thick]
        thick_out = [e for e in outs if wn.edge_class[e] in thick]
        assert (len(ins), len(outs)) in ((2, 1), (1, 2))
        if len(ins) == 2:
            assert not thick_in and len(thick_out) == 1
        else:
            assert not thick_out and len(thick_in) == 1


def test_flag_counterexample_network():
    a = one_pattern(3, 2, [{1, 3}])
    b = one_pattern(3, 2, [{1, 2}])
    res = demonstrate_violation(a, b, set(), {1, 2, 3}, {1}, {2})
    assert (res["lhs"], res["rhs"]) == (1, 0)
    net = res["network"].network
    f = lambda I, Ip: fg_value(INTEGERS, net, I, Ip)
    assert f([1, 3], [1, 2]) * f([2], [1]) == 1
    assert f([1, 2], [1, 2]) * f([3], [1]) == 0


def test_witness_with_shifted_ground_set():
    a = one_pattern(3, 2, [{1, 3}])
    b = one_pattern(3, 2, [{1, 2}])
    res = demonstrate_violation(a, b, {5}, {1, 2, 3}, {1, 3}, {2})
    assert (res["lhs"], res["rhs"]) == (1, 0)
    assert res["network"].network.n_sources == 5
    aud = audit_witness(res["network"], {5}, {1, 2, 3}, {1, 3}, {2})
    assert aud["ok"]


def test_dodgson_minus_member_counts():
    a0, _ = stock_pattern("dodgson")
    b_smaller = two_pattern(2, 2, [({2}, {1})])
    res = demonstrate_violation(a0, b_smaller, set(), {1, 2}, set(), {1, 2})
    assert res["lhs"] - res["rhs"] == 1  # the dropped member's multiplicity
    assert audit_witness(res["network"], set(), {1, 2}, set(), {1, 2})["ok"]


def test_witness_audits_with_doubling():
    pairs = random_unbalanced_patterns(77, 12)
    from planarflows.patterns import _normalize_pattern

    for a, b in pairs:
        shape = _normalize_pattern(a)
        for X, Y, Xp, Yp in contexts_for(shape.m, shape.m_prime):
            res = demonstrate_violation(a, b, X, Y, Xp, Yp)
            assert res["lhs"] == res["count_a"]
            assert res["rhs"] == res["count_b"]
            assert res["lhs"] != res["rhs"]
            assert validate(res["network"].network)["ok"]
            assert audit_witness(res["network"], X, Y, Xp, Yp)["ok"]


def test_unit_weight_values_are_zero_or_one():
    # p = q = 2, so the two-sided form has an empty Y' and X' = {1, 2}
    a = one_pattern(4, 2, [{1, 3}])
    b = one_pattern(4, 2, [{1, 2}])
    res = demonstrate_violation(a, b, set(), {1, 2, 3, 4}, {1, 2}, set())
    net = res["network"].network
    from itertools import combinations

    for k in range(0, 3):
        for I in combinations(range(1, 5), k):
            for Ip in combinations(range(1, 3), k):
                count = len(enumerate_flows(net, I, Ip))
                assert count in (0, 1)


def _placements(ny, nx):
    """(Y, X) with |Y| = ny and |X| = nx: X after Y, then X interleaved
    with Y (X on the even slots while both last)."""
    after = (frozenset(range(1, ny + 1)), frozenset(range(ny + 1, ny + nx + 1)))
    Y, X, slot = set(), set(), 1
    while len(Y) < ny or len(X) < nx:
        (X if len(X) < nx and (slot % 2 == 0 or len(Y) == ny) else Y).add(slot)
        slot += 1
    return [after, (frozenset(Y), frozenset(X))]


def test_every_feasible_matching_up_to_eight_points_builds_and_audits():
    builds = 0
    for total in range(0, 9, 2):
        for m in range(total + 1):
            mp = total - m
            Y0, Yp0 = range(1, m + 1), range(1, mp + 1)
            matchings = {M for A, Ap in proper_pairs(Y0, Yp0)
                         for M in feasible_matchings(Y0, Yp0, A, Ap)}
            # One spare element of X and X' beyond what balances the sizes.
            d = (m - mp) // 2
            for (Y, X), (Yp, Xp) in zip(_placements(m, max(0, -d) + 1),
                                        _placements(mp, max(0, d) + 1)):
                for M in sorted(matchings):
                    wn = build_witness_network(X, Y, Xp, Yp, embed_matching(M, Y, Yp))
                    assert validate(wn.network)["ok"]
                    assert audit_witness(wn, X, Y, Xp, Yp)["ok"]
                    builds += 1
    assert builds == 350


def test_thin_components_are_couple_paths():
    matching = matching_from_parts(
        lower=[(1, 4), (2, 3)], upper=[(1, 2), (3, 4)]
    )
    wn = build_witness_network(set(), {1, 2, 3, 4}, set(), {1, 2, 3, 4}, matching)
    thin = {"thin", "v-edge", "extra"}
    adjacent = {}
    for (a, b), cls in wn.edge_class.items():
        if cls in thin:
            adjacent.setdefault(a, set()).add(b)
            adjacent.setdefault(b, set()).add(a)
    # each component of these edges joins the two terminals of one couple
    terminals = set(wn.network.sources) | set(wn.network.sinks)
    ends = []
    unseen = set(adjacent)
    while unseen:
        stack = [unseen.pop()]
        component = set(stack)
        while stack:
            for u in adjacent[stack.pop()] - component:
                component.add(u)
                stack.append(u)
        unseen -= component
        ends.append(sorted(component & terminals))
    name = {LOWER: "s", UPPER: "t"}
    assert sorted(ends) == sorted(
        sorted(f"{name[side]}{e}" for side, e in couple) for couple in matching.couples
    )


def test_rejects_crossing_matching():
    bad = matching_from_parts(vertical=[(1, 2), (2, 1)])
    with pytest.raises(NotPlanarMatching):
        build_witness_network(set(), {1, 2}, set(), {1, 2}, bad)
    incomplete = matching_from_parts(vertical=[(1, 1)])
    with pytest.raises(NotPlanarMatching):
        build_witness_network(set(), {1, 2}, set(), {1, 2}, incomplete)


def test_audit_lists_the_cases_of_the_mask_loop_with_fresh_counts():
    for a, b in random_unbalanced_patterns(41, 16):
        shape = _normalize_pattern(a)
        for ctx in contexts_for(shape.m, shape.m_prime):
            wn = demonstrate_violation(a, b, *ctx)["network"]
            assert audit_witness(wn, *ctx) == audit_by_masks(wn, *ctx)


def test_a_witness_walks_each_flow_query_once(monkeypatch):
    """Both sides and the audit read the witness's one counter, so the audit's
    complementary pairs and the sides' terms are walked once between them."""
    walks = Counter()
    walk = flows._walk

    def counted(network, I, Iprime, *rest):
        walks[I, Iprime] += 1
        return walk(network, I, Iprime, *rest)

    monkeypatch.setattr(flows, "_walk", counted)
    for a, b in random_unbalanced_patterns(43, 8):
        shape = _normalize_pattern(a)
        for ctx in contexts_for(shape.m, shape.m_prime):
            walks.clear()
            result = demonstrate_violation(a, b, *ctx)
            sides = sum(walks.values())
            audit = audit_witness(result["network"], *ctx)
            assert audit["ok"] and sides and max(walks.values()) == 1
            assert sum(walks.values()) < 2 * len(audit["cases"]) + sides


def test_a_witness_is_peeled_once(monkeypatch):
    """``validate`` and the witness's counter read one cached peel, so each
    witness builds its successor lists once across the sides and the audit."""
    calls = Counter()
    successors = PlanarNetwork.successors

    def counted(network):
        calls[id(network)] += 1
        return successors(network)

    monkeypatch.setattr(PlanarNetwork, "successors", counted)
    for a, b in random_unbalanced_patterns(43, 8):
        shape = _normalize_pattern(a)
        for ctx in contexts_for(shape.m, shape.m_prime):
            calls.clear()
            result = demonstrate_violation(a, b, *ctx)
            assert audit_witness(result["network"], *ctx)["ok"]
            assert dict(calls) == {id(result["network"].network): 1}
