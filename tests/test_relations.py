import random
from fractions import Fraction
from itertools import combinations

import pytest

from planarflows import INTEGERS, RATIONALS, TROPICAL_INT, polynomial_ring
from planarflows.errors import InconsistentSets, RingRequired
from planarflows.flows import fg_value
from planarflows.lindstrom import (
    compile_matrix_to_network,
    exact_matrix,
    minor,
)
from planarflows.network import build_grid, build_half_grid
from planarflows.patterns import embed_two, one_pattern, stock_pattern
from planarflows.relations import (
    InstanceConfig,
    RelationInstance,
    evaluate_sq,
    flag_manifold_relation,
    verify_symbolic,
)

from helpers import random_balanced_patterns


def test_relation_instance_validation():
    with pytest.raises(InconsistentSets):
        RelationInstance({1}, {1, 2}, set(), {1}, {}, {})
    with pytest.raises(InconsistentSets):
        RelationInstance({1}, {1, 2}, set(), {1, 2, 3, 4}, {}, {})


def test_dodgson_on_compiled_matrix_network():
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    mat = exact_matrix(RATIONALS, [[a, b], [c, d]])
    net, _ = compile_matrix_to_network(mat)
    a0, b0 = stock_pattern("dodgson")
    ri = RelationInstance(
        set(),
        {1, 2},
        set(),
        {1, 2},
        embed_two(a0, [1, 2], [1, 2]),
        embed_two(b0, [1, 2], [1, 2]),
    )
    result = evaluate_sq(ri, RATIONALS, net)
    assert result["equal"]
    assert result["lhs"] == a * d
    assert result["rhs"] == (a * d - b * c) + c * b


def test_p3_tropical_on_half_grid():
    rng = random.Random(8)
    h = build_half_grid(3)
    net = h.with_vertex_weights({v: rng.randint(-9, 9) for v in h.vertices})
    a0, b0 = stock_pattern("p3")
    ri = RelationInstance(
        set(),
        {1, 2, 3},
        {1},
        {2},
        embed_two(a0, [1, 2, 3], [2]),
        embed_two(b0, [1, 2, 3], [2]),
    )
    result = evaluate_sq(ri, TROPICAL_INT, net)
    assert result["equal"]
    # brute check of the tropical three-term law
    f = lambda I, Ip: fg_value(TROPICAL_INT, net, I, Ip)
    assert f([1, 3], [1, 2]) + f([2], [1]) == max(
        f([1, 2], [1, 2]) + f([3], [1]), f([2, 3], [1, 2]) + f([1], [1])
    )


def test_star_wrapping_for_semirings_without_zero():
    from helpers import diamond_network
    from planarflows.semiring import STAR

    # sink 3 is unreachable, so tropical evaluation needs the star wrapper
    net = diamond_network().unit_weights(TROPICAL_INT)
    a0 = one_pattern(3, 2, [{1, 3}])
    ri = RelationInstance(
        set(),
        {1, 2, 3},
        {1},
        {3},
        embed_two(a0, [1, 2, 3], [3]),
        embed_two(a0, [1, 2, 3], [3]),
    )
    result = evaluate_sq(ri, TROPICAL_INT, net)
    assert result["spec"].name == "star[tropical-int]"
    assert result["lhs"] is STAR and result["equal"]


def test_verify_symbolic_p3_all_half_grids():
    a0, b0 = stock_pattern("p3")
    instances = []
    for n in range(3, 6):
        net = build_half_grid(n)
        for Y in combinations(range(1, n + 1), 3):
            rest = [x for x in range(1, n + 1) if x not in Y]
            for kx in range(0, len(rest) + 1):
                for X in combinations(rest, kx):
                    r = 1  # min(p, q) for p = 2, q = 1
                    Xp = frozenset(range(1, len(X) + r + 1))
                    Yp = frozenset({len(X) + r + 1})
                    instances.append(
                        (net, frozenset(X), frozenset(Y), Xp, Yp)
                    )
    report = verify_symbolic(a0, b0, instances=instances)
    assert report["all_equal"]
    assert len(report["cases"]) == len(instances)


def test_verify_symbolic_refuses_patterns_on_different_shapes():
    a0, _ = stock_pattern("p3")
    d0, _ = stock_pattern("dodgson")
    with pytest.raises(InconsistentSets):
        verify_symbolic(a0, d0, instances=[])


def test_verify_symbolic_p4_and_homogeneous():
    a0, b0 = stock_pattern("p4")
    net = build_half_grid(5)
    Xp = frozenset({1, 2})
    instances = [
        (net, frozenset(), frozenset(Y), Xp, frozenset())
        for Y in combinations(range(1, 6), 4)
    ]
    assert verify_symbolic(a0, b0, instances=instances)["all_equal"]
    a0, b0 = stock_pattern("homogeneous3")
    grid = build_grid(4, 4)
    instances = [
        (grid, frozenset({4}), frozenset({1, 2, 3}), frozenset({1}), frozenset({2, 3, 4}))
    ]
    assert verify_symbolic(a0, b0, instances=instances)["all_equal"]


def test_verify_symbolic_default_instances():
    for kind in ("p3", "dodgson", "rowdecomposition3"):
        a0, b0 = stock_pattern(kind)
        report = verify_symbolic(a0, b0, InstanceConfig(max_cases=3))
        assert report["all_equal"]
        assert all(c["network_vertices"] <= 25 for c in report["cases"])


def test_soundness_on_random_balanced_sample():
    pairs = random_balanced_patterns(99, 12)
    cfg = InstanceConfig(max_cases=2)
    for a, b in pairs:
        assert verify_symbolic(a, b, cfg)["all_equal"]


def test_integer_substitution_matches_symbolic():
    rng = random.Random(5)
    a0, b0 = stock_pattern("p3")
    net = build_half_grid(3)
    ring = polynomial_ring(*[f"w_{v}" for v in net.vertices])
    weighted = net.with_vertex_weights(
        {v: ring.var(k) for k, v in enumerate(net.vertices)}
    )
    ri = RelationInstance(
        set(),
        {1, 2, 3},
        {1},
        {2},
        embed_two(a0, [1, 2, 3], [2]),
        embed_two(b0, [1, 2, 3], [2]),
    )
    sym = evaluate_sq(ri, ring, weighted)
    for _ in range(5):
        values = [rng.randint(-4, 4) for _ in net.vertices]
        int_net = net.with_vertex_weights(
            {v: values[k] for k, v in enumerate(net.vertices)}
        )
        res = evaluate_sq(ri, INTEGERS, int_net)
        assert res["lhs"] == sym["lhs"].substitute(values)
        assert res["rhs"] == sym["rhs"].substitute(values)


def test_flag_manifold_relation():
    rng = random.Random(10)
    m4 = exact_matrix(
        INTEGERS, [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
    )

    def flag_minors(matrix):  # S -> det of columns S, rows 1..|S|
        return lambda S: minor(matrix, S, range(1, len(S) + 1))

    f = flag_minors(m4)
    assert flag_manifold_relation(f, {1, 2}, {3}, {3}, INTEGERS)["equal"]
    assert flag_manifold_relation(f, {1, 4}, {2, 3}, {2, 3}, INTEGERS)["equal"]
    m5 = exact_matrix(
        INTEGERS, [[rng.randint(-5, 5) for _ in range(5)] for _ in range(5)]
    )
    assert flag_manifold_relation(
        flag_minors(m5), {1, 3, 5}, {2, 4}, {2}, INTEGERS
    )["equal"]
    with pytest.raises(RingRequired):
        flag_manifold_relation(f, {1, 2}, {3}, {3}, TROPICAL_INT)
    with pytest.raises(InconsistentSets):
        flag_manifold_relation(f, {1}, {2, 3}, {2}, INTEGERS)
