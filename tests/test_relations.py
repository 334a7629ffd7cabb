import gc
import random
from fractions import Fraction
from itertools import combinations
from types import FunctionType, ModuleType

import pytest

from planarflows import INTEGERS, RATIONALS, TROPICAL_INT, polynomial_ring, relations
from planarflows.errors import BadInput, InconsistentSets, RingRequired
from planarflows.flows import fg_value
from planarflows.lindstrom import (
    compile_matrix_to_network,
    exact_matrix,
    minor,
)
from planarflows.network import PlanarNetwork, build_grid, build_half_grid
from planarflows.patterns import embed_two, one_pattern, stock_pattern
from planarflows.relations import (
    InstanceConfig,
    RelationInstance,
    evaluate_sq,
    verify_symbolic,
)
from planarflows.schur import gv_grid, verify_schur_identity

from helpers import (
    flag_manifold_relation,
    random_balanced_patterns,
    random_unbalanced_patterns,
    substitute,
    unit_weights,
)


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
    net = unit_weights(diamond_network(), TROPICAL_INT)
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


def _p3_half_grid_instances():
    """Every p3 placement on the half-grids of sizes 3 to 5: 49 entries on
    three network objects."""
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
    return instances


def test_verify_symbolic_p3_all_half_grids():
    a0, b0 = stock_pattern("p3")
    instances = _p3_half_grid_instances()
    report = verify_symbolic(a0, b0, instances=instances)
    assert report["all_equal"]
    assert len(report["cases"]) == len(instances)


def test_explicit_instances_on_one_network_share_its_ring(monkeypatch):
    rings = []
    polynomial_ring = relations.sr.polynomial_ring

    def counting(*variables):
        rings.append(variables)
        return polynomial_ring(*variables)

    monkeypatch.setattr(relations.sr, "polynomial_ring", counting)
    a0, b0 = stock_pattern("p3")
    instances = _p3_half_grid_instances()
    shared = verify_symbolic(a0, b0, instances=instances)
    assert len(instances) == 49 and len(rings) == 3
    # A copy of the network per entry gets a ring per entry, and the same report.
    rings.clear()
    copies = [(PlanarNetwork(net.vertices, net.edges, net.sources, net.sinks), *sets)
              for net, *sets in instances]
    assert verify_symbolic(a0, b0, instances=copies) == shared
    assert len(rings) == 49


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


@pytest.mark.parametrize("kind, half_grid_vertices, Xp", [
    ("rowdecomposition3", 6, []),  # m = m' = 3: the half-grid of size 3
    ("dodgson", 3, []),
    ("p4", 10, [1, 2]),  # m' = 0: X' takes the first m // 2 sinks
])
def test_verify_symbolic_default_config_ends_on_a_half_grid(kind, half_grid_vertices, Xp):
    a0, b0 = stock_pattern(kind)
    report = verify_symbolic(a0, b0)
    assert report["all_equal"]
    assert len(report["cases"]) == 4
    last = report["cases"][-1]
    assert last["network_vertices"] == half_grid_vertices
    assert (last["X"], last["Y"], last["Xprime"]) == ([], list(range(1, a0.m + 1)), Xp)


@pytest.mark.parametrize("config, instances, field", [
    (InstanceConfig(max_cases=0), None, "max_cases"),
    (InstanceConfig(max_cases=-1), None, "max_cases"),
    (None, [], "instances"),
])
def test_verify_symbolic_refuses_a_check_with_no_cases(config, instances, field):
    for a, b in [stock_pattern("p3")] + random_unbalanced_patterns(5, 3):
        with pytest.raises(BadInput, match=f"^{field}: "):
            verify_symbolic(a, b, config, instances)


def test_pairs_of_one_shape_share_the_generic_instances(monkeypatch):
    seen = []

    def recording(ri, spec, network):
        seen.append(network)
        return evaluate_sq(ri, spec, network)

    monkeypatch.setattr(relations, "evaluate_sq", recording)
    a0, b0 = stock_pattern("p3")
    config = InstanceConfig(max_cases=3)
    assert verify_symbolic(a0, b0, config)["all_equal"]
    first = list(seen)
    seen.clear()
    assert verify_symbolic(b0, a0, config)["all_equal"]
    assert len(first) == 3 and all(x is y for x, y in zip(first, seen, strict=True))


def test_reports_are_the_same_with_the_instance_cache_cold_and_warm():
    config = InstanceConfig(max_cases=3, vertex_budget=20)
    pairs = random_balanced_patterns(17, 4) + random_unbalanced_patterns(17, 4)
    for a, b in pairs + [stock_pattern("rowdecomposition3")]:
        for cfg in (config, None):
            relations._default_generic.cache_clear()
            cold = verify_symbolic(a, b, cfg)
            assert verify_symbolic(a, b, cfg) == cold
    assert any(not verify_symbolic(a, b, config)["all_equal"] for a, b in pairs)


def _reachable(roots):
    """Everything reachable from ``roots`` through containers and instance
    fields, not through classes, modules or functions."""
    stack, seen = list(roots), {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return seen.values()


def test_the_instance_caches_hold_no_flow_values():
    a0, b0 = stock_pattern("dodgson")
    assert verify_symbolic(a0, b0)["all_equal"]
    assert verify_schur_identity("tworow", (1, 2, 3, 4), 3)["equal"]
    roots = [relations._default_generic(a0.m, a0.m_prime, InstanceConfig()), gv_grid(3, 5)]
    kinds = {type(obj).__name__ for obj in _reachable(roots)}
    assert {"PlanarNetwork", "PolynomialRing", "Polynomial"} <= kinds
    assert "FlowFunction" not in kinds


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
        assert res["lhs"] == substitute(sym["lhs"], values)
        assert res["rhs"] == substitute(sym["rhs"], values)


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
