import random
from fractions import Fraction
from itertools import permutations

import pytest

from planarflows import INTEGERS, RATIONALS, TROPICAL_INT, polynomial_ring
from planarflows.errors import InconsistentSets, PatternsUnbalanced, RingRequired, SizeMismatch
from planarflows.lindstrom import (
    GadgetFactor,
    _assemble,
    adjacent_swap_gadget,
    check_matrix_sq,
    compile_matrix_to_network,
    exact_matrix,
    flow_matrix,
    matrix_from_json,
    minor,
    quasi_diagonal_gadget,
    verify_lindstrom,
)
from planarflows.flows import path_weight_sum
from planarflows.network import (
    PlanarNetwork,
    build_grid,
    build_gv_grid,
    build_half_grid,
    validate,
)
from planarflows.patterns import one_pattern, stock_pattern

from helpers import validate_oracle


def leibniz_det(rows):
    """Independent determinant oracle: signed permutation expansion."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_minor_basics():
    mat = exact_matrix(INTEGERS, [[1, 2], [3, 4]])
    assert minor(mat, [1, 2], [1, 2]) == -2
    assert minor(mat, [], []) == 1
    assert minor(mat, [2], [1]) == 2
    with pytest.raises(SizeMismatch):
        minor(mat, [1], [1, 2])
    with pytest.raises(RingRequired):
        minor(exact_matrix(__import__("planarflows").TROPICAL_INT, [[1]]), [1], [1])


def test_minor_matches_leibniz():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        mat = exact_matrix(INTEGERS, rows)
        assert minor(mat, range(1, n + 1), range(1, n + 1)) == leibniz_det(rows)
    mat = exact_matrix(INTEGERS, [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
    sub = [[mat.entry(2, 1), mat.entry(2, 3)], [mat.entry(3, 1), mat.entry(3, 3)]]
    assert minor(mat, [1, 3], [2, 3]) == leibniz_det(sub)
    # k up to 6 on scattered rows and columns of a rectangular matrix
    rows = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(8)]
    mat = exact_matrix(INTEGERS, rows)
    for k in range(1, 7):
        for _ in range(3):
            I, Ip = sorted(rng.sample(range(1, 10), k)), sorted(rng.sample(range(1, 9), k))
            sub = [[rows[j - 1][i - 1] for i in I] for j in Ip]
            assert minor(mat, I, Ip) == leibniz_det(sub)


def test_flow_matrix_binomials():
    g = build_grid(4, 4).unit_weights(INTEGERS)
    fm = flow_matrix(g, INTEGERS)
    from math import comb

    for j in range(1, 5):
        for i in range(1, 5):
            assert fm.entry(j, i) == comb(i + j - 2, i - 1)
    # total nonnegativity of the unit grid
    from itertools import combinations

    for k in range(1, 5):
        for I in combinations(range(1, 5), k):
            for Ip in combinations(range(1, 5), k):
                assert minor(fm, I, Ip) >= 0


def test_flow_matrix_zero_entry():
    from planarflows.network import PlanarNetwork

    F = Fraction
    verts = {"s1": (F(0), F(0)), "s2": (F(1), F(0)), "t1": (F(0), F(1)), "t2": (F(1), F(1))}
    net = PlanarNetwork(
        verts, (("s1", "t1"),), ("s1", "s2"), ("t1", "t2"), "vertex",
        {v: 1 for v in verts},
    )
    fm = flow_matrix(net, INTEGERS)
    assert fm.entry(1, 1) == 1 and fm.entry(2, 2) == 0


def test_half_grid_symbolic_flag_minors():
    h = build_half_grid(3)
    ring = polynomial_ring(*[f"w_{v}" for v in h.vertices])
    net = h.with_vertex_weights({v: ring.var(k) for k, v in enumerate(h.vertices)})
    fm = flow_matrix(net, ring)
    for p in range(1, 4):
        for q in range(p, 4):
            I = list(range(p, q + 1))
            Ip = list(range(1, len(I) + 1))
            rect = [
                f"{i},{j}"
                for i in range(1, q + 1)
                for j in range(1, min(i, q - p + 1) + 1)
            ]
            expect = ring.one()
            for v in rect:
                expect = ring.mul(expect, net.weights[v])
            assert minor(fm, I, Ip) == expect


def test_verify_lindstrom_corpus():
    rng = random.Random(6)
    ring = polynomial_ring(*[f"w{k}" for k in range(16)])
    corpus = [build_grid(3, 3), build_half_grid(4), build_grid(4, 2)]
    for net in corpus:
        ints = net.with_vertex_weights(
            {v: rng.randint(-3, 3) for v in net.vertices}
        )
        assert verify_lindstrom(ints, INTEGERS)["ok"]
    sym = build_grid(3, 3)
    sym = sym.with_vertex_weights(
        {v: ring.var(k) for k, v in enumerate(sym.vertices)}
    )
    assert verify_lindstrom(sym, ring)["ok"]


def test_identity_compiles_to_parallel_edges():
    eye = exact_matrix(
        RATIONALS,
        [[Fraction(int(i == j)) for j in range(3)] for i in range(3)],
    )
    net, chain = compile_matrix_to_network(eye)
    assert len(chain.factors) == 1
    assert chain.factors[0].kind == "quasi-diagonal"
    assert len(net.edges) == 3


def test_swap_gadget_flow_matrix():
    g = adjacent_swap_gadget(3, 1, RATIONALS)
    fm = flow_matrix(g, RATIONALS)
    assert fm.entries == (
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    # Lindstrom on the lone gadget via explicit flow enumeration
    assert verify_lindstrom(g, RATIONALS)["ok"]


def test_compiler_round_trip_random():
    rng = random.Random(77)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nc)]
            for _ in range(nr)
        ]
        mat = exact_matrix(RATIONALS, rows)
        net, chain = compile_matrix_to_network(mat)
        assert chain.product_matrix().entries == mat.entries
        assert flow_matrix(net, RATIONALS).entries == mat.entries
        assert validate(net)["ok"]


def test_compiler_handles_rank_deficiency():
    mat = exact_matrix(
        RATIONALS,
        [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],
    )
    net, chain = compile_matrix_to_network(mat)
    assert flow_matrix(net, RATIONALS).entries == mat.entries
    zero = exact_matrix(RATIONALS, [[Fraction(0)] * 3 for _ in range(2)])
    net, _ = compile_matrix_to_network(zero)
    assert flow_matrix(net, RATIONALS).entries == zero.entries


def _random_matrix(rng, n_rows, n_cols, density=1.0):
    return exact_matrix(RATIONALS, [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < density
         else Fraction(0) for _ in range(n_cols)]
        for _ in range(n_rows)
    ])


def test_compiled_networks_add_a_bounded_number_of_vertices_per_factor():
    # Sources, at most three vertices per factor, the quasi-diagonal row and
    # one sink per wire that ends below the top row.
    rng = random.Random(41)
    for _ in range(20):
        nr, nc = rng.randint(3, 6), rng.randint(3, 6)
        net, chain = compile_matrix_to_network(_random_matrix(rng, nr, nc, rng.random()))
        assert len(net.vertices) <= nc + 2 * nr + 3 * len(chain.factors)
        assert all(v == f"{x},{y}" for v, (x, y) in net.vertices.items())


def test_neville_elimination_emits_at_most_one_factor_per_entry():
    # Each pivot column is moved at most once and each cleared entry costs
    # one adjacent factor: F <= 1 + 2nn' on any n'×n matrix, sparse,
    # rectangular or rank-deficient, whose network still realizes it and is
    # planar by the all-pairs oracle.
    rng = random.Random(43)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        mats = [_random_matrix(rng, nr, nc, rng.random()),
                exact_matrix(RATIONALS, [[Fraction(0)] * nc for _ in range(nr)])]
        col, row = _random_matrix(rng, nr, 1).entries, _random_matrix(rng, 1, nc).entries[0]
        mats.append(exact_matrix(RATIONALS, [[a * b for b in row] for (a,) in col]))
        for mat in mats:
            net, chain = compile_matrix_to_network(mat)
            assert len(chain.factors) <= 1 + 2 * nr * nc
            assert chain.product_matrix().entries == mat.entries
            assert flow_matrix(net, RATIONALS).entries == mat.entries
            report = validate(net)
            assert report["ok"] and report == validate_oracle(net)
    # A dense square matrix with nonzero entries: n(n-1)/2 lower and n(n-1)/2
    # upper factors and the diagonal.
    for n in range(3, 9):
        rows = [[Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                 for _ in range(n)] for _ in range(n)]
        _, chain = compile_matrix_to_network(exact_matrix(RATIONALS, rows))
        assert len(chain.factors) <= n * (n - 1) + 1


@pytest.mark.parametrize("kind", ["swap", "add", "upper-add"])
def test_each_gadget_realizes_its_factor_matrix(kind):
    for r in range(2, 6):
        for i in range(1, r):
            factor = GadgetFactor(kind, (r, r), i, None if kind == "swap" else Fraction(-3, 2))
            net = _assemble([factor], RATIONALS)
            assert flow_matrix(net, RATIONALS).entries == factor.matrix.entries
            assert validate(net)["ok"]
            assert verify_lindstrom(net, RATIONALS)["ok"]


def test_compiled_rectangular_and_rank_deficient_networks_satisfy_lindstrom():
    rng = random.Random(42)
    mats = [_random_matrix(rng, nr, nc) for nr, nc in ((1, 4), (4, 1), (2, 4), (4, 3), (3, 2))]
    mats += [_random_matrix(rng, nr, nc, 0.4) for nr, nc in ((3, 3), (4, 4), (2, 3))]
    row = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(4)]
    mats.append(exact_matrix(RATIONALS, [[k * v for v in row] for k in (1, -2, 0, 3)]))
    mats.append(exact_matrix(RATIONALS, [[Fraction(0)] * 3 for _ in range(4)]))
    for mat in mats:
        net, _ = compile_matrix_to_network(mat)
        assert flow_matrix(net, RATIONALS).entries == mat.entries
        assert verify_lindstrom(net, RATIONALS)["ok"]


def test_check_matrix_sq_dodgson():
    rng = random.Random(30)
    a0, b0 = stock_pattern("dodgson")
    for _ in range(10):
        mat = exact_matrix(
            INTEGERS, [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        )
        out = check_matrix_sq(mat, a0, b0, {2}, {1, 3}, {2}, {1, 3})
        assert out["equal"]
        # Desnanot-Jacobi, spelled out
        f = lambda I, Ip: minor(mat, I, Ip)
        assert f([1, 2], [1, 2]) * f([2, 3], [2, 3]) == (
            f([1, 2, 3], [1, 2, 3]) * f([2], [2]) + f([2, 3], [1, 2]) * f([1, 2], [2, 3])
        )


def test_check_matrix_sq_p4_and_homogeneous():
    rng = random.Random(31)
    a0, b0 = stock_pattern("p4")
    for _ in range(5):
        mat = exact_matrix(
            INTEGERS, [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        )
        assert check_matrix_sq(
            mat, a0, b0, set(), {1, 2, 3, 4}, {1, 2}, set()
        )["equal"]
    a0, b0 = stock_pattern("homogeneous3")
    for _ in range(5):
        mat = exact_matrix(
            INTEGERS, [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        )
        assert check_matrix_sq(
            mat, a0, b0, {4}, {1, 2, 3}, {1}, {2, 3, 4}
        )["equal"]


def test_check_matrix_sq_refuses_overlapping_sets():
    mat = exact_matrix(INTEGERS, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    a0, b0 = stock_pattern("dodgson")
    with pytest.raises(InconsistentSets):
        check_matrix_sq(mat, a0, b0, {2}, {2, 3}, {2}, {1, 3})


def test_check_matrix_sq_refuses_unbalanced():
    mat = exact_matrix(INTEGERS, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    a = one_pattern(3, 2, [{1, 3}])
    b = one_pattern(3, 2, [{1, 2}])
    with pytest.raises(PatternsUnbalanced):
        check_matrix_sq(mat, a, b, set(), {1, 2, 3}, {1}, {2})


def test_matrix_json():
    mat = exact_matrix(RATIONALS, [[Fraction(1, 2), Fraction(3)]])
    data = mat.to_json()
    assert data["entries"] == [["1/2", 3]]
    assert matrix_from_json(data, RATIONALS).entries == mat.entries


def test_quasi_diagonal_respects_terminal_order():
    g = quasi_diagonal_gadget([Fraction(2)], 3, 1)
    assert validate(g)["ok"]
    fm = flow_matrix(g, RATIONALS)
    assert fm.entries == ((Fraction(2), Fraction(0), Fraction(0)),)


def _path_sum_matrix(net, spec):
    return tuple(
        tuple(path_weight_sum(spec, net, i, j) for i in range(1, net.n_sources + 1))
        for j in range(1, net.n_sinks + 1)
    )


def test_flow_matrix_matches_path_weight_sums():
    rng = random.Random(12)
    nets = []
    for net in (build_grid(4, 3), build_grid(2, 5), build_half_grid(4), build_half_grid(5)):
        nets.append((net.with_vertex_weights(
            {v: rng.randint(-3, 3) for v in net.vertices}), INTEGERS))
    ring = polynomial_ring("x1", "x2", "x3")
    gv = build_gv_grid(3, 4, {h: ring.var(h - 1) for h in (1, 2, 3)})
    assert len(gv.weights) < len(gv.edges)  # vertical edges weigh one
    nets.append((gv, ring))
    for n in (3, 4, 5):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        nets.append((compile_matrix_to_network(exact_matrix(RATIONALS, rows))[0], RATIONALS))
    # s1 -> s2 -> t1 -> t2: paths pass through other terminals.
    F = Fraction
    chain = PlanarNetwork(
        {"s1": (F(0), F(0)), "s2": (F(1), F(0)), "t1": (F(1), F(1)), "t2": (F(0), F(1))},
        (("s1", "s2"), ("s2", "t1"), ("t1", "t2")),
        ("s1", "s2"), ("t1", "t2"), "vertex", {"s1": 2, "s2": 3, "t1": 5, "t2": 7},
    )
    assert flow_matrix(chain, INTEGERS).entries == ((30, 15), (210, 105))
    nets.append((chain, INTEGERS))
    # A dead end with no weight: no source-to-sink path uses it.
    grid = build_grid(3, 3)
    nets.append((PlanarNetwork(
        {**grid.vertices, "dead": (F(5), F(5))}, grid.edges + (("2,2", "dead"),),
        grid.sources, grid.sinks, "vertex", {v: rng.randint(1, 3) for v in grid.vertices},
    ), INTEGERS))
    for net, spec in nets:
        assert flow_matrix(net, spec).entries == _path_sum_matrix(net, spec)
    with pytest.raises(RingRequired):
        flow_matrix(chain, TROPICAL_INT)


def test_a_40x40_matrix_compiles_to_a_valid_network_that_realizes_it():
    rng = random.Random(88)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(40)]
            for _ in range(40)]
    mat = exact_matrix(RATIONALS, rows)
    net, _ = compile_matrix_to_network(mat)
    assert len(net.edges) > 3000
    assert flow_matrix(net, RATIONALS).entries == mat.entries
    assert validate(net)["ok"]
