import random

import pytest

from helpers import (
    NotAFlow,
    NotSemistandard,
    count_flows,
    flow_to_tableau,
    set_to_partition,
    tableau_poly,
    tableau_to_flow,
)
from planarflows.errors import BadLength, BadParams
from planarflows.flows import fg_value
from planarflows.lindstrom import flow_matrix, minor
from planarflows.schur import (
    Partition,
    gv_grid,
    partition_to_set,
    schur_poly,
    ssyt_fillings,
    verify_schur_identity,
)


def all_partitions_inside(box, length):
    """Partitions with ``length`` parts, each at most box, weakly decreasing."""
    if length == 0:
        yield ()
        return
    for first in range(box, -1, -1):
        for rest in all_partitions_inside(first, length - 1):
            yield (first,) + rest


def test_partition_set_correspondence():
    assert partition_to_set(Partition((6, 5, 3, 3, 2)), 5) == frozenset({3, 5, 6, 9, 11})
    assert partition_to_set(Partition((2, 2, 1, 1, 0)), 5) == frozenset({1, 3, 4, 6, 7})
    assert partition_to_set(Partition((0, 0, 0)), 3) == frozenset({1, 2, 3})
    with pytest.raises(BadLength):
        partition_to_set(Partition((1, 1)), 3)
    rng = random.Random(2)
    for _ in range(100):
        r = rng.randint(1, 5)
        parts = sorted((rng.randint(0, 6) for _ in range(r)), reverse=True)
        lam = Partition(tuple(parts))
        assert set_to_partition(partition_to_set(lam, r), r).parts == lam.parts


def test_schur_poly_basics():
    val, ring = schur_poly(Partition((1,)), None, 4)
    ones = [
        m for m in val.terms if sum(m) == 1
    ]
    assert len(ones) == 4 and all(c == 1 for c in val.terms.values())
    val, _ = schur_poly(Partition((2, 1)), None, 3)
    assert sum(val.terms.values()) == 8  # eight tableaux
    assert val.terms[(1, 1, 1)] == 2
    val, ring = schur_poly(Partition((0, 0)), None, 3)
    assert val == ring.one()


def test_schur_poly_is_symmetric():
    rng = random.Random(4)
    lam = Partition((3, 1))
    val, _ = schur_poly(lam, None, 3)
    for _ in range(5):
        i, j = rng.sample(range(3), 2)
        swapped = {}
        for exps, coeff in val.terms.items():
            e = list(exps)
            e[i], e[j] = e[j], e[i]
            swapped[tuple(e)] = coeff
        assert swapped == val.terms


def test_displayed_tableau_flow():
    lam, mu = Partition((6, 5, 3, 3, 2)), Partition((2, 2, 1, 1, 0))
    rows = [[1, 3, 3, 5], [2, 4, 4], [1, 3], [2, 6], [2, 5]]
    flow = tableau_to_flow(lam, mu, rows, 6)
    assert flow.source_idx == (1, 3, 4, 6, 7)
    assert flow.sink_idx == (3, 5, 6, 9, 11)
    # P_1 carries row 5 = [2, 5]: one horizontal step at levels 2 and 5
    levels = [
        a.split(",")[1]
        for a, b in zip(flow.paths[0], flow.paths[0][1:])
        if a.split(",")[1] == b.split(",")[1]
    ]
    assert levels == ["2", "5"]
    lam2, mu2, rows2 = flow_to_tableau(flow, 6)
    assert (lam2.parts, mu2.parts, rows2) == (lam.parts, mu.parts, rows)


def test_round_trip_exhaustive_small_shapes():
    for N in (2, 3):
        for lam in all_partitions_inside(2, 2):
            for mu in all_partitions_inside(2, 2):
                if any(m > l for m, l in zip(mu, lam)):
                    continue
                lam_p, mu_p = Partition(lam), Partition(mu)
                for filling in ssyt_fillings(lam_p, mu_p, N):
                    rows = [
                        [filling[(r, c)] for c in range(mu[r - 1] + 1, lam[r - 1] + 1)]
                        for r in range(1, 3)
                    ]
                    flow = tableau_to_flow(lam_p, mu_p, rows, N)
                    lam2, mu2, rows2 = flow_to_tableau(flow, N)
                    assert (lam2.parts, mu2.parts, rows2) == (lam, mu, rows)
        # and the reverse direction: every flow is hit exactly once
        net, _ = gv_grid(N, 4)
        from planarflows.flows import enumerate_flows

        lam_p, mu_p = Partition((2, 1)), Partition((0, 0))
        I = sorted(partition_to_set(mu_p, 2))
        Ip = sorted(partition_to_set(lam_p, 2))
        flows = enumerate_flows(net, I, Ip)
        seen = set()
        for flow in flows:
            lam2, mu2, rows2 = flow_to_tableau(flow, N)
            key = (lam2.parts, mu2.parts, tuple(map(tuple, rows2)))
            assert key not in seen
            seen.add(key)
            assert tableau_to_flow(lam2, mu2, rows2, N) == flow
        assert len(seen) == sum(1 for _ in ssyt_fillings(lam_p, mu_p, N))


def test_single_cell_tableau():
    flow = tableau_to_flow(Partition((1,)), Partition((0,)), [[1]], 2)
    horizontal = [
        (a, b)
        for a, b in zip(flow.paths[0], flow.paths[0][1:])
        if a.split(",")[1] == b.split(",")[1]
    ]
    assert len(horizontal) == 1
    assert horizontal[0][0].split(",")[1] == "1"


def test_bijection_counts_small():
    for N in (0, 1, 2, 3):
        for lam in all_partitions_inside(3, 3):
            for mu in all_partitions_inside(3, 3):
                if any(m > l for m, l in zip(mu, lam)):
                    continue
                tabs = sum(1 for _ in ssyt_fillings(Partition(lam), Partition(mu), N))
                flows = count_flows(Partition(lam), Partition(mu), N)
                assert tabs == flows, (lam, mu, N)


def test_skew_schur_equals_flow_value():
    for lam, mu, N in [
        ((2, 1), (0, 0), 2),
        ((3, 2), (1, 0), 3),
        ((3, 3, 1), (2, 1, 0), 3),
    ]:
        lam_p, mu_p = Partition(lam), Partition(mu)
        r = lam_p.length
        net, ring = gv_grid(N, lam[0] + r)
        direct = fg_value(
            ring,
            net,
            sorted(partition_to_set(mu_p, r)),
            sorted(partition_to_set(lam_p, r)),
        )
        assert direct == tableau_poly(lam_p, mu_p, N)


def test_schur_poly_equals_the_tableau_polynomial():
    cases = 0
    for r in (1, 2, 3):
        for lam in all_partitions_inside(4, r):
            for mu in all_partitions_inside(4, r):
                if any(m > l for m, l in zip(mu, lam)):
                    continue
                for N in range(5):
                    val, _ = schur_poly(lam, mu, N)
                    assert val == tableau_poly(lam, mu, N), (lam, mu, N)
                    cases += 1
    assert cases == 3050


def test_tableau_enumeration_depth_does_not_grow_the_call_stack():
    assert list(ssyt_fillings((1200,), (0,), 1)) == [
        {(1, col): 1 for col in range(1, 1201)}
    ]


def test_a_lattice_is_built_once_per_size():
    assert gv_grid(3, 5) is gv_grid(3, 5)
    assert gv_grid(3, 5) is not gv_grid(3, 6)


def test_jacobi_trudi_via_flow_matrix():
    N = 3
    net, ring = gv_grid(N, 6)
    fm = flow_matrix(net, ring)
    for lam, mu in [((2, 1), (0, 0)), ((2, 2), (1, 0))]:
        lam_p, mu_p = Partition(lam), Partition(mu)
        I = sorted(partition_to_set(mu_p, 2))
        Ip = sorted(partition_to_set(lam_p, 2))
        expect, _ = schur_poly(lam_p, mu_p, N)
        assert minor(fm, I, Ip) == expect


def test_two_row_identity():
    assert verify_schur_identity("tworow", [1, 2, 2, 3], 3)["equal"]
    assert verify_schur_identity("tworow", [1, 3, 3, 5], 4)["equal"]
    with pytest.raises(BadParams):
        verify_schur_identity("tworow", [2, 2, 3, 4], 3)


def test_condensation_identity():
    assert verify_schur_identity("condensation", [2, 1], 3)["equal"]
    assert verify_schur_identity("condensation", [3, 2, 1], 4)["equal"]
    assert verify_schur_identity("condensation", [4, 4, 2, 1], 3)["equal"]
    with pytest.raises(BadParams):
        verify_schur_identity("condensation", [2, 0], 3)


def test_tableau_validation_errors():
    with pytest.raises(NotSemistandard):
        tableau_to_flow(Partition((2,)), Partition((0,)), [[2, 1]], 2)
    with pytest.raises(NotSemistandard):
        tableau_to_flow(Partition((1, 1)), Partition((0, 0)), [[1], [1]], 2)
    with pytest.raises(BadParams):
        Partition((1, 2))
    flow = tableau_to_flow(Partition((1,)), Partition((0,)), [[1]], 2)
    broken = type(flow)(flow.source_idx, flow.sink_idx, (flow.paths[0][:-1],))
    with pytest.raises(NotAFlow):
        flow_to_tableau(broken, 2)
