import random
from collections import Counter

import pytest

from planarflows.errors import BadParams, NotProper, SizeMismatch
from planarflows.patterns import (
    LOWER,
    UPPER,
    PlanarMatching,
    _circle_points,
    _normalize_pattern,
    embed_matching,
    embed_two,
    feasible_matchings,
    is_balanced,
    is_noncrossing,
    one_pattern,
    pattern_from_json,
    pattern_to_json,
    stock_pattern,
    two_pattern,
)

from helpers import (
    BadSizes,
    all_feasible_matchings_bruteforce,
    apply_exchange,
    balance_by_matching_multisets,
    feasible_matchings_search,
    flag_feasible_matchings,
    is_noncrossing_pairwise,
    matching_from_parts,
    matching_multiset,
    perfect_matchings,
    proper_pairs,
    random_balanced_patterns,
    random_proper_pair,
    random_unbalanced_patterns,
)


def test_two_level_picture_example():
    # Y = {1,2,3,4}, Y' = {1,2}, A = {1,3}, A' = {1}: the drawn matching has
    # lower couple 34 and verticals 11', 22'
    out = feasible_matchings({1, 2, 3, 4}, {1, 2}, {1, 3}, {1})
    drawn = matching_from_parts(lower=[(3, 4)], vertical=[(1, 1), (2, 2)])
    assert drawn in out
    for m in out:
        assert len(m.couples) == 3


def test_flag_case_items_1_and_2():
    Y = {1, 2, 3}
    assert flag_feasible_matchings(Y, {1, 2}, 2, 1) == [frozenset({(2, 3)})]
    assert flag_feasible_matchings(Y, {2, 3}, 2, 1) == [frozenset({(1, 2)})]
    assert flag_feasible_matchings(Y, {1, 3}, 2, 1) == [
        frozenset({(1, 2)}),
        frozenset({(2, 3)}),
    ]
    Y = {1, 2, 3, 4}
    assert flag_feasible_matchings(Y, {1, 2}, 2, 2) == [frozenset({(1, 4), (2, 3)})]
    assert flag_feasible_matchings(Y, {1, 4}, 2, 2) == [frozenset({(1, 2), (3, 4)})]
    assert flag_feasible_matchings(Y, {1, 3}, 2, 2) == [
        frozenset({(1, 2), (3, 4)}),
        frozenset({(1, 4), (2, 3)}),
    ]


def test_flag_case_quintuple():
    Y = {1, 2, 3, 4, 5}
    M = lambda A: set(flag_feasible_matchings(Y, set(A), 3, 2))
    assert M({2, 3, 4}) == {frozenset({(1, 2), (4, 5)})}
    assert M({1, 2, 5}) == {
        frozenset({(1, 4), (2, 3)}),
        frozenset({(2, 3), (4, 5)}),
    }
    assert M({1, 4, 5}) == {
        frozenset({(1, 2), (3, 4)}),
        frozenset({(2, 5), (3, 4)}),
    }
    assert M({1, 3, 5}) == (
        M({2, 3, 4}) | M({1, 2, 5}) | M({1, 4, 5})
    )


def test_all_white_gives_order_preserving_verticals():
    Y = {1, 2, 3}
    out = feasible_matchings(Y, Y, Y, Y)
    assert out == [matching_from_parts(vertical=[(1, 1), (2, 2), (3, 3)])]


def test_matchings_match_bruteforce():
    cases = [
        ({1, 2, 3}, {1}),
        ({1, 2, 3, 4}, {1, 2}),
        ({1, 2, 3}, {1, 2, 3}),
        ({1, 2, 3, 4, 5}, {1, 2, 3}),
        ({1, 2, 3, 4, 5, 6}, {1, 2}),
        ({1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}),
    ]
    for Y, Yp in cases:
        for A, Ap in proper_pairs(Y, Yp):
            fast = feasible_matchings(Y, Yp, A, Ap)
            slow = all_feasible_matchings_bruteforce(Y, Yp, A, Ap)
            assert fast == slow


def test_run_table_matches_the_recursive_search_on_every_small_shape():
    total = 0
    for m in range(13):
        for mp in range(13 - m):
            Y, Yp = range(1, m + 1), range(1, mp + 1)
            for A, Ap in proper_pairs(Y, Yp):
                assert feasible_matchings(Y, Yp, A, Ap) == feasible_matchings_search(Y, Yp, A, Ap)
                total += 1
    assert total == 15591


def test_noncrossing_scan_matches_the_pairwise_check():
    total = 0
    for m in range(11):
        for mp in range(11 - m):
            Y, Yp = range(1, m + 1), range(1, mp + 1)
            for couples in perfect_matchings(_circle_points(Y, Yp)):
                M = PlanarMatching(couples)
                assert is_noncrossing(Y, Yp, M) == is_noncrossing_pairwise(Y, Yp, M)
                total += 1
    assert total == 11464


def test_nested_coloring_has_one_matching():
    Y = range(1, 2001)
    out = feasible_matchings(Y, [], range(1, 1001), [])
    assert out == [matching_from_parts(lower=[(i, 2001 - i) for i in range(1, 1001)])]


def test_matching_invariants():
    for Y, Yp in [({1, 2, 3, 4}, {1, 2}), ({1, 2, 3}, {1, 2, 3})]:
        for A, Ap in proper_pairs(Y, Yp):
            for m in feasible_matchings(Y, Yp, A, Ap):
                assert m.elements() == {(LOWER, y) for y in Y} | {
                    (UPPER, y) for y in Yp
                }
                lows = m.lower_couples()
                for i, j in lows:
                    inner = set(range(i, j + 1))
                    covered = {x for c in lows if i <= c[0] and c[1] <= j for x in c}
                    assert inner <= covered


def test_dodgson_matchings():
    a0, b0 = stock_pattern("dodgson")
    ms_a = matching_multiset(a0)
    vertical = matching_from_parts(vertical=[(1, 1), (2, 2)])
    horizontal = matching_from_parts(lower=[(1, 2)], upper=[(1, 2)])
    assert ms_a == Counter({vertical: 1, horizontal: 1})
    ms_b = matching_multiset(b0)
    assert ms_b == ms_a


def test_matching_multiset_flag_pair():
    one_a = one_pattern(4, 2, [{1, 2}, {1, 4}])
    one_b = one_pattern(4, 2, [{1, 3}])
    ms_a = matching_multiset(one_a)
    ms_b = matching_multiset(one_b)
    assert ms_a == ms_b
    assert sum(ms_a.values()) == 2
    empty = two_pattern(3, 1, [])
    assert matching_multiset(empty) == Counter()


def test_is_balanced_stock():
    for kind in ("p3", "p4", "quintuple", "dodgson", "homogeneous3", "rowdecomposition3"):
        a, b = stock_pattern(kind)
        assert is_balanced(a, b).balanced, kind
    a, b = stock_pattern("aa4", m=5, p=3, A0={1, 2, 4}, Z={3, 5})
    assert is_balanced(a, b).balanced
    a, b = stock_pattern("aa5", m=5, p=3, Z={2}, Zprime=set())
    assert is_balanced(a, b).balanced


def test_aa4_reduces_to_known_patterns():
    a, b = stock_pattern("aa4", m=3, p=2, A0={1, 2}, Z={3})
    assert {A for A, _, _ in a.members} == {frozenset({1, 2}), frozenset({2, 3})}
    assert {A for A, _, _ in b.members} == {frozenset({1, 3})}
    a, b = stock_pattern("aa4", m=4, p=2, A0={1, 2}, Z={3})
    assert {A for A, _, _ in a.members} == {frozenset({1, 2}), frozenset({2, 3})}
    assert {A for A, _, _ in b.members} == {frozenset({1, 3})}


def test_unbalanced_witness():
    result = is_balanced(
        one_pattern(3, 2, [{1, 3}]), one_pattern(3, 2, [{1, 2}])
    )
    assert not result.balanced
    assert (result.count_a, result.count_b) == (1, 0)
    assert result.witness.lower_couples() == [(1, 2)]


def test_a_balance_result_is_true_exactly_when_balanced():
    # A non-empty tuple is true, so only ``__bool__`` makes an unbalanced result false.
    assert bool(is_balanced(one_pattern(3, 2, [{1, 3}]), one_pattern(3, 2, [{1, 2}]))) is False
    assert bool(is_balanced(*stock_pattern("p3"))) is True


def test_is_balanced_symmetric_and_shift_invariant():
    rng = random.Random(12)
    a, b = stock_pattern("quintuple")
    assert is_balanced(b, a).balanced
    a2, b2 = a, b
    from helpers import random_proper_pair

    extra = random_proper_pair(rng, a2.m, a2.m_prime)
    a3 = two_pattern(a2.m, a2.m_prime, list(a2.members) + [extra + (1,)])
    b3 = two_pattern(b2.m, b2.m_prime, list(b2.members) + [extra + (1,)])
    assert is_balanced(a3, b3).balanced
    # multiplicities matter: doubling one side only breaks balance
    a4 = two_pattern(a2.m, a2.m_prime, [(A, Ap, 2 * m) for A, Ap, m in a2.members])
    assert not is_balanced(a4, b2).balanced


def _balanced_pairs_of_ten_points(rng, count):
    """aa4 on ([7], [3]) and aa5 on ([8], [2]), each side plus one common member."""
    pairs = []
    for k in range(count):
        if k % 2:
            A0 = frozenset(rng.sample(range(1, 8), 5))
            Z = frozenset(rng.sample(sorted(set(range(1, 8)) - A0), rng.randint(1, 2)))
            a, b = stock_pattern("aa4", m=7, p=5, A0=A0, Z=Z)
        else:
            Z = frozenset(rng.sample(range(1, 9), rng.randint(1, 2)))
            a, b = stock_pattern("aa5", m=8, p=5, Z=Z,
                                 Zprime=frozenset(v for v in Z if rng.random() < 0.5))
        extra = random_proper_pair(rng, a.m, a.m_prime) + (1,)
        pairs.append((two_pattern(a.m, a.m_prime, list(a.members) + [extra]),
                      two_pattern(b.m, b.m_prime, list(b.members) + [extra])))
    return pairs


def test_is_balanced_matches_the_matching_multiset_oracle():
    """Chord tuples decide balance as multisets of matchings do, and report
    the same least differing matching with the same counts, up to ten points."""
    rng = random.Random(20)
    pairs = (random_unbalanced_patterns(21, 80, max_total=10) + random_balanced_patterns(22, 30)
             + _balanced_pairs_of_ten_points(rng, 12))
    seen = Counter()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            result = is_balanced(x, y)
            expected = balance_by_matching_multisets(x, y)
            assert (result.balanced, result.witness, result.count_a, result.count_b) == expected
            shape = _normalize_pattern(x)
            seen[result.balanced, shape.m + shape.m_prime] += 1
    for balanced in (True, False):
        assert seen[balanced, 10] >= 10 and sum(
            n for (b, _), n in seen.items() if b == balanced) >= 60, seen


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        is_balanced(one_pattern(3, 2, [{1, 3}]), one_pattern(4, 2, [{1, 3}]))


def test_exchange_closure():
    """Any two pairs sharing a feasible matching differ by a color exchange."""
    Y, Yp = {1, 2, 3, 4}, {1, 2}
    pairs = proper_pairs(Y, Yp)
    for A, Ap in pairs:
        for M in feasible_matchings(Y, Yp, A, Ap):
            for B, Bp in pairs:
                if M not in feasible_matchings(Y, Yp, B, Bp):
                    continue
                flip = []
                for p, q in M.couples:
                    in_a = p[1] in (A if p[0] == LOWER else Ap)
                    in_b = p[1] in (B if p[0] == LOWER else Bp)
                    if in_a != in_b:
                        flip.append((p, q))
                assert apply_exchange(A, Ap, flip) == (B, Bp)


def test_embed():
    p3a, _ = stock_pattern("p3")
    assert embed_two(p3a, [2, 5, 9], [1]) == Counter({(frozenset({2, 9}), frozenset({1})): 1})
    assert embed_two(p3a, [1, 2, 3], [1]) == Counter({(frozenset({1, 3}), frozenset({1})): 1})
    pat = two_pattern(3, 1, [({1, 3}, {1})])
    out = embed_two(pat, [2, 5, 9], [4])
    assert out == Counter({(frozenset({2, 9}), frozenset({4})): 1})
    with pytest.raises(SizeMismatch):
        embed_two(pat, [1, 2], [4])
    m = matching_from_parts(lower=[(1, 2)], vertical=[(3, 1)])
    em = embed_matching(m, [2, 5, 9], [4])
    assert em.lower_couples() == [(2, 5)] and em.verticals() == [(9, 4)]


def test_flag_two_pattern_equivalence():
    rng = random.Random(21)
    for _ in range(20):
        m = rng.randint(2, 6)
        p = rng.randint((m + 1) // 2, m - 1) if m > 1 else 1
        import itertools

        subsets = [frozenset(c) for c in itertools.combinations(range(1, m + 1), p)]
        a = one_pattern(m, p, rng.sample(subsets, min(2, len(subsets))))
        b = one_pattern(m, p, rng.sample(subsets, min(2, len(subsets))))
        flag_a = Counter()
        for A, _, mult in a.members:
            for M in flag_feasible_matchings(range(1, m + 1), A, p, m - p):
                flag_a[M] += mult
        flag_b = Counter()
        for A, _, mult in b.members:
            for M in flag_feasible_matchings(range(1, m + 1), A, p, m - p):
                flag_b[M] += mult
        assert (flag_a == flag_b) == is_balanced(a, b).balanced


def test_validation_errors():
    with pytest.raises(NotProper):
        feasible_matchings({1, 2, 3}, {1}, {1}, {1})
    with pytest.raises(NotProper):
        two_pattern(3, 1, [({1}, {1})])
    with pytest.raises(BadSizes):
        flag_feasible_matchings({1, 2, 3}, {1}, 1, 2)
    with pytest.raises(BadParams):
        stock_pattern("aa4", m=4, p=2, A0={1, 2}, Z=set())
    with pytest.raises(BadParams):
        stock_pattern("nope")


def test_pattern_json_round_trip():
    for kind in ("p3", "dodgson"):
        a, b = stock_pattern(kind)
        for pat in (a, b):
            assert pattern_from_json(pattern_to_json(pat)) == pat


def test_matching_serialization():
    m = matching_from_parts(lower=[(3, 4)], upper=[(1, 2)], vertical=[(1, 1)])
    data = m.to_json()
    assert data == {"lower": [[3, 4]], "upper": [[1, 2]], "vertical": [[1, 1]]}
