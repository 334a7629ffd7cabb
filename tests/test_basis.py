import random
from fractions import Fraction
from itertools import combinations

import pytest

from planarflows import (
    INTEGERS,
    POSITIVE_RATIONALS,
    RATIONALS,
    TROPICAL_INT,
    star_extend,
)
from planarflows.basis import (
    flag_assignment,
    flag_values_from_network,
    interval_values_from_weights,
    pressed_assignment,
    pressed_basis,
    pressed_values_from_network,
    reconstruct_value,
)
from planarflows.errors import DivisionUnsupported, NotInvertible
from planarflows.flows import FlowFunction, fg_value
from planarflows.network import build_grid, build_half_grid
from planarflows.semiring import STAR

from helpers import (
    eval_expansion,
    intervals,
    laurent_expand,
    unit_weights,
    weights_from_intervals,
    weights_from_pressed,
)


def random_half_grid(n, spec, rng):
    h = build_half_grid(n)
    return h.with_vertex_weights({v: spec.random_value(rng) for v in h.vertices})


def test_weights_round_trip_tropical():
    rng = random.Random(1)
    for n in (2, 3, 4, 5):
        net = random_half_grid(n, TROPICAL_INT, rng)
        values = flag_values_from_network(TROPICAL_INT, net, n)
        assert weights_from_intervals(TROPICAL_INT, values, n) == net.weights
        # and the closed-form interval products agree with flow values
        assert interval_values_from_weights(TROPICAL_INT, net.weights, n) == values


def test_weights_round_trip_positive_rationals():
    rng = random.Random(2)
    for n in (2, 3, 4):
        net = random_half_grid(n, POSITIVE_RATIONALS, rng)
        values = flag_values_from_network(POSITIVE_RATIONALS, net, n)
        assert weights_from_intervals(POSITIVE_RATIONALS, values, n) == net.weights


def test_all_zero_interval_values_give_zero_weights():
    values = {iv: 0 for iv in intervals(3)}
    assert weights_from_intervals(TROPICAL_INT, values, 3) == {
        f"{i},{j}": 0 for i in range(1, 4) for j in range(1, i + 1)
    }


@pytest.mark.parametrize("case", ["flag", "pressed"])
def test_reconstruction_depth_does_not_grow_the_call_stack(case):
    # Descents of about n steps; every basis value is the tropical one, so
    # every flow, and the value, weighs 0.
    n = 1200
    if case == "flag":
        values = {iv: 0 for iv in intervals(n)}
        assignment, target = flag_assignment(TROPICAL_INT, n, values), {1, n}
    else:
        values = {key: 0 for key in pressed_basis(n, 2) if key != ((), ())}
        assignment = pressed_assignment(TROPICAL_INT, n, 2, values)
        target = ({n}, {2})
    assert reconstruct_value(assignment, target) == 0


def test_weights_from_intervals_requires_division():
    from planarflows import INTEGERS

    with pytest.raises(DivisionUnsupported):
        weights_from_intervals(INTEGERS, {}, 2)


def test_flag_reconstruction_matches_flows():
    rng = random.Random(3)
    for spec in (TROPICAL_INT, POSITIVE_RATIONALS):
        for n in (3, 4, 5):
            net = random_half_grid(n, spec, rng)
            values = flag_values_from_network(spec, net, n)
            assignment = flag_assignment(spec, n, values)
            for r in range(1, n + 1):
                for S in combinations(range(1, n + 1), r):
                    expect = fg_value(spec, net, list(S), list(range(1, r + 1)))
                    assert reconstruct_value(assignment, frozenset(S)) == expect


def test_reconstruction_p3_shape():
    # f(13) = (f(12) f(3) + f(1) f(23)) / f(2) over the positive rationals
    values = {
        (1, 1): Fraction(2),
        (2, 2): Fraction(3),
        (3, 3): Fraction(5),
        (1, 2): Fraction(7),
        (2, 3): Fraction(11),
        (1, 3): Fraction(13),
    }
    assignment = flag_assignment(POSITIVE_RATIONALS, 3, values)
    expect = (Fraction(7) * 5 + Fraction(2) * 11) / 3
    assert reconstruct_value(assignment, frozenset({1, 3})) == expect
    # intervals come back unchanged
    assert reconstruct_value(assignment, frozenset({2, 3})) == Fraction(11)
    assert reconstruct_value(assignment, frozenset()) == Fraction(1)


def test_basis_freeness_flag():
    """Arbitrary invertible interval values define a consistent flow function."""
    rng = random.Random(6)
    n = 4
    values = {
        iv: Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for iv in intervals(n)
    }
    weights = weights_from_intervals(POSITIVE_RATIONALS, values, n)
    net = build_half_grid(n).with_vertex_weights(weights)
    assignment = flag_assignment(POSITIVE_RATIONALS, n, values)
    for r in range(1, n + 1):
        for S in combinations(range(1, n + 1), r):
            assert reconstruct_value(assignment, frozenset(S)) == fg_value(
                POSITIVE_RATIONALS, net, list(S), list(range(1, r + 1))
            )


def test_laurent_expansion_examples():
    exp = laurent_expand(3, {1, 3})
    assert len(exp.monomials) == 2
    for mono, mult in exp.monomials:
        assert mult == 1
        assert dict(mono)[(2, 2)] == -1
    single = laurent_expand(4, {2, 3})
    assert len(single.monomials) == 1
    assert single.monomials[0][0] == (((2, 3), 1),)


def test_laurent_exponent_range():
    for n in (3, 4, 5):
        for r in range(1, n + 1):
            for S in combinations(range(1, n + 1), r):
                exp = laurent_expand(n, S)
                assert exp.exponent_range() <= {-1, 0, 1, 2}, (n, S)


def test_laurent_expansion_past_sixty_vertices():
    # The half-grid of size 11 has 66 vertices; the expansion has no vertex cap.
    target = {2, 5, 8, 11}
    exp = laurent_expand(11, target)
    unit = unit_weights(build_half_grid(11), INTEGERS)
    assert sum(mult for _, mult in exp.monomials) == FlowFunction(INTEGERS, unit)(
        target, range(1, 5))
    assert exp.exponent_range() <= {-1, 0, 1, 2}


def test_laurent_evaluation_matches_reconstruction():
    rng = random.Random(9)
    n = 5
    for spec in (TROPICAL_INT, POSITIVE_RATIONALS):
        net = random_half_grid(n, spec, rng)
        values = flag_values_from_network(spec, net, n)
        assignment = flag_assignment(spec, n, values)
        for S in [{1, 3}, {2, 5}, {1, 3, 5}, {2, 4, 5}, {1, 4}]:
            expansion = laurent_expand(n, S)
            assert eval_expansion(spec, expansion, values) == reconstruct_value(
                assignment, frozenset(S)
            )


def test_pressed_basis_size():
    basis = pressed_basis(4, 3)
    assert len(basis) == 4 * 3 + 1
    assert ((), ()) in basis
    for iv, ivp in basis:
        if iv == ():
            continue
        assert iv[1] - iv[0] == ivp[1] - ivp[0]
        assert iv[0] == 1 or ivp[0] == 1


def test_pressed_reconstruction_grid_4_3():
    rng = random.Random(11)
    g = build_grid(4, 3)
    net = g.with_vertex_weights(
        {v: POSITIVE_RATIONALS.random_value(rng) for v in g.vertices}
    )
    values = pressed_values_from_network(POSITIVE_RATIONALS, net, 4, 3)
    assert weights_from_pressed(POSITIVE_RATIONALS, values, 4, 3) == net.weights
    assignment = pressed_assignment(POSITIVE_RATIONALS, 4, 3, values)
    for k in range(1, 4):
        for S in combinations(range(1, 5), k):
            for Sp in combinations(range(1, 4), k):
                expect = fg_value(POSITIVE_RATIONALS, net, list(S), list(Sp))
                got = reconstruct_value(
                    assignment, (frozenset(S), frozenset(Sp))
                )
                assert got == expect, (S, Sp)


def test_pressed_freeness_from_arbitrary_values():
    rng = random.Random(13)
    n, np_ = 3, 3
    values = {
        key: rng.randint(-6, 6)
        for key in pressed_basis(n, np_)
        if key != ((), ())
    }
    weights = weights_from_pressed(TROPICAL_INT, values, n, np_)
    net = build_grid(n, np_).with_vertex_weights(weights)
    assignment = pressed_assignment(TROPICAL_INT, n, np_, values)
    for k in range(1, 4):
        for S in combinations(range(1, 4), k):
            for Sp in combinations(range(1, 4), k):
                assert reconstruct_value(
                    assignment, (frozenset(S), frozenset(Sp))
                ) == fg_value(TROPICAL_INT, net, list(S), list(Sp))


def test_flag_basis_is_the_pressed_basis_on_the_first_sinks():
    rng = random.Random(17)
    for spec in (TROPICAL_INT, POSITIVE_RATIONALS):
        for n in (3, 4, 5, 6):
            values = {iv: spec.random_value(rng) for iv in intervals(n)}
            flag = flag_assignment(spec, n, values)
            pressed = pressed_assignment(
                spec, n, n, {((p, q), (1, q - p + 1)): v for (p, q), v in values.items()})
            for r in range(1, n + 1):
                for S in combinations(range(1, n + 1), r):
                    assert reconstruct_value(pressed, (S, range(1, r + 1))) == \
                        reconstruct_value(flag, S), (spec.name, n, S)


def _flag_case(spec, fill, bad):
    values = {iv: fill for iv in intervals(3)}
    values[(2, 2)] = bad
    return flag_assignment(spec, 3, values), frozenset({1, 3})


def _pressed_case(spec, fill, bad):
    # (12 | 13) is exchanged across the gap 2 of its sink side, dividing by (1 | 2)
    values = {key: fill for key in pressed_basis(2, 3) if key != ((), ())}
    values[((1, 1), (2, 2))] = bad
    return pressed_assignment(spec, 2, 3, values), ({1, 2}, {1, 3})


@pytest.mark.parametrize("case", [_flag_case, _pressed_case])
def test_star_values_refused(case):
    assignment, target = case(star_extend(TROPICAL_INT), 3, STAR)
    with pytest.raises(NotInvertible):
        reconstruct_value(assignment, target)


@pytest.mark.parametrize("case", [_flag_case, _pressed_case])
def test_zero_denominator_surfaces(case):
    assignment, target = case(RATIONALS, Fraction(1), Fraction(0))
    with pytest.raises(NotInvertible):
        reconstruct_value(assignment, target)
