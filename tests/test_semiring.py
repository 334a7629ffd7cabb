import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from planarflows import semiring as sr
from planarflows.errors import (
    DivisionUnsupported,
    EmptySumWithoutNeutral,
    NotInvertible,
)

from helpers import TuplePolynomial

ALL_SPECS = [
    sr.INTEGERS,
    sr.RATIONALS,
    sr.POSITIVE_RATIONALS,
    sr.TROPICAL_INT,
    sr.TROPICAL_RAT,
    sr.polynomial_ring("a", "b"),
    sr.star_extend(sr.TROPICAL_INT),
    sr.star_extend(sr.POSITIVE_RATIONALS),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_axioms_on_random_triples(spec):
    rng = random.Random(hash(spec.name) % 10000)
    for _ in range(1000):
        a = spec.random_value(rng)
        b = spec.random_value(rng)
        c = spec.random_value(rng)
        assert spec.equal(spec.add(a, b), spec.add(b, a))
        assert spec.equal(spec.mul(a, b), spec.mul(b, a))
        assert spec.equal(
            spec.add(spec.add(a, b), c), spec.add(a, spec.add(b, c))
        )
        assert spec.equal(
            spec.mul(spec.mul(a, b), c), spec.mul(a, spec.mul(b, c))
        )
        assert spec.equal(
            spec.mul(a, spec.add(b, c)),
            spec.add(spec.mul(a, b), spec.mul(a, c)),
        )


@pytest.mark.parametrize(
    "spec",
    [sr.RATIONALS, sr.POSITIVE_RATIONALS, sr.TROPICAL_INT, sr.TROPICAL_RAT],
    ids=lambda s: s.name,
)
def test_divide_inverts_multiplication(spec):
    rng = random.Random(5)
    for _ in range(1000):
        a = spec.random_value(rng)
        b = spec.random_value(rng)
        if spec is sr.RATIONALS and b == 0:
            continue
        assert spec.equal(sr.divide(spec, spec.mul(a, b), b), a)


def test_fold_sum_examples():
    assert sr.fold_sum(sr.TROPICAL_INT, [3, 5, 1]) == 5
    assert sr.fold_sum(sr.INTEGERS, [1, 2, 3]) == 6
    star_trop = sr.star_extend(sr.TROPICAL_INT)
    assert sr.fold_sum(star_trop, []) is sr.STAR
    with pytest.raises(EmptySumWithoutNeutral):
        sr.fold_sum(sr.TROPICAL_INT, [])
    with pytest.raises(EmptySumWithoutNeutral):
        sr.fold_sum(sr.POSITIVE_RATIONALS, [])


def test_fold_product_examples():
    assert sr.divide(sr.TROPICAL_INT, 5, 3) == 2
    assert sr.fold_product(
        sr.POSITIVE_RATIONALS, [Fraction(1, 2), Fraction(4)]
    ) == Fraction(2)
    ring = sr.polynomial_ring("x1", "x2")
    x1 = ring.var("x1")
    x2 = ring.var("x2")
    prod = sr.fold_product(ring, [x1, ring.add(x1, x2)])
    assert prod == ring.add(ring.mul(x1, x1), ring.mul(x1, x2))
    assert sr.fold_product(sr.INTEGERS, []) == 1


def test_division_errors():
    with pytest.raises(DivisionUnsupported):
        sr.divide(sr.INTEGERS, 4, 2)
    with pytest.raises(NotInvertible):
        sr.divide(sr.RATIONALS, Fraction(1), Fraction(0))
    star_trop = sr.star_extend(sr.TROPICAL_INT)
    with pytest.raises(NotInvertible):
        sr.divide(star_trop, 3, sr.STAR)
    assert sr.divide(star_trop, sr.STAR, 3) is sr.STAR


def test_star_laws():
    spec = sr.star_extend(sr.TROPICAL_INT)
    for a in (-3, 0, 7):
        assert spec.add(sr.STAR, a) == a
        assert spec.add(a, sr.STAR) == a
        assert spec.mul(sr.STAR, a) is sr.STAR
    assert spec.mul(sr.STAR, sr.STAR) is sr.STAR
    # star extension only applies to semirings without a zero
    with pytest.raises(ValueError):
        sr.StarExtended(sr.INTEGERS)
    # star_extend is idempotent
    assert sr.star_extend(spec) is spec


def test_tropicalization_homomorphism():
    rng = random.Random(11)
    for _ in range(1000):
        vals = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
        assert sr.fold_sum(sr.TROPICAL_INT, vals) == max(vals)
        assert sr.fold_product(sr.TROPICAL_INT, vals) == sum(vals)


def test_polynomial_canonical_form():
    ring = sr.polynomial_ring("x", "y")
    x, y = ring.var("x"), ring.var("y")
    p = ring.add(ring.mul(x, y), ring.negate(ring.mul(y, x)))
    assert p == ring.zero()
    assert ring.zero().is_zero()
    # Laurent exponents are allowed
    inv = sr.Polynomial(2, {(-1, 0): 1})
    assert ring.mul(inv, x) == ring.one()


def test_json_round_trips():
    rng = random.Random(3)
    for spec in ALL_SPECS:
        for _ in range(50):
            v = spec.random_value(rng)
            assert spec.equal(spec.from_json(spec.to_json(v)), v)
    assert sr.RATIONALS.to_json(Fraction(3, 7)) == "3/7"
    assert sr.RATIONALS.to_json(Fraction(4, 2)) == 2
    assert sr.star_extend(sr.TROPICAL_INT).to_json(sr.STAR) == "star"


def test_parse_semiring():
    assert sr.parse_semiring("tropical-int") is sr.TROPICAL_INT
    assert sr.parse_semiring("star:tropical-int").inner is sr.TROPICAL_INT
    ring = sr.parse_semiring("poly:u,v")
    assert ring.variables == ("u", "v")
    with pytest.raises(ValueError):
        sr.parse_semiring("floats")
    # Prefixes are stripped in a loop, so their number is not bounded by
    # the recursion limit, and any number of them extends once.
    many = sr.parse_semiring("star:" * 1200 + "tropical-int")
    assert isinstance(many, sr.StarExtended) and many.inner is sr.TROPICAL_INT
    assert sr.parse_semiring("star:star:tropical-rat").inner is sr.TROPICAL_RAT
    with pytest.raises(ValueError, match="'floats'"):
        sr.parse_semiring("star:star:floats")


def test_power():
    assert sr.power(sr.RATIONALS, Fraction(2, 3), 3) == Fraction(8, 27)
    assert sr.power(sr.RATIONALS, Fraction(2, 3), -2) == Fraction(9, 4)
    assert sr.power(sr.RATIONALS, Fraction(2, 3), 0) == 1
    assert sr.power(sr.TROPICAL_INT, 5, -3) == -15


# ---------------------------------------------------------------------------
# packed polynomials against the tuple-keyed reference

# exponent pools: small, Laurent, and at and past the 8-, 16- and 32-bit fields
EXPONENTS = [(0, 1, 2), (-3, -1, 0, 1, 2), (-128, -127, -1, 0, 1, 126, 127, 128),
             (-32769, -32768, 0, 1, 32767, 32768), (-(2**31) - 1, 0, 2**31 - 1, 2**31)]


def _random_pair(rng, nvars, pool, max_terms=4):
    terms = {tuple(rng.choice(pool) for _ in range(nvars)): rng.randint(-3, 3)
             for _ in range(rng.randint(0, max_terms))}
    return sr.Polynomial(nvars, terms), TuplePolynomial(nvars, terms)


def _check_against(got, want, seen):
    """``got`` has ``want``'s terms, and equals (with the same hash, repr and
    JSON) a polynomial built afresh from them, whose field width may differ."""
    assert got.terms == want.terms and want.terms == dict(got.terms)
    assert len(got.terms) == len(want.terms)
    assert Counter(got.terms.values()) == Counter(want.terms.values())
    for exps, coeff in want.terms.items():
        assert exps in got.terms and got.terms[exps] == coeff
    fresh = sr.Polynomial(got.nvars, want.terms)
    assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
    seen["widths differ"] += got._width != fresh._width
    ring = sr.polynomial_ring(*[f"v{i}" for i in range(got.nvars)])
    assert ring.to_json(got) == ring.to_json(fresh)
    assert ring.from_json(ring.to_json(got)) == got
    if all(0 <= e <= 2 for exps in want.terms for e in exps):
        values = [Fraction(k + 2, 3) for k in range(got.nvars)]
        assert got.substitute(values) == want.substitute(values)
        seen["substituted"] += 1
    elif any(e < 0 for exps in want.terms for e in exps):
        with pytest.raises(ValueError):
            got.substitute([1] * got.nvars)


def test_packed_polynomials_match_the_tuple_reference():
    rng = random.Random(606)
    seen = Counter()
    for nvars in (0, 1, 2, 3, 6):
        for pool in EXPONENTS:
            for _ in range(30):
                p, rp = _random_pair(rng, nvars, pool)
                q, rq = _random_pair(rng, nvars, pool)
                m, rm = _random_pair(rng, nvars, pool, max_terms=1)
                many, rmany = _random_pair(rng, nvars, (0, 1, 2), max_terms=12)
                results = [(p + q, rp + rq), (p * q, rp * rq), (-p, -rp),
                           (p + -p, rp + -rp), (m * many, rm * rmany),
                           (many * m, rmany * rm), (m * p * q, rm * rp * rq),
                           (many * (p + q), rmany * (rp + rq))]
                for got, want in results:
                    _check_against(got, want, seen)
                    seen["zero" if not want.terms else "nonzero"] += 1
                assert (p == q) == (rp == rq)
                assert p * q == q * p and hash(p * q) == hash(q * p)
                assert (p * q) * m == p * (q * m)
                assert p * (q + m) == p * q + p * m
    assert seen["widths differ"] > 0 and seen["substituted"] > 0 and seen["zero"] > 0


def test_exponents_at_the_field_limit_multiply_exactly():
    for limit in (127, 128, 32767, 32768, 2**31 - 1):
        for sign in (1, -1):
            e = sign * limit
            terms = {(e, 0): 1, (0, 1): -2}
            p, rp = sr.Polynomial(2, terms), TuplePolynomial(2, terms)
            q, rq = p, rp
            for _ in range(3):  # the exponent of v0 grows past the field each time
                q, rq = q * p, rq * rp
                assert q.terms == rq.terms
            mixed = sr.Polynomial(2, {(-e, 0): 1}) * p * p
            assert mixed.terms == (TuplePolynomial(2, {(-e, 0): 1}) * rp * rp).terms
            one = sr.Polynomial(2, {(-e, 0): 1}) * sr.Polynomial(2, {(e, 0): 1})
            unit = sr.Polynomial.constant(2, 1)
            assert one == unit and hash(one) == hash(unit)
            assert (0, 0) in one.terms and (e, 0) not in one.terms


def test_polynomial_exponent_tuples_must_fit_the_variables():
    with pytest.raises(ValueError):
        sr.Polynomial(2, {(1,): 1})
    # (256, 0) would carry into the second 8-bit field and alias (0, 1)
    terms = sr.Polynomial(2, {(0, 1): 1}).terms
    assert (256, 0) not in terms and (0, 1) in terms
    with pytest.raises(KeyError):
        terms[(256, 0)]


def test_booleans_are_not_numbers():
    for spec in ALL_SPECS[:5]:
        for value in (True, False):
            with pytest.raises(ValueError):
                spec.from_json(value)


@pytest.mark.parametrize("data, message", [
    ({"a": 1}, "expected a list of terms"),
    ([3], "term 1: expected an object"),
    ([{"coeff": 1}], "term 1: expected an object"),
    ([{"exps": {"a": 1}, "coeff": 2.5}], "term 1: coeff 2.5 is not an integer"),
    ([{"exps": {"a": 1}, "coeff": "x"}], "term 1: coeff 'x' is not an integer"),
    ([{"exps": {}, "coeff": 1}, {"exps": {"a": 1}, "coeff": True}],
     "term 2: coeff True is not an integer"),
    ([{"exps": {"a": 0.5}, "coeff": 1}], "term 1: exponent 0.5 of 'a' is not an integer"),
    ([{"exps": {"a": False}, "coeff": 1}], "term 1: exponent False of 'a' is not an integer"),
    ([{"exps": {"b": 1}, "coeff": 1}], "term 1: unknown variable 'b'"),
    ([{"exps": {"a": 1}, "coeff": 2}, {"exps": {"a": 1}, "coeff": 3}],
     "term 2: repeats the monomial of an earlier term"),
])
def test_polynomial_json_terms_are_exact_and_distinct(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sr.polynomial_ring("a").from_json(data)


@pytest.mark.parametrize("variables, twice", [(("x", "x"), "x"), (("a", "b", "c", "b", "a"), "b")])
def test_polynomial_variable_names_are_distinct(variables, twice):
    with pytest.raises(ValueError, match=re.escape(f"poly: variable {twice!r} repeats")):
        sr.polynomial_ring(*variables)
