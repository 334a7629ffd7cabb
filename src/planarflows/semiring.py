"""Commutative semirings with exact arithmetic.

Every semiring instance exposes ``add``/``mul`` (the two commutative,
associative operations, with ``mul`` distributing over ``add``), optional
neutral elements, and optional division.  Values are plain exact Python
objects: ``int``, ``fractions.Fraction``, :class:`Polynomial`, or the
:data:`STAR` tag of a star-extended semiring.  No floats anywhere.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionUnsupported,
    EmptySumWithoutNeutral,
    NotInvertible,
    RingRequired,
)


class _Star:
    """The extra absorbing/neutral element of a star-extended semiring."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "STAR"


STAR = _Star()


class Polynomial:
    """Multivariate polynomial over the integers in canonical form.

    ``terms`` maps exponent tuples (one slot per variable, negative entries
    allowed for Laurent monomials) to nonzero integer coefficients.  They are
    stored packed: exponent i sits in bits [i*w, (i+1)*w) of one int key,
    biased by 2**(w-1), so a monomial product is one int addition.  A product
    re-packs at a doubled w while the sum of its factors' exponent bounds
    (each an upper bound on every |exponent|) could leave the field.

    The packed dict is never changed once built, so polynomials may share
    it: a term's key is its dict key plus the pending offset ``_shift``.  A
    product by a unit monomial (one term, coefficient 1) shares the other
    factor's dict, re-packed first only when the product needs wider fields,
    and adds the monomial's key to the offset: O(1) instead of a new dict.
    """

    __slots__ = ("nvars", "_width", "_bound", "_packed", "_shift")

    def __init__(self, nvars, terms=None):
        clean = {tuple(e): c for e, c in (terms or {}).items() if c}
        if any(len(e) != nvars for e in clean):
            raise ValueError(f"exponent tuples must have {nvars} entries")
        bound = max(map(abs, [x for e in clean for x in e]), default=0)
        width = _width_for(bound, 8)
        packed = {_pack(e, width): c for e, c in clean.items()}
        self.nvars, self._width, self._bound, self._packed = nvars, width, bound, packed
        self._shift = 0

    def _new(self, width, bound, packed, shift=0):
        """A polynomial in the same variables from packed terms."""
        poly = object.__new__(Polynomial)
        poly.nvars, poly._width, poly._bound, poly._packed = self.nvars, width, bound, packed
        poly._shift = shift
        return poly

    @property
    def terms(self):
        return _Terms(self)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, index, power=1):
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): 1})

    def __add__(self, other):
        """The larger dict is copied once and keeps its offset; the other's
        keys move into that frame as they merge."""
        width = max(self._width, other._width)
        (a, sa), (b, sb) = _framed_at(self, width), _framed_at(other, width)
        if len(a) < len(b):
            a, sa, b, sb = b, sb, a, sa
        terms = dict(a)
        get = terms.get
        shift = sb - sa
        for key, coeff in b.items():
            key += shift
            coeff += get(key, 0)
            if coeff:
                terms[key] = coeff
            else:
                del terms[key]
        return self._new(width, max(self._bound, other._bound), terms, sa)

    def __neg__(self):
        packed = {k: -c for k, c in self._packed.items()}
        return self._new(self._width, self._bound, packed, self._shift)

    def __mul__(self, other):
        """Keys add, less the key of the monomial 1, and so do offsets."""
        if len(self._packed) > len(other._packed):
            self, other = other, self
        bound = self._bound + other._bound
        width = _width_for(bound, max(self._width, other._width))
        (a, sa), (b, sb) = _framed_at(self, width), _framed_at(other, width)
        offset = sa + sb - _one_key(width, self.nvars)
        if len(a) == 1:  # a monomial times b: shift every key of b
            ((key, coeff),) = a.items()
            offset += key
            if coeff == 1:
                return self._new(width, bound, b, offset)
            return self._new(width, bound, {k + offset: coeff * c for k, c in b.items()})
        terms = {}
        get = terms.get
        for k1, c1 in a.items():
            k1 += offset
            for k2, c2 in b.items():
                key = k1 + k2
                terms[key] = get(key, 0) + c1 * c2
        return self._new(width, bound, {k: c for k, c in terms.items() if c})

    def __eq__(self, other):
        if not isinstance(other, Polynomial) or self.nvars != other.nvars:
            return False
        width = max(self._width, other._width)
        (a, sa), (b, sb) = _framed_at(self, width), _framed_at(other, width)
        if sa != sb:
            a = {k + sa - sb: c for k, c in a.items()}
        return a == b

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self._packed:
            return "Poly(0)"
        bits = []
        for exps, coeff in sorted(self.terms.items()):
            mono = "*".join(
                f"v{i}^{e}" for i, e in enumerate(exps) if e
            ) or "1"
            bits.append(f"{coeff}*{mono}")
        return "Poly(" + " + ".join(bits) + ")"


def _width_for(bound, width):
    """The least doubling of ``width`` whose biased field holds +-bound."""
    while bound >= 1 << (width - 1):
        width *= 2
    return width


def _pack(exps, width):
    key, bias = 0, 1 << (width - 1)
    for e in reversed(exps):
        key = key << width | e + bias
    return key


def _unpack(key, nvars, width):
    mask, bias = (1 << width) - 1, 1 << (width - 1)
    return tuple((key >> width * i & mask) - bias for i in range(nvars))


@lru_cache
def _one_key(width, nvars):
    """The key of the monomial 1: the bias in each of the nvars fields."""
    return _pack((0,) * nvars, width)


def _framed_at(poly, width):
    """(dict, offset): ``poly``'s terms with fields ``width`` bits wide, each
    under its key less the offset.  At its own width a polynomial lends its
    dict; a narrower one is re-packed into a new dict, offset applied."""
    if poly._width == width:
        return poly._packed, poly._shift
    n, w, shift = poly.nvars, poly._width, poly._shift
    return {_pack(_unpack(k + shift, n, w), width): c for k, c in poly._packed.items()}, 0


class _Terms(Mapping):
    """Read-only tuple-keyed view of a polynomial's packed terms."""

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def __len__(self):
        return len(self._poly._packed)

    def __iter__(self):
        p = self._poly
        return (_unpack(k + p._shift, p.nvars, p._width) for k in p._packed)

    def __getitem__(self, exps):
        p = self._poly
        if len(exps) != p.nvars or any(abs(e) > p._bound for e in exps):
            raise KeyError(exps)
        return p._packed[_pack(exps, p._width) - p._shift]


def _frac_to_json(x):
    if isinstance(x, int):
        return x
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _frac_from_json(data):
    """An integer or a "p/q" string; booleans and floats are refused."""
    if type(data) is int or isinstance(data, str):
        return Fraction(data)
    raise ValueError(f"cannot parse exact rational from {data!r}")


class Semiring:
    """Base class; concrete subclasses fix the value domain and operations."""

    name = "semiring"
    has_zero = False
    has_additive_inverse = False
    has_division = False

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def zero(self):
        raise EmptySumWithoutNeutral(f"{self.name} has no additive neutral")

    def one(self):
        raise EmptySumWithoutNeutral(f"{self.name} has no multiplicative neutral")

    def negate(self, a):
        raise RingRequired(f"{self.name} has no additive inverses")

    def divide(self, a, b):
        raise DivisionUnsupported(f"{self.name} has no division")

    def equal(self, a, b):
        return a == b

    def random_value(self, rng):
        raise NotImplementedError

    def to_json(self, a):
        raise NotImplementedError

    def from_json(self, data):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class IntegerRing(Semiring):
    name = "integers"
    has_zero = True
    has_additive_inverse = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def zero(self):
        return 0

    def one(self):
        return 1

    def negate(self, a):
        return -a

    def random_value(self, rng):
        return rng.randint(-9, 9)

    def to_json(self, a):
        return a

    def from_json(self, data):
        if type(data) is not int:
            raise ValueError(f"expected integer, got {data!r}")
        return data


class RationalField(IntegerRing):
    name = "rationals"
    has_division = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def divide(self, a, b):
        if b == 0:
            raise NotInvertible("division by zero")
        return Fraction(a) / b

    def random_value(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def to_json(self, a):
        return _frac_to_json(Fraction(a))

    def from_json(self, data):
        return _frac_from_json(data)


class PositiveRationals(Semiring):
    """Strictly positive rationals with ordinary + and *: no zero, division."""

    name = "positive-rationals"
    has_division = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def one(self):
        return Fraction(1)

    def divide(self, a, b):
        return Fraction(a) / b

    def random_value(self, rng):
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    def to_json(self, a):
        return _frac_to_json(Fraction(a))

    def from_json(self, data):
        value = _frac_from_json(data)
        if value <= 0:
            raise ValueError(f"{data!r} is not positive")
        return value


class TropicalIntegers(Semiring):
    """Integers with max as addition and + as multiplication."""

    name = "tropical-int"
    has_division = True

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return a + b

    def one(self):
        return 0

    def divide(self, a, b):
        return a - b

    def random_value(self, rng):
        return rng.randint(-9, 9)

    def to_json(self, a):
        return a

    def from_json(self, data):
        if type(data) is not int:
            raise ValueError(f"expected tropical integer, got {data!r}")
        return data


class TropicalRationals(TropicalIntegers):
    name = "tropical-rat"

    def random_value(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def to_json(self, a):
        return _frac_to_json(Fraction(a))

    def from_json(self, data):
        return _frac_from_json(data)


class PolynomialRing(Semiring):
    """Polynomials over the integers in named variables, canonical form."""

    has_zero = True
    has_additive_inverse = True

    def __init__(self, variables):
        self.variables = tuple(variables)
        if len(set(self.variables)) < len(self.variables):
            twice = next(v for k, v in enumerate(self.variables) if v in self.variables[:k])
            raise ValueError(f"poly: variable {twice!r} repeats")
        self.name = "poly[" + ",".join(self.variables) + "]"

    def var(self, name_or_index, power=1):
        index = (
            name_or_index
            if isinstance(name_or_index, int)
            else self.variables.index(name_or_index)
        )
        return Polynomial.variable(len(self.variables), index, power)

    def const(self, c):
        return Polynomial.constant(len(self.variables), c)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def zero(self):
        return Polynomial(len(self.variables))

    def one(self):
        return self.const(1)

    def negate(self, a):
        return -a

    def random_value(self, rng):
        n = len(self.variables)
        poly = self.zero()
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            poly = poly + Polynomial(n, {exps: rng.randint(-3, 3)})
        return poly

    def to_json(self, a):
        out = []
        for exps, coeff in sorted(a.terms.items()):
            entry = {
                name: e for name, e in zip(self.variables, exps) if e
            }
            out.append({"exps": entry, "coeff": coeff})
        return out

    def from_json(self, data):
        """Terms ``{"exps": {variable: int}, "coeff": int}``, each monomial
        once; a bad term is named by its place in the list, from 1."""
        if not isinstance(data, list):
            raise ValueError(f"expected a list of terms, got {data!r}")
        terms = {}
        for k, item in enumerate(data, 1):
            if not isinstance(item, dict) or not isinstance(item.get("exps"), dict):
                raise ValueError(f"term {k}: expected an object with exps and coeff")
            if type(item.get("coeff")) is not int:
                raise ValueError(f"term {k}: coeff {item.get('coeff')!r} is not an integer")
            exps = [0] * len(self.variables)
            for name, e in item["exps"].items():
                if name not in self.variables:
                    raise ValueError(f"term {k}: unknown variable {name!r}")
                if type(e) is not int:
                    raise ValueError(f"term {k}: exponent {e!r} of {name!r} is not an integer")
                exps[self.variables.index(name)] = e
            if tuple(exps) in terms:
                raise ValueError(f"term {k}: repeats the monomial of an earlier term")
            terms[tuple(exps)] = item["coeff"]
        return Polynomial(len(self.variables), terms)


class StarExtended(Semiring):
    """A semiring without zero, extended by the neutral/absorbing tag STAR."""

    def __init__(self, inner):
        if inner.has_zero:
            raise ValueError("star extension is only for semirings without zero")
        self.inner = inner
        self.name = f"star[{inner.name}]"
        self.has_division = inner.has_division

    has_zero = True

    def add(self, a, b):
        if a is STAR:
            return b
        if b is STAR:
            return a
        return self.inner.add(a, b)

    def mul(self, a, b):
        if a is STAR or b is STAR:
            return STAR
        return self.inner.mul(a, b)

    def zero(self):
        return STAR

    def one(self):
        return self.inner.one()

    def divide(self, a, b):
        if b is STAR:
            raise NotInvertible("cannot divide by the star element")
        if a is STAR:
            return STAR
        return self.inner.divide(a, b)

    def random_value(self, rng):
        if rng.random() < 0.2:
            return STAR
        return self.inner.random_value(rng)

    def to_json(self, a):
        if a is STAR:
            return "star"
        return self.inner.to_json(a)

    def from_json(self, data):
        if data == "star":
            return STAR
        return self.inner.from_json(data)


INTEGERS = IntegerRing()
RATIONALS = RationalField()
POSITIVE_RATIONALS = PositiveRationals()
TROPICAL_INT = TropicalIntegers()
TROPICAL_RAT = TropicalRationals()


def polynomial_ring(*variables):
    return PolynomialRing(variables)


def star_extend(inner):
    if isinstance(inner, StarExtended):
        return inner
    return StarExtended(inner)


def fold_sum(spec, values):
    """Left fold of the semiring addition; empty input needs a neutral."""
    values = list(values)
    if not values:
        if spec.has_zero:
            return spec.zero()
        raise EmptySumWithoutNeutral(
            f"empty sum in {spec.name}; wrap with star_extend for a neutral"
        )
    acc = values[0]
    for v in values[1:]:
        acc = spec.add(acc, v)
    return acc


def fold_product(spec, values):
    """Left fold of the semiring multiplication; empty input yields one."""
    values = list(values)
    if not values:
        return spec.one()
    acc = values[0]
    for v in values[1:]:
        acc = spec.mul(acc, v)
    return acc


def parse_semiring(text):
    """Parse a command-line semiring descriptor such as 'tropical-int'.
    Any number of 'star:' prefixes give one star extension, since
    ``star_extend`` is idempotent."""
    base = {
        "integers": INTEGERS,
        "rationals": RATIONALS,
        "positive-rationals": POSITIVE_RATIONALS,
        "tropical-int": TROPICAL_INT,
        "tropical-rat": TROPICAL_RAT,
    }
    rest = text
    while rest.startswith("star:"):
        rest = rest[len("star:") :]
    if rest in base:
        spec = base[rest]
    elif rest.startswith("poly:"):
        spec = polynomial_ring(*[v for v in rest[len("poly:") :].split(",") if v])
    else:
        raise ValueError(f"unknown semiring {rest!r}")
    return spec if rest == text else star_extend(spec)
