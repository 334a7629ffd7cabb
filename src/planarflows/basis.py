"""Interval bases and Laurent reconstruction over division semirings.

Flag flow values on a half-grid are free on the nonempty intervals of [n]:
the vertex weights are recovered as cross-ratios of interval values, and
every other value is a subtraction-free Laurent expression in them.  The
two-sided analogue uses pressed double intervals on the full grid.
"""

from __future__ import annotations

from collections import namedtuple

from . import semiring as sr
from .errors import BadParams, DivisionUnsupported, NotInvertible
from .flows import FlowFunction
from .network import build_half_grid


def intervals(n):
    """The nonempty intervals (p, q) of [n], by start then end."""
    return [(p, q) for p in range(1, n + 1) for q in range(p, n + 1)]


def _pressed(k, kp):
    """The pressed double interval ending at (k, k'), of length min(k, k');
    ``((), ())`` when that length is 0."""
    length = min(k, kp)
    if length == 0:
        return ((), ())
    return ((k - length + 1, k), (kp - length + 1, kp))


def _cross_ratio(k, kp):
    """Numerator and denominator keys of grid vertex (k, k')'s weight:
    F(k, k') F(k-1, k'-1) / (F(k-1, k') F(k, k'-1)), F the pressed value."""
    return ((_pressed(k, kp), _pressed(k - 1, kp - 1)),
            (_pressed(k - 1, kp), _pressed(k, kp - 1)))


def _half_grid_cells(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]


def _weights_from_ratios(spec, cells, value):
    """Weight of each cell as its cross-ratio of ``value(key)``."""
    if not spec.has_division:
        raise DivisionUnsupported(f"{spec.name} has no division")
    weights = {}
    for k, kp in cells:
        num, den = (spec.mul(value(a), value(b)) for a, b in _cross_ratio(k, kp))
        weights[f"{k},{kp}"] = sr.divide(spec, num, den)
    return weights


# ---------------------------------------------------------------------------
# flag case: half-grid weights from interval values

def weights_from_intervals(spec, values, n):
    """Vertex weights on the half-grid reproducing the given interval values.

    ``values`` maps nonempty intervals (p, q) to invertible semiring values.
    (p, q) is the pressed double interval ((p, q), (1, q - p + 1)), so each
    weight is the pressed cross-ratio read through its keys' source sides.
    """
    return _weights_from_ratios(
        spec, _half_grid_cells(n),
        lambda key: values[key[0]] if key[0] else spec.one())


def interval_values_from_weights(spec, weights, n):
    """Interval values of the half-grid weighting (unique flows, so products)."""
    out = {}
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            acc = None
            for i in range(1, q + 1):
                for j in range(1, min(i, q - p + 1) + 1):
                    w = weights[f"{i},{j}"]
                    acc = w if acc is None else spec.mul(acc, w)
            out[(p, q)] = acc
    return out


# ---------------------------------------------------------------------------
# basis assignments and reconstruction

# ``case`` is "flag-intervals" or "pressed-double-intervals"; ``values``
# maps each pressed double interval to its value over ``spec``.
BasisAssignment = namedtuple("BasisAssignment", "case values spec")


def flag_assignment(spec, n, values):
    """Interval values as the pressed basis on sinks 1..|S|: the interval
    (p, q) is stored as ((p, q), (1, q - p + 1)), and () as ((), ()).
    ``n`` is not stored: the keys of ``values`` carry the shape."""
    vals = {(iv, (1, iv[1] - iv[0] + 1)) if iv else ((), ()): v for iv, v in values.items()}
    vals.setdefault(((), ()), spec.one())
    return BasisAssignment("flag-intervals", vals, spec)


def pressed_basis(n, n_prime):
    """Pressed double intervals, one per grid vertex, plus the empty pair."""
    return [((), ())] + [_pressed(k, kp) for k in range(1, n + 1)
                         for kp in range(1, n_prime + 1)]


def pressed_assignment(spec, n, n_prime, values):
    """Pressed double-interval values, ((), ()) defaulting to one; as in
    ``flag_assignment``, the sizes are not stored."""
    vals = dict(values)
    vals.setdefault(((), ()), spec.one())
    return BasisAssignment("pressed-double-intervals", vals, spec)


def weights_from_pressed(spec, values, n, n_prime):
    """Grid vertex weights from pressed double-interval values."""
    return _weights_from_ratios(
        spec, [(k, kp) for k in range(1, n + 1) for kp in range(1, n_prime + 1)],
        lambda key: values[key] if key[0] else spec.one())


def reconstruct_value(assignment, target):
    """Value of the flow function at ``target`` determined by the basis.

    A flag target S is the double target (S, 1..|S|), whose basis keys are
    pressed against sink 1, so both cases run one descent: a non-interval
    side (S first) is peeled by the three-term exchange at its first gap,
    and an unpressed double interval shrinks by the condensation step.  The
    descent is an explicit depth-first stack over memoised states (S, S'),
    children left to right, so a deep descent does not grow the call stack.
    """
    spec = assignment.spec
    if not spec.has_division:
        raise DivisionUnsupported(f"{spec.name} has no division")
    if assignment.case == "flag-intervals":
        S = frozenset(target)
        Sp = frozenset(range(1, len(S) + 1))
    elif assignment.case == "pressed-double-intervals":
        S, Sp = map(frozenset, target)
    else:
        raise BadParams(f"unknown basis case {assignment.case!r}")

    basis = assignment.values.__getitem__
    divide, add, mul = spec.divide, spec.add, spec.mul
    start, memo = (S, Sp), {}
    stack = [(start, None)]
    while stack:
        key, parts = stack.pop()
        if parts is not None:
            # Every part is done: the value is (ab + cd) / e.
            a, b, c, d, e = map(memo.__getitem__, parts)
            memo[key] = divide(add(mul(a, b), mul(c, d)), e)
            continue
        if key in memo:
            continue
        S, Sp = key
        if not S:
            memo[key] = basis(((), ()))
            continue
        lo, hi = min(S), max(S)
        lop, hip = min(Sp), max(Sp)
        interval = hi - lo + 1 == len(S)
        if interval and hip - lop + 1 == len(Sp):
            if lo == 1 or lop == 1:
                memo[key] = basis(((lo, hi), (lop, hip)))
                continue
            # Unpressed double interval: condensation descent.
            X, Xp = S - {hi}, Sp - {hip}
            ti, tip = lo - 1, lop - 1
            parts = ((X | {ti, hi}, Xp | {tip, hip}), (X, Xp), (X | {hi}, Xp | {tip}),
                     (X | {ti}, Xp | {hip}), (X | {ti}, Xp | {tip}))
        else:
            # Three-term exchange across the first gap of the non-interval
            # side A, S before S'; the other side B drops its largest index.
            if interval:
                A, i, k, B, top = Sp, lop, hip, S, hi
            else:
                A, i, k, B, top = S, lo, hi, Sp, hip
            X, Bx = A - {i, k}, B - {top}
            j = i + 1
            while j in A:
                j += 1
            parts = ((X | {i, j}, B), (X | {k}, Bx), (X | {j, k}, B), (X | {i}, Bx),
                     (X | {j}, Bx))
            if interval:  # the exchange ran on S': put each state back as (S, S')
                parts = tuple((b, a) for a, b in parts)
        # Children left to right, each finished before the next starts.
        stack.append((key, parts))
        for part in reversed(parts):
            if part not in memo:
                stack.append((part, None))
    return memo[start]


# ---------------------------------------------------------------------------
# Laurent expansion (flag case)

# ``target`` is a frozenset; ``monomials`` holds (sorted tuple of
# (interval, exponent), multiplicity) pairs.
class LaurentExpansion(namedtuple("LaurentExpansion", "target monomials")):
    __slots__ = ()

    def exponent_range(self):
        exps = set()
        for mono, _ in self.monomials:
            exps.update(e for _, e in mono)
        return exps


def _weight_exponents(n):
    """Exponent map of each half-grid vertex weight in interval values."""
    out = {}
    for i, j in _half_grid_cells(n):
        terms = {}
        for sign, keys in zip((1, -1), _cross_ratio(i, j)):
            for iv, _ in keys:
                if iv:
                    terms[iv] = terms.get(iv, 0) + sign
        out[f"{i},{j}"] = {iv: e for iv, e in terms.items() if e}
    return out


def laurent_expand(n, target):
    """Expansion of a flag value as Laurent monomials in interval values.

    The flow value of the half-grid whose vertex weights are their
    cross-ratio substitutions, one variable per nonempty interval: each
    flow contributes one monomial and like monomials are collected.
    """
    target = frozenset(target)
    ivs = intervals(n)
    weights = {
        v: sr.Polynomial(len(ivs), {tuple(exps.get(iv, 0) for iv in ivs): 1})
        for v, exps in _weight_exponents(n).items()
    }
    ring = sr.PolynomialRing(f"{p}..{q}" for p, q in ivs)
    net = build_half_grid(n).with_vertex_weights(weights)
    value = FlowFunction(ring, net)(target, range(1, len(target) + 1))
    monomials = tuple(sorted(
        (tuple((ivs[k], e) for k, e in enumerate(exps) if e), mult)
        for exps, mult in value.terms.items()
    ))
    return LaurentExpansion(target, monomials)


def eval_expansion(spec, expansion, values):
    """Evaluate a Laurent expansion at given interval values."""
    if not spec.has_division:
        raise DivisionUnsupported(f"{spec.name} has no division")
    terms = []
    for mono, mult in expansion.monomials:
        acc = spec.one()
        for iv, e in mono:
            acc = spec.mul(acc, sr.power(spec, values[iv], e))
        terms.extend([acc] * mult)
    if not terms:
        raise NotInvertible("empty expansion cannot be evaluated")
    return sr.fold_sum(spec, terms)


# ---------------------------------------------------------------------------
# convenience: sample values straight off a weighted network

def flag_values_from_network(spec, network, n):
    f = FlowFunction(spec, network)
    return {(p, q): f(range(p, q + 1), range(1, q - p + 2))
            for p in range(1, n + 1) for q in range(p, n + 1)}


def pressed_values_from_network(spec, network, n, n_prime):
    f = FlowFunction(spec, network)
    return {(iv, ivp): f(range(iv[0], iv[1] + 1), range(ivp[0], ivp[1] + 1))
            for iv, ivp in pressed_basis(n, n_prime) if iv != ()}
