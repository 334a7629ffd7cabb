"""Interval bases and reconstruction over division semirings.

Flag flow values on a half-grid are free on the nonempty intervals of [n]:
every other value is a subtraction-free Laurent expression in them, reached
by exchange and condensation steps.  The two-sided analogue uses pressed
double intervals on the full grid.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BadParams, DivisionUnsupported
from .flows import FlowFunction


def _pressed(k, kp):
    """The pressed double interval ending at (k, k'), of length min(k, k');
    ``((), ())`` when that length is 0."""
    length = min(k, kp)
    if length == 0:
        return ((), ())
    return ((k - length + 1, k), (kp - length + 1, kp))


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
# convenience: sample values straight off a weighted network

def flag_values_from_network(spec, network, n):
    f = FlowFunction(spec, network)
    return {(p, q): f(range(p, q + 1), range(1, q - p + 2))
            for p in range(1, n + 1) for q in range(p, n + 1)}


def pressed_values_from_network(spec, network, n, n_prime):
    f = FlowFunction(spec, network)
    return {(iv, ivp): f(range(iv[0], iv[1] + 1), range(ivp[0], ivp[1] + 1))
            for iv, ivp in pressed_basis(n, n_prime) if iv != ()}
