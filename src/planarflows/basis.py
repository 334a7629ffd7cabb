"""Interval bases and Laurent reconstruction over division semirings.

Flag flow values on a half-grid are free on the nonempty intervals of [n]:
the vertex weights are recovered as cross-ratios of interval values, and
every other value is a subtraction-free Laurent expression in them.  The
two-sided analogue uses pressed double intervals on the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semiring as sr
from .errors import BadParams, DivisionUnsupported, NotInvertible
from .flows import FlowFunction
from .network import build_half_grid


def intervals(n, include_empty=True):
    out = [()] if include_empty else []
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            out.append((p, q))
    return out


def _interval_ending_at(i, length):
    """[(i - length + 1) .. i]; the empty tuple when length is 0."""
    if length == 0:
        return ()
    return (i - length + 1, i)


# ---------------------------------------------------------------------------
# flag case: half-grid weights from interval values

def weights_from_intervals(spec, values, n):
    """Vertex weights on the half-grid reproducing the given interval values.

    ``values`` maps nonempty intervals (p, q) to invertible semiring values.
    """
    if not spec.has_division:
        raise DivisionUnsupported(f"{spec.name} has no division")

    def f(iv):
        if iv == ():
            return spec.one()
        return values[iv]

    weights = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if i == j:
                num = f(_interval_ending_at(i, j))
                den = f(_interval_ending_at(i, j - 1))
            else:
                num = spec.mul(
                    f(_interval_ending_at(i, j)), f(_interval_ending_at(i - 1, j - 1))
                )
                den = spec.mul(
                    f(_interval_ending_at(i - 1, j)), f(_interval_ending_at(i, j - 1))
                )
            weights[f"{i},{j}"] = sr.divide(spec, num, den)
    return weights


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

@dataclass
class BasisAssignment:
    case: str       # "flag-intervals" | "pressed-double-intervals"
    n: int
    n_prime: int    # 0 for the flag case
    values: dict    # interval -> Value, or (interval, interval) -> Value
    spec: object


def flag_assignment(spec, n, values):
    vals = dict(values)
    vals.setdefault((), spec.one())
    return BasisAssignment("flag-intervals", n, 0, vals, spec)


def pressed_basis(n, n_prime):
    """Pressed double intervals, one per grid vertex, plus the empty pair."""
    out = [((), ())]
    for k in range(1, n + 1):
        for kp in range(1, n_prime + 1):
            length = min(k, kp)
            out.append(((k - length + 1, k), (kp - length + 1, kp)))
    return out


def pressed_assignment(spec, n, n_prime, values):
    vals = dict(values)
    vals.setdefault(((), ()), spec.one())
    return BasisAssignment("pressed-double-intervals", n, n_prime, vals, spec)


def weights_from_pressed(spec, values, n, n_prime):
    """Grid vertex weights from pressed double-interval values."""
    if not spec.has_division:
        raise DivisionUnsupported(f"{spec.name} has no division")

    def f(k, kp):
        if k == 0 or kp == 0:
            return spec.one()
        length = min(k, kp)
        return values[((k - length + 1, k), (kp - length + 1, kp))]

    weights = {}
    for k in range(1, n + 1):
        for kp in range(1, n_prime + 1):
            num = spec.mul(f(k, kp), f(k - 1, kp - 1))
            den = spec.mul(f(k - 1, kp), f(k, kp - 1))
            weights[f"{k},{kp}"] = sr.divide(spec, num, den)
    return weights


def _is_interval(S):
    S = sorted(S)
    return not S or S[-1] - S[0] + 1 == len(S)


def reconstruct_value(assignment, target):
    """Value of the flow function at ``target`` determined by the basis.

    Flag case: descend through the three-term exchange on min/max gaps.
    Double case: peel non-intervals on either side, then shrink unpressed
    double intervals by the condensation step.
    """
    spec = assignment.spec
    if not spec.has_division:
        raise DivisionUnsupported(f"{spec.name} has no division")

    if assignment.case == "flag-intervals":
        memo = {}

        def f(S):
            S = frozenset(S)
            if S in memo:
                return memo[S]
            if _is_interval(S):
                key = () if not S else (min(S), max(S))
                value = assignment.values[key]
            else:
                i, k = min(S), max(S)
                X = S - {i, k}
                j = min(set(range(i, k + 1)) - S)
                num = spec.add(
                    spec.mul(f(X | {i, j}), f(X | {k})),
                    spec.mul(f(X | {j, k}), f(X | {i})),
                )
                value = sr.divide(spec, num, f(X | {j}))
            memo[S] = value
            return value

        return f(target)

    if assignment.case == "pressed-double-intervals":
        memo = {}

        def g(S, Sp):
            S, Sp = frozenset(S), frozenset(Sp)
            key = (S, Sp)
            if key in memo:
                return memo[key]
            if not S:
                value = assignment.values[((), ())]
            elif _is_interval(S) and _is_interval(Sp) and (min(S) == 1 or min(Sp) == 1):
                value = assignment.values[((min(S), max(S)), (min(Sp), max(Sp)))]
            elif not _is_interval(S):
                i, k = min(S), max(S)
                X = S - {i, k}
                Xp = Sp - {max(Sp)}
                j = min(set(range(i, k + 1)) - S)
                num = spec.add(
                    spec.mul(g(X | {i, j}, Sp), g(X | {k}, Xp)),
                    spec.mul(g(X | {j, k}, Sp), g(X | {i}, Xp)),
                )
                value = sr.divide(spec, num, g(X | {j}, Xp))
            elif not _is_interval(Sp):
                ip, kp = min(Sp), max(Sp)
                Xp = Sp - {ip, kp}
                X = S - {max(S)}
                jp = min(set(range(ip, kp + 1)) - Sp)
                num = spec.add(
                    spec.mul(g(S, Xp | {ip, jp}), g(X, Xp | {kp})),
                    spec.mul(g(S, Xp | {jp, kp}), g(X, Xp | {ip})),
                )
                value = sr.divide(spec, num, g(X, Xp | {jp}))
            else:
                # Unpressed double interval: condensation descent.
                i, k = min(S), max(S)
                ip, kp = min(Sp), max(Sp)
                X = S - {k}
                Xp = Sp - {kp}
                ti, tip = i - 1, ip - 1
                num = spec.add(
                    spec.mul(g(X | {ti, k}, Xp | {tip, kp}), g(X, Xp)),
                    spec.mul(g(X | {k}, Xp | {tip}), g(X | {ti}, Xp | {kp})),
                )
                value = sr.divide(spec, num, g(X | {ti}, Xp | {tip}))
            memo[key] = value
            return value

        S, Sp = target
        return g(S, Sp)

    raise BadParams(f"unknown basis case {assignment.case!r}")


# ---------------------------------------------------------------------------
# Laurent expansion (flag case)

@dataclass
class LaurentExpansion:
    target: frozenset
    monomials: tuple   # ((interval, exponent) sorted tuple, multiplicity)

    def exponent_range(self):
        exps = set()
        for mono, _ in self.monomials:
            exps.update(e for _, e in mono)
        return exps

    def to_json(self):
        return {
            "target": sorted(self.target),
            "monomials": [
                {
                    "exps": {f"{p}..{q}": e for (p, q), e in mono},
                    "mult": mult,
                }
                for mono, mult in self.monomials
            ],
        }


def _weight_exponents(n):
    """Exponent map of each half-grid vertex weight in interval values."""
    out = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            terms = {}

            def add(iv, delta):
                if iv == ():
                    return
                terms[iv] = terms.get(iv, 0) + delta

            if i == j:
                add(_interval_ending_at(i, j), 1)
                add(_interval_ending_at(i, j - 1), -1)
            else:
                add(_interval_ending_at(i, j), 1)
                add(_interval_ending_at(i - 1, j - 1), 1)
                add(_interval_ending_at(i - 1, j), -1)
                add(_interval_ending_at(i, j - 1), -1)
            out[f"{i},{j}"] = {iv: e for iv, e in terms.items() if e}
    return out


def laurent_expand(n, target):
    """Expansion of a flag value as Laurent monomials in interval values.

    The flow value of the half-grid whose vertex weights are their
    cross-ratio substitutions, one variable per nonempty interval: each
    flow contributes one monomial and like monomials are collected.
    """
    target = frozenset(target)
    ivs = intervals(n, include_empty=False)
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
