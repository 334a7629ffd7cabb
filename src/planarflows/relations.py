"""Evaluate quadratic flow identities concretely and symbolically."""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache

from . import semiring as sr
from .errors import BadInput, InconsistentSets
from .flows import FlowFunction
from .network import build_half_grid, truncated_grid
from .patterns import embed_two

DEFAULT_VERTEX_BUDGET = 36


def check_sets(X, Y, Xp, Yp):
    """(X, Y, X', Y') as frozensets; overlapping sides or sizes with
    2|X| + |Y| != 2|X'| + |Y'| are refused."""
    X, Y, Xp, Yp = frozenset(X), frozenset(Y), frozenset(Xp), frozenset(Yp)
    if X & Y:
        raise InconsistentSets(f"Y: {sorted(X & Y)} also in X; X and Y must be disjoint")
    if Xp & Yp:
        raise InconsistentSets(f"Yprime: {sorted(Xp & Yp)} also in Xprime; X' and Y' must be disjoint")
    if 2 * len(X) + len(Y) != 2 * len(Xp) + len(Yp):
        raise InconsistentSets(f"sets: 2|X| + |Y| = {2 * len(X) + len(Y)} must equal "
                               f"2|X'| + |Y'| = {2 * len(Xp) + len(Yp)}")
    return X, Y, Xp, Yp


def _pattern_pair(a, b):
    if (a.m, a.m_prime) != (b.m, b.m_prime):
        raise InconsistentSets(f"B0: shape ({b.m},{b.m_prime}) differs from A0's ({a.m},{a.m_prime})")
    return a, b


class RelationInstance:
    """One quadratic identity: the families of a pattern pair embedded on
    (Y, Y'), around X and X'.  The values come from a network or from
    elsewhere, such as matrix minors."""

    def __init__(self, X, Y, Xp, Yp, family_a, family_b):
        self.X, self.Y, self.Xp, self.Yp = check_sets(X, Y, Xp, Yp)
        self.family_a = family_a  # (A, A') -> multiplicity, subsets of (Y, Y')
        self.family_b = family_b

    @classmethod
    def from_patterns(cls, pattern_a, pattern_b, X, Y, Xp, Yp):
        """Both patterns, of one shape, embedded on (Y, Y') by the
        order-preserving bijections, with the sets checked."""
        a, b = _pattern_pair(pattern_a, pattern_b)
        Y_sorted, Yp_sorted = sorted(Y), sorted(Yp)
        return cls(X, Y, Xp, Yp,
                   embed_two(a, Y_sorted, Yp_sorted), embed_two(b, Y_sorted, Yp_sorted))

    def sides(self, spec, f):
        """Both sides of the identity, the sum over each family of
        f(X u A | X' u A') * f(X u (Y - A) | X' u (Y' - A')) over ``spec``."""
        X, Y, Xp, Yp = self.X, self.Y, self.Xp, self.Yp

        def side(family):
            terms = []
            for (A, Ap), mult in family.items():
                terms += [spec.mul(f(X | A, Xp | Ap), f(X | (Y - A), Xp | (Yp - Ap)))] * mult
            return sr.fold_sum(spec, terms)

        lhs, rhs = side(self.family_a), side(self.family_b)
        return {"lhs": lhs, "rhs": rhs, "equal": spec.equal(lhs, rhs)}


def evaluate_sq(ri, spec, network):
    """Both sides of the quadratic identity on ``network`` over ``spec``.

    When the base semiring lacks a zero, empty flow sets are absorbed by
    moving to its star extension.  A generic network from ``_generic`` is
    read through the FlowFunction it carries, whose walk memos are dropped
    afterwards; any other network gets a FlowFunction for this call.
    """
    spec = spec if spec.has_zero else sr.star_extend(spec)
    f = getattr(network, "flows", None)
    if f is None or f.spec is not spec:
        f = FlowFunction(spec, network)
    sides = ri.sides(spec, f)
    f.drop_memos()
    return dict(sides, spec=spec)


# Sampling knobs for symbolic verification.
InstanceConfig = namedtuple("InstanceConfig", "max_cases vertex_budget",
                            defaults=(4, DEFAULT_VERTEX_BUDGET))


def default_sets(m, m_prime):
    """The first (X, Y, X', Y') for a shape (m, m'): the longer of Y, Y' is
    [m] or [m']; on the shorter side X or X' takes the first |m - m'| // 2
    slots and Y or Y' the ones after."""
    if m >= m_prime:
        d = (m - m_prime) // 2
        return (frozenset(), frozenset(range(1, m + 1)),
                frozenset(range(1, d + 1)), frozenset(range(d + 1, d + m_prime + 1)))
    d = (m_prime - m) // 2
    return (frozenset(range(1, d + 1)), frozenset(range(d + 1, d + m + 1)),
            frozenset(), frozenset(range(1, m_prime + 1)))


def default_instances(m, m_prime, config=None):
    """Concrete (network, X, Y, X', Y') choices for a pattern shape.

    Grids (truncated to the vertex budget) cover every shape; half-grids are
    added when n = n' fits the budget.  Sets are order-preserving samples.
    """
    config = config or InstanceConfig()
    rng = random.Random(0)
    cases = []

    def grid_case(X, Y, Xp, Yp):
        n = max(Y | X) if Y | X else 1
        np_ = max(Yp | Xp) if Yp | Xp else 1
        net = truncated_grid(n, np_, config.vertex_budget)
        cases.append((net, X, Y, Xp, Yp))

    X, Y, Xp, Yp = default_sets(m, m_prime)
    grid_case(X, Y, Xp, Yp)

    if len(cases) < config.max_cases:
        # Shift everything one slot to the right and add a spectator column.
        X2 = frozenset(x + 1 for x in X)
        Y2 = frozenset(y + 1 for y in Y)
        Xp2 = frozenset(x + 1 for x in Xp)
        Yp2 = frozenset(y + 1 for y in Yp)
        grid_case(X2, Y2, Xp2, Yp2)

    if len(cases) < config.max_cases:
        # A sparser random placement with one extra X/X' element when it fits.
        n = m + 2
        y_vals = sorted(rng.sample(range(1, n + 1), m)) if m else []
        Y3 = frozenset(y_vals)
        rest = sorted(set(range(1, n + 1)) - Y3)
        X3 = frozenset(rest[:1])
        k = 2 * len(X3) + m
        mp_needed = m_prime
        dp = (k - mp_needed) // 2
        if dp >= 0:
            np_ = dp + mp_needed + 1
            pool = list(range(1, np_ + 1))
            yp_vals = sorted(rng.sample(pool, mp_needed)) if mp_needed else []
            Yp3 = frozenset(yp_vals)
            restp = sorted(set(pool) - Yp3)
            if len(restp) >= dp:
                Xp3 = frozenset(restp[:dp])
                grid_case(X3, Y3, Xp3, Yp3)

    if m == m_prime or m_prime == 0:
        k = max(m, 1)
        if k * (k + 1) // 2 <= config.vertex_budget and len(cases) < config.max_cases:
            # Y is all of [m]; X' takes the first m // 2 slots when m' = 0.
            Y = frozenset(range(1, m + 1))
            Xp = frozenset() if m == m_prime else frozenset(range(1, m // 2 + 1))
            Yp = Y if m == m_prime else frozenset()
            cases.append((build_half_grid(k), frozenset(), Y, Xp, Yp))
    return cases[: config.max_cases]


def _generic(instances):
    """Each (network, X, Y, X', Y') as (ring, weighted network, X, Y, X', Y'):
    the network weighted by one variable of the ring per vertex, carrying its
    FlowFunction as ``flows``.  Entries that hold one network object share
    its ring, weighted network and flow values."""
    out, generic = [], {}
    for net, X, Y, Xp, Yp in instances:
        if id(net) not in generic:
            ring = sr.polynomial_ring(*[f"w_{v}" for v in net.vertices])
            weighted = net.with_vertex_weights({v: ring.var(k) for k, v in enumerate(net.vertices)})
            weighted.flows = FlowFunction(ring, weighted)
            generic[id(net)] = ring, weighted
        out.append((*generic[id(net)], X, Y, Xp, Yp))
    return tuple(out)


@lru_cache
def _default_generic(m, m_prime, config):
    """The generic ``default_instances`` of a shape, built once per shape.
    Their flow values stay with the entry, so each (I, I') of a shape is
    walked once; walk memos do not outlive a check."""
    return _generic(default_instances(m, m_prime, config))


def verify_symbolic(pattern_a, pattern_b, config=None, instances=None):
    """Check the identity with one polynomial variable per weighted vertex.

    Exact polynomial equality on every sampled instance is strong evidence of
    stability; the decision procedure proper is ``patterns.is_balanced``.
    A check with no instance to run (``max_cases`` below 1, or an empty
    ``instances``) is refused rather than reported equal.
    """
    a, b = _pattern_pair(pattern_a, pattern_b)
    if instances is None:
        config = config or InstanceConfig()
        if config.max_cases < 1:
            raise BadInput(f"max_cases: {config.max_cases} leaves no case to check")
        generic = _default_generic(a.m, a.m_prime, config)
    elif not instances:
        raise BadInput("instances: no case to check")
    else:
        generic = _generic(instances)
    cases = []
    for ring, net, X, Y, Xp, Yp in generic:
        ri = RelationInstance.from_patterns(a, b, X, Y, Xp, Yp)
        result = evaluate_sq(ri, ring, net)
        cases.append(
            {
                "network_vertices": len(net.vertices),
                "X": sorted(X),
                "Y": sorted(Y),
                "Xprime": sorted(Xp),
                "Yprime": sorted(Yp),
                "equal": result["equal"],
            }
        )
    return {"cases": cases, "all_equal": all(c["equal"] for c in cases)}
