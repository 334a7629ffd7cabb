"""Evaluate quadratic flow identities concretely and symbolically."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from . import semiring as sr
from .errors import InconsistentSets, RingRequired
from .flows import FlowFunction
from .network import build_half_grid, truncated_grid
from .patterns import embed_two

DEFAULT_VERTEX_BUDGET = 36


def check_sets(X, Y, Xp, Yp):
    """(X, Y, X', Y') as frozensets; overlapping sides or sizes with
    2|X| + |Y| != 2|X'| + |Y'| are refused."""
    X, Y, Xp, Yp = frozenset(X), frozenset(Y), frozenset(Xp), frozenset(Yp)
    if X & Y or Xp & Yp:
        raise InconsistentSets("X,Y (and X',Y') must be disjoint")
    if 2 * len(X) + len(Y) != 2 * len(Xp) + len(Yp):
        raise InconsistentSets("2|X| + |Y| must equal 2|X'| + |Y'|")
    return X, Y, Xp, Yp


def _pattern_pair(a, b):
    if (a.m, a.m_prime) != (b.m, b.m_prime):
        raise InconsistentSets("patterns live on different shapes")
    return a, b


@dataclass
class RelationInstance:
    """One quadratic identity: the families of a pattern pair embedded on
    (Y, Y'), around X and X'.  The values come from a network or from
    elsewhere, such as matrix minors."""

    X: frozenset
    Y: frozenset
    Xp: frozenset
    Yp: frozenset
    family_a: dict   # (A, A') -> multiplicity, subsets of (Y, Y')
    family_b: dict

    def __post_init__(self):
        self.X, self.Y, self.Xp, self.Yp = check_sets(self.X, self.Y, self.Xp, self.Yp)

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
            for (A, Ap), mult in sorted(
                family.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))
            ):
                terms += [spec.mul(f(X | A, Xp | Ap), f(X | (Y - A), Xp | (Yp - Ap)))] * mult
            return sr.fold_sum(spec, terms)

        lhs, rhs = side(self.family_a), side(self.family_b)
        return {"lhs": lhs, "rhs": rhs, "equal": spec.equal(lhs, rhs)}


def evaluate_sq(ri, spec, network):
    """Both sides of the quadratic identity on ``network`` over ``spec``.

    When the base semiring lacks a zero, empty flow sets are absorbed by
    moving to its star extension.
    """
    spec = spec if spec.has_zero else sr.star_extend(spec)
    return dict(ri.sides(spec, FlowFunction(spec, network)), spec=spec)


@dataclass
class InstanceConfig:
    """Sampling knobs for symbolic verification."""

    max_cases: int = 4
    vertex_budget: int = DEFAULT_VERTEX_BUDGET


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


def verify_symbolic(pattern_a, pattern_b, config=None, instances=None):
    """Check the identity with one polynomial variable per weighted vertex.

    Exact polynomial equality on every sampled instance is strong evidence of
    stability; the decision procedure proper is ``patterns.is_balanced``.
    """
    a, b = _pattern_pair(pattern_a, pattern_b)
    if instances is None:
        instances = default_instances(a.m, a.m_prime, config)
    cases = []
    for net, X, Y, Xp, Yp in instances:
        ring = sr.polynomial_ring(*[f"w_{v}" for v in net.vertices])
        weights = {v: ring.var(k) for k, v in enumerate(net.vertices)}
        ri = RelationInstance.from_patterns(a, b, X, Y, Xp, Yp)
        result = evaluate_sq(ri, ring, net.with_vertex_weights(weights))
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


# ---------------------------------------------------------------------------
# the signed flag-manifold identity

def inversions(I, J):
    return sum(1 for i in I for j in J if i > j)


def flag_manifold_relation(f, I, J, Z, spec):
    """Signed quadratic identity on flag values over a ring.

    ``f`` maps a set of column indices to a ring value (e.g. a flag minor).
    """
    if not spec.has_additive_inverse:
        raise RingRequired("the signed identity needs additive inverses")
    I, J, Z = frozenset(I), frozenset(J), frozenset(Z)
    if len(I) < len(J):
        raise InconsistentSets("need |I| >= |J|")
    if not Z <= J - I:
        raise InconsistentSets("Z must sit inside J - I")
    lhs = spec.mul(f(I), f(J))
    a = len(Z) + inversions(I - J, J - I)
    rhs = spec.zero()
    for K in combinations(sorted(I - J), len(Z)):
        K = frozenset(K)
        left = (I - K) | Z
        right = (J - Z) | K
        sign = (-1) ** ((a + inversions(left, right)) % 2)
        term = spec.mul(f(left), f(right))
        if sign < 0:
            term = spec.negate(term)
        rhs = spec.add(rhs, term)
    return {"lhs": lhs, "rhs": rhs, "equal": spec.equal(lhs, rhs)}
