"""Seeded input generators for the benchmark workloads.

Every generator takes the loaded library namespace (see ``run.load_library``)
and a ``random.Random``; the same seed gives the same inputs.  Nothing here
imports from the repository's tests.

Inputs come in rounds with a fixed recipe order: the recipe (construction,
shape, member counts, network, k) is the same for every seed, and the seed
picks the sets, weights and matrix entries inside it.  Op costs depend mostly
on the recipe, so the mix of costs a run sees does not depend on the seed,
and runs with different seeds can be compared.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

MAX_TOTAL = 8          # m + m' bound for every pattern pair
STOCK_KINDS = ("p3", "p4", "quintuple", "dodgson", "homogeneous3", "rowdecomposition3")


def _random_proper_pair(rng, m, mp):
    """A random (A, A') with |[m]| - |[m']| = 2(|A| - |A'|)."""
    while True:
        A = frozenset(v for v in range(1, m + 1) if rng.random() < 0.5)
        want = len(A) - (m - mp) // 2
        if 0 <= want <= mp:
            return A, frozenset(rng.sample(range(1, mp + 1), want))


# ---------------------------------------------------------------------------
# balanced pairs (prove)

def _aa_recipes():
    """Every aa4 (p, m, |Z|) and aa5 (p, m, |Z|, |Z'|) with m <= MAX_TOTAL.

    These fix the member count and the flag shape (m, |2p - m|), so
    m + m' <= 8 throughout.
    """
    recipes = []
    for p in (2, 3, 4):
        for m in range(p + 1, min(2 * p, MAX_TOTAL) + 1):
            q = m - p
            recipes += [("aa4", p, m, z) for z in range(1, q + 1)]
            recipes += [("aa5", p, m, z, zp) for z in range(1, q) for zp in range(z + 1)]
    return recipes


AA_RECIPES = _aa_recipes()
BALANCED_PER_ROUND = len(STOCK_KINDS) + 2 * len(AA_RECIPES)


def _aa_pair(pf, rng, recipe):
    kind, p, m, z = recipe[:4]
    if kind == "aa4":
        A0 = frozenset(rng.sample(range(1, m + 1), p))
        Z = frozenset(rng.sample(sorted(set(range(1, m + 1)) - A0), z))
        return pf.patterns.stock_pattern("aa4", m=m, p=p, A0=A0, Z=Z)
    Z = frozenset(rng.sample(range(1, m + 1), z))
    Zp = frozenset(rng.sample(sorted(Z), recipe[4]))
    return pf.patterns.stock_pattern("aa5", m=m, p=p, Z=Z, Zprime=Zp)


def balanced_round(pf, rng):
    """One round of balanced pairs, all with m + m' <= MAX_TOTAL.

    Built only by constructions the paper proves balanced: the stock pairs,
    one aa4/aa5 pair per recipe, and per recipe one derived pair, in turn a
    side swap, both sides plus one common member, or the sum with a second
    pair of the same recipe.  The round is returned in a seeded order, so a
    run that stops inside a round sees an unbiased part of it.
    """
    P = pf.patterns
    pairs = [P.stock_pattern(kind) for kind in STOCK_KINDS]
    for idx, recipe in enumerate(AA_RECIPES):
        a, b = _aa_pair(pf, rng, recipe)
        pairs.append((a, b))
        a, b = P._normalize_pattern(a), P._normalize_pattern(b)
        if idx % 3 == 0:
            pairs.append((b, a))
            continue
        if idx % 3 == 1:
            extra_a = extra_b = [_random_proper_pair(rng, a.m, a.m_prime) + (1,)]
        else:
            c, d = (P._normalize_pattern(x) for x in _aa_pair(pf, rng, recipe))
            extra_a, extra_b = list(c.members), list(d.members)
        pairs.append((
            P.two_pattern(a.m, a.m_prime, list(a.members) + extra_a),
            P.two_pattern(b.m, b.m_prime, list(b.members) + extra_b),
        ))
    rng.shuffle(pairs)
    return pairs


def schur_cases():
    """All tworow (i < j <= k < l <= 5) and condensation (parts <= 3, two or
    three of them) identities at N = 3 and 4: 62 cases."""
    cases = []
    for N in (3, 4):
        for i, j, k, ell in combinations(range(1, 6), 4):
            cases.append(("tworow", [i, j, k, ell], N))
        for i, j, ell in combinations(range(1, 6), 3):
            cases.append(("tworow", [i, j, j, ell], N))
        for r in (2, 3):
            cases += [("condensation", list(parts), N)
                      for parts in combinations_with_replacement((3, 2, 1), r)]
    return cases


# ---------------------------------------------------------------------------
# unbalanced pairs (refute)

def _refute_recipes():
    """Shapes (m, m') with m' <= m, same parity, m + m' <= MAX_TOTAL, times
    member counts per side; (2, 0) has no unbalanced pair with equal counts."""
    recipes = []
    for m in range(2, MAX_TOTAL):
        for mp in range(m % 2, min(m, MAX_TOTAL - m) + 1, 2):
            for counts in ((1, 1), (1, 2), (2, 1), (2, 2)):
                if (m, mp) == (2, 0) and counts[0] == counts[1]:
                    continue
                recipes.append((m, mp) + counts)
    return recipes


REFUTE_RECIPES = _refute_recipes()


def unbalanced_pair(pf, rng, m, mp, count_a, count_b):
    """A random 2-pattern pair on ([m], [m']) that ``is_balanced`` rejects."""
    P = pf.patterns
    while True:
        a = P.two_pattern(m, mp, [_random_proper_pair(rng, m, mp) for _ in range(count_a)])
        b = P.two_pattern(m, mp, [_random_proper_pair(rng, m, mp) for _ in range(count_b)])
        if not P.is_balanced(a, b).balanced:
            return a, b


def unbalanced_round(pf, rng):
    """One unbalanced pair per recipe, in a seeded order."""
    pairs = [unbalanced_pair(pf, rng, *recipe) for recipe in REFUTE_RECIPES]
    rng.shuffle(pairs)
    return pairs


def contexts(m, mp):
    """The minimal (X, Y, X', Y') context for a shape and its padded twin."""
    if m >= mp:
        d = (m - mp) // 2
        return [
            (frozenset(), frozenset(range(1, m + 1)),
             frozenset(range(1, d + 1)), frozenset(range(d + 1, d + mp + 1))),
            (frozenset({m + 1}), frozenset(range(1, m + 1)),
             frozenset(range(1, d + 2)), frozenset(range(d + 2, d + mp + 2))),
        ]
    d = (mp - m) // 2
    return [
        (frozenset(range(1, d + 1)), frozenset(range(d + 1, d + m + 1)),
         frozenset(), frozenset(range(1, mp + 1))),
        (frozenset(range(1, d + 2)), frozenset(range(d + 2, d + m + 2)),
         frozenset({mp + 1}), frozenset(range(1, mp + 1))),
    ]


# ---------------------------------------------------------------------------
# matrices and weighted networks (evaluate, cli)

def rational_matrix(pf, rng, n):
    """An n x n matrix of nonzero rationals, so elimination is generic."""
    rows = [[Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 5))
             for _ in range(n)] for _ in range(n)]
    return pf.lindstrom.exact_matrix(pf.semiring.RATIONALS, rows)


def vertex_weighted(pf, net, spec, rng):
    """The network with every vertex carrying a random value of ``spec``."""
    weights = {v: spec.random_value(rng) for v in net.vertices}
    return pf.network.PlanarNetwork(
        net.vertices, net.edges, net.sources, net.sinks, "vertex", weights)


# (builder, size, I, I', flows): at most 36 vertices, k <= 3.
EVAL_CASES = (
    ("gv", (6, 6), [1, 2, 3], [4, 5, 6], 980),
    ("grid", (6, 6), [2, 4, 6], [2, 4, 6], 1744),
    ("gv", (6, 6), [1, 3, 5], [2, 4, 6], 216),
    ("gv", (5, 5), [1, 2], [3, 5], 175),
    ("grid", (6, 6), [6], [6], 252),
)


def eval_case(pf, rng, slot, spec):
    kind, size, I, Ip, _ = EVAL_CASES[slot]
    build = pf.network.build_grid if kind == "grid" else pf.network.build_gv_grid
    return vertex_weighted(pf, build(*size), spec, rng), spec, I, Ip


# ("flag", n) on a half-grid or ("pressed", (n, n')) on a grid.
RECON_CASES = (("flag", 5), ("flag", 6), ("flag", 7), ("pressed", (4, 3)))
RECON_TARGETS = 4


def recon_case(pf, rng, slot, spec):
    """A weighted network and RECON_TARGETS seeded targets to reconstruct."""
    kind, size = RECON_CASES[slot]
    if kind == "flag":
        net = pf.network.build_half_grid(size)
        choices = [frozenset(c) for r in range(1, size + 1)
                   for c in combinations(range(1, size + 1), r)]
    else:
        net = pf.network.build_grid(*size)
        n, np_ = size
        choices = [(frozenset(c), frozenset(d)) for r in range(1, np_ + 1)
                   for c in combinations(range(1, n + 1), r)
                   for d in combinations(range(1, np_ + 1), r)]
    return kind, size, vertex_weighted(pf, net, spec, rng), spec, rng.sample(choices, RECON_TARGETS)
