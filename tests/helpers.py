"""Shared test utilities: independent oracles, pattern generators and a
small branching network."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from planarflows.flows import Flow, fg_value
from planarflows.network import (
    PlanarNetwork,
    convex_hull,
    cross,
    find_cycle,
    on_segment,
    segments_intersect,
)
from planarflows.patterns import (
    LOWER,
    UPPER,
    PlanarMatching,
    _circle_points,
    _normalize_pattern,
    _odd_points,
    is_balanced,
    is_proper,
    matching_is_feasible,
    stock_pattern,
    two_pattern,
)
from planarflows.schur import ssyt_fillings
from planarflows.semiring import INTEGERS, Polynomial, fold_product


def diamond_network():
    """Three sources, three sinks, one branching diamond in the middle."""
    F = Fraction
    verts = {
        "s1": (F(0), F(0)), "s2": (F(2), F(0)), "s3": (F(4), F(0)),
        "v1": (F(3), F(2)), "c": (F(2), F(3)), "d": (F(4), F(3)),
        "v2": (F(3), F(4)),
        "t1": (F(0), F(6)), "t2": (F(3), F(6)), "t3": (F(6), F(6)),
    }
    edges = (
        ("s2", "v1"), ("s3", "v1"), ("v1", "c"), ("v1", "d"),
        ("c", "v2"), ("d", "v2"), ("v2", "t1"), ("v2", "t2"), ("s1", "t1"),
    )
    return PlanarNetwork(
        verts, edges, ("s1", "s2", "s3"), ("t1", "t2", "t3"), "vertex",
        {v: 1 for v in verts},
    )


class TuplePolynomial:
    """Reference polynomial: exponent tuples mapped to nonzero integer
    coefficients, multiplied pair by pair with tuple arithmetic."""

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {tuple(e): c for e, c in (terms or {}).items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return TuplePolynomial(self.nvars, terms)

    def __neg__(self):
        return TuplePolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return TuplePolynomial(self.nvars, terms)

    def __eq__(self, other):
        return self.nvars == other.nvars and self.terms == other.terms

    def substitute(self, values):
        total = 0
        for exps, coeff in self.terms.items():
            for v, e in zip(values, exps):
                coeff *= v**e
            total += coeff
        return total


def scanned_hull_position(point, hull):
    """Perimeter parameter of a point on the hull boundary, found by scanning
    every hull edge clockwise; None off the boundary."""
    k = len(hull)
    if k == 1:
        return Fraction(0) if point == hull[0] else None
    clockwise = list(reversed(hull))
    for idx in range(len(clockwise)):
        a = clockwise[idx]
        b = clockwise[(idx + 1) % len(clockwise)]
        if a == b:
            continue
        if cross(a, b, point) != 0 or not on_segment(point, a, b):
            continue
        if point == b:
            continue  # attribute to the next edge's start
        dx, dy = b[0] - a[0], b[1] - a[1]
        if abs(dx) >= abs(dy):
            t = Fraction(point[0] - a[0], dx)
        else:
            t = Fraction(point[1] - a[1], dy)
        return idx + t
    return None


def _leaving(coords, edge, v):
    """The vector from vertex v to the other end of an edge at v."""
    other = edge[1] if edge[0] == v else edge[0]
    return coords[other][0] - coords[v][0], coords[other][1] - coords[v][1]


def validate_oracle(network):
    """Independent planarity report: the drawing's own coordinates, a hull
    scan per terminal and an exact test of every pair of edges.  Edges that
    share a vertex id may touch only at that vertex; all other pairs may not
    touch at all."""
    report = {
        "acyclic": True,
        "cycle": None,
        "terminal_order_ok": True,
        "terminal_issues": [],
        "planar_ok": True,
        "crossings": [],
    }
    cycle = find_cycle(network)
    if cycle is not None:
        report["acyclic"] = False
        report["cycle"] = cycle

    for name, terms in (("sources", network.sources), ("sinks", network.sinks)):
        for v in dict.fromkeys(terms):
            if terms.count(v) > 1:
                report["terminal_order_ok"] = False
                report["terminal_issues"].append(f"{v} repeats in {name}")
    hull = convex_hull(network.vertices.values())
    ordered_terms = list(reversed(network.sources)) + list(network.sinks)
    positions = []
    for term in ordered_terms:
        pos = scanned_hull_position(network.vertices[term], hull)
        if pos is None:
            report["terminal_order_ok"] = False
            report["terminal_issues"].append(f"{term} not on the convex boundary")
        positions.append(pos)
    if report["terminal_order_ok"] and positions:
        vals = [p for p in positions if p is not None]
        descents = sum(
            1 for i in range(len(vals)) if vals[(i + 1) % len(vals)] < vals[i]
        )
        if descents > 1:
            report["terminal_order_ok"] = False
            report["terminal_issues"].append(
                "terminals are not in clockwise order s_n..s_1,t_1..t_n'"
            )

    coords = network.vertices
    edges = list(network.edges)
    boxes = []
    for a, b in edges:
        pa, pb = coords[a], coords[b]
        boxes.append(
            (min(pa[0], pb[0]), max(pa[0], pb[0]), min(pa[1], pb[1]), max(pa[1], pb[1]))
        )
    for i in range(len(edges)):
        pa, pb = coords[edges[i][0]], coords[edges[i][1]]
        bi = boxes[i]
        for j in range(i + 1, len(edges)):
            bj = boxes[j]
            if bi[1] < bj[0] or bj[1] < bi[0] or bi[3] < bj[2] or bj[3] < bi[2]:
                continue
            shared = set(edges[i]) & set(edges[j])
            if shared == set(edges[i]) == set(edges[j]):
                hit = True  # one segment drawn twice
            elif shared:
                # Edges from one vertex overlap exactly when they leave it
                # along the same ray.
                (v,) = shared
                (ux, uy), (wx, wy) = (_leaving(coords, e, v) for e in (edges[i], edges[j]))
                hit = ux * wy == uy * wx and ux * wx + uy * wy > 0
            else:
                pc, pd = coords[edges[j][0]], coords[edges[j][1]]
                hit = segments_intersect(pa, pb, pc, pd)
            if hit:
                report["planar_ok"] = False
                report["crossings"].append([list(edges[i]), list(edges[j])])

    report["ok"] = (
        report["acyclic"] and report["terminal_order_ok"] and report["planar_ok"]
    )
    return report


def flow_weight(spec, network, flow):
    """One flow's weight: the product of the weights of the vertices it
    visits, or of the weighted edges it uses."""
    if network.weight_mode == "vertex":
        used = {v for path in flow.paths for v in path}
        return fold_product(spec, [network.weights[v] for v in sorted(used)])
    present = [network.weights[e] for e in sorted(flow.edges()) if e in network.weights]
    return fold_product(spec, present)


def flow_to_json(flow):
    return {
        "I": list(flow.source_idx),
        "Iprime": list(flow.sink_idx),
        "paths": [list(p) for p in flow.paths],
    }


def flow_from_json(data):
    return Flow(
        tuple(data["I"]),
        tuple(data["Iprime"]),
        tuple(tuple(p) for p in data["paths"]),
    )


def brute_force_flows(network, I, Iprime):
    """Independent path-system enumerator: all simple directed paths per
    terminal pair, then a product filter for vertex-disjointness."""
    adj = {}
    for tail, head in network.edges:
        adj.setdefault(tail, []).append(head)

    def all_paths(s, t):
        out = []

        def walk(v, seen, acc):
            if v == t:
                out.append(tuple(acc))
                return
            for u in sorted(adj.get(v, [])):
                if u not in seen:
                    walk(u, seen | {u}, acc + [u])

        walk(s, {s}, [s])
        return out

    I, Iprime = sorted(I), sorted(Iprime)
    per_pair = [
        all_paths(network.sources[i - 1], network.sinks[j - 1])
        for i, j in zip(I, Iprime)
    ]
    systems = [[]]
    for options in per_pair:
        systems = [
            sys + [p]
            for sys in systems
            for p in options
            if not (set(p) & {v for q in sys for v in q})
        ]
    return sorted(tuple(sys) for sys in systems)


def tableau_poly(lam, mu, N):
    """The skew Schur polynomial in x_1..x_N counted tableau by tableau: one
    monomial per ``ssyt_fillings`` filling, x_h to the number of h entries."""
    counts = {}
    for filling in ssyt_fillings(lam, mu, N):
        exps = [0] * N
        for v in filling.values():
            exps[v - 1] += 1
        counts[tuple(exps)] = counts.get(tuple(exps), 0) + 1
    return Polynomial(N, counts)


def chords_cross(pos, c1, c2):
    """Whether two chords cross, given each point's circle position."""
    a, b = sorted((pos[c1[0]], pos[c1[1]]))
    c, d = sorted((pos[c2[0]], pos[c2[1]]))
    return (a < c < b) != (a < d < b)


def is_noncrossing_pairwise(Y, Yp, matching):
    """Oracle: test every pair of chords for a crossing."""
    pos = {p: k for k, p in enumerate(_circle_points(Y, Yp))}
    return not any(
        chords_cross(pos, c1, c2) for c1, c2 in combinations(sorted(matching.couples), 2)
    )


def feasible_matchings_search(Y, Yp, A, Ap):
    """Oracle: pair the first point of each segment with every partner of
    the other kind, recursing inside and outside the chord."""
    points = _circle_points(Y, Yp)
    odd = _odd_points(Yp, A, Ap)

    def rec(segment):
        if not segment:
            return [[]]
        out = []
        first = segment[0]
        for k in range(1, len(segment), 2):
            partner = segment[k]
            if (first in odd) == (partner in odd):
                continue
            for m1 in rec(segment[1:k]):
                for m2 in rec(segment[k + 1:]):
                    out.append([(first, partner)] + m1 + m2)
        return out

    return sorted(PlanarMatching(cs) for cs in rec(points))


def balance_by_matching_multisets(pattern_a, pattern_b):
    """Oracle for ``is_balanced``: each side's feasible matchings, listed by
    the recursive search, as a Counter of ``PlanarMatching``s, and the least
    differing matching.  Returns (balanced, witness, count_a, count_b)."""
    counts = []
    for pattern in map(_normalize_pattern, (pattern_a, pattern_b)):
        Y, Yp = frozenset(range(1, pattern.m + 1)), frozenset(range(1, pattern.m_prime + 1))
        count = Counter()
        for A, Ap, mult in pattern.members:
            for m in feasible_matchings_search(Y, Yp, A, Ap):
                count[m] += mult
        counts.append(count)
    ma, mb = counts
    if ma == mb:
        return True, None, 0, 0
    witness = sorted(m for m in set(ma) | set(mb) if ma[m] != mb[m])[0]
    return False, witness, ma[witness], mb[witness]


def perfect_matchings(points):
    """Every perfect matching of a list of points, as lists of couples."""
    if not points:
        yield []
        return
    first = points[0]
    for k in range(1, len(points)):
        for rest in perfect_matchings(points[1:k] + points[k + 1:]):
            yield [(first, points[k])] + rest


def all_feasible_matchings_bruteforce(Y, Yp, A, Ap):
    """Oracle: filter every perfect matching by the three conditions."""
    points = [(LOWER, y) for y in sorted(Y)] + [(UPPER, y) for y in sorted(Yp)]
    if len(points) % 2:
        return []
    out = []
    for cs in perfect_matchings(points):
        m = PlanarMatching(cs)
        if matching_is_feasible(m, Y, Yp, A, Ap) and is_noncrossing_pairwise(Y, Yp, m):
            out.append(m)
    out.sort()
    return out


def proper_pairs(Y, Yp):
    Y, Yp = sorted(Y), sorted(Yp)
    out = []
    for ka in range(len(Y) + 1):
        for A in combinations(Y, ka):
            for kb in range(len(Yp) + 1):
                for Ap in combinations(Yp, kb):
                    if is_proper(frozenset(Y), frozenset(Yp), frozenset(A), frozenset(Ap)):
                        out.append((frozenset(A), frozenset(Ap)))
    return out


def audit_by_masks(wn, X, Y, Xp, Yp):
    """Oracle for ``audit_witness``: every pair of subset masks of Y and Y',
    the proper pairs kept, each count a fresh ``fg_value``."""
    X, Y, Xp, Yp = map(frozenset, (X, Y, Xp, Yp))
    Ys, Yps = sorted(Y), sorted(Yp)
    cases = []
    for mask in range(1 << len(Ys)):
        C = frozenset(Ys[k] for k in range(len(Ys)) if mask >> k & 1)
        for maskp in range(1 << len(Yps)):
            Cp = frozenset(Yps[k] for k in range(len(Yps)) if maskp >> k & 1)
            if not is_proper(Y, Yp, C, Cp):
                continue
            feasible = matching_is_feasible(wn.matching, Y, Yp, C, Cp)
            counts = [fg_value(INTEGERS, wn.network, X | C, Xp | Cp),
                      fg_value(INTEGERS, wn.network, X | (Y - C), Xp | (Yp - Cp))]
            good = counts == [1, 1] if feasible else 0 in counts
            cases.append({"C": sorted(C), "Cprime": sorted(Cp), "feasible": feasible,
                          "counts": counts, "ok": good})
    return {"ok": all(case["ok"] for case in cases), "cases": cases}


def random_proper_pair(rng, m, mp):
    ground, ground_p = list(range(1, m + 1)), list(range(1, mp + 1))
    while True:
        A = frozenset(v for v in ground if rng.random() < 0.5)
        want = len(A) - (m - mp) // 2
        if 0 <= want <= mp:
            Ap = frozenset(rng.sample(ground_p, want))
            return A, Ap


def _pattern_key(pair):
    a, b = (_normalize_pattern(p) for p in pair)
    return (a.m, a.m_prime, a.members, b.members)


def random_balanced_patterns(seed, count, max_total=8):
    """Seeded balanced pairs built from constructions that guarantee balance:
    stock pairs, parity families, sums, side swaps, and common members."""
    rng = random.Random(seed)
    pool = []

    def push(a, b):
        pool.append((a, b))

    for kind in ("p3", "p4", "quintuple", "dodgson", "homogeneous3", "rowdecomposition3"):
        push(*stock_pattern(kind))

    attempts = 0
    out = []
    seen = set()
    while len(out) < count and attempts < count * 60:
        attempts += 1
        roll = rng.random()
        if roll < 0.35 or not pool:
            p = rng.choice([2, 3, 4])
            m = rng.choice([x for x in range(p + 1, 2 * p + 1) if 2 * p <= max_total])
            q = m - p
            if p < q:
                continue
            A0 = frozenset(rng.sample(range(1, m + 1), p))
            comp = sorted(set(range(1, m + 1)) - A0)
            if not comp:
                continue
            Z = frozenset(rng.sample(comp, rng.randint(1, len(comp))))
            pair = stock_pattern("aa4", m=m, p=p, A0=A0, Z=Z)
        elif roll < 0.55:
            p = rng.choice([2, 3, 4])
            m = rng.choice([x for x in range(p + 2, 2 * p + 1) if 2 * p <= max_total])
            q = m - p
            if q < 2 or p < q:
                continue
            zsize = rng.randint(1, q - 1)
            Z = frozenset(rng.sample(range(1, m + 1), zsize))
            Zp = frozenset(v for v in Z if rng.random() < 0.5)
            pair = stock_pattern("aa5", m=m, p=p, Z=Z, Zprime=Zp)
        elif roll < 0.7:
            a, b = rng.choice(pool)
            pair = (b, a)
        elif roll < 0.85:
            a, b = rng.choice(pool)
            a, b = _normalize_pattern(a), _normalize_pattern(b)
            extra = random_proper_pair(rng, a.m, a.m_prime)
            pair = (
                two_pattern(a.m, a.m_prime, list(a.members) + [extra + (1,)]),
                two_pattern(b.m, b.m_prime, list(b.members) + [extra + (1,)]),
            )
        else:
            a, b = (_normalize_pattern(p) for p in rng.choice(pool))
            candidates = [
                (_normalize_pattern(c), _normalize_pattern(d))
                for c, d in pool
            ]
            same = [
                (c, d)
                for c, d in candidates
                if (c.m, c.m_prime) == (a.m, a.m_prime)
            ]
            if not same:
                continue
            c, d = rng.choice(same)
            pair = (
                two_pattern(a.m, a.m_prime, list(a.members) + list(c.members)),
                two_pattern(b.m, b.m_prime, list(b.members) + list(d.members)),
            )
        norm = _normalize_pattern(pair[0])
        if norm.m + norm.m_prime > max_total:
            continue
        key = _pattern_key(pair)
        if key in seen:
            continue
        seen.add(key)
        pool.append(pair)
        out.append(pair)
    if len(out) < count:
        raise RuntimeError("balanced generator exhausted")
    return out


def random_unbalanced_patterns(seed, count, max_total=8):
    rng = random.Random(seed)
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        m = rng.randint(2, max_total - 1)
        mp_choices = [
            mp for mp in range(0 if m % 2 == 0 else 1, max_total - m + 1, 2)
        ]
        mp_choices = [mp for mp in mp_choices if mp <= m]
        if not mp_choices:
            continue
        mp = rng.choice(mp_choices)
        a_members = [random_proper_pair(rng, m, mp) for _ in range(rng.randint(1, 2))]
        b_members = [random_proper_pair(rng, m, mp) for _ in range(rng.randint(1, 2))]
        try:
            a = two_pattern(m, mp, a_members)
            b = two_pattern(m, mp, b_members)
        except Exception:
            continue
        result = is_balanced(a, b)
        if result.balanced:
            continue
        key = _pattern_key((a, b))
        if key in seen:
            continue
        seen.add(key)
        out.append((a, b))
    if len(out) < count:
        raise RuntimeError("unbalanced generator exhausted")
    return out


def contexts_for(m, mp, with_padding=True):
    """Consistent (X, Y, X', Y') samples for a pattern shape, minimal first."""
    contexts = []
    if m >= mp:
        d = (m - mp) // 2
        contexts.append(
            (
                frozenset(),
                frozenset(range(1, m + 1)),
                frozenset(range(1, d + 1)),
                frozenset(range(d + 1, d + mp + 1)),
            )
        )
        if with_padding:
            contexts.append(
                (
                    frozenset({m + 1}),
                    frozenset(range(1, m + 1)),
                    frozenset(range(1, d + 2)),
                    frozenset(range(d + 2, d + mp + 2)),
                )
            )
    else:
        d = (mp - m) // 2
        contexts.append(
            (
                frozenset(range(1, d + 1)),
                frozenset(range(d + 1, d + m + 1)),
                frozenset(),
                frozenset(range(1, mp + 1)),
            )
        )
        if with_padding:
            contexts.append(
                (
                    frozenset(range(1, d + 2)),
                    frozenset(range(d + 2, d + m + 2)),
                    frozenset({mp + 1}),
                    frozenset(range(1, mp + 1)),
                )
            )
    return contexts
