"""Counterexample networks for unbalanced pattern pairs.

Given a discriminating matching M (one whose multiplicity differs between
the two matching multisets), a unit-weight planar network is synthesized so
that a proper pair (C, C') has exactly one flow and one complementary flow
when M is feasible for it, and none otherwise.  Summing the quadratic
identity then counts matchings on each side and the counts disagree.

Layout: terminals sit on the unit circle at rational points obtained from
the tangent half-angle parametrization; each matching couple becomes a
segment subdivided into an alternating thin path; bridges (thick edges) tie
the paths together; crossings of middle bridges with vertical segments are
resolved by splitting the crossing point into a short extra edge.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import semiring as sr
from .errors import (
    NotPlanarMatching,
    PatternsBalanced,
    WitnessGeometryError,
)
from .flows import FlowFunction
from .network import PlanarNetwork, proper_intersection_point, validate
from .patterns import (
    LOWER,
    UPPER,
    PlanarMatching,
    embed_matching,
    is_balanced,
    is_noncrossing,
)
from .relations import RelationInstance, check_sets


def _circle_point(t):
    p, q = t.numerator, t.denominator  # ((1 - t^2), 2t) / (1 + t^2) at t = p/q
    return Fraction(q * q - p * p, p * p + q * q), Fraction(2 * p * q, p * p + q * q)


# The upper half mirrors the lower: Y' sits at parameter +(n'+1-e) where Y
# sits at -(n+1-e), and every upper thin path and bridge runs reversed.
_Side = namedtuple("_Side", "key terminal path bridge xterminal reversed")
_SIDES = (
    _Side(LOWER, "s", "L", "lower-bridge", "xsrc", False),
    _Side(UPPER, "t", "U", "upper-bridge", "xsnk", True),
)


# ``network`` has unit integer weights in vertex mode; ``matching`` is the
# PlanarMatching on the original (Y, Y'); ``edge_class`` maps each edge to
# thin, lower-bridge, upper-bridge, b-edge, v-edge or extra; ``flows`` is
# the integer FlowFunction that answers every count.
WitnessNetwork = namedtuple("WitnessNetwork", "network matching edge_class flows")


def _nesting_children(couples):
    """Immediate-successor lists for a non-crossing set of (i, j) couples.

    One scan by left end: the stack holds the couples still open, so after
    popping those that end before c starts its top is c's parent."""
    couples = sorted(couples)
    children = {c: [] for c in couples}
    roots = []
    stack = []
    for c in couples:
        while stack and stack[-1][1] < c[0]:
            stack.pop()
        (children[stack[-1]] if stack else roots).append(c)
        stack.append(c)
    return roots, children


def _build_core(n_tilde, matching, points, xterms):
    """Steps 1-5 on a ground set where every terminal is matched.

    ``points[side][e]`` is the circle point of tilde terminal e.  An element
    of X or X' holds two adjacent tilde positions, but ``xterms[(side, i,
    i + 1)]`` gives its couple as one (name, point): that terminal is the
    couple's only even vertex and its whole path, with no thin edges.
    """
    vertices = {}
    edge_class = {}  # in insertion order, the network's edges

    for e in range(1, n_tilde + 1):
        for side in _SIDES:
            if e in points[side.key]:
                vertices[f"{side.terminal}{e}"] = points[side.key][e]

    couples = (matching.lower_couples(), matching.upper_couples())
    lower, upper = couples
    verticals = matching.verticals()

    # Each couple becomes a subdivided segment whose edges alternate in
    # direction; its even and odd inner vertices carry the bridges.
    evens = {}
    odds = {}
    for side in _SIDES:
        for i, j in couples[side.key]:
            if (side.key, i, j) in xterms:
                name, vertices[name] = xterms[(side.key, i, j)]
                inner = names = [name]
            else:
                a = vertices[f"{side.terminal}{i}"]
                b = vertices[f"{side.terminal}{j}"]
                inner = []
                for k in range(1, j - i + 1):
                    frac = Fraction(k, j - i + 1)
                    name = f"{side.path}{i}.{j}.{k}"
                    vertices[name] = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
                    inner.append(name)
                names = [f"{side.terminal}{i}", *inner, f"{side.terminal}{j}"]
            evens[(side.key, i, j)] = inner[0::2]
            odds[(side.key, i, j)] = inner[1::2]
            for k in range(len(names) - 1):
                edge = (names[k], names[k + 1])
                edge_class[edge if (k % 2 == 0) != side.reversed else edge[::-1]] = "thin"

    # Lower and upper bridges between nested couples.
    roots = []
    for side in _SIDES:
        side_roots, children = _nesting_children(couples[side.key])
        roots.append(side_roots)
        for (i, j), kids in children.items():
            if not kids:
                continue
            W = [v for kid in kids for v in evens[(side.key, *kid)]]
            V = odds[(side.key, i, j)]
            if len(W) != len(V):
                raise WitnessGeometryError("bridge endpoint counts disagree")
            for w, v in zip(W, V):
                edge_class[(v, w) if side.reversed else (w, v)] = side.bridge

    # Middle bridges between maximal couples.
    Q = [v for c in sorted(roots[LOWER]) for v in evens[(LOWER, *c)]]
    Qp = [v for c in sorted(roots[UPPER]) for v in evens[(UPPER, *c)]]
    if len(Q) != len(Qp) or len(Q) != len(lower) or len(upper) != len(lower):
        raise WitnessGeometryError("middle bridge counts disagree")
    middle = list(zip(Q, Qp))

    # Crossings of middle bridges with vertical segments.
    bridge_cross = {b: [] for b in middle}
    vert_cross = {(i, j): [] for i, j in verticals}
    for b in middle:
        pa, pb = vertices[b[0]], vertices[b[1]]
        for i, j in verticals:
            pc, pd = vertices[f"s{i}"], vertices[f"t{j}"]
            hit = proper_intersection_point(pa, pb, pc, pd)
            if hit is None:
                continue
            point, t_b, t_v = hit
            bridge_cross[b].append((t_b, (i, j), point))
            vert_cross[(i, j)].append((t_v, b, point))

    # Split each crossing into a lower point z' and an upper point z'' on the
    # bridge; the bridge runs through the extra edge z'->z'' while the
    # vertical path zigzags through it backwards.
    tiny = Fraction(1, 16 * (n_tilde + 1))
    names_of_crossing = {}
    for b, crossings in bridge_cross.items():
        crossings.sort()
        ts = [t for t, _, _ in crossings]
        if len(set(ts)) != len(ts):
            raise WitnessGeometryError("two crossings coincide on a bridge")
        pa, pb = vertices[b[0]], vertices[b[1]]
        for idx, (t, vkey, point) in enumerate(crossings):
            prev_t = ts[idx - 1] if idx > 0 else Fraction(0)
            next_t = ts[idx + 1] if idx + 1 < len(ts) else Fraction(1)
            delta = min((t - prev_t) / 4, (next_t - t) / 4, tiny)
            if delta <= 0:
                raise WitnessGeometryError("crossing too close to a neighbor")
            lo = f"z.{b[0]}.{vkey[0]}a"
            hi = f"z.{b[0]}.{vkey[0]}b"
            for name, at in ((lo, t - delta), (hi, t + delta)):
                vertices[name] = (pa[0] + at * (pb[0] - pa[0]), pa[1] + at * (pb[1] - pa[1]))
            names_of_crossing[(b, vkey)] = (lo, hi)
        # assemble the bridge path
        chain = [b[0]]
        for t, vkey, _ in crossings:
            lo, hi = names_of_crossing[(b, vkey)]
            chain.extend([lo, hi])
        chain.append(b[1])
        for k in range(0, len(chain) - 1, 2):
            edge_class[chain[k], chain[k + 1]] = "b-edge"
        for k in range(1, len(chain) - 1, 2):
            edge_class[chain[k], chain[k + 1]] = "extra"

    for (i, j), crossings in vert_cross.items():
        crossings.sort()
        ts = [t for t, _, _ in crossings]
        if len(set(ts)) != len(ts):
            raise WitnessGeometryError("two crossings coincide on a vertical")
        chain = [f"s{i}"]
        for t, b, _ in crossings:
            lo, hi = names_of_crossing[((b[0], b[1]), (i, j))]
            chain.extend([hi, lo])
        chain.append(f"t{j}")
        for k in range(0, len(chain) - 1, 2):
            edge_class[chain[k], chain[k + 1]] = "v-edge"

    return vertices, edge_class


def build_witness_network(X, Y, Xp, Yp, matching):
    """The unit-weight network encoding a planar matching on (Y, Y').

    Each element of X/X' holds two adjacent matched tilde positions, and
    their couple is built as one terminal.  There is one layout: a drawing
    that fails ``validate`` raises ``WitnessGeometryError``.
    """
    X, Y, Xp, Yp = check_sets(X, Y, Xp, Yp)
    n = max(X | Y, default=0)
    nprime = max(Xp | Yp, default=0)

    elems = matching.elements()
    expected = {(LOWER, y) for y in Y} | {(UPPER, y) for y in Yp}
    if elems != expected:
        raise NotPlanarMatching("matching must cover Y u Y' exactly")
    if not is_noncrossing(Y, Yp, matching):
        raise NotPlanarMatching("matching chords cross")

    # One walk per side over the ground set, in terminal order: an element
    # of Y takes one tilde position, an element of X two adjacent ones whose
    # terminal sits at the midpoint of their circle points, and a gap is an
    # isolated pad terminal at its own circle slot.
    grounds = ((X, Y, n), (Xp, Yp, nprime))
    points = ({}, {})
    xterms = {}
    couples = []
    tilde_pos = {}
    terminals = ([], [])
    pads = {}
    for side in _SIDES:
        xs, ys, m = grounds[side.key]
        sign = 1 if side.reversed else -1
        pos = 0
        for e in range(1, m + 1):
            base = Fraction(sign * (m + 1 - e))
            if e in xs:
                vid = f"{side.xterminal}{e}"
                a, b = (_circle_point(base + d) for d in (Fraction(1, 4), Fraction(-1, 4)))
                xterms[(side.key, pos + 1, pos + 2)] = (vid, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
                couples.append(((side.key, pos + 1), (side.key, pos + 2)))
                pos += 2
            elif e in ys:
                pos += 1
                points[side.key][pos] = _circle_point(base)
                tilde_pos[(side.key, e)] = pos
                vid = f"{side.terminal}{pos}"
            else:
                vid = f"pad_{side.terminal}{e}"
                pads[vid] = _circle_point(base)
            terminals[side.key].append(vid)

    couples += [
        tuple(sorted(((p[0], tilde_pos[p]), (q[0], tilde_pos[q]))))
        for p, q in matching.couples
    ]
    vertices, edge_class = _build_core(
        2 * len(X) + len(Y), PlanarMatching(couples), points, xterms
    )
    vertices.update(pads)

    network = PlanarNetwork(vertices, tuple(edge_class), tuple(terminals[LOWER]),
                            tuple(terminals[UPPER]), "vertex", {v: 1 for v in vertices})

    report = validate(network)
    if not report["ok"]:
        raise WitnessGeometryError(f"layout failed validation: {report}")
    return WitnessNetwork(network, matching, edge_class, FlowFunction(sr.INTEGERS, network))


def find_discriminating_matching(pattern_a, pattern_b):
    """A matching with different multiplicities in the two multisets."""
    result = is_balanced(pattern_a, pattern_b)
    if result.balanced:
        raise PatternsBalanced("patterns are balanced; no witness exists")
    return result.witness, result.count_a, result.count_b


def audit_witness(wn, X, Y, Xp, Yp):
    """Exhaustive flow-count check of the two defining properties.

    For every proper pair (C, C'): both flow sets are singletons when the
    encoded matching is feasible for (C, C'), and at least one is empty
    otherwise.  Pairs come in mask order of C, then of C'.
    """
    X, Y, Xp, Yp = map(frozenset, (X, Y, Xp, Yp))
    f = wn.flows
    cases = []
    Ys, Yps = sorted(Y), sorted(Yp)
    # The rule of ``patterns._odd_points`` on bit masks: bit k stands for
    # the lower point Ys[k] and bit |Y| + k for the upper point Yps[k], and
    # ``odd`` holds the odd points of (C, C'), those of C and those of Y'
    # off C'.  A couple is feasible when exactly one end is odd; a point off
    # (Y, Y') has no bit and is never odd.
    bit = {(LOWER, y): 1 << k for k, y in enumerate(Ys)}
    bit.update({(UPPER, y): 1 << (len(Ys) + k) for k, y in enumerate(Yps)})
    ends = [(bit.get(p, 0), bit.get(q, 0)) for p, q in wn.matching.couples]
    # (C, C') is proper when 2|C'| = 2|C| - |Y| + |Y'|: each C meets only the
    # C' of one size, listed by 2|C'| in mask order with their odd points.
    uppers = {}
    for maskp in range(1 << len(Yps)):
        Cp = frozenset(Yps[k] for k in range(len(Yps)) if maskp >> k & 1)
        odd_upper = ((1 << len(Yps)) - 1 - maskp) << len(Ys)
        uppers.setdefault(2 * len(Cp), []).append((Cp, odd_upper))
    for mask in range(1 << len(Ys)):
        C = frozenset(Ys[k] for k in range(len(Ys)) if mask >> k & 1)
        for Cp, odd_upper in uppers.get(2 * len(C) - len(Y) + len(Yp), ()):
            odd = mask | odd_upper
            feasible = all(bool(odd & p) != bool(odd & q) for p, q in ends)
            count1 = f(X | C, Xp | Cp)
            count2 = f(X | (Y - C), Xp | (Yp - Cp))
            good = count1 == count2 == 1 if feasible else 0 in (count1, count2)
            cases.append({"C": sorted(C), "Cprime": sorted(Cp), "feasible": feasible,
                          "counts": [count1, count2], "ok": good})
    return {"ok": all(case["ok"] for case in cases), "cases": cases}


def demonstrate_violation(pattern_a, pattern_b, X, Y, Xp, Yp):
    """Build the witness and evaluate both sides over the integers, w == 1."""
    # The identity's sets and sizes are checked before anything is built.
    ri = RelationInstance.from_patterns(pattern_a, pattern_b, X, Y, Xp, Yp)
    matching0, count_a, count_b = find_discriminating_matching(pattern_a, pattern_b)
    matching = embed_matching(matching0, sorted(Y), sorted(Yp))
    wn = build_witness_network(X, Y, Xp, Yp, matching)
    return dict(ri.sides(sr.INTEGERS, wn.flows), network=wn, matching=matching,
                count_a=count_a, count_b=count_b)
