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
from dataclasses import dataclass
from fractions import Fraction

from . import semiring as sr
from .errors import (
    InconsistentSets,
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
    is_proper,
    matching_is_feasible,
)
from .relations import RelationInstance, check_sets, evaluate_sq


def _circle_point(t):
    denom = 1 + t * t
    return ((1 - t * t) / denom, 2 * t / denom)


# The upper half mirrors the lower: Y' sits at parameter +(n'+1-e) where Y
# sits at -(n+1-e), and every upper thin path and bridge runs reversed.
_Side = namedtuple("_Side", "key terminal path bridge doubled reversed")
_SIDES = (
    _Side(LOWER, "s", "L", "lower-bridge", "xsrc", False),
    _Side(UPPER, "t", "U", "upper-bridge", "xsnk", True),
)


@dataclass
class WitnessNetwork:
    network: PlanarNetwork          # unit integer weights, vertex mode
    matching: PlanarMatching        # on the original (Y, Y')
    edge_class: dict                # edge -> thin | lower-bridge | upper-bridge
                                    #         | b-edge | v-edge | extra
    couple_paths: dict              # tilde couple -> ordered vertex tuple
    processing_order: tuple         # tilde couples in audit order


def _nesting_children(couples):
    """Immediate-successor lists for a nested set of (i, j) couples."""
    couples = sorted(couples)
    children = {c: [] for c in couples}
    roots = []
    for c in couples:
        best = None
        for d in couples:
            if d == c:
                continue
            if d[0] < c[0] and c[1] < d[1]:
                if best is None or d[1] - d[0] < best[1] - best[0]:
                    best = d
        if best is None:
            roots.append(c)
        else:
            children[best].append(c)
    for c in children:
        children[c].sort()
    return roots, children


def _build_core(n_tilde, matching, params):
    """Steps 1-5 on a ground set where every terminal is matched.

    ``params[side][e]`` is the circle parameter of tilde terminal e.
    """
    vertices = {}
    edges = []
    edge_class = {}
    couple_paths = {}

    def add(e, cls):
        edges.append(e)
        edge_class[e] = cls

    for e in range(1, n_tilde + 1):
        for side in _SIDES:
            vertices[f"{side.terminal}{e}"] = _circle_point(params[side.key][e])

    couples = (matching.lower_couples(), matching.upper_couples())
    lower, upper = couples
    verticals = matching.verticals()

    # Each couple becomes a subdivided segment whose edges alternate in
    # direction; its even and odd inner vertices carry the bridges.
    evens = {}
    odds = {}
    for side in _SIDES:
        for i, j in couples[side.key]:
            a = vertices[f"{side.terminal}{i}"]
            b = vertices[f"{side.terminal}{j}"]
            names = [f"{side.terminal}{i}"]
            for k in range(1, j - i + 1):
                frac = Fraction(k, j - i + 1)
                name = f"{side.path}{i}.{j}.{k}"
                vertices[name] = (a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
                names.append(name)
            names.append(f"{side.terminal}{j}")
            couple_paths[((side.key, i), (side.key, j))] = tuple(names)
            evens[(side.key, i, j)] = names[1:-1:2]
            odds[(side.key, i, j)] = names[2:-1:2]
            for k in range(len(names) - 1):
                edge = (names[k], names[k + 1])
                add(edge if (k % 2 == 0) != side.reversed else edge[::-1], "thin")

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
                add((v, w) if side.reversed else (w, v), side.bridge)

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
            vertices[lo] = (
                pa[0] + (t - delta) * (pb[0] - pa[0]),
                pa[1] + (t - delta) * (pb[1] - pa[1]),
            )
            vertices[hi] = (
                pa[0] + (t + delta) * (pb[0] - pa[0]),
                pa[1] + (t + delta) * (pb[1] - pa[1]),
            )
            names_of_crossing[(b, vkey)] = (lo, hi)
        # assemble the bridge path
        chain = [b[0]]
        for t, vkey, _ in crossings:
            lo, hi = names_of_crossing[(b, vkey)]
            chain.extend([lo, hi])
        chain.append(b[1])
        for k in range(0, len(chain) - 1, 2):
            add((chain[k], chain[k + 1]), "b-edge")
        for k in range(1, len(chain) - 1, 2):
            add((chain[k], chain[k + 1]), "extra")

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
        couple_paths[((LOWER, i), (UPPER, j))] = tuple(chain)
        for k in range(0, len(chain) - 1, 2):
            add((chain[k], chain[k + 1]), "v-edge")

    return vertices, edges, edge_class, couple_paths


def _processing_order(couple_paths, edge_class, edges):
    """Order couples so some bridge side is already covered at each step."""
    thick = {"lower-bridge", "upper-bridge", "b-edge"}
    vertex_couple = {}
    for couple, path in couple_paths.items():
        for v in path:
            vertex_couple[v] = couple
    zin = {c: set() for c in couple_paths}
    zout = {c: set() for c in couple_paths}
    for e in edges:
        if edge_class[e] not in thick:
            continue
        tail, head = e
        if head in vertex_couple:
            zin[vertex_couple[head]].add(e)
        if tail in vertex_couple:
            zout[vertex_couple[tail]].add(e)
    covered = set()
    remaining = set(couple_paths)
    order = []
    while remaining:
        pick = None
        for c in sorted(remaining):
            if zin[c] <= covered or zout[c] <= covered:
                pick = c
                break
        if pick is None:
            raise WitnessGeometryError("no processing order exists")
        order.append(pick)
        covered |= zin[pick] | zout[pick]
        remaining.discard(pick)
    return tuple(order)


def build_witness_network(X, Y, Xp, Yp, matching, n=None, nprime=None, _offset=0):
    """The unit-weight network encoding a planar matching on (Y, Y').

    Nonempty X/X' are handled by doubling each element into an adjacent
    matched couple, building the core network, and shrinking the resulting
    two-edge paths back into single terminals.
    """
    X, Y, Xp, Yp = check_sets(X, Y, Xp, Yp)
    n = n or (max(X | Y) if X | Y else 0)
    nprime = nprime or (max(Xp | Yp) if Xp | Yp else 0)

    elems = matching.elements()
    expected = {(LOWER, y) for y in Y} | {(UPPER, y) for y in Yp}
    if elems != expected:
        raise NotPlanarMatching("matching must cover Y u Y' exactly")
    if not is_noncrossing(Y, Yp, matching):
        raise NotPlanarMatching("matching chords cross")

    # Doubling reduction: tilde positions for Y plus pairs for X.
    grounds = ((X, Y, n), (Xp, Yp, nprime))
    params = ({}, {})
    doubled = ([], [])
    tilde_pos = {}
    for side in _SIDES:
        xs, ys, m = grounds[side.key]
        sign = 1 if side.reversed else -1
        pos = 0
        for e in sorted(xs | ys):
            base = sign * (Fraction(m + 1 - e) - Fraction(_offset * e * e, 1024))
            if e in xs:
                params[side.key][pos + 1] = base + Fraction(sign, 4)
                params[side.key][pos + 2] = base - Fraction(sign, 4)
                doubled[side.key].append((pos + 1, pos + 2, e))
                pos += 2
            else:
                pos += 1
                params[side.key][pos] = base
                tilde_pos[(side.key, e)] = pos
    n_tilde = len(params[LOWER])
    if len(params[UPPER]) != n_tilde:
        raise InconsistentSets("doubling produced unequal tilde sizes")

    couples = [
        tuple(sorted(((p[0], tilde_pos[p]), (q[0], tilde_pos[q]))))
        for p, q in matching.couples
    ]
    for side in _SIDES:
        couples += [((side.key, a), (side.key, b)) for a, b, _ in doubled[side.key]]
    tilde_matching = PlanarMatching(couples)

    vertices, edges, edge_class, couple_paths = _build_core(
        n_tilde, tilde_matching, params
    )

    order = _processing_order(couple_paths, edge_class, edges)

    # Shrink doubled couples back into single terminals.
    removed = set()
    rename = {}
    for side in _SIDES:
        for first, second, e in doubled[side.key]:
            path = couple_paths[((side.key, first), (side.key, second))]
            if len(path) != 3:
                raise WitnessGeometryError("doubled couple path must have 3 vertices")
            removed.update((path[0], path[2]))
            rename[path[1]] = f"{side.doubled}{e}"

    def keep(edge):
        return edge[0] not in removed and edge[1] not in removed

    final_vertices = {
        rename.get(v, v): p for v, p in vertices.items() if v not in removed
    }
    final_edges = []
    final_class = {}
    for e in edges:
        if not keep(e):
            continue
        e2 = (rename.get(e[0], e[0]), rename.get(e[1], e[1]))
        final_edges.append(e2)
        final_class[e2] = edge_class[e]

    # Terminal lists over the full ground sets, padding gaps with isolated
    # terminals placed at their own circle slots.
    terminals = ([], [])
    for side in _SIDES:
        xs, ys, m = grounds[side.key]
        sign = 1 if side.reversed else -1
        for e in range(1, m + 1):
            if e in xs:
                vid = f"{side.doubled}{e}"
            elif e in ys:
                vid = f"{side.terminal}{tilde_pos[(side.key, e)]}"
            else:
                vid = f"pad_{side.terminal}{e}"
                final_vertices[vid] = _circle_point(Fraction(sign * (m + 1 - e)))
            terminals[side.key].append(vid)

    network = PlanarNetwork(
        final_vertices,
        tuple(final_edges),
        tuple(terminals[LOWER]),
        tuple(terminals[UPPER]),
        "vertex",
        {v: 1 for v in final_vertices},
    )

    report = validate(network)
    if not report["ok"]:
        if _offset < 3:
            return build_witness_network(
                X, Y, Xp, Yp, matching, n=n, nprime=nprime, _offset=_offset + 1
            )
        raise WitnessGeometryError(f"layout failed validation: {report}")

    final_paths = {}
    for couple, path in couple_paths.items():
        kept = tuple(rename.get(v, v) for v in path if v not in removed)
        final_paths[couple] = kept
    return WitnessNetwork(
        network, matching, final_class, final_paths, order
    )


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
    otherwise.
    """
    X, Y = frozenset(X), frozenset(Y)
    Xp, Yp = frozenset(Xp), frozenset(Yp)
    f = FlowFunction(sr.INTEGERS, wn.network)
    cases = []
    ok = True
    Ys, Yps = sorted(Y), sorted(Yp)
    for mask in range(1 << len(Ys)):
        C = frozenset(Ys[k] for k in range(len(Ys)) if mask >> k & 1)
        for maskp in range(1 << len(Yps)):
            Cp = frozenset(Yps[k] for k in range(len(Yps)) if maskp >> k & 1)
            if not is_proper(Y, Yp, C, Cp):
                continue
            feasible = matching_is_feasible(wn.matching, Y, Yp, C, Cp)
            count1 = f(X | C, Xp | Cp)
            count2 = f(X | (Y - C), Xp | (Yp - Cp))
            good = (
                count1 == 1 and count2 == 1
                if feasible
                else count1 == 0 or count2 == 0
            )
            ok = ok and good
            cases.append(
                {
                    "C": sorted(C),
                    "Cprime": sorted(Cp),
                    "feasible": feasible,
                    "counts": [count1, count2],
                    "ok": good,
                }
            )
    return {"ok": ok, "cases": cases}


def demonstrate_violation(pattern_a, pattern_b, X, Y, Xp, Yp, n=None, nprime=None):
    """Build the witness and evaluate both sides over the integers, w == 1."""
    # The identity's sets and sizes are checked before anything is built.
    ri = RelationInstance.from_patterns(pattern_a, pattern_b, X, Y, Xp, Yp, sr.INTEGERS)
    matching0, count_a, count_b = find_discriminating_matching(pattern_a, pattern_b)
    matching = embed_matching(matching0, sorted(Y), sorted(Yp))
    wn = build_witness_network(X, Y, Xp, Yp, matching, n=n, nprime=nprime)
    ri.network = wn.network
    result = evaluate_sq(ri)
    return {
        "network": wn,
        "lhs": result["lhs"],
        "rhs": result["rhs"],
        "matching": matching,
        "count_a": count_a,
        "count_b": count_b,
        "equal": result["equal"],
    }
