"""Shared test utilities: independent oracles, input generators, the paper
checks that no command runs (the double-flow model of the sufficiency proof
among them), and a small branching network."""

import random
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, permutations

from planarflows.basis import _pressed
from planarflows.errors import (
    BadLength,
    BadParams,
    DivisionUnsupported,
    InconsistentSets,
    NotInvertible,
    PlanarFlowsError,
    RingRequired,
    SizeMismatch,
)
from planarflows.flows import Flow, FlowFunction, enumerate_flows, fg_value
from planarflows.lindstrom import GadgetFactor, _assemble, exact_matrix, flow_matrix, minor
from planarflows.network import (
    PlanarNetwork,
    build_gv_grid,
    build_half_grid,
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
    feasible_matchings,
    is_balanced,
    is_proper,
    stock_pattern,
    two_pattern,
)
from planarflows.relations import RelationInstance, check_sets
from planarflows.schur import Partition, _partition, partition_to_set, ssyt_fillings
from planarflows.semiring import (
    INTEGERS,
    RATIONALS,
    Polynomial,
    PolynomialRing,
    fold_product,
    fold_sum,
)


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


def substitute(poly, values):
    """Evaluate a polynomial at integer/Fraction values (all exponents must be >= 0)."""
    total = 0
    for exps, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(values, exps):
            if e < 0:
                raise ValueError("negative exponent in substitution")
            term *= v**e
        total += term
    return total


def power(spec, a, k):
    """a to the k-th multiplicative power; negative k uses division by a."""
    if k == 0:
        return spec.one()
    acc = a
    for _ in range(abs(k) - 1):
        acc = spec.mul(acc, a)
    return spec.divide(spec.one(), acc) if k < 0 else acc


def unit_weights(network, spec):
    """The network with every vertex (or every edge) weighted one."""
    one = spec.one()
    if network.weight_mode == "vertex":
        return network.with_vertex_weights({v: one for v in network.vertices})
    return PlanarNetwork(network.vertices, network.edges, network.sources, network.sinks,
                         "edge", {e: one for e in network.edges})


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
        if len(hull) == 2:
            # On a segment, some rotation of the positions rises, then falls.
            rotations = [vals[r:] + vals[:r] for r in range(len(vals))]
            in_order = any(
                all(a <= b for a, b in zip(rot[:k], rot[1:k]))
                and all(a >= b for a, b in zip(rot[k:], rot[k + 1:]))
                for rot in rotations for k in range(len(rot) + 1)
            )
        else:
            in_order = sum(
                1 for i in range(len(vals)) if vals[(i + 1) % len(vals)] < vals[i]
            ) <= 1
        if not in_order:
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


def flow_edges(flow):
    """The set of directed edges a flow's paths use."""
    return {(a, b) for path in flow.paths for a, b in zip(path, path[1:])}


def flow_weight(spec, network, flow):
    """One flow's weight: the product of the weights of the vertices it
    visits, or of the weighted edges it uses."""
    if network.weight_mode == "vertex":
        used = {v for path in flow.paths for v in path}
        return fold_product(spec, [network.weights[v] for v in sorted(used)])
    present = [network.weights[e] for e in sorted(flow_edges(flow)) if e in network.weights]
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


# ---------------------------------------------------------------------------
# double flows: the model of the paper's sufficiency proof, with vertex
# splitting, decomposition into circuits and couple paths, and exchange


class CoupleNotInMatching(PlanarFlowsError):
    """An exchange was requested along a couple absent from the matching."""


# The vertex-split companion of a vertex-weighted network.
#
# Every original vertex v becomes in:v -> out:v joined by a split edge
# carrying v's weight; fresh terminals src:i / snk:j attach by extra edges.
# ``network`` is the PlanarNetwork and ``edge_class`` maps each edge to
# "split", "ordinary" or "extra".  Geometric planarity is not promised here
# (only the structural laws), so ``validate`` is not meant to be applied to
# ``network``.
SplitNetwork = namedtuple("SplitNetwork", "network edge_class")


def split_vertices(network):
    """Split every vertex and re-terminalize; coincident s_i = t_j corners
    are fine since the fresh terminals attach to v-in and v-out separately."""
    if network.weight_mode != "vertex":
        raise PlanarFlowsError("split_vertices expects a vertex-weighted network")
    d = Fraction(1, 8)
    vertices = {}
    for v, (x, y) in network.vertices.items():
        vertices[f"in:{v}"] = (x - d, y - d)
        vertices[f"out:{v}"] = (x + d, y + d)
    edges = []
    edge_class = {}
    weights = {}
    for v in network.vertices:
        e = (f"in:{v}", f"out:{v}")
        edges.append(e)
        edge_class[e] = "split"
        if v in network.weights:
            weights[e] = network.weights[v]
    for tail, head in network.edges:
        e = (f"out:{tail}", f"in:{head}")
        edges.append(e)
        edge_class[e] = "ordinary"
    sources = []
    for idx, s in enumerate(network.sources, start=1):
        x, y = network.vertices[s]
        sid = f"src:{idx}"
        vertices[sid] = (x, y - Fraction(1, 2))
        e = (sid, f"in:{s}")
        edges.append(e)
        edge_class[e] = "extra"
        sources.append(sid)
    sinks = []
    for idx, t in enumerate(network.sinks, start=1):
        x, y = network.vertices[t]
        tid = f"snk:{idx}"
        vertices[tid] = (x, y + Fraction(1, 2))
        e = (f"out:{t}", tid)
        edges.append(e)
        edge_class[e] = "extra"
        sinks.append(tid)
    split = PlanarNetwork(
        vertices, tuple(edges), tuple(sources), tuple(sinks), "edge", weights
    )
    return SplitNetwork(split, edge_class)


def edge_to_vertex_mode(network, spec):
    """Subdivide weighted edges so all weights live on vertices."""
    if network.weight_mode != "edge":
        raise PlanarFlowsError("network is already vertex-weighted")
    one = spec.one()
    vertices = dict(network.vertices)
    edges = []
    weights = {v: one for v in network.vertices}
    for tail, head in network.edges:
        if (tail, head) in network.weights:
            mid = f"mid:{tail}->{head}"
            tx, ty = vertices[tail]
            hx, hy = vertices[head]
            vertices[mid] = ((tx + hx) / 2, (ty + hy) / 2)
            weights[mid] = network.weights[(tail, head)]
            edges.append((tail, mid))
            edges.append((mid, head))
        else:
            edges.append((tail, head))
    return PlanarNetwork(
        vertices, tuple(edges), network.sources, network.sinks, "vertex", weights
    )


# X, Y, Xp, Yp, A and Ap are frozensets; ``phi`` is the flow for
# (X u A | X' u A') and ``phi_prime`` the one for (X u (Y-A) | X' u (Y'-A')).
DoubleFlow = namedtuple("DoubleFlow", "split X Y Xp Yp A Ap phi phi_prime")

# ``circuits`` are frozensets of edges and ``paths`` ordered vertex tuples;
# ``couples`` holds each path's endpoint couple, aligned with ``paths``, and
# ``matching`` is their PlanarMatching.
Decomposition = namedtuple("Decomposition", "circuits paths couples matching")


def make_double_flow(split, X, Y, Xp, Yp, A, Ap, phi, phi_prime):
    X, Y, Xp, Yp = check_sets(X, Y, Xp, Yp)
    A, Ap = frozenset(A), frozenset(Ap)
    if not is_proper(Y, Yp, A, Ap):
        raise PlanarFlowsError("(A, A') is not proper for (Y, Y')")
    return DoubleFlow(split, X, Y, Xp, Yp, A, Ap, phi, phi_prime)


def enumerate_double_flows(split, X, Y, Xp, Yp, A, Ap):
    X, Y, Xp, Yp = map(frozenset, (X, Y, Xp, Yp))
    A, Ap = frozenset(A), frozenset(Ap)
    net = split.network
    first = enumerate_flows(net, sorted(X | A), sorted(Xp | Ap))
    second = enumerate_flows(net, sorted(X | (Y - A)), sorted(Xp | (Yp - Ap)))
    return [
        make_double_flow(split, X, Y, Xp, Yp, A, Ap, phi, phip)
        for phi in first
        for phip in second
    ]


def _terminal_element(vertex):
    """(LOWER, i) for the fresh source src:i, (UPPER, j) for the sink snk:j."""
    for prefix, side in (("src:", LOWER), ("snk:", UPPER)):
        if vertex.startswith(prefix):
            return (side, int(vertex[len(prefix):]))
    return None


def decompose_double_flow(df):
    """Partition the symmetric difference of the two edge sets.

    The components are circuits plus simple paths whose endpoints induce a
    feasible perfect matching on Y u Y'.
    """
    e1 = flow_edges(df.phi)
    e2 = flow_edges(df.phi_prime)
    sym = e1 ^ e2
    incidence = {}
    for a, b in sym:
        incidence.setdefault(a, []).append((a, b))
        incidence.setdefault(b, []).append((a, b))
    for v, inc in incidence.items():
        if len(inc) > 2:
            raise PlanarFlowsError(f"vertex {v} meets {len(inc)} difference edges")

    unvisited = set(sym)

    def walk(v, edge):
        """Follow unvisited edges from v, first along ``edge``, until none is
        left: the vertices passed and the edges taken, in order."""
        trail, taken = [v], []
        while edge is not None:
            unvisited.discard(edge)
            taken.append(edge)
            v = edge[1] if edge[0] == v else edge[0]
            trail.append(v)
            edge = next((e for e in incidence[v] if e in unvisited), None)
        return trail, taken

    # Paths run between the vertices of degree one, each walked from its
    # least end; every edge left over lies on a circuit.
    paths = []
    for start in sorted(v for v, inc in incidence.items() if len(inc) == 1):
        if incidence[start][0] in unvisited:
            paths.append(tuple(walk(start, incidence[start][0])[0]))
    circuits = []
    while unvisited:
        edge = min(unvisited)
        trail, taken = walk(edge[0], edge)
        if trail[-1] != trail[0]:
            raise PlanarFlowsError("difference component is neither path nor circuit")
        circuits.append(frozenset(taken))

    couples = []
    for path in paths:
        ends = []
        for v in (path[0], path[-1]):
            elem = _terminal_element(v)
            if elem is None:
                raise PlanarFlowsError(f"path endpoint {v} is not a terminal")
            ends.append(elem)
        couples.append(tuple(sorted(ends)))

    matching = PlanarMatching(frozenset(couples))
    order = sorted(range(len(paths)), key=lambda k: couples[k])
    paths = tuple(paths[k] for k in order)
    couples = tuple(couples[k] for k in order)
    return Decomposition(tuple(sorted(circuits)), paths, couples, matching)


def _flow_from_edges(split, edges, I, Iprime):
    net = split.network
    out = {}
    for a, b in edges:
        if a in out:
            raise PlanarFlowsError(f"vertex {a} has two outgoing flow edges")
        out[a] = b
    paths = []
    for i, j in zip(I, Iprime):
        v = net.sources[i - 1]
        target = net.sinks[j - 1]
        trail = [v]
        while v != target:
            if v not in out:
                raise PlanarFlowsError("exchange produced a broken path")
            v = out[v]
            trail.append(v)
        paths.append(tuple(trail))
    used = sum(len(p) - 1 for p in paths)
    if used != len(edges):
        raise PlanarFlowsError("exchange left unused edges")
    return Flow(tuple(I), tuple(Iprime), tuple(paths))


def exchange(df, chosen_couples):
    """Swap flow segments along the chosen decomposition paths.

    Produces the unique double flow for the recolored pair (B, B'); applying
    the same exchange again restores the original.
    """
    dec = decompose_double_flow(df)
    have = {c: p for c, p in zip(dec.couples, dec.paths)}
    chosen = []
    for couple in chosen_couples:
        key = tuple(sorted(couple))
        if key not in have:
            raise CoupleNotInMatching(f"{couple} is not a decomposition couple")
        chosen.append(key)

    # Walk edges are undirected; map back to the directed edges present.
    directed = flow_edges(df.phi) | flow_edges(df.phi_prime)
    U = set()
    for key in chosen:
        walk = have[key]
        for a, b in zip(walk, walk[1:]):
            if (a, b) in directed:
                U.add((a, b))
            elif (b, a) in directed:
                U.add((b, a))
            else:
                raise PlanarFlowsError("decomposition edge missing from flows")

    Z = frozenset(e for (side, e) in {x for c in chosen for x in c} if side == LOWER)
    Zp = frozenset(e for (side, e) in {x for c in chosen for x in c} if side == UPPER)
    B = df.A ^ (Z & df.Y)
    Bp = df.Ap ^ (Zp & df.Yp)

    new_phi_edges = flow_edges(df.phi) ^ U
    new_phip_edges = flow_edges(df.phi_prime) ^ U
    I = sorted(df.X | B)
    Iprime = sorted(df.Xp | Bp)
    Ibar = sorted(df.X | (df.Y - B))
    Ibarp = sorted(df.Xp | (df.Yp - Bp))
    psi = _flow_from_edges(df.split, new_phi_edges, I, Iprime)
    psi_prime = _flow_from_edges(df.split, new_phip_edges, Ibar, Ibarp)
    return make_double_flow(
        df.split, df.X, df.Y, df.Xp, df.Yp, B, Bp, psi, psi_prime
    )


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


def count_flows(lam, mu, N):
    """The number of flows from mu's set to lambda's set on the lattice of N
    levels, one per skew tableau.  Like the tableaux, an empty shape gives
    one and any other gives zero when N < 1."""
    lam, mu = _partition(lam), _partition(mu)
    r = lam.length
    I, Iprime = sorted(partition_to_set(mu, r)), sorted(partition_to_set(lam, r))
    if I == Iprime:
        return 1
    if N < 1:
        return 0
    return fg_value(INTEGERS, build_gv_grid(N, lam.parts[0] + r), I, Iprime)


# ---------------------------------------------------------------------------
# tableaux as lattice-path flows (Gessel--Viennot), the bijection both ways

def set_to_partition(A, r):
    A = sorted(A)
    if len(A) != r:
        raise BadLength(f"set has {len(A)} elements, expected {r}")
    parts = tuple(A[r - 1 - i] - (r - i) for i in range(r))
    if any(p < 0 for p in parts):
        raise BadLength("set elements too small for a partition")
    return Partition(parts)


class NotSemistandard(PlanarFlowsError):
    """A tableau filling violates row/column monotonicity."""


class NotAFlow(PlanarFlowsError):
    """A path system is not a valid vertex-disjoint flow."""


def check_semistandard(lam, mu, rows, N):
    lam = _partition(lam)
    mu = _partition(mu)
    filling = {}
    if len(rows) != lam.length:
        raise NotSemistandard("wrong number of rows")
    for r, row in enumerate(rows, start=1):
        cols = range(mu.parts[r - 1] + 1, lam.parts[r - 1] + 1)
        if len(row) != len(cols):
            raise NotSemistandard(f"row {r} has the wrong number of entries")
        for c, v in zip(cols, row):
            if not 1 <= v <= N:
                raise NotSemistandard(f"entry {v} outside [1..{N}]")
            filling[(r, c)] = v
    for (r, c), v in filling.items():
        if (r, c - 1) in filling and filling[(r, c - 1)] > v:
            raise NotSemistandard(f"row {r} decreases at column {c}")
        if (r - 1, c) in filling and filling[(r - 1, c)] >= v:
            raise NotSemistandard(f"column {c} does not increase into row {r}")
    return filling


def tableau_to_flow(lam, mu, rows, N):
    """Path system of a tableau on the level-weighted lattice."""
    lam = _partition(lam)
    mu = _partition(mu)
    check_semistandard(lam, mu, rows, N)
    r = lam.length
    paths = []
    for k in range(1, r + 1):
        row = rows[r - k]  # row r+1-k, bottom-to-top storage
        x = k + mu.parts[r - k]
        level = 1
        trail = [f"{x},{level}"]
        for v in sorted(row):
            while level < v:
                level += 1
                trail.append(f"{x},{level}")
            x += 1
            trail.append(f"{x},{level}")
        while level < N:
            level += 1
            trail.append(f"{x},{level}")
        paths.append(tuple(trail))
    I = tuple(sorted(partition_to_set(mu, r)))
    Iprime = tuple(sorted(partition_to_set(lam, r)))
    return Flow(I, Iprime, tuple(paths))


def flow_to_tableau(flow, N):
    """Inverse of ``tableau_to_flow``; validates semistandardness."""
    r = len(flow.paths)
    rows = [None] * r
    mu_parts = [0] * r
    lam_parts = [0] * r
    for k, path in enumerate(flow.paths, start=1):
        entries = []
        start_x, start_level = (int(c) for c in path[0].split(","))
        end_level = int(path[-1].split(",")[1])
        if start_level != 1 or end_level != N:
            raise NotAFlow("paths must run from level 1 to level N")
        for a, b in zip(path, path[1:]):
            ax, ay = (int(c) for c in a.split(","))
            bx, by = (int(c) for c in b.split(","))
            if by == ay + 1 and bx == ax:
                continue
            if bx == ax + 1 and by == ay:
                entries.append(ay)
                continue
            raise NotAFlow(f"step {a}->{b} is not a lattice step")
        row_index = r + 1 - k
        rows[row_index - 1] = entries
        mu_parts[row_index - 1] = start_x - k
        lam_parts[row_index - 1] = start_x - k + len(entries)
    if any(p is None for p in rows):
        raise NotAFlow("missing paths")
    try:
        lam = Partition(tuple(lam_parts))
        mu = Partition(tuple(mu_parts))
    except BadParams as exc:
        raise NotAFlow(str(exc)) from exc
    try:
        check_semistandard(lam, mu, rows, N)
    except NotSemistandard as exc:
        raise NotAFlow(str(exc)) from exc
    return lam, mu, rows


# ---------------------------------------------------------------------------
# interval bases: vertex weights from basis values, and Laurent expansions

def intervals(n):
    """The nonempty intervals (p, q) of [n], by start then end."""
    return [(p, q) for p in range(1, n + 1) for q in range(p, n + 1)]


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
        weights[f"{k},{kp}"] = spec.divide(num, den)
    return weights


def weights_from_intervals(spec, values, n):
    """Vertex weights on the half-grid reproducing the given interval values.

    ``values`` maps nonempty intervals (p, q) to invertible semiring values.
    (p, q) is the pressed double interval ((p, q), (1, q - p + 1)), so each
    weight is the pressed cross-ratio read through its keys' source sides.
    """
    return _weights_from_ratios(
        spec, _half_grid_cells(n),
        lambda key: values[key[0]] if key[0] else spec.one())


def weights_from_pressed(spec, values, n, n_prime):
    """Grid vertex weights from pressed double-interval values."""
    return _weights_from_ratios(
        spec, [(k, kp) for k in range(1, n + 1) for kp in range(1, n_prime + 1)],
        lambda key: values[key] if key[0] else spec.one())


# ``target`` is a frozenset; ``monomials`` holds (sorted tuple of
# (interval, exponent), multiplicity) pairs.
class LaurentExpansion(namedtuple("LaurentExpansion", "target monomials")):
    __slots__ = ()

    def exponent_range(self):
        exps = set()
        for mono, _ in self.monomials:
            exps.update(e for _, e in mono)
        return exps


def weight_exponents(n):
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
        v: Polynomial(len(ivs), {tuple(exps.get(iv, 0) for iv in ivs): 1})
        for v, exps in weight_exponents(n).items()
    }
    ring = PolynomialRing(f"{p}..{q}" for p, q in ivs)
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
            acc = spec.mul(acc, power(spec, values[iv], e))
        terms.extend([acc] * mult)
    if not terms:
        raise NotInvertible("empty expansion cannot be evaluated")
    return fold_sum(spec, terms)


# ---------------------------------------------------------------------------
# Lindstrom oracles: determinants, matrix products, single gadgets and the
# minor check

def leibniz_det(rows):
    """Independent determinant oracle: signed permutation expansion."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def mat_mul(a, b):
    if a.n_cols != b.n_rows:
        raise SizeMismatch("inner dimensions differ")
    spec = a.spec
    rows = []
    for i in range(a.n_rows):
        row = []
        for j in range(b.n_cols):
            acc = spec.zero()
            for k in range(a.n_cols):
                acc = spec.add(acc, spec.mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        rows.append(row)
    return exact_matrix(spec, rows)


def factor_matrix(factor):
    """The matrix of a ``GadgetFactor``.  Swap: the transposition of channels
    i, i+1.  Add: the identity plus x at (i+1, i); upper-add: plus x at
    (i, i+1).  Quasi-diagonal: d_j at (j, j), zero elsewhere."""
    (n_rows, n_cols), i = factor.size, factor.index
    diag = factor.value if factor.kind == "quasi-diagonal" else [Fraction(1)] * n_rows
    rows = [[diag[r] if r == c and r < len(diag) else Fraction(0) for c in range(n_cols)]
            for r in range(n_rows)]
    if factor.kind == "swap":
        rows[i - 1], rows[i] = rows[i], rows[i - 1]
    elif factor.kind == "add":
        rows[i][i - 1] = factor.value
    elif factor.kind == "upper-add":
        rows[i - 1][i] = factor.value
    return exact_matrix(RATIONALS, rows)


def product_matrix(factors):
    """Ordered product of gadget factors listed bottom to top: top factor
    times ... times bottom."""
    acc = factor_matrix(factors[-1])
    for factor in reversed(factors[:-1]):
        acc = mat_mul(acc, factor_matrix(factor))
    return acc


def quasi_diagonal_gadget(diag, n, nprime):
    """n sources to n' sinks; channel i carries weight d_i, others die."""
    return _assemble([GadgetFactor("quasi-diagonal", (nprime, n), 0, tuple(diag))], RATIONALS)


def adjacent_swap_gadget(r, i, spec):
    """Flow matrix equals the transposition of channels i, i+1."""
    return _assemble([GadgetFactor("swap", (r, r), i, None)], spec)


def adjacent_add_gadget(r, i, x, spec):
    """Identity channels plus a weight-x path from source i to sink i+1."""
    return _assemble([GadgetFactor("add", (r, r), i, x)], spec)


def verify_lindstrom(network, spec):
    """Check minor(flow matrix) = flow value for every index pair."""
    mat = flow_matrix(network, spec)
    f = FlowFunction(spec, network)
    n, np_ = network.n_sources, network.n_sinks
    checked = 0
    failures = []
    for k in range(0, min(n, np_) + 1):
        for I in combinations(range(1, n + 1), k):
            for Iprime in combinations(range(1, np_ + 1), k):
                lhs = minor(mat, I, Iprime)
                rhs = f(I, Iprime)
                checked += 1
                if not spec.equal(lhs, rhs):
                    failures.append({"I": list(I), "Iprime": list(Iprime)})
    return {"checked": checked, "failures": failures, "ok": not failures}


class PatternsUnbalanced(PlanarFlowsError):
    """A balanced-only check was requested for unbalanced patterns."""


def check_matrix_sq(matrix, pattern_a, pattern_b, X, Y, Xp, Yp):
    """Evaluate the quadratic identity with f = minors of ``matrix``.

    Only balanced patterns are covered by the guarantee, so unbalanced input
    is refused.
    """
    ri = RelationInstance.from_patterns(pattern_a, pattern_b, X, Y, Xp, Yp)
    if not is_balanced(pattern_a, pattern_b).balanced:
        raise PatternsUnbalanced("the minor identity only covers balanced patterns")
    return ri.sides(matrix.spec, lambda I, Iprime: minor(matrix, sorted(I), sorted(Iprime)))


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


# ---------------------------------------------------------------------------
# matchings

class BadSizes(PlanarFlowsError):
    """Invalid (m, p, q) combination for a flag pattern."""


def matching_from_parts(lower=(), upper=(), vertical=()):
    couples = [((LOWER, i), (LOWER, j)) for i, j in lower]
    couples += [((UPPER, i), (UPPER, j)) for i, j in upper]
    couples += [((LOWER, i), (UPPER, j)) for i, j in vertical]
    return PlanarMatching(couples)


def matching_is_feasible(matching, Y, Yp, A, Ap):
    """Color conditions only; planarity of the matching is assumed/checked."""
    odd = _odd_points(Yp, A, Ap)
    for p, q in matching.couples:
        if (p in odd) == (q in odd):
            return False
    return True


def apply_exchange(A, Ap, couples):
    """Flip the colors of both elements of each chosen couple."""
    A, Ap = set(A), set(Ap)
    for p, q in couples:
        for side, e in (p, q):
            target = A if side == LOWER else Ap
            if e in target:
                target.remove(e)
            else:
                target.add(e)
    return frozenset(A), frozenset(Ap)


def flag_feasible_matchings(Y, A, p, q):
    """Nested bichromatic couple systems for the flag case (p >= q).

    Returned as frozensets of (i, j) couples: exactly the lower-horizontal
    parts of the feasible matchings of the equivalent 2-pattern.
    """
    Y = frozenset(Y)
    A = frozenset(A)
    if p < q:
        raise BadSizes(f"flag matchings need p >= q, got p={p}, q={q}")
    if len(A) != p or len(Y) != p + q:
        raise BadSizes("sizes do not match |A| = p and |Y| = p + q")
    synthetic_upper = frozenset(range(1, p - q + 1))
    full = feasible_matchings(Y, synthetic_upper, A, synthetic_upper)
    out = sorted({frozenset(m.lower_couples()) for m in full})
    if len(out) != len(full):
        raise BadSizes("flag reduction lost matchings; this cannot happen")
    return out


def matching_multiset(pattern):
    """Union with multiplicity of the feasible-matching sets of a 2-pattern's
    members, each listed by ``feasible_matchings``."""
    Y, Yp = range(1, pattern.m + 1), range(1, pattern.m_prime + 1)
    out = Counter()
    for A, Ap, mult in pattern.members:
        for m in feasible_matchings(Y, Yp, A, Ap):
            out[m] += mult
    return out


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
