"""Vertex splitting, double flows on a split network, their decomposition
and exchange.

Kept apart from ``flows`` so that evaluating flow values never imports
``patterns``, and apart from ``network`` so that no command compiles the
split-network construction it never runs.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import CoupleNotInMatching, PlanarFlowsError
from .flows import Flow, enumerate_flows
from .network import PlanarNetwork
from .patterns import LOWER, UPPER, PlanarMatching, is_proper
from .relations import check_sets


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
    e1 = df.phi.edges()
    e2 = df.phi_prime.edges()
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
    directed = df.phi.edges() | df.phi_prime.edges()
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

    new_phi_edges = df.phi.edges() ^ U
    new_phip_edges = df.phi_prime.edges() ^ U
    I = sorted(df.X | B)
    Iprime = sorted(df.Xp | Bp)
    Ibar = sorted(df.X | (df.Y - B))
    Ibarp = sorted(df.Xp | (df.Yp - Bp))
    psi = _flow_from_edges(df.split, new_phi_edges, I, Iprime)
    psi_prime = _flow_from_edges(df.split, new_phip_edges, Ibar, Ibarp)
    return make_double_flow(
        df.split, df.X, df.Y, df.Xp, df.Yp, B, Bp, psi, psi_prime
    )
