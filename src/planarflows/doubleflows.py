"""Double flows on a split network, their decomposition and exchange.

Kept apart from ``flows`` so that evaluating flow values never imports
``patterns``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoupleNotInMatching, PlanarFlowsError
from .flows import Flow, enumerate_flows
from .network import SplitNetwork
from .patterns import PlanarMatching, is_proper
from .relations import check_sets


@dataclass
class DoubleFlow:
    split: SplitNetwork
    X: frozenset
    Y: frozenset
    Xp: frozenset
    Yp: frozenset
    A: frozenset
    Ap: frozenset
    phi: Flow        # flow for (X u A | X' u A')
    phi_prime: Flow  # flow for (X u (Y-A) | X' u (Y'-A'))


@dataclass
class Decomposition:
    circuits: tuple   # frozensets of edges
    paths: tuple      # ordered vertex tuples
    couples: tuple    # endpoint couple per path, aligned with ``paths``
    matching: PlanarMatching


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


def _terminal_element(split, vertex):
    if vertex.startswith("src:"):
        return (0, int(vertex.split(":")[1]))
    if vertex.startswith("snk:"):
        return (1, int(vertex.split(":")[1]))
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

    def other_end(edge, v):
        return edge[1] if edge[0] == v else edge[0]

    paths = []
    endpoints = [v for v, inc in incidence.items() if len(inc) == 1]
    endpoints.sort()
    for start in endpoints:
        first = incidence[start][0]
        if first not in unvisited:
            continue
        walk = [start]
        v, edge = start, first
        while True:
            unvisited.discard(edge)
            v = other_end(edge, v)
            walk.append(v)
            nxt = [e for e in incidence[v] if e in unvisited]
            if not nxt:
                break
            edge = nxt[0]
        paths.append(tuple(walk))

    circuits = []
    while unvisited:
        edge = min(unvisited)
        start = edge[0]
        walk = set()
        v = start
        while True:
            walk.add(edge)
            unvisited.discard(edge)
            v = other_end(edge, v)
            nxt = [e for e in incidence[v] if e in unvisited]
            if not nxt:
                break
            edge = nxt[0]
        if v != start:
            raise PlanarFlowsError("difference component is neither path nor circuit")
        circuits.append(frozenset(walk))

    couples = []
    for walk in paths:
        ends = []
        for v in (walk[0], walk[-1]):
            elem = _terminal_element(df.split, v)
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

    Z = frozenset(e for (side, e) in {x for c in chosen for x in c} if side == 0)
    Zp = frozenset(e for (side, e) in {x for c in chosen for x in c} if side == 1)
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
