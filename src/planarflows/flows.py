"""Flow enumeration, FG-function evaluation, double flows and exchange.

An (I|I')-flow is a system of pairwise vertex-disjoint directed paths from
the sources indexed by I to the sinks indexed by I'; the k-th path (left to
right) joins the k-th source to the k-th sink, which we enforce rather than
re-derive from planarity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semiring as sr
from .errors import (
    CoupleNotInMatching,
    NetworkTooLarge,
    PlanarFlowsError,
    SizeMismatch,
)
from .network import SplitNetwork
from .patterns import PlanarMatching, is_proper


@dataclass(frozen=True)
class Flow:
    source_idx: tuple   # I, ascending
    sink_idx: tuple     # I', ascending
    paths: tuple        # one vertex-id tuple per index, left to right

    def vertices(self):
        out = []
        seen = set()
        for path in self.paths:
            for v in path:
                if v not in seen:
                    seen.add(v)
                    out.append(v)
        return out

    def edges(self):
        out = set()
        for path in self.paths:
            for a, b in zip(path, path[1:]):
                out.add((a, b))
        return out


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


def _check_indices(network, I, Iprime):
    I = tuple(sorted(I))
    Iprime = tuple(sorted(Iprime))
    if len(I) != len(Iprime):
        raise SizeMismatch(f"|I|={len(I)} but |I'|={len(Iprime)}")
    if len(set(I)) != len(I) or len(set(Iprime)) != len(Iprime):
        raise PlanarFlowsError("index sets must not repeat elements")
    for i in I:
        if not 1 <= i <= network.n_sources:
            raise PlanarFlowsError(f"source index {i} out of range")
    for j in Iprime:
        if not 1 <= j <= network.n_sinks:
            raise PlanarFlowsError(f"sink index {j} out of range")
    return I, Iprime


def _walk(network, I, Iprime, step, add, done, memo):
    """Sum over the (I|I')-flows, each built once by a memoised walk.

    A state is the tuple of path heads, as topological ranks.  The unfinished
    head of least rank moves next, so each flow has exactly one sequence of
    moves, and every vertex behind the heads ranks below every unfinished
    head: paths are vertex-disjoint exactly when their heads are distinct.
    ``step(value, k, tail, head)`` extends ``value``, the sum over the
    completions of the state reached, by path k's move tail -> head (tail is
    None for the source itself); ``add`` joins two moves and ``done`` is the
    value of the finished state.  ``memo`` maps states to those sums; it
    depends on the targets, never on the start, so calls with the same I'
    may share it.  Returns None when there is no flow.
    """
    order, rank, succ = network.view
    sources = [network.sources[i - 1] for i in I]
    start = tuple(rank[s] for s in sources)
    targets = tuple(rank[network.sinks[j - 1]] for j in Iprime)
    if len(set(start)) < len(start):
        return None
    paths = range(len(start))
    stack = [(start, 0, None)]
    while stack:
        heads, k, moves = stack.pop()
        if moves is None:
            if heads in memo:
                continue
            k = -1
            for p in paths:
                h = heads[p]
                if h != targets[p] and (k < 0 or h < heads[k]):
                    k = p
            if k < 0:
                memo[heads] = done
                continue
            h, limit = heads[k], targets[k]
            moves = []
            stack.append((heads, k, moves))
            for u in succ[h]:
                if u <= limit and u not in heads:
                    nxt = heads[:k] + (u,) + heads[k + 1:]
                    moves.append((u, nxt))
                    if nxt not in memo:
                        stack.append((nxt, 0, None))
            if stack[-1][2] is not moves:
                continue
            stack.pop()
        acc = None
        tail = order[heads[k]]
        for u, nxt in moves:
            value = memo[nxt]
            if value is not None:
                value = step(value, k, tail, order[u])
                acc = value if acc is None else add(acc, value)
        memo[heads] = acc
    value = memo[start]
    for k in reversed(paths):
        if value is not None:
            value = step(value, k, None, sources[k])
    return value


def enumerate_flows(network, I, Iprime, size_cap=40):
    """All (I|I')-flows, deterministically ordered.

    Refuses networks larger than ``size_cap`` vertices, since the output
    can be exponential in the size.
    """
    I, Iprime = _check_indices(network, I, Iprime)
    if len(network.vertices) > size_cap:
        raise NetworkTooLarge(
            f"{len(network.vertices)} vertices exceeds the cap {size_cap}"
        )

    def step(chains, k, tail, head):
        return [(k, head, chain) for chain in chains]

    flows = []
    for chain in _walk(network, I, Iprime, step, list.__add__, [None], {}) or ():
        paths = [[] for _ in I]
        while chain:
            k, v, chain = chain
            paths[k].append(v)
        flows.append(Flow(I, Iprime, tuple(map(tuple, paths))))
    flows.sort(key=lambda f: f.paths)
    return flows


def flow_weight(spec, network, flow):
    if network.weight_mode == "vertex":
        return sr.fold_product(
            spec, [network.weights[v] for v in flow.vertices()]
        )
    present = [network.weights[e] for e in sorted(flow.edges()) if e in network.weights]
    return sr.fold_product(spec, present)


class FlowFunction:
    """The FG-function ``f(I, I')`` of one weighted network over ``spec``.

    The network is checked once, and each target tuple I' keeps one walk
    memo across calls, so calls that share I' share every walk state.  The
    memos live as long as the object: hold one per caller, not globally.
    """

    def __init__(self, spec, network):
        network.view  # refuses a cyclic network
        self.spec, self.network, self._memos = spec, network, {}
        weights, mul = network.weights, spec.mul
        if network.weight_mode == "vertex":
            def step(value, k, tail, head):
                return mul(weights[head], value)
        else:
            def step(value, k, tail, head):
                w = weights.get((tail, head))
                return value if w is None else mul(w, value)
        self._step, self._one = step, spec.one()

    def __call__(self, I, Iprime):
        """Sum over the (I|I')-flows of the product of the used weights."""
        I, Iprime = _check_indices(self.network, I, Iprime)
        memo = self._memos.setdefault(Iprime, {})
        value = _walk(self.network, I, Iprime, self._step, self.spec.add, self._one, memo)
        return sr.fold_sum(self.spec, []) if value is None else value


def fg_value(spec, network, I, Iprime):
    """FG-function value: sum over flows of the product of used weights."""
    return FlowFunction(spec, network)(I, Iprime)


def path_weight_sum(spec, network, i, j):
    """Sum of weights over all single paths from source i to sink j: the
    one-path case of ``fg_value``.  Requires a zero."""
    if not spec.has_zero:
        raise PlanarFlowsError("path sums need an additive neutral")
    return fg_value(spec, network, [i], [j])


# ---------------------------------------------------------------------------
# double flows on a split network

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
    X, Y, Xp, Yp = map(frozenset, (X, Y, Xp, Yp))
    A, Ap = frozenset(A), frozenset(Ap)
    if X & Y or Xp & Yp:
        raise PlanarFlowsError("X,Y and X',Y' must be disjoint")
    if not is_proper(Y, Yp, A, Ap):
        raise PlanarFlowsError("(A, A') is not proper for (Y, Y')")
    return DoubleFlow(split, X, Y, Xp, Yp, A, Ap, phi, phi_prime)


def enumerate_double_flows(split, X, Y, Xp, Yp, A, Ap, size_cap=120):
    X, Y, Xp, Yp = map(frozenset, (X, Y, Xp, Yp))
    A, Ap = frozenset(A), frozenset(Ap)
    net = split.network
    first = enumerate_flows(net, sorted(X | A), sorted(Xp | Ap), size_cap=size_cap)
    second = enumerate_flows(
        net, sorted(X | (Y - A)), sorted(Xp | (Yp - Ap)), size_cap=size_cap
    )
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
