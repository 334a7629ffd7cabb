"""Independent flow-value evaluator used by the correctness gates.

It shares no code with the library: a memoised walk over the tuple of path
heads in topological order (the non-intersecting path recursion behind the
Lindstrom-Gessel-Viennot lemma).  The active head of lowest rank always moves
first, so each vertex-disjoint path system is reached by exactly one move
sequence, and two paths can only meet where two heads would coincide.
"""

from __future__ import annotations

from collections import deque


class _One:
    """Multiplicative unit placeholder, so no semiring needs a one."""


_ONE = _One()


def _ranks(vertices, edges):
    succ = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for tail, head in edges:
        succ[tail].append(head)
        indeg[head] += 1
    ready = deque(v for v in vertices if indeg[v] == 0)
    rank = {}
    while ready:
        v = ready.popleft()
        rank[v] = len(rank)
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(rank) != len(succ):
        raise ValueError("network has a directed cycle")
    return rank, succ


def flow_value(net, I, Iprime, add, mul, weight):
    """Sum over (I|I')-flows of the product of ``weight(v)`` over used vertices.

    Path k joins the k-th chosen source to the k-th chosen sink.  Returns
    None when there is no flow (the empty sum).
    """
    rank, succ = _ranks(net.vertices, net.edges)
    starts = tuple(net.sources[i - 1] for i in sorted(I))
    targets = tuple(net.sinks[j - 1] for j in sorted(Iprime))
    memo = {}

    def walk(heads):
        if heads in memo:
            return memo[heads]
        active = [k for k in range(len(heads)) if heads[k] != targets[k]]
        if not active:
            return _ONE
        k = min(active, key=lambda a: rank[heads[a]])
        limit = rank[targets[k]]
        total = None
        for u in succ[heads[k]]:
            if rank[u] > limit or u in heads:
                continue
            rest = walk(heads[:k] + (u,) + heads[k + 1:])
            if rest is None:
                continue
            term = weight(u) if rest is _ONE else mul(weight(u), rest)
            total = term if total is None else add(total, term)
        memo[heads] = total
        return total

    if len(set(starts)) != len(starts):
        return None
    rest = walk(starts)
    if rest is None:
        return None
    acc = rest
    for s in starts:
        acc = weight(s) if acc is _ONE else mul(weight(s), acc)
    return acc


def count_flows(net, I, Iprime):
    value = flow_value(net, I, Iprime, int.__add__, int.__mul__, lambda v: 1)
    return value or 0


def tropical_value(net, I, Iprime):
    """Max over flows of the summed vertex weights (max-plus semiring)."""
    return flow_value(net, I, Iprime, max, int.__add__, net.weights.__getitem__)
