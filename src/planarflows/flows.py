"""Flow enumeration and FG-function evaluation.

An (I|I')-flow is a system of pairwise vertex-disjoint directed paths from
the sources indexed by I to the sinks indexed by I'; the k-th path (left to
right) joins the k-th source to the k-th sink, which we enforce rather than
re-derive from planarity.
"""

from __future__ import annotations

from collections import namedtuple

from . import semiring as sr
from .errors import PlanarFlowsError, SizeMismatch


# I and I' ascending, and one vertex-id tuple per index, left to right.
Flow = namedtuple("Flow", "source_idx sink_idx paths")


def _check_indices(network, I, Iprime):
    I, Iprime = tuple(sorted(I)), tuple(sorted(Iprime))
    if len(I) != len(Iprime):
        raise SizeMismatch(f"|I|={len(I)} but |I'|={len(Iprime)}")
    if len(set(I)) != len(I) or len(set(Iprime)) != len(Iprime):
        raise PlanarFlowsError("index sets must not repeat elements")
    n, nprime = len(network.sources), len(network.sinks)
    if I and not (1 <= I[0] and I[-1] <= n and 1 <= Iprime[0] and Iprime[-1] <= nprime):
        for what, idx, top in (("source", I, n), ("sink", Iprime, nprime)):
            for i in idx:
                if not 1 <= i <= top:
                    raise PlanarFlowsError(f"{what} index {i} out of range")
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


def enumerate_flows(network, I, Iprime):
    """All (I|I')-flows, deterministically ordered.  The list can be
    exponentially long in the size of the network."""
    I, Iprime = _check_indices(network, I, Iprime)

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


class FlowFunction:
    """The FG-function ``f(I, I')`` of one weighted network over ``spec``.

    The network is checked once and each (I, I') is walked once: a repeated
    query is one lookup.  Each target tuple I' keeps one walk memo across
    calls, so calls that share I' share every walk state.  The answers and
    memos live as long as the object: hold one per caller, not globally.
    """

    def __init__(self, spec, network):
        network.view  # refuses a cyclic network
        self.spec, self.network, self._memos, self._values = spec, network, {}, {}
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
        key = I, Iprime = _check_indices(self.network, I, Iprime)
        if key not in self._values:
            memo = self._memos.setdefault(Iprime, {})
            value = _walk(self.network, I, Iprime, self._step, self.spec.add, self._one, memo)
            self._values[key] = sr.fold_sum(self.spec, []) if value is None else value
        return self._values[key]


def fg_value(spec, network, I, Iprime):
    """FG-function value: sum over flows of the product of used weights."""
    return FlowFunction(spec, network)(I, Iprime)


def path_weight_sum(spec, network, i, j):
    """Sum of weights over all single paths from source i to sink j: the
    one-path case of ``fg_value``.  Requires a zero."""
    if not spec.has_zero:
        raise PlanarFlowsError("path sums need an additive neutral")
    return fg_value(spec, network, [i], [j])

