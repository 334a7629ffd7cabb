"""Planar acyclic networks with ordered terminals and exact coordinates.

A network is a directed acyclic graph drawn with straight segments; vertex
coordinates are exact rationals so planarity and terminal ordering are
decidable.  Terminals must sit on the boundary of a convex region in the
clockwise order s_n, ..., s_1, t_1, ..., t_{n'}.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import ArityMismatch, BadNetwork, PlanarFlowsError


@dataclass
class PlanarNetwork:
    vertices: dict  # id -> (x, y)
    edges: tuple    # ((tail, head), ...)
    sources: tuple  # ordered ids s_1..s_n
    sinks: tuple    # ordered ids t_1..t_n'
    weight_mode: str = "vertex"   # "vertex" | "edge"
    weights: dict = field(default_factory=dict)

    @property
    def n_sources(self):
        return len(self.sources)

    @property
    def n_sinks(self):
        return len(self.sinks)

    def successors(self):
        adj = {v: [] for v in self.vertices}
        for tail, head in self.edges:
            adj[tail].append(head)
        for v in adj:
            adj[v].sort()
        return adj

    def predecessors(self):
        adj = {v: [] for v in self.vertices}
        for tail, head in self.edges:
            adj[head].append(tail)
        for v in adj:
            adj[v].sort()
        return adj

    @cached_property
    def view(self):
        """(order, rank, succ): the topological order, each vertex's position
        in it, and per position the positions of the successors.  Built once:
        networks are never mutated in place."""
        order = topological_order(self)
        rank = {v: r for r, v in enumerate(order)}
        adj = self.successors()
        return order, rank, [[rank[u] for u in adj[v]] for v in order]

    def with_vertex_weights(self, weights):
        if self.weight_mode != "vertex":
            raise PlanarFlowsError("network is edge-weighted")
        return PlanarNetwork(
            self.vertices, self.edges, self.sources, self.sinks, "vertex", dict(weights)
        )

    def unit_weights(self, spec):
        one = spec.one()
        if self.weight_mode == "vertex":
            return self.with_vertex_weights({v: one for v in self.vertices})
        return PlanarNetwork(
            self.vertices,
            self.edges,
            self.sources,
            self.sinks,
            "edge",
            {e: one for e in self.edges},
        )


# ---------------------------------------------------------------------------
# exact 2D geometry helpers

def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def on_segment(p, a, b):
    """True when p lies on the closed segment [a, b] (collinearity assumed)."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(a, b, c, d):
    """Do closed segments [a,b] and [c,d] share any point?"""
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and on_segment(a, c, d):
        return True
    if d2 == 0 and on_segment(b, c, d):
        return True
    if d3 == 0 and on_segment(c, a, b):
        return True
    if d4 == 0 and on_segment(d, a, b):
        return True
    return False


def proper_intersection_point(a, b, c, d):
    """Interior crossing point of [a,b] and [c,d], or None.

    Only transversal crossings count: the segments must cross at a single
    point strictly inside both.  Returns (point, t_ab, t_cd) with exact
    rational parameters along each segment.
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        return None
    qp = (c[0] - a[0], c[1] - a[1])
    t = Fraction(qp[0] * s[1] - qp[1] * s[0], denom)
    u = Fraction(qp[0] * r[1] - qp[1] * r[0], denom)
    if 0 < t < 1 and 0 < u < 1:
        point = (a[0] + t * r[0], a[1] + t * r[1])
        return point, t, u
    return None


def convex_hull(points):
    """Monotone-chain hull, counterclockwise, no collinear boundary points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_position(point, clockwise):
    """Perimeter parameter of a point inside an edge of the clockwise hull,
    else None: the edge index plus the fraction along the edge."""
    for idx, a in enumerate(clockwise):
        b = clockwise[(idx + 1) % len(clockwise)]
        if cross(a, b, point) == 0 and on_segment(point, a, b):
            dx, dy = b[0] - a[0], b[1] - a[1]
            if abs(dx) >= abs(dy):
                return idx + Fraction(point[0] - a[0], dx)
            return idx + Fraction(point[1] - a[1], dy)
    return None


def _peel(network):
    """Kahn's algorithm, always taking the least ready id: the order of the
    peeled vertices and the in-degrees left (nonzero exactly off the order)."""
    adj = network.successors()
    indeg = {v: 0 for v in network.vertices}
    for _, head in network.edges:
        indeg[head] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for u in adj[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    return order, indeg


def find_cycle(network):
    """Return the vertices of some directed cycle (first repeated last), or
    None if acyclic.

    Every vertex Kahn's algorithm cannot peel has an unpeeled predecessor, so
    walking back along those must repeat a vertex.
    """
    order, indeg = _peel(network)
    if len(order) == len(network.vertices):
        return None
    preds = network.predecessors()
    v = next(v for v in network.vertices if indeg[v])
    seen = {}
    while v not in seen:
        seen[v] = len(seen)
        v = next(u for u in preds[v] if indeg[u])
    cycle = list(seen)[seen[v]:][::-1]
    return cycle + cycle[:1]


def topological_order(network):
    order, _ = _peel(network)
    if len(order) != len(network.vertices):
        raise PlanarFlowsError("network has a directed cycle")
    return order


def _edges_hit(coords, e, f):
    """Do two edges meet anywhere but at a vertex they share?  Shared ends
    are vertex ids, not coordinates: edges on the same two ids always hit,
    edges on one shared vertex p hit when their other ends lie on one ray
    from p, and all other pairs hit when their closed segments meet."""
    (a, b), (c, d) = e, f
    if a == c or a == d:
        p, q, r = a, b, d if a == c else c
    elif b == c or b == d:
        p, q, r = b, a, d if b == c else c
    else:
        return segments_intersect(coords[a], coords[b], coords[c], coords[d])
    if q == r:
        return True
    p, q, r = coords[p], coords[q], coords[r]
    dot = (q[0] - p[0]) * (r[0] - p[0]) + (q[1] - p[1]) * (r[1] - p[1])
    return cross(p, q, r) == 0 and dot > 0


def validate(network):
    """Report acyclicity, terminal boundary order, and segment planarity.

    The geometry runs exactly on an integer image of the drawing (scaled by
    the LCM of the coordinate denominators).  A sweep over the edges in order
    of their boxes' low y tests only pairs whose boxes overlap."""
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

    scale = lcm(*(c.denominator for p in network.vertices.values() for c in p))
    coords = {v: tuple(c.numerator * (scale // c.denominator) for c in p)
              for v, p in network.vertices.items()}
    clockwise = convex_hull(coords.values())[::-1]
    corner = {p: idx for idx, p in enumerate(clockwise)}
    for name, terms in (("sources", network.sources), ("sinks", network.sinks)):
        for v in [v for v, count in Counter(terms).items() if count > 1]:
            report["terminal_order_ok"] = False
            report["terminal_issues"].append(f"{v} repeats in {name}")
    ordered_terms = list(reversed(network.sources)) + list(network.sinks)
    positions = []
    for term in ordered_terms:
        p = coords[term]
        pos = corner[p] if p in corner else _hull_position(p, clockwise)
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

    edges = network.edges
    boxes = []
    for a, b in edges:
        p, q = coords[a], coords[b]
        boxes.append((min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])))
    found = []
    active = []
    for j in sorted(range(len(edges)), key=lambda k: boxes[k][2]):
        x0, x1, y0, _ = boxes[j]
        active = [i for i in active if boxes[i][3] >= y0]
        for i in active:
            if boxes[i][1] < x0 or x1 < boxes[i][0]:
                continue
            if _edges_hit(coords, edges[i], edges[j]):
                found.append((min(i, j), max(i, j)))
        active.append(j)
    found.sort()
    report["planar_ok"] = not found
    report["crossings"] = [[list(edges[i]), list(edges[j])] for i, j in found]

    report["ok"] = (
        report["acyclic"] and report["terminal_order_ok"] and report["planar_ok"]
    )
    return report


# ---------------------------------------------------------------------------
# standard constructions: lattice cells joined by unit steps

_LEFT, _UP, _RIGHT = (-1, 0), (0, 1), (1, 0)


def _lattice(cells, steps, sources, sinks, mode, weight=None):
    """Cell (i, j) becomes vertex "i,j" at (i, j).  Each cell in order has
    an edge by each step in order to the neighbouring cell, when that cell
    is one of ``cells``; ``weight(tail, head)`` of the two cells gives the
    edge's weight or None.  ``sources`` and ``sinks`` are cells."""
    ids = {c: f"{c[0]},{c[1]}" for c in cells}
    frac = {k: Fraction(k) for c in ids for k in c}
    vertices = {v: (frac[i], frac[j]) for (i, j), v in ids.items()}
    edges = []
    weights = {}
    for (i, j), tail in ids.items():
        for di, dj in steps:
            head = ids.get((i + di, j + dj))
            if head is None:
                continue
            edges.append((tail, head))
            w = weight and weight((i, j), (i + di, j + dj))
            if w is not None:
                weights[tail, head] = w
    return PlanarNetwork(vertices, tuple(edges), tuple(ids[c] for c in sources),
                         tuple(ids[c] for c in sinks), mode, weights)


def _cells(kind, width, height):
    if width < 1 or height < 1:
        raise PlanarFlowsError(f"{kind} sizes must be >= 1")
    return [(i, j) for i in range(1, width + 1) for j in range(1, height + 1)]


def _grid(n, nprime, cells):
    return _lattice(cells, (_LEFT, _UP), [(i, 1) for i in range(1, n + 1)],
                    [(1, j) for j in range(1, nprime + 1)], "vertex")


def build_grid(n, nprime):
    """Square grid: n columns of sources along the bottom, sinks up the left."""
    return _grid(n, nprime, _cells("grid", n, nprime))


def build_half_grid(n):
    """Triangular half of the grid; sinks run up the diagonal."""
    if n < 1:
        raise PlanarFlowsError("half-grid size must be >= 1")
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    return _lattice(cells, (_LEFT, _UP), [(i, 1) for i in range(1, n + 1)],
                    [(j, j) for j in range(1, n + 1)], "vertex")


def build_gv_grid(N, width, level_weights=None):
    """Rectangular lattice with up/right edges; terminals on bottom/top rows.

    ``level_weights`` optionally maps level h (1..N) to the weight put on
    every horizontal edge at that level; the result is edge-weighted.
    """
    weight = None if level_weights is None else (
        lambda tail, head: level_weights[tail[1]] if head[0] > tail[0] else None)
    return _lattice(_cells("GV grid", width, N), (_UP, _RIGHT),
                    [(i, 1) for i in range(1, width + 1)],
                    [(i, N) for i in range(1, width + 1)], "edge", weight)


def truncated_grid(n, nprime, max_vertices):
    """Grid with far-corner interior vertices removed to fit a vertex budget.

    Terminals are always kept, so the result still has n sources and
    n' sinks; any FG-function identity must hold on it like on any network.
    The interior cells kept are the first by (i + j, vertex id).
    """
    cells = _cells("grid", n, nprime)
    keep = {(i, 1) for i in range(1, n + 1)} | {(1, j) for j in range(1, nprime + 1)}
    budget = max_vertices - len(keep)
    if budget < 0:
        raise PlanarFlowsError("vertex budget below the terminal count")
    interior = sorted(set(cells) - keep, key=lambda c: (c[0] + c[1], f"{c[0]},{c[1]}"))
    keep.update(interior[:budget])
    return _grid(n, nprime, [c for c in cells if c in keep])


# ---------------------------------------------------------------------------
# vertex splitting

@dataclass
class SplitNetwork:
    """The vertex-split companion of a vertex-weighted network.

    Every original vertex v becomes in:v -> out:v joined by a split edge
    carrying v's weight; fresh terminals src:i / snk:j attach by extra
    edges.  Geometric planarity is not promised here (only the structural
    laws), so ``validate`` is not meant to be applied to ``network``.
    """

    network: PlanarNetwork
    edge_class: dict          # edge -> "split" | "ordinary" | "extra"


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


# ---------------------------------------------------------------------------
# concatenation

def concatenate(lower, upper):
    """Mount ``upper`` on top of ``lower``, identifying sinks with sources."""
    if lower.n_sinks != upper.n_sources:
        raise ArityMismatch(
            f"{lower.n_sinks} sinks cannot feed {upper.n_sources} sources"
        )
    if lower.weight_mode != "edge" or upper.weight_mode != "edge":
        raise PlanarFlowsError("concatenation needs edge-weighted networks")

    if lower.n_sinks == 0:
        ly = max(y for _, y in lower.vertices.values())
        uy = min(y for _, y in upper.vertices.values())
        shift_x, shift_y = Fraction(0), ly - uy + 1
    else:
        anchor = lower.vertices[lower.sinks[0]]
        first = upper.vertices[upper.sources[0]]
        shift_x, shift_y = anchor[0] - first[0], anchor[1] - first[1]

    rename_upper = {}
    for idx, s in enumerate(upper.sources):
        rename_upper[s] = lower.sinks[idx]

    prefix = f"u{len(lower.vertices)}:"
    vertices = dict(lower.vertices)
    for v, (x, y) in upper.vertices.items():
        if v in rename_upper:
            target = rename_upper[v]
            if vertices[target] != (x + shift_x, y + shift_y):
                raise ArityMismatch(
                    "terminal coordinates do not line up for concatenation"
                )
            continue
        vertices[f"{prefix}{v}"] = (x + shift_x, y + shift_y)

    def up_id(v):
        return rename_upper.get(v, f"{prefix}{v}")

    edges = list(lower.edges)
    weights = dict(lower.weights)
    for tail, head in upper.edges:
        e = (up_id(tail), up_id(head))
        edges.append(e)
        if (tail, head) in upper.weights:
            weights[e] = upper.weights[(tail, head)]
    sinks = tuple(up_id(t) for t in upper.sinks)
    return PlanarNetwork(
        vertices, tuple(edges), lower.sources, sinks, "edge", weights
    )


# ---------------------------------------------------------------------------
# weight-mode conversion and JSON

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


def network_to_json(network, spec=None):
    def num(x):
        return str(x) if isinstance(x, Fraction) and x.denominator != 1 else str(int(x))

    data = {
        "vertices": [
            {"id": v, "x": num(x), "y": num(y)}
            for v, (x, y) in network.vertices.items()
        ],
        "edges": [[tail, head] for tail, head in network.edges],
        "sources": list(network.sources),
        "sinks": list(network.sinks),
        "weight_mode": network.weight_mode,
        "weights": {},
    }
    for key, value in network.weights.items():
        name = key if isinstance(key, str) else f"{key[0]}->{key[1]}"
        data["weights"][name] = spec.to_json(value) if spec else value
    return data


def network_from_json(data, spec=None):
    """Parse a network; malformed input raises ``BadNetwork`` naming the field.
    With a ``spec``, every vertex of a vertex-weighted network needs a weight."""
    def expect(ok, where, what):
        if not ok:
            raise BadNetwork(f"{where}: {what}")

    def parse(where, fn, value):
        try:
            return fn(value)
        except (ArithmeticError, LookupError, PlanarFlowsError, TypeError, ValueError) as e:
            raise BadNetwork(f"{where}: {e}") from None

    def ids(where, value, count=None):
        """An edge (``count`` 2) or a terminal list, which repeats no vertex."""
        ok = isinstance(value, list) and count in (None, len(value))
        expect(ok, where, f"expected {count or 'a list of'} vertex ids")
        for k, v in enumerate(value):
            expect(isinstance(v, str) and v in vertices, where, f"unknown vertex {v!r}")
            expect(count or v not in value[:k], where, f"vertex {v!r} repeats")
        return tuple(value)

    def coordinate(value):
        if type(value) is not int and not isinstance(value, str):
            raise ValueError(f"expected an integer or a 'p/q' string, got {value!r}")
        return Fraction(value)

    expect(isinstance(data, dict), "network", "expected a JSON object")
    for name, kind in (("vertices", list), ("edges", list), ("weights", dict)):
        value = data.get(name, {} if kind is dict else None)
        expect(isinstance(value, kind), name, f"expected a JSON {kind.__name__}")
    vertices = {}
    for k, item in enumerate(data["vertices"]):
        ok = isinstance(item, dict) and isinstance(item.get("id"), str)
        expect(ok and item["id"] not in vertices, f"vertices[{k}]", "needs a new string id")
        vertices[item["id"]] = tuple(
            parse(f"vertices[{k}].{c}", coordinate, item.get(c)) for c in "xy")
    edges = tuple(ids(f"edges[{k}]", e, 2) for k, e in enumerate(data["edges"]))
    mode = data.get("weight_mode", "vertex")
    expect(mode in ("vertex", "edge"), "weight_mode", f"unknown mode {mode!r}")
    keys = set(edges) if mode == "edge" else vertices
    weights = {}
    for name, value in data.get("weights", {}).items():
        key = tuple(name.split("->", 1)) if mode == "edge" else name
        expect(key in keys, f"weights[{name!r}]", f"unknown {mode}")
        weights[key] = parse(f"weights[{name!r}]", spec.from_json, value) if spec else value
    for v in vertices if spec and mode == "vertex" else ():
        expect(v in weights, "weights", f"no weight for vertex {v!r}")
    sources, sinks = ids("sources", data.get("sources")), ids("sinks", data.get("sinks"))
    return PlanarNetwork(vertices, edges, sources, sinks, mode, weights)
