"""Schur polynomials as lattice-path flow values, and their tableaux.

A skew Schur polynomial is the flow value on ``gv_grid`` from the set of mu
to the set of lambda, one flow per semistandard tableau (Gessel--Viennot);
``ssyt_fillings`` lists the tableaux themselves, as an oracle.

Rows are indexed bottom to top: row 1 is the longest (lambda_1) row.  Rows
weakly increase left to right and columns strictly increase upward.  The
k-th path of the associated flow encodes row r+1-k of the tableau; its
horizontal steps at level h match the number of h entries in that row.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semiring as sr
from .errors import BadLength, BadParams, NotAFlow, NotSemistandard
from .flows import Flow, FlowFunction
from .network import build_gv_grid


@dataclass(frozen=True)
class Partition:
    parts: tuple  # weakly decreasing, >= 0; trailing zeros significant

    def __post_init__(self):
        parts = self.parts
        if any(p < 0 for p in parts):
            raise BadParams("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise BadParams(f"{parts} is not weakly decreasing")

    @property
    def length(self):
        return len(self.parts)


def partition(*parts):
    return Partition(tuple(parts))


def _partition(parts):
    return parts if isinstance(parts, Partition) else Partition(tuple(parts))


def partition_to_set(lam, r):
    """The r-subset {lambda_r + 1, lambda_{r-1} + 2, ..., lambda_1 + r}."""
    lam = _partition(lam)
    if lam.length != r:
        raise BadLength(f"partition has {lam.length} parts, expected {r}")
    return frozenset(lam.parts[r - 1 - k] + k + 1 for k in range(r))


def set_to_partition(A, r):
    A = sorted(A)
    if len(A) != r:
        raise BadLength(f"set has {len(A)} elements, expected {r}")
    parts = tuple(A[r - 1 - i] - (r - i) for i in range(r))
    if any(p < 0 for p in parts):
        raise BadLength("set elements too small for a partition")
    return Partition(parts)


def _skew_cells(lam, mu):
    lam = lam.parts
    mu = mu.parts
    if len(mu) != len(lam):
        raise BadParams("mu must have the same length as lambda (pad with zeros)")
    if any(m > l for m, l in zip(mu, lam)):
        raise BadParams("mu must sit inside lambda")
    cells = []
    for row in range(1, len(lam) + 1):
        for col in range(mu[row - 1] + 1, lam[row - 1] + 1):
            cells.append((row, col))
    return cells


def ssyt_fillings(lam, mu, N):
    """All semistandard fillings of the skew shape with entries in [N].

    Depth first over the cells, smaller entries first, on an explicit stack
    of (cell index, entry) choices.  Later cells may hold stale entries, but
    a cell's lower bound reads only its left and lower neighbours, which
    come earlier in ``cells`` and are current.
    """
    lam = _partition(lam)
    mu = _partition(mu)
    cells = _skew_cells(lam, mu)
    filling = {}
    stack = [(-1, None)]
    while stack:
        idx, v = stack.pop()
        if idx >= 0:
            filling[cells[idx]] = v
        idx += 1
        if idx == len(cells):
            yield dict(filling)
            continue
        row, col = cells[idx]
        lo = max(filling.get((row, col - 1), 1), filling.get((row - 1, col), 0) + 1)
        stack.extend((idx, v) for v in range(N, lo - 1, -1))


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


def schur_ring(N):
    return sr.polynomial_ring(*[f"x{h}" for h in range(1, N + 1)])


def _flow_value(lam, mu, N, weighted):
    """Sum over the flows from mu's set to lambda's set on the lattice of N
    levels, one per skew tableau: x_h level weights in ``schur_ring(N)`` if
    ``weighted``, else a count over the integers.  Like the tableaux, an
    empty shape gives one and any other gives zero when N < 1."""
    lam = _partition(lam)
    mu = _partition(mu)
    r = lam.length
    I = sorted(partition_to_set(mu, r))
    Iprime = sorted(partition_to_set(lam, r))
    spec = schur_ring(N) if weighted else sr.INTEGERS
    if I == Iprime:
        return spec.one()
    if N < 1:
        return spec.zero()
    width = lam.parts[0] + r
    net = gv_grid(N, width)[0] if weighted else build_gv_grid(N, width)
    return FlowFunction(spec, net)(I, Iprime)


def schur_poly(lam, mu=None, N=1):
    """The (skew) Schur polynomial in x_1..x_N as an exact integer polynomial."""
    lam = _partition(lam)
    mu = _partition(mu or (0,) * lam.length)
    _skew_cells(lam, mu)  # refuses a mu that does not fit lambda
    return _flow_value(lam, mu, N, True), schur_ring(N)


def gv_grid(N, width):
    """The lattice network whose flows carry tableaux, with x_h level weights."""
    ring = schur_ring(N)
    level_weights = {h: ring.var(h - 1) for h in range(1, N + 1)}
    net = build_gv_grid(N, width, level_weights)
    return net, ring


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


def count_flows(lam, mu, N):
    return _flow_value(lam, mu, N, False)


def verify_schur_identity(kind, params, N):
    """Exact check of the two quadratic Schur identities, each read as
    s_a * s_b = s_c * s_d + s_e * s_f over six straight shapes."""
    kind = kind.lower()
    if kind in ("tworow", "two-row", "tworowproduct"):
        i, j, k, ell = params
        if not (i < j <= k < ell):
            raise BadParams("need i < j <= k < l")
        shapes = [(k, i), (ell, j), (ell, i), (k, j), (j - 1, i), (ell, k + 1)]
    elif kind == "condensation":
        lam = tuple(params)
        r = len(lam)
        if r < 2 or lam[-1] <= 0:
            raise BadParams("need at least two parts, the last one positive")
        shapes = [
            lam[: r - 1], lam[1:], lam[1: r - 1], lam,
            tuple(p - 1 for p in lam[1:]), tuple(p + 1 for p in lam[: r - 1]),
        ]
    else:
        raise BadParams(f"unknown identity kind {kind!r}")
    ring = schur_ring(N)
    a, b, c, d, e, f = (schur_poly(shape, None, N)[0] for shape in shapes)
    lhs = ring.mul(a, b)
    rhs = ring.add(ring.mul(c, d), ring.mul(e, f))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "ring": ring}
