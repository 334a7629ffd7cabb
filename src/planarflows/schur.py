"""Schur polynomials via semistandard tableaux and their lattice-path flows.

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


def partition_to_set(lam, r):
    """The r-subset {lambda_r + 1, lambda_{r-1} + 2, ..., lambda_1 + r}."""
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
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
    """All semistandard fillings of the skew shape with entries in [N]."""
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu))
    cells = _skew_cells(lam, mu)
    filling = {}

    def rec(idx):
        if idx == len(cells):
            yield dict(filling)
            return
        row, col = cells[idx]
        lo = 1
        if (row, col - 1) in filling:
            lo = max(lo, filling[(row, col - 1)])
        if (row - 1, col) in filling:
            lo = max(lo, filling[(row - 1, col)] + 1)
        for v in range(lo, N + 1):
            filling[(row, col)] = v
            yield from rec(idx + 1)
            del filling[(row, col)]

    yield from rec(0)


def check_semistandard(lam, mu, rows, N):
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu))
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


def schur_poly(lam, mu=None, N=1):
    """The (skew) Schur polynomial as an exact integer polynomial."""
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu or (0,) * lam.length))
    ring = schur_ring(N)
    counts = {}
    for filling in ssyt_fillings(lam, mu, N):
        exps = [0] * N
        for v in filling.values():
            exps[v - 1] += 1
        counts[tuple(exps)] = counts.get(tuple(exps), 0) + 1
    if not _skew_cells(lam, mu):
        return ring.one(), ring
    return sr.Polynomial(N, counts), ring


def gv_grid(N, width):
    """The lattice network whose flows carry tableaux, with x_h level weights."""
    ring = schur_ring(N)
    level_weights = {h: ring.var(h - 1) for h in range(1, N + 1)}
    net = build_gv_grid(N, width, level_weights)
    return net, ring


def tableau_to_flow(lam, mu, rows, N):
    """Path system of a tableau on the level-weighted lattice."""
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu))
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
    lam = lam if isinstance(lam, Partition) else Partition(tuple(lam))
    mu = mu if isinstance(mu, Partition) else Partition(tuple(mu))
    r = lam.length
    width = (lam.parts[0] if lam.parts else 0) + r
    if width == 0:
        return 1
    net, _ = gv_grid(N, width)
    I = sorted(partition_to_set(mu, r))
    Iprime = sorted(partition_to_set(lam, r))
    return FlowFunction(sr.INTEGERS, net.unit_weights(sr.INTEGERS))(I, Iprime)


def verify_schur_identity(kind, params, N):
    """Exact check of the two quadratic Schur identities."""
    kind = kind.lower()
    if kind in ("tworow", "two-row", "tworowproduct"):
        i, j, k, ell = params
        if not (i < j <= k < ell):
            raise BadParams("need i < j <= k < l")
        ring = schur_ring(N)

        def s(a, c):
            val, _ = schur_poly(Partition((a, c)), None, N)
            return val

        lhs = ring.mul(s(k, i), s(ell, j))
        rhs = ring.add(
            ring.mul(s(ell, i), s(k, j)), ring.mul(s(j - 1, i), s(ell, k + 1))
        )
        return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "ring": ring}
    if kind == "condensation":
        lam = tuple(params)
        r = len(lam)
        if r < 2 or lam[-1] <= 0:
            raise BadParams("need at least two parts, the last one positive")
        ring = schur_ring(N)

        def s(parts):
            val, _ = schur_poly(Partition(tuple(parts)), None, N)
            return val

        lhs = ring.mul(s(lam[: r - 1]), s(lam[1:]))
        rhs = ring.add(
            ring.mul(s(lam[1: r - 1]), s(lam)),
            ring.mul(
                s(tuple(p - 1 for p in lam[1:])),
                s(tuple(p + 1 for p in lam[: r - 1])),
            ),
        )
        return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "ring": ring}
    raise BadParams(f"unknown identity kind {kind!r}")
