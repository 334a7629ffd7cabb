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

from collections import namedtuple
from functools import lru_cache

from . import semiring as sr
from .errors import BadLength, BadParams
from .flows import FlowFunction
from .network import build_gv_grid


class Partition(namedtuple("Partition", "parts")):
    """``parts`` weakly decreasing, >= 0; trailing zeros significant."""

    __slots__ = ()

    def __new__(cls, parts):
        if any(p < 0 for p in parts):
            raise BadParams(f"parts: {parts} has a negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise BadParams(f"parts: {parts} is not weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def length(self):
        return len(self.parts)


def _partition(parts):
    return parts if isinstance(parts, Partition) else Partition(tuple(parts))


def partition_to_set(lam, r):
    """The r-subset {lambda_r + 1, lambda_{r-1} + 2, ..., lambda_1 + r}."""
    lam = _partition(lam)
    if lam.length != r:
        raise BadLength(f"partition has {lam.length} parts, expected {r}")
    return frozenset(lam.parts[r - 1 - k] + k + 1 for k in range(r))


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


def schur_ring(N):
    return sr.polynomial_ring(*[f"x{h}" for h in range(1, N + 1)])


def _flow_value(lam, mu, N, flows=None):
    """Sum over the flows from mu's set to lambda's set on the lattice of N
    levels, one per skew tableau, with x_h level weights in ``schur_ring(N)``.
    Like the tableaux, an empty shape gives one and any other gives zero
    when N < 1.  ``flows`` may be the FG-function of a lattice at least
    lambda_1 + r wide: a path never runs right of its sink, so extra columns
    carry no flow."""
    lam, mu = _partition(lam), _partition(mu)
    r = lam.length
    I, Iprime = sorted(partition_to_set(mu, r)), sorted(partition_to_set(lam, r))
    ring = schur_ring(N)
    if I == Iprime:
        return ring.one()
    if N < 1:
        return ring.zero()
    if flows is None:
        flows = FlowFunction(ring, gv_grid(N, lam.parts[0] + r)[0])
    return flows(I, Iprime)


def schur_poly(lam, mu=None, N=1):
    """The (skew) Schur polynomial in x_1..x_N as an exact integer polynomial."""
    lam = _partition(lam)
    mu = _partition(mu or (0,) * lam.length)
    _skew_cells(lam, mu)  # refuses a mu that does not fit lambda
    return _flow_value(lam, mu, N), schur_ring(N)


@lru_cache
def gv_grid(N, width):
    """The lattice network whose flows carry tableaux, with x_h level weights.
    Built once per (N, width) and shared by every caller, who must not
    change it.  It carries the FlowFunction of ``verify_schur_identity`` as
    ``flows``, so its values stay with the entry."""
    ring = schur_ring(N)
    level_weights = {h: ring.var(h - 1) for h in range(1, N + 1)}
    net = build_gv_grid(N, width, level_weights)
    net.flows = FlowFunction(ring, net)
    return net, ring


def verify_schur_identity(kind, params, N):
    """Exact check of the two quadratic Schur identities, each read as
    s_a * s_b = s_c * s_d + s_e * s_f over six straight shapes."""
    kind = kind.lower()
    if kind in ("tworow", "two-row", "tworowproduct"):
        i, j, k, ell = params
        if not (i < j <= k < ell):
            raise BadParams(f"params: need i < j <= k < l, got {i},{j},{k},{ell}")
        shapes = [(k, i), (ell, j), (ell, i), (k, j), (j - 1, i), (ell, k + 1)]
    elif kind == "condensation":
        lam = tuple(params)
        r = len(lam)
        if r < 2 or lam[-1] <= 0:
            raise BadParams("params: need at least two parts, the last one positive")
        shapes = [
            lam[: r - 1], lam[1:], lam[1: r - 1], lam,
            tuple(p - 1 for p in lam[1:]), tuple(p + 1 for p in lam[: r - 1]),
        ]
    else:
        raise BadParams(f"kind: unknown identity kind {kind!r}")
    shapes = [_partition(shape) for shape in shapes]
    ring = schur_ring(N)
    # One lattice, as wide as the widest shape, carries all six values.
    width = max(lam.parts[0] + lam.length for lam in shapes if lam.length)
    flows = gv_grid(N, width)[0].flows if N >= 1 else None
    a, b, c, d, e, f = (_flow_value(lam, (0,) * lam.length, N, flows) for lam in shapes)
    if flows is not None:
        flows.drop_memos()
    lhs = ring.mul(a, b)
    rhs = ring.add(ring.mul(c, d), ring.mul(e, f))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "ring": ring}
