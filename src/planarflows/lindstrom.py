"""Exact minors, flow matrices, and the matrix-to-network compiler.

The flow matrix of a network has entry (j, i) equal to the weight sum of
paths from source i to sink j; its minors coincide with the multi-path flow
values.  Conversely any rational matrix is realized exactly by a stack of
elementary gadgets: adjacent swaps, adjacent additions, and one
quasi-diagonal layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import semiring as sr
from .errors import (
    PatternsUnbalanced,
    PlanarFlowsError,
    RingRequired,
    SizeMismatch,
)
from .flows import fg_value
from .network import PlanarNetwork, concatenate
from .patterns import _normalize_pattern, embed_two, is_balanced


@dataclass(frozen=True)
class ExactMatrix:
    spec: object
    entries: tuple  # rows (sink index) x cols (source index)

    @property
    def n_rows(self):
        return len(self.entries)

    @property
    def n_cols(self):
        return len(self.entries[0]) if self.entries else 0

    def entry(self, row, col):
        """1-based access."""
        return self.entries[row - 1][col - 1]

    def to_json(self):
        return {
            "rows": self.n_rows,
            "cols": self.n_cols,
            "entries": [[self.spec.to_json(v) for v in row] for row in self.entries],
        }


def exact_matrix(spec, rows):
    entries = tuple(tuple(row) for row in rows)
    widths = {len(row) for row in entries}
    if len(widths) > 1:
        raise SizeMismatch("ragged matrix")
    return ExactMatrix(spec, entries)


def matrix_from_json(data, spec):
    rows = [[spec.from_json(v) for v in row] for row in data["entries"]]
    return exact_matrix(spec, rows)


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


def minor(matrix, I, Iprime):
    """Determinant of the submatrix with columns I and rows I'; exact.

    Cofactor expansion with memoization over column subsets, so it works in
    any ring (no division).
    """
    I, Iprime = tuple(sorted(I)), tuple(sorted(Iprime))
    if len(I) != len(Iprime):
        raise SizeMismatch(f"|I|={len(I)} vs |I'|={len(Iprime)}")
    spec = matrix.spec
    if not spec.has_additive_inverse:
        raise RingRequired("minors need additive inverses")
    if not I:
        return spec.one()
    for i in I:
        if not 1 <= i <= matrix.n_cols:
            raise SizeMismatch(f"column {i} out of range")
    for j in Iprime:
        if not 1 <= j <= matrix.n_rows:
            raise SizeMismatch(f"row {j} out of range")

    memo = {}

    def det(cols):
        if not cols:
            return spec.one()
        if cols in memo:
            return memo[cols]
        row = Iprime[len(Iprime) - len(cols)]
        acc = spec.zero()
        for k, col in enumerate(cols):
            sub = det(cols[:k] + cols[k + 1:])
            term = spec.mul(matrix.entry(row, col), sub)
            if k % 2:
                term = spec.negate(term)
            acc = spec.add(acc, term)
        memo[cols] = acc
        return acc

    return det(I)


def flow_matrix(network, spec):
    """Entry (j, i) = weight sum of source-i to sink-j paths (a missing edge
    weight is one), by one forward sweep per source over the vertices that
    reach a sink."""
    if not spec.has_zero or not spec.has_additive_inverse:
        raise RingRequired("flow matrices are defined over rings")
    order, rank, succ = network.view
    weights, vertex_mode = network.weights, network.weight_mode == "vertex"
    live = {rank[t] for t in network.sinks}
    for r in reversed(range(len(order))):
        if any(u in live for u in succ[r]):
            live.add(r)
    succ = [[u for u in heads if u in live] for heads in succ]
    columns = []
    for s in network.sources:
        r0 = rank[s]
        sums = {r0: weights[s] if vertex_mode else spec.one()} if r0 in live else {}
        for r in range(r0, len(order)):
            for u in succ[r] if r in sums else ():
                w = weights[order[u]] if vertex_mode else weights.get((order[r], order[u]))
                value = sums[r] if w is None else spec.mul(w, sums[r])
                sums[u] = spec.add(sums[u], value) if u in sums else value
        columns.append([sums.get(rank[t], spec.zero()) for t in network.sinks])
    return exact_matrix(spec, [[col[j] for col in columns] for j in range(network.n_sinks)])


def verify_lindstrom(network, spec, size_cap=None):
    """Check minor(flow matrix) = flow value for every index pair."""
    mat = flow_matrix(network, spec)
    n, np_ = network.n_sources, network.n_sinks
    cap = size_cap if size_cap is not None else min(n, np_)
    checked = 0
    failures = []
    for k in range(0, cap + 1):
        for I in combinations(range(1, n + 1), k):
            for Iprime in combinations(range(1, np_ + 1), k):
                lhs = minor(mat, I, Iprime)
                rhs = fg_value(spec, network, I, Iprime)
                checked += 1
                if not spec.equal(lhs, rhs):
                    failures.append({"I": list(I), "Iprime": list(Iprime)})
    return {"checked": checked, "failures": failures, "ok": not failures}


# ---------------------------------------------------------------------------
# elementary gadgets

def _terminal_rows(r, nprime=None):
    nprime = r if nprime is None else nprime
    vertices = {}
    for i in range(1, r + 1):
        vertices[f"s{i}"] = (Fraction(i), Fraction(0))
    for j in range(1, nprime + 1):
        vertices[f"t{j}"] = (Fraction(j), Fraction(1))
    sources = tuple(f"s{i}" for i in range(1, r + 1))
    sinks = tuple(f"t{j}" for j in range(1, nprime + 1))
    return vertices, sources, sinks


def quasi_diagonal_gadget(diag, n, nprime):
    """n sources to n' sinks; channel i carries weight d_i, others die."""
    vertices, sources, sinks = _terminal_rows(n, nprime)
    edges = []
    weights = {}
    for i, d in enumerate(diag, start=1):
        e = (f"s{i}", f"t{i}")
        edges.append(e)
        weights[e] = d
    return PlanarNetwork(vertices, tuple(edges), sources, sinks, "edge", weights)


def adjacent_swap_gadget(r, i, spec):
    """Flow matrix equals the transposition of channels i, i+1.

    The direct channels at i and i+1 carry weight -1 and a middle hub adds a
    weight-one detour, so straight-through weights cancel to zero while the
    crossings survive with weight one.
    """
    vertices, sources, sinks = _terminal_rows(r)
    hub = "hub"
    vertices[hub] = (Fraction(2 * i + 1, 2), Fraction(1, 2))
    one = spec.one()
    minus_one = spec.negate(one)
    edges = []
    weights = {}
    for j in range(1, r + 1):
        e = (f"s{j}", f"t{j}")
        edges.append(e)
        weights[e] = minus_one if j in (i, i + 1) else one
    for e in [(f"s{i}", hub), (f"s{i + 1}", hub), (hub, f"t{i}"), (hub, f"t{i + 1}")]:
        edges.append(e)
        weights[e] = one
    return PlanarNetwork(vertices, tuple(edges), sources, sinks, "edge", weights)


def adjacent_add_gadget(r, i, x, spec):
    """Identity channels plus a weight-x edge from source i to sink i+1."""
    vertices, sources, sinks = _terminal_rows(r)
    one = spec.one()
    edges = []
    weights = {}
    for j in range(1, r + 1):
        e = (f"s{j}", f"t{j}")
        edges.append(e)
        weights[e] = one
    e = (f"s{i}", f"t{i + 1}")
    edges.append(e)
    weights[e] = x
    return PlanarNetwork(vertices, tuple(edges), sources, sinks, "edge", weights)


@dataclass(frozen=True)
class GadgetFactor:
    kind: str       # "quasi-diagonal" | "swap" | "add"
    size: tuple     # (n_rows, n_cols) of the factor matrix
    index: int      # i for swap/add, 0 for quasi-diagonal
    value: object   # x for add, None otherwise
    matrix: ExactMatrix
    network: PlanarNetwork


@dataclass
class GadgetChain:
    factors: tuple  # bottom (applied first) to top

    def product_matrix(self):
        """Ordered product: top factor times ... times bottom factor."""
        acc = self.factors[-1].matrix
        for factor in reversed(self.factors[:-1]):
            acc = mat_mul(acc, factor.matrix)
        return acc


def _identity_rows(spec, r):
    return [
        [spec.one() if i == j else spec.zero() for j in range(r)] for i in range(r)
    ]


def _swap_matrix(spec, r, i):
    rows = _identity_rows(spec, r)
    rows[i - 1][i - 1] = spec.zero()
    rows[i][i] = spec.zero()
    rows[i - 1][i] = spec.one()
    rows[i][i - 1] = spec.one()
    return exact_matrix(spec, rows)


def _add_matrix(spec, r, i, x):
    rows = _identity_rows(spec, r)
    rows[i][i - 1] = x
    return exact_matrix(spec, rows)


def _swap_factor(spec, r, i):
    return GadgetFactor(
        "swap", (r, r), i, None, _swap_matrix(spec, r, i), adjacent_swap_gadget(r, i, spec)
    )


def _add_factor(spec, r, i, x):
    return GadgetFactor(
        "add", (r, r), i, x, _add_matrix(spec, r, i, x), adjacent_add_gadget(r, i, x, spec)
    )


def compile_matrix_to_network(matrix):
    """Planar edge-weighted network whose flow matrix equals ``matrix``.

    Gaussian elimination restricted to adjacent row/column operations
    reduces the matrix to quasi-diagonal form; inverting the operation
    sequence yields a factorization into gadget shapes, which concatenate
    bottom-up into one network.
    """
    spec = sr.RATIONALS
    nprime, n = matrix.n_rows, matrix.n_cols
    work = [[Fraction(v) for v in row] for row in matrix.entries]

    row_ops = []  # applied left to right: (kind, i, x)
    col_ops = []

    def do_row_swap(i):  # rows i, i+1 (1-based i)
        work[i - 1], work[i] = work[i], work[i - 1]
        row_ops.append(("swap", i, None))

    def do_row_add(i, x):  # row_{i+1} += x * row_i
        for c in range(n):
            work[i][c] += x * work[i - 1][c]
        row_ops.append(("add", i, x))

    def do_col_swap(i):
        for r in range(nprime):
            work[r][i - 1], work[r][i] = work[r][i], work[r][i - 1]
        col_ops.append(("swap", i, None))

    def do_col_add(i, x):  # col_i += x * col_{i+1}
        for r in range(nprime):
            work[r][i - 1] += x * work[r][i]
        col_ops.append(("add", i, x))

    for k in range(min(n, nprime)):
        pivot = None
        for r in range(k, nprime):
            for c in range(k, n):
                if work[r][c] != 0:
                    pivot = (r, c)
                    break
            if pivot:
                break
        if pivot is None:
            break
        r, c = pivot
        while r > k:
            do_row_swap(r)  # swap rows r, r+1 in 1-based = r-1, r 0-based
            r -= 1
        while c > k:
            do_col_swap(c)
            c -= 1
        for r2 in range(k + 1, nprime):
            if work[r2][k] == 0:
                continue
            x = -work[r2][k] / work[k][k]
            # bubble row r2 next to the pivot row, add, bubble back
            for t in range(r2, k + 1, -1):
                do_row_swap(t)
            do_row_add(k + 1, x)
            for t in range(k + 2, r2 + 1):
                do_row_swap(t)
        for c2 in range(k + 1, n):
            if work[k][c2] == 0:
                continue
            x = -work[k][c2] / work[k][k]
            # bring the column next to the pivot; the primitive adds the
            # right neighbor into the left one, so sandwich it in a swap
            for t in range(c2, k + 1, -1):
                do_col_swap(t)
            do_col_swap(k + 1)
            do_col_add(k + 1, x)
            do_col_swap(k + 1)
            for t in range(k + 2, c2 + 1):
                do_col_swap(t)

    for r in range(nprime):
        for c in range(n):
            if r != c and work[r][c] != 0:
                raise PlanarFlowsError("elimination failed to reach diagonal form")

    diag = [work[i][i] for i in range(min(n, nprime))]

    factors = []
    # Bottom of the stack: inverses of the column ops in application order.
    for kind, i, x in col_ops:
        if kind == "swap":
            factors.append(_swap_factor(spec, n, i))
        else:
            factors.append(_add_factor(spec, n, i, -x))
    factors.append(
        GadgetFactor(
            "quasi-diagonal",
            (nprime, n),
            0,
            None,
            exact_matrix(
                spec,
                [
                    [diag[i] if (i == j and i < len(diag)) else Fraction(0) for j in range(n)]
                    for i in range(nprime)
                ],
            ),
            quasi_diagonal_gadget(diag, n, nprime),
        )
    )
    # Top of the stack: inverses of the row ops in reverse application order.
    for kind, i, x in reversed(row_ops):
        if kind == "swap":
            factors.append(_swap_factor(spec, nprime, i))
        else:
            factors.append(_add_factor(spec, nprime, i, -x))

    network = factors[0].network
    for factor in factors[1:]:
        network = concatenate(network, factor.network)
    return network, GadgetChain(tuple(factors))


# ---------------------------------------------------------------------------
# quadratic relations on matrix minors

def check_matrix_sq(matrix, pattern_a, pattern_b, X, Y, Xp, Yp, strict=True):
    """Evaluate the quadratic identity with f = minors of ``matrix``.

    Only balanced patterns are covered by the guarantee, so unbalanced input
    is refused.
    """
    a = _normalize_pattern(pattern_a)
    b = _normalize_pattern(pattern_b)
    if strict and not is_balanced(a, b).balanced:
        raise PatternsUnbalanced("the minor identity only covers balanced patterns")
    spec = matrix.spec
    X, Y = frozenset(X), frozenset(Y)
    Xp, Yp = frozenset(Xp), frozenset(Yp)

    def f(I, Iprime):
        return minor(matrix, sorted(I), sorted(Iprime))

    def side(family):
        acc = spec.zero()
        for (A, Ap), mult in family.items():
            term = spec.mul(f(X | A, Xp | Ap), f(X | (Y - A), Xp | (Yp - Ap)))
            for _ in range(mult):
                acc = spec.add(acc, term)
        return acc

    lhs = side(embed_two(a, sorted(Y), sorted(Yp)))
    rhs = side(embed_two(b, sorted(Y), sorted(Yp)))
    return {"lhs": lhs, "rhs": rhs, "equal": spec.equal(lhs, rhs)}


def minor_function(matrix):
    """Flag-minor function S -> det of columns S, rows 1..|S|."""

    def f(S):
        S = sorted(S)
        return minor(matrix, S, range(1, len(S) + 1))

    return f
