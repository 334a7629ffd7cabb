"""Exact minors, flow matrices, and the matrix-to-network compiler.

The flow matrix of a network has entry (j, i) equal to the weight sum of
paths from source i to sink j; its minors coincide with the multi-path flow
values.  Conversely any rational matrix is realized exactly by a stack of
elementary gadgets: adjacent swaps, adjacent additions below and above the
diagonal, and one quasi-diagonal layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import semiring as sr
from .errors import (
    BadInput,
    PatternsUnbalanced,
    PlanarFlowsError,
    RingRequired,
    SizeMismatch,
)
from .flows import FlowFunction
from .network import PlanarNetwork


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
    """Parse a matrix; malformed input raises ``BadInput`` naming the field,
    such as ``entries[1]`` for a short row or ``entries[0][2]`` for a bad value."""
    def parse(r, c, value):
        try:
            return spec.from_json(value)
        except (ArithmeticError, PlanarFlowsError, TypeError, ValueError) as e:
            raise BadInput(f"entries[{r}][{c}]: {e}") from None

    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise BadInput("entries: expected a list of rows")
    rows = []
    for r, row in enumerate(entries):
        if not isinstance(row, list):
            raise BadInput(f"entries[{r}]: expected a list")
        if len(row) != len(entries[0]):
            raise BadInput(f"entries[{r}]: has {len(row)} values, entries[0] has {len(entries[0])}")
        rows.append([parse(r, c, value) for c, value in enumerate(row)])
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

    Cofactor expansion built bottom up: the minors on the last s rows of I',
    for every s-subset of I, come from those on s - 1 rows.  It divides
    nowhere, so it works in any ring.
    """
    I, Iprime = tuple(sorted(I)), tuple(sorted(Iprime))
    if len(I) != len(Iprime):
        raise SizeMismatch(f"|I|={len(I)} vs |I'|={len(Iprime)}")
    spec = matrix.spec
    if not spec.has_additive_inverse:
        raise RingRequired("minors need additive inverses")
    for i in I:
        if not 1 <= i <= matrix.n_cols:
            raise SizeMismatch(f"column {i} out of range")
    for j in Iprime:
        if not 1 <= j <= matrix.n_rows:
            raise SizeMismatch(f"row {j} out of range")

    k = len(I)
    dets = {(): spec.one()}
    for s in range(1, k + 1):
        row = Iprime[k - s]
        level = {}
        for cols in combinations(I, s):
            acc = spec.zero()
            for p, col in enumerate(cols):
                term = spec.mul(matrix.entry(row, col), dets[cols[:p] + cols[p + 1:]])
                if p % 2:
                    term = spec.negate(term)
                acc = spec.add(acc, term)
            level[cols] = acc
        dets = level
    return dets[I]


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


def verify_lindstrom(network, spec):
    """Check minor(flow matrix) = flow value for every index pair."""
    mat = flow_matrix(network, spec)
    f = FlowFunction(spec, network)
    n, np_ = network.n_sources, network.n_sinks
    checked = 0
    failures = []
    for k in range(0, min(n, np_) + 1):
        for I in combinations(range(1, n + 1), k):
            for Iprime in combinations(range(1, np_ + 1), k):
                lhs = minor(mat, I, Iprime)
                rhs = f(I, Iprime)
                checked += 1
                if not spec.equal(lhs, rhs):
                    failures.append({"I": list(I), "Iprime": list(Iprime)})
    return {"checked": checked, "failures": failures, "ok": not failures}


# ---------------------------------------------------------------------------
# elementary gadgets on one wire layout

@dataclass(frozen=True)
class GadgetFactor:
    kind: str       # "quasi-diagonal" | "swap" | "add" | "upper-add"
    size: tuple     # (n_rows, n_cols) of the factor matrix
    index: int      # i for swap and the adds, 0 for quasi-diagonal
    value: object   # x for the adds, the diagonal for quasi-diagonal, None for swap

    @property
    def matrix(self):
        """Swap: the transposition of channels i, i+1.  Add: the identity
        plus x at (i+1, i); upper-add: plus x at (i, i+1).  Quasi-diagonal:
        d_j at (j, j), zero elsewhere."""
        (n_rows, n_cols), i = self.size, self.index
        diag = self.value if self.kind == "quasi-diagonal" else [Fraction(1)] * n_rows
        rows = [[diag[r] if r == c and r < len(diag) else Fraction(0) for c in range(n_cols)]
                for r in range(n_rows)]
        if self.kind == "swap":
            rows[i - 1], rows[i] = rows[i], rows[i - 1]
        elif self.kind == "add":
            rows[i][i - 1] = self.value
        elif self.kind == "upper-add":
            rows[i - 1][i] = self.value
        return exact_matrix(sr.RATIONALS, rows)


@dataclass
class GadgetChain:
    factors: tuple  # bottom (applied first) to top

    def product_matrix(self):
        """Ordered product: top factor times ... times bottom factor."""
        acc = self.factors[-1].matrix
        for factor in reversed(self.factors[:-1]):
            acc = mat_mul(acc, factor.matrix)
        return acc


def _assemble(factors, spec):
    """Edge-weighted network realizing the ordered product of ``factors``
    (bottom to top), laid out on vertical wires.

    Channel j is the wire x = j, its source at height 0; factor y sits at
    height y and adds vertices only on the wires it touches, fed by their
    current heads.  A swap adds a vertex on each of its wires and a hub
    between them: the direct edges carry -1 and the four hub edges +1.  An
    add puts a vertex on wire i+1, fed by wire i+1 (weight one) and wire i
    (weight x); an upper-add mirrors it, a vertex on wire i fed by wire i
    (weight one) and wire i+1 (weight x).  The quasi-diagonal adds a row of
    n' vertices, wire j <= len(diag) feeding it with weight d_j.  Whatever a
    factor adds lies in the strip between its wires above their heads, so
    the drawing is planar.
    A wire ending below the top row gets one straight edge up to its sink.
    Every vertex id is its position "x,y"; a missing edge weight means one.
    """
    one = spec.one()
    vertices, edges, weights = {}, [], {}

    def vertex(x, y):
        v = f"{x},{y}"
        vertices[v] = (Fraction(x), Fraction(y))
        return v

    def edge(tail, head, weight=None):
        edges.append((tail, head))
        if weight is not None:
            weights[(tail, head)] = weight

    heads = [vertex(j, 0) for j in range(1, factors[0].size[1] + 1)]
    sources = tuple(heads)
    for y, factor in enumerate(factors, start=1):
        i = factor.index
        if factor.kind == "swap":
            left, right = heads[i - 1], heads[i]
            hub = vertex(Fraction(2 * i + 1, 2), Fraction(2 * y - 1, 2))
            heads[i - 1], heads[i] = vertex(i, y), vertex(i + 1, y)
            edge(left, heads[i - 1], spec.negate(one))
            edge(right, heads[i], spec.negate(one))
            for tail, head in ((left, hub), (right, hub), (hub, heads[i - 1]), (hub, heads[i])):
                edge(tail, head, one)
        elif factor.kind in ("add", "upper-add"):
            # Wire j gains a vertex fed by itself and, weighted, by wire o.
            j, o = (i, i - 1) if factor.kind == "add" else (i - 1, i)
            new = vertex(j + 1, y)
            edge(heads[j], new)
            edge(heads[o], new, factor.value)
            heads[j] = new
        else:
            row = [vertex(j, y) for j in range(1, factor.size[0] + 1)]
            for tail, head, d in zip(heads, row, factor.value):
                edge(tail, head, d)
            heads = row
    for j, head in enumerate(heads, start=1):
        if vertices[head][1] < len(factors):
            heads[j - 1] = vertex(j, len(factors))
            edge(head, heads[j - 1])
    return PlanarNetwork(vertices, tuple(edges), sources, tuple(heads), "edge", weights)


def quasi_diagonal_gadget(diag, n, nprime):
    """n sources to n' sinks; channel i carries weight d_i, others die."""
    return _assemble([GadgetFactor("quasi-diagonal", (nprime, n), 0, tuple(diag))], sr.RATIONALS)


def adjacent_swap_gadget(r, i, spec):
    """Flow matrix equals the transposition of channels i, i+1."""
    return _assemble([GadgetFactor("swap", (r, r), i, None)], spec)


def adjacent_add_gadget(r, i, x, spec):
    """Identity channels plus a weight-x path from source i to sink i+1."""
    return _assemble([GadgetFactor("add", (r, r), i, x)], spec)


def compile_matrix_to_network(matrix):
    """Planar edge-weighted network whose flow matrix equals ``matrix``.

    Neville elimination: for each k, column k is cleared from the bottom up
    by adding a multiple of the row above (or swapping with it when its
    entry is zero), and row k from the right by the mirror rule on columns.
    Each entry costs at most one adjacent factor, so an n'×n matrix gives at
    most 1 + 2nn' factors.  Inverting the operation sequence yields the
    factorization, laid bottom-up on one set of wires.
    """
    nprime, n = matrix.n_rows, matrix.n_cols
    work = [[Fraction(v) for v in row] for row in matrix.entries]

    row_ops = []  # applied left to right: (kind, i, value of the inverse factor)
    col_ops = []

    def col_swap(i):  # columns i-1, i (0-based)
        for row in work:
            row[i - 1], row[i] = row[i], row[i - 1]
        col_ops.append(("swap", i, None))

    for k in range(min(n, nprime)):
        c = next((c for c in range(k, n) if any(row[c] for row in work[k:])), None)
        if c is None:
            break
        for i in range(c, k, -1):
            col_swap(i)
        # Column k, bottom up: row i against row i-1.  Rows k.. are zero
        # left of column k, and rows ..k-1 right of it.
        for i in range(nprime - 1, k, -1):
            above, row = work[i - 1], work[i]
            if not row[k]:
                continue
            if above[k]:
                x = row[k] / above[k]
                for j in range(k, n):
                    row[j] -= x * above[j]
                row_ops.append(("add", i, x))
            else:
                work[i - 1], work[i] = row, above
                row_ops.append(("swap", i, None))
        # Row k, from the right: column i against column i-1.
        pivot_row = work[k]
        for i in range(n - 1, k, -1):
            if not pivot_row[i]:
                continue
            if pivot_row[i - 1]:
                x = pivot_row[i] / pivot_row[i - 1]
                for row in work[k:]:
                    row[i] -= x * row[i - 1]
                col_ops.append(("upper-add", i, x))
            else:
                col_swap(i)

    for r in range(nprime):
        for c in range(n):
            if r != c and work[r][c] != 0:
                raise PlanarFlowsError("elimination failed to reach diagonal form")

    diag = tuple(work[i][i] for i in range(min(n, nprime)))
    # Bottom of the stack: inverses of the column ops in application order;
    # top: inverses of the row ops in reverse application order.
    factors = [GadgetFactor(kind, (n, n), i, x) for kind, i, x in col_ops]
    factors.append(GadgetFactor("quasi-diagonal", (nprime, n), 0, diag))
    factors += [GadgetFactor(kind, (nprime, nprime), i, x) for kind, i, x in reversed(row_ops)]
    return _assemble(factors, sr.RATIONALS), GadgetChain(tuple(factors))


# ---------------------------------------------------------------------------
# quadratic relations on matrix minors

def check_matrix_sq(matrix, pattern_a, pattern_b, X, Y, Xp, Yp):
    """Evaluate the quadratic identity with f = minors of ``matrix``.

    Only balanced patterns are covered by the guarantee, so unbalanced input
    is refused.
    """
    from .patterns import is_balanced
    from .relations import RelationInstance

    ri = RelationInstance.from_patterns(pattern_a, pattern_b, X, Y, Xp, Yp)
    if not is_balanced(pattern_a, pattern_b).balanced:
        raise PatternsUnbalanced("the minor identity only covers balanced patterns")
    return ri.sides(matrix.spec, lambda I, Iprime: minor(matrix, sorted(I), sorted(Iprime)))

