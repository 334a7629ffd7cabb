"""Exact minors, flow matrices, and the matrix-to-network compiler.

The flow matrix of a network has entry (j, i) equal to the weight sum of
paths from source i to sink j; its minors coincide with the multi-path flow
values.  Conversely any rational matrix is realized exactly by a stack of
elementary gadgets: adjacent swaps, adjacent additions below and above the
diagonal, and one quasi-diagonal layer.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import semiring as sr
from .errors import BadInput, PlanarFlowsError, RingRequired, SizeMismatch
from .network import PlanarNetwork


class ExactMatrix(namedtuple("ExactMatrix", "spec entries")):
    """``entries``: rows (sink index) x cols (source index), as tuples."""

    __slots__ = ()

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
    for r, row in enumerate(entries):
        if len(row) != len(entries[0]):
            raise SizeMismatch(f"rows[{r}]: has {len(row)} entries, rows[0] has {len(entries[0])}")
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


class Minors:
    """The minors of one matrix, sharing their sub-minors across queries.

    ``minors(I, I')`` is the determinant of the submatrix with columns I and
    rows I'.  It expands along the first row of I', skipping zero entries,
    so each sub-minor keeps a suffix of I' as its rows.  A set of indices is
    a bit mask, bit i - 1 for index i, and the memo is keyed by the column
    mask and the row mask together, so every query on the matrix reuses the
    sub-minors an earlier one computed.  The expansion runs on an explicit
    stack, so no recursion grows with k, and it divides nowhere, so it
    works in any ring.
    """

    def __init__(self, matrix):
        if not matrix.spec.has_additive_inverse:
            raise RingRequired("spec: minors need additive inverses")
        spec = matrix.spec
        self.matrix = matrix
        self._ops = spec.add, spec.mul, spec.negate, spec.zero()
        self._nonzero = {}  # row bit -> (mask of its nonzero columns, entries)
        self._memo = {0: spec.one()}  # cols | rows << n_cols -> minor

    def __call__(self, I, Iprime):
        I, Iprime = sorted(I), sorted(Iprime)
        if len(I) != len(Iprime):
            raise SizeMismatch(f"Iprime: |I|={len(I)} vs |I'|={len(Iprime)}")
        for where, what, idx, top in (("I", "column", I, self.matrix.n_cols),
                                      ("Iprime", "row", Iprime, self.matrix.n_rows)):
            if idx and not (1 <= idx[0] and idx[-1] <= top):
                bad = next(i for i in idx if not 1 <= i <= top)
                raise SizeMismatch(f"{where}: {what} {bad} is not in 1..{top}")
        cols, rows = (sum(1 << (i - 1) for i in set(idx)) for idx in (I, Iprime))
        if cols.bit_count() < len(I) or rows.bit_count() < len(Iprime):
            return self._ops[3]  # a repeated column or row
        return self.at(cols, rows)

    def at(self, cols, rows):
        """The minor on column and row masks of equal size, in range; unchecked."""
        memo, shift = self._memo, self.matrix.n_cols
        key = cols | rows << shift
        value = memo.get(key)
        if value is not None:
            return value
        add, mul, negate, zero = self._ops
        nonzero = self._nonzero
        # The top frame is summed once every sub-minor it needs is known;
        # until then it stays, under frames for those still missing.
        stack = [(cols, rows)]
        while stack:
            c, r = stack[-1]
            k = c | r << shift
            if k in memo:
                stack.pop()
                continue
            first = r & -r
            row = nonzero.get(first)
            if row is None:
                row = self._row(first)
            support, entries = row
            below, hits = r ^ first, support & c
            acc, missing = zero, False
            while hits:
                bit = hits & -hits
                hits ^= bit
                value = memo.get(c ^ bit | below << shift)
                if value is None:
                    stack.append((c ^ bit, below))
                    missing = True
                elif not missing:
                    term = mul(entries[bit.bit_length() - 1], value)
                    # The sign is that of the column's place within c.
                    acc = add(acc, negate(term) if (c & bit - 1).bit_count() & 1 else term)
            if not missing:
                memo[k] = acc
                stack.pop()
        return memo[key]

    def _row(self, bit):
        """(mask of the nonzero columns, entries) of the row on ``bit``, kept."""
        equal, zero = self.matrix.spec.equal, self._ops[3]
        entries = self.matrix.entries[bit.bit_length() - 1]
        support = 0
        for col, a in enumerate(entries):
            if not equal(a, zero):
                support |= 1 << col
        self._nonzero[bit] = support, entries
        return support, entries


def minor(matrix, I, Iprime):
    """Determinant of the submatrix with columns I and rows I'; exact (a
    one-shot ``Minors``)."""
    return Minors(matrix)(I, Iprime)


def flow_matrix(network, spec):
    """Entry (j, i) = weight sum of source-i to sink-j paths (a missing edge
    weight is one), by one forward sweep per source over the vertices that
    reach a sink."""
    if not spec.has_zero or not spec.has_additive_inverse:
        raise RingRequired("spec: flow matrices are defined over rings")
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


# ---------------------------------------------------------------------------
# elementary gadgets on one wire layout

# ``kind`` is "quasi-diagonal", "swap", "add" or "upper-add"; ``size`` the
# (n_rows, n_cols) of the factor matrix; ``index`` i for the swap and the
# adds, 0 for quasi-diagonal; ``value`` x for the adds, the diagonal for
# quasi-diagonal, None for swap.
GadgetFactor = namedtuple("GadgetFactor", "kind size index value")


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


def compile_matrix_to_network(matrix):
    """Planar edge-weighted network whose flow matrix equals ``matrix``.

    Neville elimination: for each k, column k is cleared from the bottom up
    by adding a multiple of the row above (or swapping with it when its
    entry is zero), and row k from the right by the mirror rule on columns.
    Each entry costs at most one adjacent factor, so an n'×n matrix gives at
    most 1 + 2nn' factors.  Inverting the operation sequence yields the
    factorization, laid bottom-up on one set of wires.  Returns the network
    and the tuple of factors, bottom (applied first) to top.
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
    return _assemble(factors, sr.RATIONALS), tuple(factors)
