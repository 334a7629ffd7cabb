"""Proper pairs, 2-patterns, feasible matchings, and balancedness.

Elements of Y sit on the lower half of a circle (increasing left to right)
and elements of Y' on the upper half; a matching couple is a chord.  A
matching is feasible for the white/black coloring induced by (A, A') when
same-side couples are bichromatic, cross-side couples monochromatic, and no
two chords cross.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations

from .errors import (
    BadInput,
    BadParams,
    BadSizes,
    NotProper,
    SizeMismatch,
)

LOWER, UPPER = 0, 1


def is_proper(Y, Yp, A, Ap):
    """Parity condition |Y| - |Y'| = 2(|A| - |A'|)."""
    return len(Y) - len(Yp) == 2 * (len(A) - len(Ap))


class PlanarMatching:
    """A perfect matching on Y u Y' stored as typed endpoint couples.

    Endpoints are (0, y) for lower elements and (1, y') for upper ones;
    couples are sorted pairs, the whole matching a frozenset.
    """

    __slots__ = ("couples",)

    def __init__(self, couples):
        normalized = frozenset(tuple(sorted(c)) for c in couples)
        for c in normalized:
            if len(c) != 2:
                raise BadParams(f"couple {c} does not have two endpoints")
        self.couples = normalized

    def __eq__(self, other):
        return isinstance(other, PlanarMatching) and self.couples == other.couples

    def __hash__(self):
        return hash(self.couples)

    def __lt__(self, other):
        return self.canonical_key() < other.canonical_key()

    def canonical_key(self):
        return tuple(sorted(self.couples))

    def lower_couples(self):
        return sorted(
            (a[1], b[1])
            for a, b in self.couples
            if a[0] == LOWER and b[0] == LOWER
        )

    def upper_couples(self):
        return sorted(
            (a[1], b[1])
            for a, b in self.couples
            if a[0] == UPPER and b[0] == UPPER
        )

    def verticals(self):
        return sorted(
            (a[1], b[1])
            for a, b in self.couples
            if a[0] == LOWER and b[0] == UPPER
        )

    def elements(self):
        out = set()
        for a, b in self.couples:
            out.add(a)
            out.add(b)
        return out

    def to_json(self):
        return {
            "lower": [list(c) for c in self.lower_couples()],
            "upper": [list(c) for c in self.upper_couples()],
            "vertical": [list(c) for c in self.verticals()],
        }

    def __repr__(self):
        low = ",".join(f"{i}{j}" for i, j in self.lower_couples())
        up = ",".join(f"{i}'{j}'" for i, j in self.upper_couples())
        ver = ",".join(f"{i}{j}'" for i, j in self.verticals())
        return "M[" + ";".join(p for p in (low, up, ver) if p) + "]"


def matching_from_parts(lower=(), upper=(), vertical=()):
    couples = [((LOWER, i), (LOWER, j)) for i, j in lower]
    couples += [((UPPER, i), (UPPER, j)) for i, j in upper]
    couples += [((LOWER, i), (UPPER, j)) for i, j in vertical]
    return PlanarMatching(couples)


def _circle_points(Y, Yp):
    """Cyclic layout: lower elements ascending, then upper descending."""
    return [(LOWER, y) for y in sorted(Y)] + [(UPPER, y) for y in sorted(Yp, reverse=True)]


def is_noncrossing(Y, Yp, matching):
    """Whether a perfect matching on Y u Y' has no crossing chords, in one
    scan of the circle: each point closes the chord opened last or opens a
    new one, and a crossing leaves some chord open."""
    partner = {}
    for p, q in matching.couples:
        partner[p], partner[q] = q, p
    opened = []
    for point in _circle_points(Y, Yp):
        if opened and partner.get(point) == opened[-1]:
            opened.pop()
        else:
            opened.append(point)
    return not opened


def _odd_points(Yp, A, Ap):
    """The feasibility rule for the coloring with A, A' white: the points
    whose side and color differ (white lower, black upper).  A couple is
    feasible exactly when one endpoint is odd, so a same-side couple has
    two colors and a cross-side couple one."""
    return {(LOWER, a) for a in A} | {(UPPER, y) for y in Yp if y not in Ap}


def matching_is_feasible(matching, Y, Yp, A, Ap):
    """Color conditions only; planarity of the matching is assumed/checked."""
    odd = _odd_points(Yp, A, Ap)
    for p, q in matching.couples:
        if (p in odd) == (q in odd):
            return False
    return True


def feasible_matchings(Y, Yp, A, Ap):
    """All feasible non-crossing perfect matchings for (A, A') on (Y, Y')."""
    points, chords = _feasible_chords(Y, Yp, A, Ap)
    return sorted(PlanarMatching((points[i], points[j]) for i, j in c) for c in chords)


def _feasible_chords(Y, Yp, A, Ap):
    """The circle points of (Y, Y') and the feasible matchings for (A, A'),
    each a tuple of chords (i, j), i < j, as positions ordered by i."""
    Y, Yp = frozenset(Y), frozenset(Yp)
    A, Ap = frozenset(A), frozenset(Ap)
    if not A <= Y or not Ap <= Yp:
        raise NotProper("A must sit inside Y and A' inside Y'")
    if not is_proper(Y, Yp, A, Ap):
        raise NotProper(
            f"|Y|-|Y'| = {len(Y) - len(Yp)} != 2(|A|-|A'|) = {2 * (len(A) - len(Ap))}"
        )
    # level[k] counts odd minus even points before circle position k.  The
    # run of positions lo..hi-1 has a feasible matching exactly when
    # level[lo] == level[hi], and point lo takes partner e-1 exactly when the
    # runs lo+1..e-2 inside the chord and e..hi-1 after it are balanced.
    # runs[lo, hi] lists a balanced run's matchings as tuples of position
    # pairs; it is filled right to left, so every run a chord splits off is
    # listed before the run that needs it.
    points = _circle_points(Y, Yp)
    odd = _odd_points(Yp, A, Ap)
    level = [0, *accumulate(1 if point in odd else -1 for point in points)]
    at_level = {}
    for k, height in enumerate(level):
        at_level.setdefault(height, []).append(k)
    runs = {}
    for lo in reversed(range(len(level))):
        ends = [e for e in at_level[level[lo]] if e > lo]
        runs[lo, lo] = [()]
        for hi in ends:
            runs[lo, hi] = [
                ((lo, e - 1),) + inner + outer
                for e in ends if e <= hi and level[e - 1] == level[lo + 1]
                for inner in runs[lo + 1, e - 1]
                for outer in runs[e, hi]
            ]
    return points, runs[0, len(points)]


def flag_feasible_matchings(Y, A, p, q):
    """Nested bichromatic couple systems for the flag case (p >= q).

    Returned as frozensets of (i, j) couples: exactly the lower-horizontal
    parts of the feasible matchings of the equivalent 2-pattern.
    """
    Y = frozenset(Y)
    A = frozenset(A)
    if p < q:
        raise BadSizes(f"flag matchings need p >= q, got p={p}, q={q}")
    if len(A) != p or len(Y) != p + q:
        raise BadSizes("sizes do not match |A| = p and |Y| = p + q")
    synthetic_upper = frozenset(range(1, p - q + 1))
    full = feasible_matchings(Y, synthetic_upper, A, synthetic_upper)
    out = sorted({frozenset(m.lower_couples()) for m in full})
    if len(out) != len(full):
        raise BadSizes("flag reduction lost matchings; this cannot happen")
    return out


def apply_exchange(A, Ap, couples):
    """Flip the colors of both elements of each chosen couple."""
    A, Ap = set(A), set(Ap)
    for p, q in couples:
        for side, e in (p, q):
            target = A if side == LOWER else Ap
            if e in target:
                target.remove(e)
            else:
                target.add(e)
    return frozenset(A), frozenset(Ap)


# ---------------------------------------------------------------------------
# patterns

@dataclass(frozen=True)
class TwoPattern:
    m: int
    m_prime: int
    members: tuple  # ((A frozenset, A' frozenset, multiplicity), ...) sorted


def two_pattern(m, m_prime, members):
    """The 2-pattern of the members (A, A') or (A, A', multiplicity), with like
    members merged; a member outside ([m], [m']) or off the parity condition
    is refused by its position, as ``members[k]``."""
    ground, ground_p = frozenset(range(1, m + 1)), frozenset(range(1, m_prime + 1))
    counter = Counter()
    for k, item in enumerate(members):
        A, Ap, mult = item if len(item) == 3 else (*item, 1)
        A, Ap = frozenset(A), frozenset(Ap)
        for field, S, G in (("A", A, ground), ("Aprime", Ap, ground_p)):
            if not S <= G:
                raise NotProper(f"members[{k}].{field}: {sorted(S)} escapes [{len(G)}]")
        if not is_proper(ground, ground_p, A, Ap):
            raise NotProper(
                f"members[{k}]: ({sorted(A)},{sorted(Ap)}) violates the parity condition")
        counter[A, Ap] += mult
    return TwoPattern(m, m_prime, tuple(sorted(
        ((A, Ap, mult) for (A, Ap), mult in counter.items()),
        key=lambda t: (sorted(t[0]), sorted(t[1])))))


def one_pattern(m, p, members):
    """The flag pattern of p-subsets A of [m], given as A or (A, multiplicity),
    as the 2-pattern it stands for: Y' = [|2p - m|], with A' all of Y' when
    2p >= m and empty otherwise."""
    m_prime = abs(2 * p - m)
    ap = frozenset(range(1, m_prime + 1)) if 2 * p >= m else frozenset()
    ground, out = frozenset(range(1, m + 1)), []
    for k, item in enumerate(members):
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int) and not isinstance(item[0], int):
            A, mult = item
        else:
            A, mult = item, 1
        A = frozenset(A)
        if not A <= ground or len(A) != p:
            raise NotProper(f"members[{k}].A: {sorted(A)} is not a {p}-subset of [{m}]")
        out.append((A, ap, mult))
    return two_pattern(m, m_prime, out)


def embed_two(pattern, Y, Yp):
    """Apply the order-preserving bijections [m] -> Y and [m'] -> Y'."""
    Y, Yp = sorted(Y), sorted(Yp)
    if len(Y) != pattern.m or len(Yp) != pattern.m_prime:
        raise SizeMismatch(
            f"|Y|={len(Y)} |Y'|={len(Yp)} but pattern is on ([{pattern.m}],[{pattern.m_prime}])"
        )
    gamma = {i + 1: y for i, y in enumerate(Y)}
    gamma_p = {i + 1: y for i, y in enumerate(Yp)}
    out = Counter()
    for A, Ap, mult in pattern.members:
        out[
            (frozenset(gamma[a] for a in A), frozenset(gamma_p[a] for a in Ap))
        ] += mult
    return out


def embed_matching(matching, Y, Yp):
    Y, Yp = sorted(Y), sorted(Yp)
    gamma = {(LOWER, i + 1): (LOWER, y) for i, y in enumerate(Y)}
    gamma.update({(UPPER, i + 1): (UPPER, y) for i, y in enumerate(Yp)})
    return PlanarMatching(
        tuple((gamma[p], gamma[q]) for p, q in matching.couples)
    )


def matching_multiset(pattern):
    """Union with multiplicity of the feasible-matching sets of a 2-pattern's
    members."""
    points, counts = _chord_multiset(pattern)
    return Counter({PlanarMatching((points[i], points[j]) for i, j in chords): mult
                    for chords, mult in counts.items()})


def _chord_multiset(pattern):
    """The circle points of ([m], [m']) and ``matching_multiset`` over chord
    tuples, which compare as matchings do between patterns of one shape."""
    Y = frozenset(range(1, pattern.m + 1))
    Yp = frozenset(range(1, pattern.m_prime + 1))
    points, out = _circle_points(Y, Yp), Counter()
    for A, Ap, mult in pattern.members:
        for chords in _feasible_chords(Y, Yp, A, Ap)[1]:
            out[chords] += mult
    return points, out


def _normalize_pattern(pattern):
    """The pattern itself, since every pattern is a ``TwoPattern``; kept
    because the benchmark sources call it."""
    return pattern


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    witness: object      # PlanarMatching or None
    count_a: int
    count_b: int

    def __bool__(self):
        return self.balanced


def is_balanced(a, b):
    """Decide balancedness; when unbalanced, report the first differing matching."""
    if (a.m, a.m_prime) != (b.m, b.m_prime):
        raise SizeMismatch(
            f"patterns live on different shapes ({a.m},{a.m_prime}) vs ({b.m},{b.m_prime})")
    points, ma = _chord_multiset(a)
    mb = _chord_multiset(b)[1]
    if ma == mb:
        return BalanceResult(True, None, 0, 0)
    # Each differing matching as its sorted couples: the matchings' order.
    couples = {c: sorted(tuple(sorted((points[i], points[j]))) for i, j in c)
               for c in ma.keys() | mb.keys() if ma[c] != mb[c]}
    witness = min(couples, key=couples.get)
    return BalanceResult(False, PlanarMatching(couples[witness]), ma[witness], mb[witness])


# ---------------------------------------------------------------------------
# stock patterns

def _sigma(S):
    return sum(S)


def stock_pattern(kind, **params):
    """Named balanced pattern pairs; flag kinds are built by ``one_pattern``."""
    kind = kind.lower()
    if kind == "p3":
        return (
            one_pattern(3, 2, [{1, 3}]),
            one_pattern(3, 2, [{1, 2}, {2, 3}]),
        )
    if kind == "p4":
        return (
            one_pattern(4, 2, [{1, 3}]),
            one_pattern(4, 2, [{1, 2}, {1, 4}]),
        )
    if kind == "quintuple":
        return (
            one_pattern(5, 3, [{1, 3, 5}]),
            one_pattern(5, 3, [{2, 3, 4}, {1, 2, 5}, {1, 4, 5}]),
        )
    if kind == "aa4":
        m, p = params["m"], params["p"]
        A0 = frozenset(params["A0"])
        Z = frozenset(params["Z"])
        q = m - p
        comp = frozenset(range(1, m + 1)) - A0
        if len(A0) != p or p < q:
            raise BadParams("need |A0| = p >= m - p")
        if not Z or not Z <= comp:
            raise BadParams("Z must be a nonempty subset of the complement of A0")
        family = [
            frozenset(C)
            for C in combinations(range(1, m + 1), p)
            if frozenset(C) & comp == Z
        ]
        a_members = [A0] + [
            C for C in family if (_sigma(C) - _sigma(A0) + len(Z)) % 2 == 1
        ]
        b_members = [
            C for C in family if (_sigma(C) - _sigma(A0) + len(Z)) % 2 == 0
        ]
        return one_pattern(m, p, a_members), one_pattern(m, p, b_members)
    if kind == "aa5":
        m, p = params["m"], params["p"]
        Z = frozenset(params["Z"])
        Zp = frozenset(params["Zprime"])
        q = m - p
        if p < q:
            raise BadParams("need p >= m - p")
        if not 0 < len(Z) <= q - 1 or not Z <= frozenset(range(1, m + 1)):
            raise BadParams("need 0 < |Z| <= q - 1 inside [m]")
        if not Zp <= Z:
            raise BadParams("Z' must sit inside Z")
        family = [
            frozenset(C)
            for C in combinations(range(1, m + 1), p)
            if frozenset(C) & Z == Zp
        ]
        a_members = [C for C in family if _sigma(C) % 2 == 1]
        b_members = [C for C in family if _sigma(C) % 2 == 0]
        return one_pattern(m, p, a_members), one_pattern(m, p, b_members)
    if kind == "dodgson":
        return (
            two_pattern(2, 2, [({1}, {1})]),
            two_pattern(2, 2, [({2}, {1}), ({1, 2}, {1, 2})]),
        )
    if kind == "homogeneous3":
        return (
            two_pattern(3, 3, [({1, 2}, {1, 3}), ({2, 3}, {1, 3})]),
            two_pattern(3, 3, [({1, 3}, {1, 2}), ({1, 3}, {2, 3})]),
        )
    if kind == "rowdecomposition3":
        return (
            two_pattern(3, 3, [({1, 3}, {1, 3})]),
            two_pattern(
                3, 3,
                [({1, 2}, {1, 3}), ({2, 3}, {1, 3}), ({1, 2, 3}, {1, 2, 3})],
            ),
        )
    raise BadParams(f"unknown stock pattern kind {kind!r}")


# ---------------------------------------------------------------------------
# JSON

def pattern_to_json(pattern):
    return {
        "m": pattern.m,
        "m_prime": pattern.m_prime,
        "members": [
            {"A": sorted(A), "Aprime": sorted(Ap), "mult": mult}
            for A, Ap, mult in pattern.members
        ],
    }


def pattern_from_json(data):
    """Parse a pattern; malformed input raises ``BadInput`` naming the field,
    such as ``members[0].A``, and a member off its ground sets raises
    ``NotProper`` naming it the same way.  A ``"flag": true`` pattern is
    read as the 2-pattern ``one_pattern`` builds."""
    def integer(where, value, low=0, high=None):
        if type(value) is not int or value < low or high is not None and value > high:
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise BadInput(f"{where}: expected an integer {bound}, got {value!r}")
        return value

    def subset(where, value):
        if not isinstance(value, list) or any(type(a) is not int for a in value):
            raise BadInput(f"{where}: expected a list of integers")
        if len(set(value)) != len(value):
            raise BadInput(f"{where}: an element repeats")
        return frozenset(value)

    if not isinstance(data, dict):
        raise BadInput("pattern: expected a JSON object")
    flag = data.get("flag", False)
    if type(flag) is not bool:
        raise BadInput(f"flag: expected true or false, got {flag!r}")
    m = integer("m", data.get("m"))
    size = "p" if flag else "m_prime"
    other = integer(size, data.get(size), high=m if flag else None)
    if not isinstance(data.get("members"), list):
        raise BadInput("members: expected a list")
    members = []
    for k, item in enumerate(data["members"]):
        where = f"members[{k}]"
        if not isinstance(item, dict):
            raise BadInput(f"{where}: expected a JSON object")
        A = subset(f"{where}.A", item.get("A"))
        mult = integer(f"{where}.mult", item.get("mult", 1), low=1)
        if flag:
            members.append((A, mult))
        else:
            members.append((A, subset(f"{where}.Aprime", item.get("Aprime", [])), mult))
    return one_pattern(m, other, members) if flag else two_pattern(m, other, members)
