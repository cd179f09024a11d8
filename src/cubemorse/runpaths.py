"""Exact wall counting along edge paths given as runs, at any scale.

A path stored as runs (gen, exp) can have astronomically many edges but only
a handful of runs. Distances between its vertices reduce to wall-crossing
parity: a wall separates two vertices iff any fixed walk between them crosses
it an odd number of times. The parallel walls sharing a run's ⟨star(g)⟩
coset form a cluster stacked at integer levels, and a run of signed length
e from level m crosses the walls between levels m and m + e. A cluster is
stored as the sorted levels where the parity of its crossings flips: the
run flips m and m + e, two flips at one level cancel, and the walls crossed
an odd number of times are those between the first and second flip, the
third and fourth, and so on (_ClusterTable; walk_wall_count counts one
walk). Distances are exact in time polynomial in the number of runs,
independent of run lengths. A RunPath itself only locates its vertices:
vertex_at forms the one asked for, and the certifiers below read its runs.

The certifiers exploit the same structure globally. Fix the runs containing
the two endpoints: as the endpoints slide inside their runs, each partial
run keeps one flip at its anchored end and moves the other one level per
step. Distance restricted to such a cell is therefore piecewise linear,
with breakpoints exactly where a moving level meets a flip or the other
moving level, so the exact minimum over all vertex pairs is found at the
breakpoints of each run pair's cell, never enumerating the path. Cells of
runs farther apart than any cluster spans add up, so the quasi-geodesic
certifier walks only the near ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import lcm
from typing import Iterable

from .raag import (
    CertificateViolation,
    DefiningGraph,
    GroupElement,
    Word,
    WordError,
    _strip_right,
    quotient,
)
from .records import _Record


class RunPath(_Record):
    """An edge path from origin, stored as nonzero-exponent runs."""

    origin: GroupElement
    runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.graph.generators)
        for g, e in self.runs:
            if not 0 <= g < n:
                raise WordError(f"generator index out of range: {g}")
            if e == 0:
                raise WordError("zero-length run")

    @property
    def graph(self) -> DefiningGraph:
        return self.origin.graph

    @classmethod
    def from_word(cls, w: Word) -> "RunPath":
        return cls(GroupElement.identity(w.graph), w.runs)

    @cached_property
    def length(self) -> int:
        return self._offsets[-1]

    @cached_property
    def _starts(self) -> tuple[GroupElement, ...]:
        # vertex at the start of each run, plus the final endpoint
        out = [self.origin]
        v = self.origin
        for g, e in self.runs:
            v = v.append_run(g, e)
            out.append(v)
        return tuple(out)

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        out = [0]
        for _, e in self.runs:
            out.append(out[-1] + abs(e))
        return tuple(out)

    def endpoint(self) -> GroupElement:
        return self._starts[-1]

    def _locate(self, t: int) -> tuple[int, int]:
        if not 0 <= t <= self.length:
            raise WordError(f"arc position {t} outside [0, {self.length}]")
        # offsets are strictly increasing, so this puts t in [off_i, off_{i+1})
        i = bisect_right(self._offsets, t) - 1
        return i, t - self._offsets[i]

    def vertex_at(self, t: int) -> GroupElement:
        i, off = self._locate(t)
        if i == len(self.runs):
            return self._starts[-1]
        g, e = self.runs[i]
        s = 1 if e > 0 else -1
        return self._starts[i].append_run(g, s * off) if off else self._starts[i]

    @cached_property
    def _frames(self) -> tuple[tuple[_StarKey, int], ...]:
        """Cluster key and base level for each run. Runs of one cluster
        share one key object, which dict lookups match by identity."""
        keys: dict = {}
        out = []
        for start, (g, _) in zip(self._starts, self.runs):
            key, m = _star_frame(self.graph, start, g)
            out.append((keys.setdefault(key, key), m))
        return tuple(out)

    @cached_property
    def _wall_steps(self) -> tuple[dict, tuple[int, ...]]:
        """Each cluster's (T, level) of the steps T -> T+1 across its walls,
        and each step's sign: -1 iff it crosses back a wall crossed oddly."""
        crossings: dict = {}
        odd: dict = {}  # cluster -> levels of the walls crossed oddly so far
        signs: list = []
        for (key, m), (_, e) in zip(self._frames, self.runs):
            at, own = crossings.setdefault(key, []), odd.setdefault(key, set())
            for level in range(m, m + e) if e > 0 else range(m - 1, m + e - 1, -1):
                at.append((len(signs), level))
                signs.append(-1 if level in own else 1)
                own ^= {level}
        return crossings, tuple(signs)


class _StarKey:
    """A cluster key: generator g and the minimal representative R of a
    coset R·⟨star(g)⟩, as a syllable tuple. R can be as long as the path
    that reached it, and tuples do not keep their hash, so the key computes
    its hash on first use and keeps it."""

    __slots__ = ("gen", "rep", "_hash")

    def __init__(self, gen: int, rep: tuple) -> None:
        self.gen = gen
        self.rep = rep
        self._hash = None

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.gen, self.rep))
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, _StarKey):
            return NotImplemented
        return self is other or (self.gen == other.gen and self.rep == other.rep)


def _star_frame(graph: DefiningGraph, start: GroupElement, g: int) -> tuple[_StarKey, int]:
    """Cluster key and level of a g-run starting at start: the key of the
    minimal representative R of start·⟨star(g)⟩, and the g-exponent m of
    the stripped tail, so the run's k-th wall separates levels m+k and
    m+k+1 over R."""
    star = graph.adj_mask[g] | (1 << g)
    kept, removed = _strip_right(graph, start.syllables, star)
    level = sum(e for gg, e in removed if gg == g)
    return _StarKey(g, kept), level


def _toggled(flips: tuple, x: int) -> tuple:
    """flips with level x flipped once more: inserted, or cancelled."""
    i = bisect_left(flips, x)
    if i < len(flips) and flips[i] == x:
        return flips[:i] + flips[i + 1:]
    return flips[:i] + (x,) + flips[i:]


def _odd(flips: tuple) -> int:
    """Walls crossed an odd number of times: those between the first and
    second flip, the third and fourth, and so on."""
    return sum(flips[1::2]) - sum(flips[::2])


def walk_wall_count(graph: DefiningGraph, segments: Iterable[tuple]) -> int:
    """Number of walls crossed an odd number of times by the walk given as
    (start vertex, gen, signed exp) segments. Equals the graph distance
    between the walk's endpoints."""
    table = _ClusterTable()
    for start, g, e in segments:
        if e:
            table.add(*_star_frame(graph, start, g), e)
    return table.total


# --- exact minimization over run-pair cells ---------------------------------
#
# A partial run is the head (first u steps) or the tail (the steps after the
# first u) of a run of signed length e from level m. It flips two levels:
# its anchor, m for a head and m + e for a tail, and the moving level
# m + s*u, s the sign of e. The odd count is linear in u between the levels
# where the moving level meets a flip, so a cell's cost is minimised at
# those levels or at the bounds.


def _anchored(fixed: tuple, kind: str, m: int, e: int) -> tuple:
    """fixed with the anchor of the run's head or tail flipped."""
    return _toggled(fixed, m if kind == "head" else m + e)


def _breakpoints(flips: tuple, m: int, s: int, lo_u: int, hi_u: int) -> set:
    """lo_u, hi_u and the u between them where m + s*u meets a flip."""
    out = {lo_u, hi_u}
    for f in flips:
        u = s * (f - m)
        if lo_u < u < hi_u:
            out.add(u)
    return out


def _min_1d(alpha, lam, fixed, spec):
    """Exact min over u in [lo, hi] of alpha*odd(fixed + partial(u)) +
    lam*u, spec = (kind, m, e, lo, hi), with the smallest u attaining it."""
    kind, m, e, lo, hi = spec
    s = 1 if e > 0 else -1
    flips = _anchored(fixed, kind, m, e)
    best = None
    arg = lo
    for u in sorted(_breakpoints(flips, m, s, lo, hi)):
        val = alpha * _odd(_toggled(flips, m + s * u)) + lam * u
        if best is None or val < best:
            best, arg = val, u
    return best, arg


def _min_2d(alpha, lam_u, lam_w, fixed, spec_u, spec_w):
    """Exact min of alpha*odd(fixed + partial_u(u) + partial_w(w)) +
    lam_u*u + lam_w*w over the box of u in [lo_u, hi_u] and w in
    [lo_w, hi_w], specs (kind, m, e, lo, hi), when both partial runs live
    in the same cluster, with the lexicographically smallest (u, w)
    attaining it. The cost is linear between the levels where a moving
    level meets a flip or the other moving level, so the candidates are
    those levels and the bounds."""
    kind_u, m_u, e_u, lo_u, hi_u = spec_u
    kind_w, m_w, e_w, lo_w, hi_w = spec_w
    s_u = 1 if e_u > 0 else -1
    s_w = 1 if e_w > 0 else -1
    flips = _anchored(_anchored(fixed, kind_u, m_u, e_u), kind_w, m_w, e_w)
    U = _breakpoints(flips, m_u, s_u, lo_u, hi_u)
    W = _breakpoints(flips, m_w, s_w, lo_w, hi_w)
    # where the two moving levels meet
    meet_w = [s_w * (m_u + s_u * u - m_w) for u in U]
    meet_u = [s_u * (m_w + s_w * w - m_u) for w in W]
    U.update(u for u in meet_u if lo_u <= u <= hi_u)
    W.update(w for w in meet_w if lo_w <= w <= hi_w)
    best = None
    arg = (lo_u, lo_w)
    W = sorted(W)
    for u in sorted(U):
        base = _toggled(flips, m_u + s_u * u)
        for w in W:
            val = alpha * _odd(_toggled(base, m_w + s_w * w)) + lam_u * u + lam_w * w
            if best is None or val < best:
                best, arg = val, (u, w)
    return best, arg


class _ClusterTable:
    """Each cluster's flip levels, with cached odd counts and their total."""

    def __init__(self) -> None:
        self.flips: dict = {}
        self.odd: dict = {}
        self.total = 0

    def add(self, key, m: int, e: int) -> None:
        """Add a run of signed length e from level m to cluster key: it
        flips the levels m and m + e."""
        flips = self.flips.get(key)
        if flips:
            flips = _toggled(_toggled(flips, m), m + e)
            odd = _odd(flips)
            self.total += odd - self.odd[key]
        else:
            flips = (m, m + e) if e > 0 else (m + e, m)
            odd = abs(e)
            self.total += odd
        self.flips[key] = flips
        self.odd[key] = odd

    def get(self, key) -> tuple:
        return self.flips.get(key, ())

    def odd_of(self, key) -> int:
        return self.odd.get(key, 0)

    def copy(self) -> "_ClusterTable":
        out = _ClusterTable()
        out.flips = dict(self.flips)
        out.odd = dict(self.odd)
        out.total = self.total
        return out


class QuasiGeodesicReport(_Record):
    """Outcome of certifying (t-s) <= K*d(s,t) + C over all vertex pairs.

    min_margin is the exact global minimum of K*d(s,t) + C - (t-s) and
    witness attains it; certified iff the minimum is nonnegative.
    constructions.certify_quasigeodesic returns this type for the paper's
    form d(s,t) >= (t-s)/K - C, with C and min_margin in that form.
    """

    certified: bool
    K: object
    C: object
    min_margin: object
    witness: tuple[int, int]
    evaluations: int


def certify_quasigeodesic_runs(path: RunPath, K, C) -> QuasiGeodesicReport:
    """Exact quasi-geodesic certificate: (t-s) <= K*d(s,t) + C for all
    vertex pairs of the path, by minimizing over run-pair cells.

    The upper bound d <= t-s is automatic for edge paths. Within a run the
    subpath is geodesic, so those pairs give margin (K-1)*(t-s) + C, least
    at gap 1. In a cell (i, j), s in run i and t in run j, the margin is
    piecewise linear in each sliding endpoint, least at breakpoints. An
    adjacent cell, j = i + 1, is the box u <= A - 1, w >= 1: with u = A or
    w = 0 both vertices lie in one run, and such pairs never beat the gap-1
    baseline, which wins every tie as it stands as i = j = -1; the
    degenerate pair s = t goes with that row and column. With
    D the common denominator of K and C, the cells are evaluated on the
    integers D times the margin, (D*K)*d + D*C - D*(t-s); min_margin is an
    int when K and C are ints and a Fraction otherwise. Requires K >= 1 and
    C >= 0.

    Far cells add up. Let W >= 1 bound every cluster's span, its last run
    index minus its first. When j - i > W no cluster has runs both at or
    before i and at or after j, so key_i != key_j and the runs between
    split three ways. key_i's are all its runs after i, which fix the tail
    minimum and u; key_j's are all its runs before j, which fix the head
    minimum and w. Another cluster with a run at or before i (at or after
    j) has the same runs after i (before j) in every such cell. And the
    clusters wholly inside (i, j) are those whose last run is before j
    less those whose first run is at or before i. With c0 = Cd -
    D*offsets[j] + D*offsets[i], the cell's value is B_i + A_j. So only
    cells with j - i <= W + 2 are walked, at O(R*W) table adds: near cells,
    j - i <= W, are candidates as they are; the cell at W + 1 gives B_i, A
    being 0 at column W + 1, and the one at W + 2 gives A_{j+1} - A_j.
    Column j's far cells are least at A_j plus the least B_i over
    i <= j - W - 1, the least i on a tie. The witness is the least
    (value, i, j), within-run pairs standing as i = j = -1: the first
    argmin in row-major order over all run pairs. evaluations counts the
    walked cells' minimisations. The 1-D ones are memoised for the call
    (_min_1d is pure): a cluster's flips change only when a later run of
    it enters the table, so most cells repeat an earlier cell's question.
    """
    if K < 1 or C < 0:
        raise ValueError("need K >= 1 and C >= 0")
    runs = path.runs
    R = len(runs)
    if R == 0:
        return QuasiGeodesicReport(True, K, C, C, (0, 0), 0)

    Kq, Cq = Fraction(K), Fraction(C)
    D = lcm(Kq.denominator, Cq.denominator)
    Kd, Cd = int(Kq * D), int(Cq * D)
    offsets = path._offsets
    frames = _interned(path._frames, {})
    first: dict = {}
    W = max(1, *(i - first.setdefault(key, i) for i, (key, _) in enumerate(frames)))
    evaluations = 1
    # keyed on the spec's fields, so that no spec tuple is kept per entry
    min_1d = lru_cache(maxsize=None)(lambda lam, fixed, *spec: _min_1d(Kd, lam, fixed, spec))

    def cell(i, j, table):
        """Least value of cell (i, j) and its (u, w), table holding the
        runs strictly between i and j."""
        nonlocal evaluations
        (key_i, m_i), (key_j, m_j) = frames[i], frames[j]
        e_i, e_j = runs[i][1], runs[j][1]
        adjacent = int(j == i + 1)  # u = A or w = 0 puts both vertices in one run
        spec_i = ("tail", m_i, e_i, 0, abs(e_i) - adjacent)
        spec_j = ("head", m_j, e_j, adjacent, abs(e_j))
        c0 = Cd - D * (offsets[j] - offsets[i])
        rest, li = table.total - table.odd_of(key_i), table.get(key_i)
        if key_i == key_j:
            evaluations += 1
            vm, (u, w) = _min_2d(Kd, D, -D, li, spec_i, spec_j)
            return Kd * rest + c0 + vm, u, w
        evaluations += 2
        rest, lj = rest - table.odd_of(key_j), table.get(key_j)
        (vu, u), (vw, w) = min_1d(D, li, *spec_i), min_1d(-D, lj, *spec_j)
        return Kd * rest + c0 + vu + vw, u, w

    # pairs inside one run: geodesic, minimum at gap 1
    best = ((Kd - D) + Cd, -1, -1, (offsets[0], offsets[0] + 1))
    A_j = 0  # A at column i + W + 1
    least_b = None  # (B_i, i, u) least over the rows so far
    for i in range(R):
        table = _ClusterTable()
        for j in range(i + 1, min(i + W + 3, R)):
            val, u, w = cell(i, j, table)
            if j - i <= W:
                best = min(best, (val, i, j, (offsets[i] + u, offsets[j] + w)))
            elif j - i == W + 1:
                if least_b is None or val - A_j < least_b[0]:
                    least_b = (val - A_j, i, u)
                b, bi, bu = least_b
                best = min(best, (b + A_j, bi, j, (offsets[bi] + bu, offsets[j] + w)))
                edge = val
            else:
                A_j += val - edge
            table.add(*frames[j], runs[j][1])

    val = best[0]
    margin = val if isinstance(K, int) and isinstance(C, int) else Fraction(val, D)
    return QuasiGeodesicReport(val >= 0, K, C, margin, best[3], evaluations)


def _interned(frames, ids: dict) -> list:
    """frames with each cluster key replaced by a small int from ids: an
    int hashes and compares in C, where a _StarKey's hash and equality are
    Python calls."""
    return [(ids.setdefault(key, len(ids)), m) for key, m in frames]


def _origin_table(p1: RunPath, p2: RunPath) -> _ClusterTable:
    """The connector from p1's origin to p2's origin."""
    table = _ClusterTable()
    v = p1.origin
    for g, e in quotient(p1.origin, p2.origin).syllables:
        table.add(*_star_frame(p1.graph, v, g), e)
        v = v.append_run(g, e)
    return table


def min_pair_distance(p1: RunPath, p2: RunPath) -> tuple[int, int, int]:
    """Exact minimum of d(p1(s), p2(t)) over all vertex pairs, with argmin.

    The walk from p1(s) to p2(t) runs backward to p1's origin, across the
    connector, then forward to p2(t); only the two head partials move with
    (s, t), so each run-pair cell is minimized at breakpoints.
    """
    outer = _origin_table(p1, p2)
    best, arg = outer.total, (0, 0)
    # an empty path stands as one zero-length run in a cluster of its own
    f1 = p1._frames or ((None, 0),)
    f2 = p2._frames or ((None, 0),)
    runs1 = p1.runs or ((None, 0),)
    runs2 = p2.runs or ((None, 0),)
    for i, ((key_i, m_i), (_, e_i)) in enumerate(zip(f1, runs1)):
        if i > 0:
            outer.add(*f1[i - 1], runs1[i - 1][1])
        inner = outer.copy()
        for j, ((key_j, m_j), (_, e_j)) in enumerate(zip(f2, runs2)):
            if j > 0:
                inner.add(*f2[j - 1], runs2[j - 1][1])
            A, B = abs(e_i), abs(e_j)
            if key_i != key_j:
                rest = inner.total - inner.odd_of(key_i) - inner.odd_of(key_j)
                vu, u = _min_1d(1, 0, inner.get(key_i), ("head", m_i, e_i, 0, A))
                vw, w = _min_1d(1, 0, inner.get(key_j), ("head", m_j, e_j, 0, B))
                val = rest + vu + vw
            else:
                rest = inner.total - inner.odd_of(key_i)
                vm, (u, w) = _min_2d(
                    1, 0, 0, inner.get(key_i),
                    ("head", m_i, e_i, 0, A), ("head", m_j, e_j, 0, B),
                )
                val = rest + vm
            if val < best:
                best = val
                arg = (p1._offsets[i] + u, p2._offsets[j] + w)
    return best, arg[0], arg[1]


# --- distance from a path to a vertex set ----------------------------------------
#
# A run is a geodesic segment of the convex line start·<g>, so by the gate
# property its u-th vertex lies at distance c + |u - a| from any vertex z,
# with a = (d0 - dA + A)/2 and c = (d0 + dA - A)/2 read off the distances d0,
# dA from z to the run's two ends. The distance to a set is the lower
# envelope of these V shapes: slopes +-1, so it is linear on the integers
# between its apexes and the crossings of neighbouring V's.
#
# Against the vertices Z_T of a path Z, write row_i[T] = d(x_i, Z_T), x_i
# the run ends. The step Z_T -> Z_T+1 crosses one wall h, and row_0 falls
# by 1 there iff the walk from x_0 across the connector to Z_0 and along Z
# to Z_T crosses h oddly. RunPath._wall_steps keeps Z's share of that
# parity once per Z, as each step's sign; a call negates the signs where
# the connector crosses h oddly, and row_0 is their prefix sum from
# d(x_0, Z_0).
#
# Run i crosses the walls (key_i, l), lo <= l < hi, which separate x_i from
# x_i+1; every other wall counts alike in both rows. So delta_T =
# row_i+1[T] - row_i[T] starts at the table total's change when run i is
# added and changes only at Z's steps across run i's walls, by -2 times
# row_i's step. On each piece between them delta is constant: the apex
# a = (A - delta)/2 is shared, the geodesic check, on d0 + dA - A =
# 2*d0 + delta - A and on |d0 - dA| = |delta|, reads delta only, and the V
# with the least row_i[T] lies below the piece's others. On gamma:160 a
# cluster holds at most 3 of Z's steps, so a run's row has at most 4 pieces.


def _envelope_knots(vees, A: int) -> list[tuple[int, int]]:
    """Knots (u, value) of u -> min over (a, c) in vees of c + |u - a| on
    [0, A], every apex a lying in [0, A]. Between consecutive knots the
    function is linear on the integers, with slope -1, 0 or +1."""
    env: list = []
    for a, c in sorted(vees):
        # (a2, c2) lies above (a1, c1) everywhere iff c2 - c1 >= |a2 - a1|
        if env and c - env[-1][1] >= a - env[-1][0]:
            continue
        while env and env[-1][1] - c >= a - env[-1][0]:
            env.pop()
        env.append((a, c))
    out: list = []

    def push(u: int, value: int) -> None:
        if not out or u > out[-1][0]:
            out.append((u, value))

    a, c = env[0]
    push(0, c + a)
    for (a1, c1), (a2, c2) in zip(env, env[1:]):
        push(a1, c1)
        # the rising side of a1's V meets the falling side of a2's at s/2
        s = a1 + a2 + c2 - c1
        push(s // 2, c1 + s // 2 - a1)
        push(s - s // 2, c2 + a2 - (s - s // 2))
    a, c = env[-1]
    push(a, c)
    push(A, c + A - a)
    return out


def set_distance_knots(path: RunPath, Z: RunPath) -> tuple[tuple[int, int], ...]:
    """Exact t -> d(path(t), Z), Z the vertex set of a path, as knots
    (t, distance) from t = 0 to path.length. Between consecutive knots the
    distance is linear on the integers, with slope -1, 0 or +1. Row 0 costs
    Python steps only at Z's steps in the connector's clusters, and a run
    O(pieces) Python steps plus a C-level min and slice per piece, whatever
    its length: the rows are one list plus a shift (see the comment above)."""
    outer = _origin_table(path, Z)
    crossings, signs = Z._wall_steps
    signs = list(signs)
    for key, flips in outer.flips.items():
        for T, level in crossings.get(key, ()):
            if bisect_right(flips, level) & 1:
                signs[T] = -signs[T]
    row = list(accumulate(signs, initial=outer.total))
    knots = [(0, min(row))]
    shift = 0  # row_i[T] = row[T] + shift
    for i, ((key, m), (_, e)) in enumerate(zip(path._frames, path.runs)):
        A = abs(e)
        lo = min(m, m + e)
        delta = -outer.total
        outer.add(key, m, e)
        delta += outer.total
        ends = [T + 1 for T, level in crossings.get(key, ()) if lo <= level < lo + A]
        deltas = [delta]
        for b in ends:
            deltas.append(deltas[-1] - 2 * (row[b] - row[b - 1]))
        pieces = list(zip([0, *ends], [*ends, len(row)], deltas))
        # the longest piece moves by the shift, the others are rewritten
        base = max(pieces, key=lambda p: p[1] - p[0])[2]
        vees = []
        for a, b, delta in pieces:
            if (delta - A) % 2 or abs(delta) > A:
                raise CertificateViolation(
                    f"run {i} of length {A} is not geodesic against vertex {a} of Z:"
                    f" end distances {row[a] + shift} and {row[a] + shift + delta}"
                )
            piece = row[a:b]
            vees.append(((A - delta) // 2, min(piece) + shift + (delta - A) // 2))
            if delta != base:
                row[a:b] = [d + delta - base for d in piece]
        shift += base
        off = path._offsets[i]
        knots.extend((off + u, d) for u, d in _envelope_knots(vees, A)[1:])
    return tuple(knots)
