"""Exact wall counting along edge paths given as runs, at any scale.

A path stored as runs (gen, exp) can have astronomically many edges but only
a handful of runs. Distances between its vertices reduce to wall-crossing
parity: a wall separates two vertices iff any fixed walk between them crosses
it an odd number of times. The walls a run crosses form an integer interval
in the cluster of parallel walls sharing its ⟨star(g)⟩ coset, so counting
odd-covered integers over interval sweeps gives exact distances in time
polynomial in the number of runs, independent of run lengths.

The certifiers exploit the same structure globally. Fix the runs containing
the two endpoints: as the endpoints slide inside their runs, only two
intervals move, one endpoint each, linearly. Distance restricted to such a
cell is therefore piecewise linear with breakpoints exactly where a moving
endpoint crosses a fixed interval endpoint, so the exact minimum over all
vertex pairs is found by scanning run pairs and evaluating at breakpoints,
never enumerating the path.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional

from .raag import (
    CertificateViolation,
    DefiningGraph,
    GroupElement,
    Word,
    WordError,
    _strip_right,
)


@dataclass(frozen=True)
class RunPath:
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
    def from_word(cls, w: Word, origin: Optional[GroupElement] = None) -> "RunPath":
        if origin is None:
            origin = GroupElement.identity(w.graph)
        return cls(origin, w.letters.runs)

    @cached_property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.runs)

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

    def segments_between(self, s: int, t: int) -> list[tuple[GroupElement, int, int]]:
        """The sub-walk from arc position s to t as (start vertex, gen,
        signed exponent) triples; reversed traversal when s > t."""
        if s > t:
            return [
                (v.append_run(g, e), g, -e)
                for v, g, e in reversed(self.segments_between(t, s))
            ]
        out = []
        pos = s
        while pos < t:
            k, off = self._locate(pos)
            g, e = self.runs[k]
            sign = 1 if e > 0 else -1
            take = min(abs(e) - off, t - pos)
            out.append((self.vertex_at(pos), g, sign * take))
            pos += take
        return out

    def distance(self, s: int, t: int) -> int:
        """Exact graph distance between the vertices at arc positions s, t."""
        return walk_wall_count(self.graph, self.segments_between(s, t))

    @cached_property
    def _frames(self) -> tuple[tuple[tuple, int], ...]:
        """Cluster key and base level for each run."""
        return tuple(
            _star_frame(self.graph, self._starts[i], g)
            for i, (g, _) in enumerate(self.runs)
        )


def _star_frame(graph: DefiningGraph, start: GroupElement, g: int):
    """Cluster key and level of a g-run starting at start: the minimal
    representative R of start·⟨star(g)⟩ and the g-exponent m of the stripped
    tail, so the run's k-th wall separates levels m+k and m+k+1 over R."""
    star = graph.adj_mask[g] | (1 << g)
    kept, removed = _strip_right(graph, start.syllables, star)
    level = sum(e for gg, e in removed if gg == g)
    return (g, kept), level


def _run_interval(m: int, e: int) -> tuple[int, int]:
    """Levels of the walls crossed by a run of signed length e that starts
    at level m, as an inclusive interval."""
    return (m, m + e - 1) if e > 0 else (m + e, m - 1)


def _odd_count(intervals) -> int:
    """Integers covered by an odd number of the inclusive intervals."""
    events = []
    for lo, hi in intervals:
        if hi < lo:
            continue
        events.append((lo, 1))
        events.append((hi + 1, -1))
    events.sort()
    total = 0
    depth = 0
    prev = None
    for x, delta in events:
        if depth % 2 == 1:
            total += x - prev
        depth += delta
        prev = x
    return total


def walk_wall_count(graph: DefiningGraph, segments: Iterable[tuple]) -> int:
    """Number of walls crossed an odd number of times by the walk given as
    (start vertex, gen, signed exp) segments. Equals the graph distance
    between the walk's endpoints."""
    clusters: dict = {}
    for start, g, e in segments:
        if e == 0:
            continue
        key, m = _star_frame(graph, start, g)
        clusters.setdefault(key, []).append(_run_interval(m, e))
    return sum(_odd_count(ivs) for ivs in clusters.values())


def path_pair_distance(p1: RunPath, s: int, p2: RunPath, t: int) -> int:
    """Exact distance between p1's vertex at s and p2's vertex at t."""
    graph = p1.graph
    segments = p1.segments_between(s, 0)
    connector = p1.origin.inverse() * p2.origin
    v = p1.origin
    for g, e in connector.syllables:
        segments.append((v, g, e))
        v = v.append_run(g, e)
    segments.extend(p2.segments_between(0, t))
    return walk_wall_count(graph, segments)


# --- exact minimization over run-pair cells ---------------------------------
#
# A moving partial interval is the head (first u steps) or tail (last A-u
# steps) of a run. One endpoint is fixed, the other moves one level per unit
# of u, so odd-coverage of its cluster is piecewise linear in u with
# breakpoints where the moving endpoint crosses a fixed endpoint.


def _moving_interval(kind: str, m: int, e: int, u: int):
    A = abs(e)
    if kind == "tail":
        if u >= A:
            return None
        return (m + u, m + A - 1) if e > 0 else (m - A, m - 1 - u)
    if u <= 0:
        return None
    return _run_interval(m, u if e > 0 else -u)


def _endpoint_pos(kind: str, m: int, e: int, u: int) -> int:
    if kind == "tail":
        return m + u if e > 0 else m - 1 - u
    return m + u - 1 if e > 0 else m - u


def _solve_endpoint(kind: str, m: int, e: int, y: int) -> int:
    if kind == "tail":
        return y - m if e > 0 else m - 1 - y
    return y - m + 1 if e > 0 else m - y


def _breakpoints(kind: str, m: int, e: int, lo_u: int, hi_u: int, fixed) -> list[int]:
    cands = {lo_u, hi_u}
    for lo, hi in fixed:
        for y in (lo, hi):
            base = _solve_endpoint(kind, m, e, y)
            for du in (-1, 0, 1):
                u = base + du
                if lo_u < u < hi_u:
                    cands.add(u)
    return sorted(cands)


def _min_1d(alpha, lam, fixed, kind, m, e, lo_u, hi_u):
    """Exact min over u in [lo_u, hi_u] of alpha*odd(fixed+I(u)) + lam*u."""
    best = None
    arg = lo_u
    for u in _breakpoints(kind, m, e, lo_u, hi_u, fixed):
        iv = _moving_interval(kind, m, e, u)
        cov = _odd_count(fixed + [iv] if iv else fixed)
        val = alpha * cov + lam * u
        if best is None or val < best:
            best, arg = val, u
    return best, arg


def _min_2d(alpha, lam_u, lam_w, fixed, spec_u, spec_w, exclude_corner=False):
    """Exact min of alpha*odd(fixed+I_u(u)+I_w(w)) + lam_u*u + lam_w*w when
    both moving intervals live in the same cluster. Candidates: breakpoints
    against fixed endpoints and against each other's moving endpoint.
    exclude_corner drops the degenerate pair (u=A, w=0) where both vertices
    coincide at the shared run boundary."""
    kind_u, m_u, e_u, A = spec_u
    kind_w, m_w, e_w, B = spec_w
    full_u = _moving_interval(kind_u, m_u, e_u, 0 if kind_u == "tail" else A)
    full_w = _moving_interval(kind_w, m_w, e_w, 0 if kind_w == "tail" else B)
    U0 = _breakpoints(kind_u, m_u, e_u, 0, A, fixed + ([full_w] if full_w else []))
    W0 = _breakpoints(kind_w, m_w, e_w, 0, B, fixed + ([full_u] if full_u else []))
    U = set(U0)
    W = set(W0)
    if exclude_corner:
        if A >= 1:
            U.add(A - 1)
        if B >= 1:
            W.add(1)
    for u in U0:
        y = _endpoint_pos(kind_u, m_u, e_u, u)
        for dy in (-1, 0, 1):
            w = _solve_endpoint(kind_w, m_w, e_w, y + dy)
            for dw in (-1, 0, 1):
                if 0 <= w + dw <= B:
                    W.add(w + dw)
    for w in W0:
        y = _endpoint_pos(kind_w, m_w, e_w, w)
        for dy in (-1, 0, 1):
            u = _solve_endpoint(kind_u, m_u, e_u, y + dy)
            for du in (-1, 0, 1):
                if 0 <= u + du <= A:
                    U.add(u + du)
    best = None
    arg = (0, 0)
    for u in sorted(U):
        iv_u = _moving_interval(kind_u, m_u, e_u, u)
        base = fixed + [iv_u] if iv_u else fixed
        for w in sorted(W):
            if exclude_corner and u == A and w == 0:
                continue
            iv_w = _moving_interval(kind_w, m_w, e_w, w)
            cov = _odd_count(base + [iv_w] if iv_w else base)
            val = alpha * cov + lam_u * u + lam_w * w
            if best is None or val < best:
                best, arg = val, (u, w)
    return best, arg


class _ClusterTable:
    """Fixed intervals grouped by cluster, with cached odd-coverage totals."""

    def __init__(self) -> None:
        self.lists: dict = {}
        self.odd: dict = {}
        self.total = 0

    def add(self, key, interval) -> None:
        lst = self.lists.setdefault(key, [])
        lst.append(interval)
        new = _odd_count(lst)
        self.total += new - self.odd.get(key, 0)
        self.odd[key] = new

    def get(self, key) -> list:
        return self.lists.get(key, [])

    def odd_of(self, key) -> int:
        return self.odd.get(key, 0)

    def copy(self) -> "_ClusterTable":
        out = _ClusterTable()
        out.lists = {k: list(v) for k, v in self.lists.items()}
        out.odd = dict(self.odd)
        out.total = self.total
        return out


@dataclass(frozen=True)
class QuasiGeodesicReport:
    """Outcome of certifying (t-s) <= K*d(s,t) + C over all vertex pairs.

    min_margin is the exact global minimum of K*d(s,t) + C - (t-s) and
    witness attains it; certified iff the minimum is nonnegative.
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

    The upper bound d <= t-s is automatic for edge paths. Within a single
    run the subpath is geodesic, so those pairs contribute margin
    (K-1)*(t-s) + C, minimized at gap 1. Across runs the margin restricted
    to a cell is piecewise linear in each sliding endpoint, minimized at
    breakpoints. Requires K >= 1 and C >= 0.

    The cells are evaluated on integers: with D the common denominator of
    K and C, D times the margin is (D*K)*d + D*C - D*(t-s). min_margin is
    an int when K and C are ints and a Fraction otherwise.

    The 1-D cell minima are memoised for the length of the call. _min_1d
    is a pure function of its arguments, and a run's fixed list only
    changes when a later run of its cluster enters the table, so most
    cells ask a minimisation an earlier cell already answered; the
    argmin order, and with it the witness, is unchanged.
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
    evaluations = 1
    minima: dict = {}

    def min_1d(lam, fixed, kind, m, e, lo_u, hi_u):
        key = (lam, tuple(fixed), kind, m, e, lo_u, hi_u)
        got = minima.get(key)
        if got is None:
            got = minima[key] = _min_1d(Kd, lam, fixed, kind, m, e, lo_u, hi_u)
        return got

    # pairs inside one run: geodesic, minimum at gap 1
    best = (Kd - D) + Cd
    witness = (offsets[0], offsets[0] + 1)

    for i in range(R):
        e_i = runs[i][1]
        key_i, m_i = frames[i]
        A = abs(e_i)
        table = _ClusterTable()
        for j in range(i + 1, R):
            e_j = runs[j][1]
            key_j, m_j = frames[j]
            B = abs(e_j)
            c0 = Cd - D * (offsets[j] - offsets[i])
            adjacent = j == i + 1  # cell touches the degenerate pair s == t
            if key_i != key_j:
                rest = table.total - table.odd_of(key_i) - table.odd_of(key_j)
                li, lj = table.get(key_i), table.get(key_j)
                vw, w = min_1d(-D, lj, "head", m_j, e_j, 0, B)
                if not adjacent:
                    vu, u = min_1d(D, li, "tail", m_i, e_i, 0, A)
                    val = Kd * rest + c0 + vu + vw
                else:
                    # exclude (u=A, w=0): u <= A-1 with any w, or u = A with w >= 1
                    vu1, u1 = min_1d(D, li, "tail", m_i, e_i, 0, A - 1)
                    cand1 = vu1 + vw, (u1, w)
                    vuA = Kd * _odd_count(li) + D * A
                    vw2, w2 = min_1d(-D, lj, "head", m_j, e_j, 1, B)
                    cand2 = vuA + vw2, (A, w2)
                    (vm, (u, w)) = min(cand1, cand2, key=lambda c: c[0])
                    val = Kd * rest + c0 + vm
                evaluations += 2
            else:
                rest = table.total - table.odd_of(key_i)
                vm, (u, w) = _min_2d(
                    Kd, D, -D, table.get(key_i),
                    ("tail", m_i, e_i, A), ("head", m_j, e_j, B),
                    exclude_corner=adjacent,
                )
                val = Kd * rest + c0 + vm
                evaluations += 1
            if val < best:
                best = val
                witness = (offsets[i] + u, offsets[j] + w)
            table.add(key_j, _run_interval(m_j, e_j))

    margin = best if isinstance(K, int) and isinstance(C, int) else Fraction(best, D)
    return QuasiGeodesicReport(best >= 0, K, C, margin, witness, evaluations)


def _interned(frames, ids: dict) -> list:
    """frames with each cluster key replaced by a small int from ids: the
    keys hold whole syllable tuples and are rehashed on every lookup."""
    return [(ids.setdefault(key, len(ids)), m) for key, m in frames]


def _pair_tables(p1: RunPath, p2: RunPath, ends: bool):
    """The interned frames of p1 and p2, and a walk over every pair of run
    starts. The walk yields (i, j, table), where table holds the clusters
    of the walk from p1's vertex at offset i back to p1's origin, across
    the connector, and along p2 to its vertex at offset j, so table.total
    is the distance between the two vertices. With ends, i and j also take
    the last index, the paths' endpoints; without, an empty path still
    yields its origin. The table is reused: read it before advancing."""
    ids: dict = {}
    f1 = _interned(p1._frames, ids)
    f2 = _interned(p2._frames, ids)

    def walk():
        outer = _ClusterTable()
        v = p1.origin
        for g, e in (p1.origin.inverse() * p2.origin).syllables:
            key, m = _star_frame(p1.graph, v, g)
            outer.add(ids.setdefault(key, len(ids)), _run_interval(m, e))
            v = v.append_run(g, e)
        R1, R2 = len(p1.runs), len(p2.runs)
        n1, n2 = (R1 + 1, R2 + 1) if ends else (max(R1, 1), max(R2, 1))
        for i in range(n1):
            if i > 0:
                key, m = f1[i - 1]
                outer.add(key, _run_interval(m, p1.runs[i - 1][1]))
            inner = outer.copy()
            for j in range(n2):
                if j > 0:
                    key, m = f2[j - 1]
                    inner.add(key, _run_interval(m, p2.runs[j - 1][1]))
                yield i, j, inner

    return f1, f2, walk()


def min_pair_distance(p1: RunPath, p2: RunPath) -> tuple[int, int, int]:
    """Exact minimum of d(p1(s), p2(t)) over all vertex pairs, with argmin.

    The walk from p1(s) to p2(t) runs backward to p1's origin, across the
    connector, then forward to p2(t); only the two head partials move with
    (s, t), so each run-pair cell is minimized at breakpoints.
    """
    best = path_pair_distance(p1, 0, p2, 0)
    arg = (0, 0)

    runs1 = p1.runs or ((None, 0),)
    runs2 = p2.runs or ((None, 0),)
    f1, f2, walk = _pair_tables(p1, p2, ends=False)
    for i, j, inner in walk:
        g_i, e_i = runs1[i]
        g_j, e_j = runs2[j]
        key_i, m_i = f1[i] if g_i is not None else (None, 0)
        key_j, m_j = f2[j] if g_j is not None else (None, 0)
        A = abs(e_i)
        B = abs(e_j)
        if g_i is None and g_j is None:
            val, u, w = inner.total, 0, 0
        elif g_i is None:
            rest = inner.total - inner.odd_of(key_j)
            vw, w = _min_1d(1, 0, inner.get(key_j), "head", m_j, e_j, 0, B)
            val, u = rest + vw, 0
        elif g_j is None:
            rest = inner.total - inner.odd_of(key_i)
            vu, u = _min_1d(1, 0, inner.get(key_i), "head", m_i, e_i, 0, A)
            val, w = rest + vu, 0
        elif key_i != key_j:
            rest = inner.total - inner.odd_of(key_i) - inner.odd_of(key_j)
            vu, u = _min_1d(1, 0, inner.get(key_i), "head", m_i, e_i, 0, A)
            vw, w = _min_1d(1, 0, inner.get(key_j), "head", m_j, e_j, 0, B)
            val = rest + vu + vw
        else:
            rest = inner.total - inner.odd_of(key_i)
            vm, (u, w) = _min_2d(
                1, 0, 0, inner.get(key_i),
                ("head", m_i, e_i, A), ("head", m_j, e_j, B),
            )
            val = rest + vm
        if val < best:
            best = val
            arg = (p1._offsets[i] + u if g_i is not None else 0,
                   p2._offsets[j] + w if g_j is not None else 0)
    return best, arg[0], arg[1]


# --- distance from a path to a vertex set ----------------------------------------
#
# A run is a geodesic segment of the convex line start·<g>, so by the gate
# property its u-th vertex lies at distance c + |u - a| from any vertex z,
# with a = (d0 - dA + A)/2 and c = (d0 + dA - A)/2 read off the distances d0,
# dA from z to the run's two ends. The distance to a set is the lower
# envelope of these V shapes: slopes +-1, so it is linear on the integers
# between its apexes and the crossings of neighbouring V's.


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
    distance is linear on the integers, with slope -1, 0 or +1.

    Distances from every vertex of Z to every run end of path come from one
    cluster-table walk; Z is split into unit steps, and splitting changes
    no odd coverage, since the unit intervals of a run are disjoint and
    union to the run's interval. Cost: one row per run of path times the
    vertices of Z, independent of run lengths.
    """
    if all(abs(e) == 1 for _, e in Z.runs):
        units = Z  # keeps Z's cached frames across calls
    else:
        units = RunPath(Z.origin, tuple(
            (g, 1 if e > 0 else -1) for g, e in Z.runs for _ in range(abs(e))
        ))
    rows: list = [[] for _ in range(len(path.runs) + 1)]
    for i, _, table in _pair_tables(path, units, ends=True)[2]:
        rows[i].append(table.total)
    knots = [(0, min(rows[0]))]
    for i, (_, e) in enumerate(path.runs):
        A = abs(e)
        vees = []
        for T, (d0, dA) in enumerate(zip(rows[i], rows[i + 1])):
            if (d0 + dA - A) % 2 or abs(d0 - dA) > A:
                raise CertificateViolation(
                    f"run {i} of length {A} is not geodesic against vertex {T} of Z:"
                    f" end distances {d0} and {dA}"
                )
            vees.append(((d0 - dA + A) // 2, (d0 + dA - A) // 2))
        off = path._offsets[i]
        knots.extend((off + u, d) for u, d in _envelope_knots(vees, A)[1:])
    return tuple(knots)
