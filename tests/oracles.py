"""Test oracles: each answers its question by a procedure different from
the library code it checks, and the library imports nothing from here.

The piling invariant (_pile_key) and the BFS distance over literal letter
moves decide equality and distance in a RAAG without the syllable engine
in cubemorse.raag. The others redo a fast layer's question the slow,
direct way on top of the layers below it: the coset strip read to the
end of the word, gates on both carrier cosets, a coset's cutting walls
read off a long test line through it, crossing walls found by a
square search in a ball, the common transversal directions from the
double strip of every pair, a ray's walls stepped one letter at a time
as group elements, the walls crossing two disjoint walls counted in
balls about their gates, a level-by-level scan of gamma's period
translates, gamma walked step by step as global words with its exit lines
counted by key over all its walls, the escape path and its separation
asked on those global vertices and walls, the dichotomy stepped one letter at a time, the
distance knots from a cluster table per vertex of Z, the chain greedy and
the pruned bracket product over plain tuples of walls, the refined wall
from the walls between the base and each gate, the contraction
gate asked of every pair, the run-path cell minima counted wall by wall
at every position, the quasi-geodesic certificate asked of every
pair of runs, and the glued graph's basepoint experiment from a distance
table per spine vertex. random_graphs draws the defining graphs they are
run on, and draw_ray the rays.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from hypothesis import strategies as st

from cubemorse.boundary import (
    BoundaryRay,
    ProductValue,
    _representative_letters,
    ray_walls,
)
from cubemorse.constructions import (
    _BETA_CASES,
    ConfigError,
    ContractionReport,
    DichotomyReport,
    Flat,
    GammaPath,
    Line,
    PreconditionFailed,
    SegmentCertificate,
    SeparationReport,
    build_gamma,
    build_croke_kleiner,
    gamma_crosses,
    translate_wall,
)
from cubemorse.example23 import BasepointRow
from cubemorse.gauges import RhoLike, as_gauge, kappa, kappa_prime
from cubemorse.raag import (
    CertificateViolation,
    DefiningGraph,
    GroupElement,
    Letter,
    MixedGraphs,
    Word,
    WordError,
    _strip_left,
    _strip_right,
    distance,
    parse_word,
    quotient,
)
from cubemorse.runpaths import (
    QuasiGeodesicReport,
    RunPath,
    _ClusterTable,
    _envelope_knots,
    _interned,
    _min_1d,
    _min_2d,
    _star_frame,
)
from cubemorse.walls import (
    DEFAULT_BALL_CAP,
    Wall,
    _stripped_middle,
    ball,
    crosses,
    side,
    strongly_separated,
    wall_distance,
    wall_of_edge,
    walls_separating_point_from_wall,
)


# --- words -------------------------------------------------------------------


class NotInBall(ValueError):
    """BFS oracle ran out of radius before reaching the target."""


def _pile_key(graph: DefiningGraph, letters) -> tuple:
    """The piling of a word: per generator column, the sequence of beads a
    left-to-right reading drops there (+1/-1 on the letter's own column, 0 on
    every non-commuting column). A letter cancels the previous letter of its
    own generator exactly when that letter's bead is still on top of the
    column; its sync beads are then necessarily topped only by other sync
    beads, so popping one 0 from each blocked column keeps the pile faithful.

    Two words represent the same group element iff their piles are equal,
    which makes the pile a canonical state key that shares no code with the
    syllable engine. The number of nonzero beads is the geodesic length.
    """
    n = len(graph.generators)
    cols: list[list[int]] = [[] for _ in range(n)]
    blockers = [
        [h for h in range(n) if h != g and not graph.adjacent(g, h)]
        for g in range(n)
    ]
    for gen, sign in letters:
        if cols[gen] and cols[gen][-1] == -sign:
            cols[gen].pop()
            for h in blockers[gen]:
                popped = cols[h].pop()
                assert popped == 0, "piling invariant broken"
        else:
            cols[gen].append(sign)
            for h in blockers[gen]:
                cols[h].append(0)
    return tuple(tuple(col) for col in cols)


def strip_left_by_scan(graph: DefiningGraph, syllables, gens_mask: int):
    """Reference for raag._strip_left: every syllable is tested against the
    generators kept before it, to the end of the word."""
    kept: list = []
    removed: list = []
    kept_mask = 0
    for syllable in syllables:
        gen = syllable[0]
        blockers = ((1 << len(graph.generators)) - 1) & ~graph.adj_mask[gen]  # includes gen itself
        if (gens_mask >> gen) & 1 and not (kept_mask & blockers):
            removed.append(syllable)
        else:
            kept.append(syllable)
            kept_mask |= 1 << gen
    return tuple(removed), tuple(kept)


def _pile_append(graph: DefiningGraph, pile: tuple, gen: int, sign: int) -> tuple:
    """One-letter extension of a pile; same rules as _pile_key."""
    cols = list(pile)
    if cols[gen] and cols[gen][-1] == -sign:
        cols[gen] = cols[gen][:-1]
        for h in range(len(cols)):
            if h != gen and not graph.adjacent(gen, h):
                assert cols[h][-1] == 0, "piling invariant broken"
                cols[h] = cols[h][:-1]
    else:
        cols[gen] = cols[gen] + (sign,)
        for h in range(len(cols)):
            if h != gen and not graph.adjacent(gen, h):
                cols[h] = cols[h] + (0,)
    return tuple(cols)


def _raw_letters(value, graph: DefiningGraph) -> list:
    """Letters of a word-like value without invoking the syllable engine.

    Accepts 1 (the identity), a string, a Word, or a GroupElement.
    """
    if isinstance(value, int):
        if value != 1:
            raise WordError("only the integer 1 (identity) names a group element")
        return []
    if isinstance(value, str):
        value = parse_word(value, graph)
    if isinstance(value, Word):
        if value.graph is not graph and value.graph != graph:
            raise MixedGraphs("word belongs to a different defining graph")
        return list(value)
    if isinstance(value, GroupElement):
        if value.graph is not graph and value.graph != graph:
            raise MixedGraphs("element belongs to a different defining graph")
        return list(value.normal)
    raise WordError(f"cannot interpret {value!r} as a word")


def bfs_oracle_distance(x, y, radius: int, graph: DefiningGraph | None = None) -> int:
    """Exact distance by breadth-first search over literal letter moves,
    deduplicated with the piling invariant (never the syllable engine).

    Raises NotInBall when the distance exceeds radius.
    """
    if graph is None:
        graph = getattr(x, "graph", None) or getattr(y, "graph", None)
    if graph is None:
        raise WordError("bfs_oracle_distance needs a defining graph")
    start = _pile_key(graph, _raw_letters(x, graph))
    target = _pile_key(graph, _raw_letters(y, graph))
    if start == target:
        return 0
    n = len(graph.generators)
    moves = [(g, s) for g in range(n) for s in (1, -1)]
    # Bidirectional level-synchronized BFS. Expanding one full level of the
    # smaller frontier and scanning every generated child against the other
    # side's depth map finds the minimum meet at the first level any meet
    # exists, so the sum below is the exact distance.
    seen_a = {start: 0}
    seen_b = {target: 0}
    front_a, front_b = [start], [target]
    depth_a = depth_b = 0
    while depth_a + depth_b < radius:
        if len(front_a) <= len(front_b):
            front, seen, other, depth_a = front_a, seen_a, seen_b, depth_a + 1
            depth = depth_a
        else:
            front, seen, other, depth_b = front_b, seen_b, seen_a, depth_b + 1
            depth = depth_b
        nxt = []
        best = None
        for pile in front:
            for g, s in moves:
                child = _pile_append(graph, pile, g, s)
                met = other.get(child)
                if met is not None and (best is None or depth + met < best):
                    best = depth + met
                if child not in seen:
                    seen[child] = depth
                    nxt.append(child)
        if best is not None:
            return best
        if not nxt:
            raise NotInBall(f"distance exceeds radius {radius}")
        if front is front_a:
            front_a = nxt
        else:
            front_b = nxt
    raise NotInBall(f"distance exceeds radius {radius}")


# --- defining graphs ---------------------------------------------------------


@st.composite
def random_graphs(draw):
    """Defining graphs on 2-6 generators with arbitrary edge sets."""
    names = "abcdef"[: draw(st.integers(2, 6))]
    pairs = [[g, h] for i, g in enumerate(names) for h in names[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k]
    return DefiningGraph.from_data({"generators": list(names), "edges": edges})


def draw_ray(data, graph, base):
    """A ray at base with a drawn prefix of up to three syllables and a
    nonempty drawn period of up to three."""
    n = len(graph.generators)
    syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
    prefix = Word(graph, data.draw(st.lists(syllable, max_size=3)))
    period = Word(graph, data.draw(st.lists(syllable, min_size=1, max_size=3)))
    return BoundaryRay(base, prefix, period)


# --- run-path cells ----------------------------------------------------------


def walk_between(p: RunPath, s: int, t: int) -> list[tuple[GroupElement, int, int]]:
    """The sub-walk of p from arc position s to t as (start vertex, gen,
    signed exponent) triples, walked backward when s > t: the segments
    runpaths.walk_wall_count counts."""
    if s > t:
        return [(v.append_run(g, e), g, -e) for v, g, e in reversed(walk_between(p, t, s))]
    out = []
    while s < t:
        i, off = p._locate(s)
        g, e = p.runs[i]
        take = min(abs(e) - off, t - s)
        out.append((p.vertex_at(s), g, take if e > 0 else -take))
        s += take
    return out


def _partial_run(kind: str, m: int, e: int, u: int) -> tuple[int, int]:
    """The head (first u steps) or tail (the steps after the first u) of a
    run of signed length e from level m, as (start level, signed length)."""
    s = 1 if e > 0 else -1
    return (m, s * u) if kind == "head" else (m + s * u, e - s * u)


def _odd_walls(runs) -> int:
    """Walls crossed an odd number of times by runs (start level, signed
    length) in one cluster, counted wall by wall: a run crosses the walls
    between levels x and x + 1 for x from its lower to its upper level."""
    crossings: dict[int, int] = {}
    for m, e in runs:
        for x in range(min(m, m + e), max(m, m + e)):
            crossings[x] = crossings.get(x, 0) + 1
    return sum(c % 2 for c in crossings.values())


def min_1d_by_levels(alpha, lam, runs, spec):
    """Reference for runpaths._min_1d on the cluster of the fixed runs: the
    cost alpha*odd + lam*u at every u in [lo, hi], spec = (kind, m, e, lo,
    hi), with the smallest u attaining its minimum."""
    kind, m, e, lo, hi = spec
    return min(
        (alpha * _odd_walls(list(runs) + [_partial_run(kind, m, e, u)]) + lam * u, u)
        for u in range(lo, hi + 1)
    )


def min_2d_by_levels(alpha, lam_u, lam_w, runs, spec_u, spec_w):
    """Reference for runpaths._min_2d: the cost at every (u, w) of the box
    of specs (kind, m, e, lo, hi), and the lexicographically smallest pair
    attaining its minimum."""
    kind_u, m_u, e_u, lo_u, hi_u = spec_u
    kind_w, m_w, e_w, lo_w, hi_w = spec_w
    return min(
        (
            alpha * _odd_walls(list(runs) + [_partial_run(kind_u, m_u, e_u, u),
                                             _partial_run(kind_w, m_w, e_w, w)])
            + lam_u * u + lam_w * w,
            (u, w),
        )
        for u in range(lo_u, hi_u + 1)
        for w in range(lo_w, hi_w + 1)
    )


def certify_quasigeodesic_all_pairs(path: RunPath, K, C) -> QuasiGeodesicReport:
    """Reference for runpaths.certify_quasigeodesic_runs: the same cell
    minima asked of every pair of runs (i, j), i < j, with the table of the
    runs between them grown along each row, and the first argmin in
    row-major order kept by a strict < scan. evaluations counts the cell
    minimisations of all R(R-1)/2 cells."""
    if K < 1 or C < 0:
        raise ValueError("need K >= 1 and C >= 0")
    runs = path.runs
    R = len(runs)
    if R == 0:
        return QuasiGeodesicReport(True, K, C, C, (0, 0), 0)
    Kq, Cq = Fraction(K), Fraction(C)
    D = math.lcm(Kq.denominator, Cq.denominator)
    Kd, Cd = int(Kq * D), int(Cq * D)
    offsets = path._offsets
    frames = _interned(path._frames, {})
    evaluations = 1
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
            if j == i + 1:
                # every pair but the degenerate s == t at the shared boundary
                # (u = A, w = 0): [0, A - 1] x [0, B] and {A} x [1, B]
                boxes = (((0, A - 1), (0, B)), ((A, A), (1, B)))
            else:
                boxes = (((0, A), (0, B)),)
            cands = []
            for (lo_u, hi_u), (lo_w, hi_w) in boxes:
                spec_i = ("tail", m_i, e_i, lo_u, hi_u)
                spec_j = ("head", m_j, e_j, lo_w, hi_w)
                if key_i != key_j:
                    (vu, u), (vw, w) = (_min_1d(Kd, D, table.get(key_i), spec_i),
                                        _min_1d(Kd, -D, table.get(key_j), spec_j))
                    cands.append((vu + vw, (u, w)))
                else:
                    cands.append(_min_2d(Kd, D, -D, table.get(key_i), spec_i, spec_j))
            # least value, then least (u, w): the first in row-major order
            vm, (u, w) = min(cands)
            if key_i != key_j:
                rest = table.total - table.odd_of(key_i) - table.odd_of(key_j)
                evaluations += 2
            else:
                rest = table.total - table.odd_of(key_i)
                evaluations += 1
            val = Kd * rest + c0 + vm
            if val < best:
                best = val
                witness = (offsets[i] + u, offsets[j] + w)
            table.add(key_j, m_j, e_j)
    margin = best if isinstance(K, int) and isinstance(C, int) else Fraction(best, D)
    return QuasiGeodesicReport(best >= 0, K, C, margin, witness, evaluations)


# --- walls -------------------------------------------------------------------


def coset_gate_and_distance(rep, gens_mask, x):
    """Nearest point of rep·⟨gens⟩ to x and the distance to it: rep times
    the maximal prefix of nf(rep^-1 x) lying in the subgroup, and the
    length of the rest (gate property of convex parabolic cosets). The
    quotient is a plain inverse and product."""
    removed, kept = _strip_left(rep.graph, (rep.inverse() * x).syllables, gens_mask)
    return rep.append_syllables(removed), sum(abs(e) for _, e in kept)


def wall_gate_and_distance_by_cosets(x, h):
    """Reference: gates on both carrier cosets, keeping the nearer one. The
    two coset distances differ by exactly one, since h separates the
    cosets."""
    mask = h.graph.adj_mask[h.gen]
    gate_minus, d_minus = coset_gate_and_distance(h.base, mask, x)
    gate_plus, d_plus = coset_gate_and_distance(h.base.append_run(h.gen, 1), mask, x)
    assert abs(d_minus - d_plus) == 1
    if d_minus < d_plus:
        return gate_minus, d_minus, -1
    return gate_plus, d_plus, 1


def carrier_gates(h1, h2):
    """(d, gate_a, gate_b): the distance d between the carriers of two
    disjoint walls and a nearest pair of points on them. Each carrier is two
    cosets of ⟨lk g⟩, at its base and at base·g; of the four coset pairs, the
    nearest is read off nf(r1^-1 r2) left-stripped by ⟨lk g1⟩ and then
    right-stripped by ⟨lk g2⟩, whose middle joins the two gates."""
    graph = h1.graph
    best = None
    for r1 in (h1.base, h1.base.append_run(h1.gen, 1)):
        for r2 in (h2.base, h2.base.append_run(h2.gen, 1)):
            t = r1.inverse() * r2
            removed, kept = _strip_left(graph, t.syllables, graph.adj_mask[h1.gen])
            middle, _ = _strip_right(graph, kept, graph.adj_mask[h2.gen])
            d = sum(abs(e) for _, e in middle)
            if best is None or d < best[0]:
                gate_a = r1.append_syllables(removed)
                best = (d, gate_a, gate_a.append_syllables(middle))
    return best


def transversals_near_gates(h1, h2, radius: int) -> int:
    """Reference for walls.crossing_count: how many walls other than h1 and
    h2 cross both and are dual to an edge leaving a vertex within radius of
    either gate of carrier_gates, found by enumerating both balls."""
    graph = h1.graph
    _, gate_a, gate_b = carrier_gates(h1, h2)
    found = set()
    for center in (gate_a, gate_b):
        for v in ball(center, radius, cap=radius):
            for g in range(len(graph.generators)):
                w = Wall(v, g)
                if w in found or w == h1 or w == h2:
                    continue
                if crosses(w, h1) and crosses(w, h2):
                    found.add(w)
    return len(found)


def common_transversal_directions_by_strip(h1, h2):
    """Reference for walls.common_transversal_directions: the double strip
    asked of every pair, whatever the two generators. None when the walls
    cross; otherwise the link generators of both that commute with the
    whole stripped middle between the carriers."""
    graph = h1.graph
    middle = _stripped_middle(h1, h2)
    if not middle and h1 != h2 and graph.adjacent(h1.gen, h2.gen):
        return None
    sep = {g for g, _ in middle}
    return frozenset(
        g
        for g in graph.link(h1.gen) & graph.link(h2.gen)
        if all(graph.adjacent(g, s) for s in sep)
    )


def crosses_by_square_search(h1, h2) -> bool:
    """Reference for walls.crosses: h1 and h2 cross exactly when g1 and g2
    are adjacent and some vertex v in ball(b1, d(b1, b2)) has
    Wall(v, g1) == h1 and Wall(v, g2) == h2, for the walls' bases b1, b2
    and generators g1, g2.

    Such a v is the corner of the square spanned by g1 and g2 at v, and
    both walls pass through that square, so they cross. Conversely, walls
    that cross have adjacent generators and carrier cosets b1⟨lk g1⟩ and
    b2⟨lk g2⟩ that meet, and the double strip writes b1^-1·b2 = x·y along
    a geodesic, with x in ⟨lk g1⟩ and y in ⟨lk g2⟩. Then v = b1·x = b2·y^-1
    lies in both cosets, so the edges at v in directions g1 and g2 are dual
    to h1 and h2, and |x| <= |b1^-1·b2| puts v within that radius of b1.
    The radius is measured with a plain inverse and product."""
    if not h1.graph.adjacent(h1.gen, h2.gen):
        return False
    radius = (h1.base.inverse() * h2.base).length
    return any(
        Wall(v, h1.gen) == h1 and Wall(v, h2.gen) == h2
        for v in ball(h1.base, radius, cap=radius)
    )


def coset_base_by_gate(base: GroupElement, mask: int) -> GroupElement:
    """Reference: the handle of base*<mask> as the coset's gate at the
    identity, its nearest point to 1."""
    return coset_gate_and_distance(base, mask, GroupElement.identity(base.graph))[0]


def is_cut_by_test_line(coset, h: Wall) -> bool:
    """Reference for Flat.is_cut_by and Line.is_cut_by: whether h separates
    two vertices of the coset x⟨S⟩, read off one long test line.

    Only walls in a direction g of S can cut it, and each g-wall that does
    is the wall of an edge x·g^k → x·g^(k+1) of the line x⟨g⟩: it is dual
    to an edge from some x·g^k·s with s in ⟨S ∖ g⟩, and s commutes with g,
    so it does not change the wall. The k g-walls between x and x·g^k miss h,
    as walls of one generator never cross, so they separate x from h's
    carrier, and |k| <= d(x, carrier) <= |x| + |h.base|. So h cuts the
    coset iff it separates x·g^-T from x·g^T, T = |x| + |h.base| + 2."""
    if h.gen not in coset._gens:
        return False
    T = h.base.length + coset.base.length + 2
    lo = coset.base.append_run(h.gen, -T)
    hi = coset.base.append_run(h.gen, T)
    return side(h, lo) != side(h, hi)


# --- boundary chains ---------------------------------------------------------


def ray_index_by_steps(ray, depth):
    """Reference for boundary._ray_index: the walls of the representative's
    first `depth` letters and their distances from the base, stepping the
    vertex v and u = base^-1·v one letter at a time as group elements.
    Each wall is wall_of_edge at v; its distance is u right-stripped of
    ⟨lk g⟩."""
    graph = ray.graph
    walls, dists = [], []
    v, u = ray.base, GroupElement.identity(graph)
    for letter in _representative_letters(ray, depth):
        walls.append(wall_of_edge(v, letter))
        kept, _ = _strip_right(graph, u.syllables, graph.adj_mask[letter.gen])
        dists.append(sum(abs(e) for _, e in kept))
        v = v.append_run(letter.gen, letter.sign)
        u = u.append_run(letter.gen, letter.sign)
    return tuple(walls), tuple(dists)


def oracle_lower(walls, t):
    """How many walls before wall t do not cross it."""
    return sum(1 for s in range(t) if not crosses(walls[s], walls[t]))


def oracle_chain(walls, r):
    """The walls-tuple greedy: longest chain from every start, consecutive
    pairs strongly separated, index gaps < r (None = unbounded)."""
    best = []
    for start in range(len(walls)):
        chain = [start]
        for t in range(start + 1, len(walls)):
            if r is not None and t - chain[-1] >= r:
                continue
            if strongly_separated(walls[chain[-1]], walls[t]):
                chain.append(t)
        if len(chain) > len(best):
            best = chain
    return tuple(best)


def bracket_product_by_lower_bound(xi, eta, depth):
    """Reference: [xi|eta]_o over the symmetric difference of the two wall
    tuples, skipping a wall whose oracle_lower count already reaches the
    least exact distance found, and certified below both rays' greedy-chain
    tail bounds. Both rays must share their base."""
    wx, we = ray_walls(xi, depth), ray_walls(eta, depth)
    sym = [(wx, t) for t, w in enumerate(wx) if w not in we]
    sym += [(we, t) for t, w in enumerate(we) if w not in wx]
    if not sym:
        return ProductValue(math.inf, xi.same_point_structurally(eta), depth)
    best = None
    for walls, t in sym:
        if best is not None and oracle_lower(walls, t) >= best:
            continue
        d = wall_distance(xi.base, walls[t])
        if best is None or d < best:
            best = d
    tail = min(max(0, len(oracle_chain(w, None)) - 1) for w in (wx, we))
    return ProductValue(best, best < tail, depth)


def refine_by_separating_walls(xi, inputs, chain_walls, depth):
    """Reference: the first of chain_walls crossed after every input wall
    such that each input wall is among the walls separating the base from
    it, read off the geodesic to its gate; None when there is none."""
    walls = ray_walls(xi, depth)
    after = max((walls.index(w) for w in inputs), default=-1)
    for k in chain_walls:
        if k not in walls or walls.index(k) <= after:
            continue
        sep = set(walls_separating_point_from_wall(xi.base, k))
        if all(w in sep for w in inputs):
            return k
    return None


# --- constructions -----------------------------------------------------------


# per flat index mod 4: its two steps, its span and its exit-line direction
_GAMMA_STEPS = (("b", "c"), ("c", "d"), ("c", "b"), ("b", "a"))
_GAMMA_FLATS = (("b", "c"), ("c", "d"), ("b", "c"), ("a", "b"))
_GAMMA_LINES = ("c", "c", "b", "b")


@dataclass(frozen=True)
class GlobalGamma:
    """gamma's first L flats with every vertex, letter, wall, flat and exit
    line stored as a global word: vertices[t] is G(t), walls[t] is W_t,
    and flats[l - 1] and lines[l - 1] are flat l and its exit line."""

    vertices: tuple
    letters: tuple
    walls: tuple
    flats: tuple
    lines: tuple


def gamma_ray(gamma: GammaPath) -> BoundaryRay:
    """gamma's periodic ray from the identity, its period word repeated."""
    names = gamma.graph.generators
    return BoundaryRay.from_text(
        gamma.graph, "|" + " ".join(names[lt.gen] for lt in gamma.period_letters)
    )


def gamma_by_global_words(L: int) -> GlobalGamma:
    """Reference: walk gamma's 2L steps from the identity, taking each
    flat and exit line at its own global vertex."""
    graph = build_croke_kleiner()
    v = GroupElement.identity(graph)
    vertices, letters, walls = [v], [], []
    for l in range(L):
        for name in _GAMMA_STEPS[l % 4]:
            lt = Letter(graph.gen_index(name), 1)
            walls.append(wall_of_edge(v, lt))
            letters.append(lt)
            v = v.append_run(lt.gen, 1)
            vertices.append(v)
    flats = tuple(
        Flat(vertices[2 * l], tuple(map(graph.gen_index, _GAMMA_FLATS[l % 4]))) for l in range(L)
    )
    lines = tuple(Line(vertices[2 * l + 2], graph.gen_index(_GAMMA_LINES[l % 4])) for l in range(L))
    return GlobalGamma(tuple(vertices), tuple(letters), tuple(walls), flats, lines)


def line_wall_counts_by_keys(g: GlobalGamma) -> tuple:
    """Reference: every wall of gamma counted by its <star g> key, and each
    exit line reading its own key's count, with no window."""
    graph = g.vertices[0].graph
    counts = Counter(_star_frame(graph, h.base, h.gen)[0] for h in g.walls)
    return tuple(counts[_star_frame(graph, ln.base, ln.gen)[0]] for ln in g.lines)


# The scan below rests on two bounds on the walls W_t of the line G through
# 1 that repeats gamma's period word both ways, W_(8j+i) = P^j·W_i:
#
# - G is a geodesic. Its letters are all positive, and the exponent sum,
#   a homomorphism onto Z, bounds the length of every word for an element.
#   So the W_t are distinct, and W_s separates G(u) from G(v) exactly when
#   u <= s < v.
# - Run bound. The normal form of G(t), and of its inverse, is reached by
#   commutations alone, which never carry a letter past one it does not
#   commute with. In the period word b c c d c b b a, repeated, a d lies
#   between the first and the last of any four b's, an a between those of
#   any four c's, a c between any two a's and an a between any two d's.
#   So no syllable of G(t) has an exponent above 3, nor does the canonical
#   base of W_t, whose syllables are some of G(t)'s.
# - Crossings. Crossing walls have commuting generators: a and b, b and c,
#   or c and d. If W_s and W_t cross, s < t, then each W_r between them
#   crosses one of them; otherwise W_r separates their carriers, which hold
#   G(s) and G(t + 1). An a-wall crosses only b-walls, a d-wall only
#   c-walls, and every eighth wall is an a-wall (i = 7), every eighth a
#   d-wall (i = 3). So crossing a- and b-walls have no d-wall between them
#   and are at most 8 apart, and so are crossing c- and d-walls, with no
#   a-wall between. For crossing b- and c-walls, every a-wall between
#   crosses the b-wall and so lies within 8 of it; as any 8 consecutive
#   walls hold an a-wall, the two are at most 24 apart. P preserves
#   crossings, so the pairs at most 24 apart from i = 0..7 settle the
#   relation: each W_t crosses at most four walls before it and four after
#   (test_gamma_line_crossings checks this).
# - Growth bound: |base of W_t| >= |t| - 4. The canonical base is the
#   vertex of the coset G(t)<lk g> nearest 1, so its length counts the
#   walls separating 1 from that coset. The walls cutting the coset are
#   those of its lk(g) edges, and they all cross W_t. So every W_s that
#   separates 1 from G(t) and does not cross W_t separates 1 from the
#   coset. Those W_s are the W_s with 0 <= s < t when t >= 0, and with
#   t <= s < 0 when t < 0, except at most four that cross W_t.
#
# test_gamma_line_bounds_are_tight checks both bounds on W_-160 .. W_159,
# where runs reach 3 and the growth bound holds with equality.
RUN_BOUND = 4
LENGTH_SLACK = 4


def runs_bounded(h) -> bool:
    """No syllable of h's base exceeds RUN_BOUND: true of every W_t."""
    return all(abs(e) <= RUN_BOUND for _, e in h.base.syllables)


_SCAN_LEVELS: dict = {}  # period -> [translates of levels 0 .. n - 1, their union, P^n]


def _scan_levels(gamma, n: int) -> list:
    """[levels, union, P^n]: the period translates at levels 0 .. n - 1 or
    more, and all of them in one set. Each level is checked against the
    run bound and the growth bound once, when first scanned."""
    scanned = _SCAN_LEVELS.get(gamma.period)
    if scanned is None:
        scanned = _SCAN_LEVELS[gamma.period] = [[], set(), GroupElement.identity(gamma.graph)]
    levels, union, shift = scanned
    while len(levels) < n:
        floor = 8 * len(levels) - LENGTH_SLACK
        level = frozenset(translate_wall(shift, w) for w in gamma.period_walls)
        assert all(runs_bounded(t) and t.base.length >= floor for t in level)
        levels.append(level)
        union |= level
        shift = scanned[2] = shift * gamma.period
    return scanned


def gamma_crosses_by_scan(gamma, h) -> bool:
    """Reference: scan the period translates level by level until their
    bases outgrow h's, then check one level past that horizon. A wall
    breaking the run bound is none of them."""
    if h.graph is not gamma.graph and h.graph != gamma.graph:
        raise MixedGraphs("wall belongs to a different group")
    if not runs_bounded(h):
        return False
    target = h.base.length
    # the first level k with 8k - LENGTH_SLACK > target
    top = (target + LENGTH_SLACK) // 8 + 1
    levels, union, _ = _scan_levels(gamma, top + 1)
    assert all(t.base.length > target for t in levels[top])
    # a translate at level top or later outgrows h, so h is one of them
    # only if it is one of the levels before top
    return h in union


def uncrossed_steps_by_walls(gamma, frame, start, g, s, steps, want, crosses=gamma_crosses):
    """Reference: (k, wall) for the first `want` of the first `steps` edges
    along g^s from start whose walls gamma, seen from the given frame, does
    not cross; k counts the steps. Each step's wall is built and asked of
    crosses(gamma, wall, frame)."""
    out = []
    x = start
    for k in range(steps):
        h = wall_of_edge(x, Letter(g, s))
        x = x.append_run(g, s)
        if not crosses(gamma, h, frame):
            out.append((k, h))
            if len(out) >= want:
                break
    return out


def verify_separation_by_global_frame(beta, delta=None):
    """Reference: the separation certificate with every side check asked
    in place, on the global walls and vertices."""
    delta = beta.delta if delta is None else delta
    if delta < 0:
        raise ConfigError(f"need delta >= 0, got {delta}")
    gamma = beta.gamma
    g = gamma_by_global_words(gamma.L)
    o = GroupElement.identity(gamma.graph)
    ok = True
    certs = []
    t = beta.segments[0].length
    for seg in beta.segments[1:]:
        l = seg.index
        v_prev, mid, end = (beta.path.vertex_at(u) for u in (t, t + seg.N, t + seg.length))
        t += seg.length
        w_prev = g.vertices[2 * (l - 1)]
        line_prev = g.lines[l - 2]
        assert line_prev.contains(v_prev)
        lg = line_prev.gen
        budget = distance(v_prev, w_prev)
        toward = 1 if distance(v_prev.append_run(lg, 1), w_prev) < budget else -1

        H_p = [
            h for _, h in uncrossed_steps_by_walls(gamma, 0, v_prev, lg, toward, budget, delta + 3)
        ]
        for h in H_p:
            if side(h, v_prev) != side(h, mid):
                raise CertificateViolation(f"segment {l}: escape run crosses {h}")
            if side(h, o) == side(h, v_prev):
                raise CertificateViolation(f"segment {l}: {h} does not separate the escape run")

        H_q = [
            h
            for _, h in uncrossed_steps_by_walls(
                gamma, 0, v_prev, seg.p_gen, seg.p_sign, seg.N, delta + 1
            )
        ]
        for h in H_q:
            if side(h, mid) != side(h, end):
                raise CertificateViolation(f"segment {l}: connector run crosses {h}")
            if side(h, o) == side(h, mid):
                raise CertificateViolation(f"segment {l}: {h} does not separate the connector run")

        cert = SegmentCertificate(l, len(H_p), len(H_q))
        certs.append(cert)
        ok = ok and cert.separation >= delta
    return SeparationReport(delta, tuple(certs), ok)


def segment_starts(beta) -> tuple:
    """Where each segment of beta starts, in the period frame of its flat:
    segment l = 4k + m + 1 starts at P^k times its entry. Walked from the
    path's runs, two per segment, with one quotient by P at each frame
    change."""
    gamma, runs = beta.gamma, beta.path.runs
    x, out = GroupElement.identity(gamma.graph), []
    for l in range(1, len(runs) // 2 + 1):
        if l > 1 and l % 4 == 1:
            x = quotient(gamma.period, x)
        out.append(x)
        x = x.append_run(*runs[2 * l - 2]).append_run(*runs[2 * l - 1])
    return tuple(out)


@dataclass(frozen=True)
class GlobalBeta:
    """The escape path as build_beta_by_global_frame builds it: choices[l - 1]
    is segment l's (index, case, M, N, p_gen, p_sign, q_gen, q_sign), and
    starts[l - 1] the global vertex where it starts."""

    choices: tuple
    starts: tuple
    path: RunPath
    family_sequence: str


# the escape and connector generators by (l-1) % 4, kept apart from the
# library's own reading of them off gamma's period
_BETA_P_GENS = ("c", "c", "b", "b")
_BETA_Q_GENS = ("b", "d", "c", "a")


def build_beta_by_global_frame(delta: int, L: int) -> GlobalBeta:
    """Reference: the escape path built with every choice and check asked
    in place, on the global vertices, lines and walls.

    Builds the inductive flat-by-flat escape path against gamma.

    In flat l the path runs N_l steps along a fresh wall direction (p_l),
    then M_l connector steps onto the exit line (q_l), where M_l is the
    exact coset distance from the previous endpoint to that line and
    N_l = max(delta + 3, 5*M_l, twice the length built so far). Case 3
    picks the escape direction whose first wall gamma never crosses;
    cases 1 and 2 keep to gamma's side of the sandwiching walls and cross
    the same connector wall as gamma does in that flat."""
    if delta <= 3:
        raise ConfigError("need delta > 3")
    gamma = build_gamma(L)
    graph = gamma.graph
    origin = GroupElement.identity(graph)
    g = gamma_by_global_words(L)

    choices: list[tuple] = []
    starts: list = []
    family_seq: list[str] = []
    runs: list[tuple[int, int]] = []
    v_prev = origin
    total = 0
    for l in range(1, L + 1):
        m = (l - 1) % 4
        case = _BETA_CASES[m]
        line_l = g.lines[l - 1]
        p_gen = graph.gen_index(_BETA_P_GENS[m])
        q_gen = graph.gen_index(_BETA_Q_GENS[m])
        w_prev = g.vertices[2 * (l - 1)]

        M = line_l.distance_to(v_prev)
        assert M >= 1, "previous endpoint already on the exit line"
        N = max(delta + 3, 5 * M, 2 * total)

        candidates = {s: wall_of_edge(v_prev, Letter(p_gen, s)) for s in (1, -1)}
        if case == 3:
            kept = [s for s, h in candidates.items() if not gamma_crosses(gamma, h)]
        else:
            kept = [
                s for s, h in candidates.items() if side(h, v_prev) == side(h, w_prev)
            ]
        if len(kept) != 1:
            raise CertificateViolation(f"escape direction ambiguous in flat {l}")
        p_sign = kept[0]
        mid = v_prev.append_run(p_gen, p_sign * N)

        if case == 3:
            q_kept = [
                s
                for s in (1, -1)
                if line_l.distance_to(mid.append_run(q_gen, s)) == M - 1
            ]
        else:
            assert M == 1, "connector cases expect an adjacent exit line"
            shared = g.walls[2 * l - 1]
            q_kept = [
                s for s in (1, -1) if wall_of_edge(mid, Letter(q_gen, s)) == shared
            ]
        if len(q_kept) != 1:
            raise CertificateViolation(f"connector direction ambiguous in flat {l}")
        q_sign = q_kept[0]
        end = mid.append_run(q_gen, q_sign * M)
        if not line_l.contains(end):
            raise CertificateViolation(f"segment {l} endpoint missed the exit line")

        # locally geodesic seams: p*q*p from the previous segment start
        if starts:
            _, _, prev_M, prev_N, *_ = choices[-1]
            assert distance(starts[-1], mid) == prev_N + prev_M + N

        assert Fraction(N, 2) - M >= Fraction(N, 4) + Fraction(M, 8)

        choices.append((l, case, M, N, p_gen, p_sign, q_gen, q_sign))
        starts.append(v_prev)
        runs.append((p_gen, p_sign * N))
        runs.append((q_gen, q_sign * M))
        family_seq.append(graph.generators[p_gen].upper())
        family_seq.append(graph.generators[q_gen].upper())
        total += N + M
        v_prev = end

    path = RunPath(origin, tuple(runs))
    assert path.length == total and path.endpoint() == v_prev
    fam = "".join(family_seq)
    assert all(fam[i] == "CBCDBCBA"[i % 8] for i in range(len(fam)))
    return GlobalBeta(tuple(choices), tuple(starts), path, fam)


def dichotomy_by_steps(Z, beta, rho, K_prime, C_prime) -> DichotomyReport:
    """Reference: step beta one letter at a time against every vertex of Z.

    d(beta_t, Z_T) changes by one per step of beta, with the sign decided
    by which side of the step's wall Z_T lies on, and the side pattern
    along Z flips only where Z itself crosses that wall."""
    rho = as_gauge(rho)
    Kp = Fraction(K_prime)
    Cp = Fraction(C_prime)
    kap = kappa(rho, Kp, Cp)
    kap2 = kappa_prime(rho, Kp, Cp)

    zverts = [Z.vertex_at(T) for T in range(Z.length + 1)]
    flips: dict = {}
    for T in range(Z.length):
        (start, g, e) = walk_between(Z, T, T + 1)[0]
        h = wall_of_edge(start, Letter(g, 1 if e > 0 else -1))
        flips.setdefault(h, []).append(T)

    b = beta.vertex_at(0)
    D = [distance(b, zv) for zv in zverts]
    d_list = [min(D)]
    if d_list[0] > kap:
        raise PreconditionFailed(
            f"path starts at distance {d_list[0]} > kappa = {kap} from Z"
        )

    nz = len(zverts)
    for g, e in beta.runs:
        s = 1 if e > 0 else -1
        for _ in range(abs(e)):
            h = wall_of_edge(b, Letter(g, s))
            sb = side(h, b)
            cur = side(h, zverts[0])
            start = 0
            for T in flips.get(h, []) + [nz - 1]:
                delta = 1 if cur == sb else -1
                for i in range(start, T + 1):
                    D[i] += delta
                start = T + 1
                cur = -cur
            b = b.append_run(g, s)
            d_list.append(min(D))

    end = len(d_list) - 1
    T0 = max(t for t, dt in enumerate(d_list) if dt <= kap)
    max_d = max(d_list)
    if max_d <= kap2 and T0 == end:
        return DichotomyReport(1, kap, kap2, T0, max_d, True, None, beta.length, Z.length)
    residual_min: Optional[Fraction] = None
    for t in range(T0 + 1, end + 1):
        bound = Fraction(t - T0, 1) / (2 * Kp) - 2 * (Cp + kap)
        r = Fraction(d_list[t]) - bound
        if residual_min is None or r < residual_min:
            residual_min = r
    bound_ok = residual_min is None or residual_min >= 0
    return DichotomyReport(2, kap, kap2, T0, max_d, bound_ok, residual_min, beta.length, Z.length)


def _tables_at_run_ends(p1, p2):
    """(i, j, table) for every run end i of p1 and j of p2, origins
    included, where table holds the clusters of the walk from p1's i-th
    run end back to p1's origin, across the connector, and along p2 to its
    j-th run end. The table is reused: read it before advancing."""
    ids: dict = {}
    f1 = _interned(p1._frames, ids)
    f2 = _interned(p2._frames, ids)
    outer = _ClusterTable()
    v = p1.origin
    for g, e in (p1.origin.inverse() * p2.origin).syllables:
        key, m = _star_frame(p1.graph, v, g)
        outer.add(ids.setdefault(key, len(ids)), m, e)
        v = v.append_run(g, e)
    for i in range(len(p1.runs) + 1):
        if i > 0:
            outer.add(*f1[i - 1], p1.runs[i - 1][1])
        inner = outer.copy()
        for j in range(len(p2.runs) + 1):
            if j > 0:
                inner.add(*f2[j - 1], p2.runs[j - 1][1])
            yield i, j, inner


def set_distance_knots_by_tables(path, Z):
    """Reference for set_distance_knots: each distance row is read off a
    cluster table that takes every step of Z as a run of its own. Z is
    split into unit steps, and splitting changes no cluster's flips, since
    the inner flips of a run's unit steps cancel in pairs."""
    if all(abs(e) == 1 for _, e in Z.runs):
        units = Z  # keeps Z's cached frames across calls
    else:
        units = RunPath(Z.origin, tuple(
            (g, 1 if e > 0 else -1) for g, e in Z.runs for _ in range(abs(e))
        ))
    rows: list = [[] for _ in range(len(path.runs) + 1)]
    for i, _, table in _tables_at_run_ends(path, units):
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


def _path_vertices(S) -> list[GroupElement]:
    if isinstance(S, RunPath):
        return [S.vertex_at(t) for t in range(S.length + 1)]
    return list(S)


def check_contracting_all_pairs(
    S,
    rho: RhoLike,
    radius: int,
    cap: int = DEFAULT_BALL_CAP,
) -> ContractionReport:
    """Reference: the contraction check with the gate d(x,y) < d(S,y) asked
    of every ordered pair of ball vertices off S, at one distance each.

    For points x, y off S with d(x,y) < d(S,y), the projection set of x
    united with that of y must have diameter at most rho(d(S,y)).
    Projections are exact argmin sets over S."""
    rho = as_gauge(rho)
    sverts: list[GroupElement] = []
    for v in _path_vertices(S):
        if v not in sverts:
            sverts.append(v)
    if not sverts:
        raise ConfigError("empty set cannot be tested")
    B = ball(sverts[0], radius, cap)
    sset = set(sverts)

    dist_to_s: dict[GroupElement, int] = {}
    proj: dict[GroupElement, tuple[int, ...]] = {}
    for v in B:
        ds = [distance(v, s1) for s1 in sverts]
        m = min(ds)
        dist_to_s[v] = m
        proj[v] = tuple(i for i, dv in enumerate(ds) if dv == m)

    spair: dict[tuple[int, int], int] = {}

    def sdist(i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        if key not in spair:
            spair[key] = distance(sverts[key[0]], sverts[key[1]])
        return spair[key]

    outside = [v for v in B if v not in sset]

    annulus: dict[int, int] = {}
    witness = None
    passed = True
    tested = 0

    def check_pair(x: GroupElement, y: GroupElement) -> None:
        nonlocal witness, passed, tested
        dy = dist_to_s[y]
        if distance(x, y) >= dy:
            return
        tested += 1
        union = set(proj[x]) | set(proj[y])
        diam = 0
        for i in union:
            for j in union:
                if i < j:
                    dij = sdist(i, j)
                    if dij > diam:
                        diam = dij
        if diam > annulus.get(dy, -1):
            annulus[dy] = diam
        if passed and rho.cmp_at(dy, diam) < 0:
            passed = False
            witness = (x.text(), y.text(), diam, dy)

    for x in outside:
        for y in outside:
            if x is not y:
                check_pair(x, y)

    return ContractionReport(
        passed,
        radius,
        rho.text(),
        tested,
        True,
        tuple(sorted(annulus.items())),
        witness,
    )


# --- the glued graph ---------------------------------------------------------


def fellow_travel_radius(
    alpha: Sequence,
    beta: Sequence,
    J: int,
    o,
    dist: Optional[Callable] = None,
) -> int:
    """Largest R such that some point of alpha outside the R-ball around o
    is within distance J of beta; 0 when no point of alpha is that close."""
    if dist is None:
        dist = distance
    best = None
    for a in alpha:
        if min(dist(a, b) for b in beta) <= J:
            d = dist(o, a)
            if best is None or d > best:
                best = d
    return 0 if best is None else best


def distances_by_bfs(g, u: str) -> dict[str, int]:
    """Every vertex's distance from u in a LabeledGraph."""
    seen = {u: 0}
    queue = [u]
    for x in queue:
        for y in g.neighbors(x):
            if y not in seen:
                seen[y] = seen[x] + 1
                queue.append(y)
    return seen


def geodesic_by_early_stop(g, u: str, v: str) -> list[str]:
    """A BFS from u that stops on reaching v; each vertex keeps the parent
    that found it first, in sorted neighbour order."""
    parent: dict[str, Optional[str]] = {u: None}
    queue = [u]
    for x in queue:
        if x == v:
            break
        for y in g.neighbors(x):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def basepoint_experiment_all_pairs(ex, kappa_val: int, i_range=None) -> tuple:
    """The basepoint experiment from a distance table per spine vertex and
    per basepoint, each geodesic vertex checked against every spine vertex."""
    g = ex.graph
    spine = ex.spine
    tables = {s: distances_by_bfs(g, s) for s in spine + (ex.o, ex.o_prime)}

    def dist(u: str, v: str) -> int:
        # every query has one endpoint on the spine or at a basepoint
        return tables[u][v] if u in tables else tables[v][u]

    rows = []
    for i in i_range if i_range is not None else range(1, ex.i_max + 1):
        end = ex.ray_end(i)
        geo_o = geodesic_by_early_stop(g, ex.o, end)
        geo_op = geodesic_by_early_stop(g, ex.o_prime, end)
        r_o = fellow_travel_radius(geo_o, spine, kappa_val, ex.o, dist)
        r_op = fellow_travel_radius(geo_op, spine, kappa_val, ex.o_prime, dist)
        rows.append(BasepointRow(i, len(geo_o) - 1, len(geo_op) - 1, r_o, r_op))
    return tuple(rows)
