"""Walls (hyperplanes) of the cube complex of a RAAG, named canonically so
equality is O(1), plus separation, transversality, strong separation, gates,
and ball enumeration over the Cayley 1-skeleton.

A wall is determined by an edge: the edge from p to p·g is dual to the wall
[p·⟨lk(g)⟩, g], and two edges are dual to the same wall exactly when their
left cosets of ⟨lk(g)⟩ agree. The canonical name stores the minimal coset
representative, obtained by stripping the maximal ⟨lk(g)⟩ suffix.

Everything here reduces to coset arithmetic on normal forms:

  - membership of t in ⟨S1⟩·⟨S2⟩ holds iff left-stripping S1 then
    right-stripping S2 empties t (one round suffices);
  - the gate of x on a carrier coset b·⟨lk g⟩ is b times the stripped-off
    prefix of nf(b^-1 x), and the strip remainder length is the distance
    to the coset;
  - x lies on the + side of a wall [b·⟨lk g⟩, g] iff g^+ is a left descent
    of nf(b^-1 x), read off as the first syllable left after stripping
    ⟨lk g⟩ from it;
  - the gate of x on the line ⟨g⟩ through 1 is g^e, with e the exponent of
    the first syllable left after stripping ⟨lk g⟩ from nf(x) when that
    syllable is a g syllable, and 0 otherwise (line_gate_exponent). So
    one strip answers which walls of the line separate x from 1.

Transversality of two walls is coset intersection of their carriers, so it
is decided exactly, with no search. The number of walls transverse to two
disjoint walls is likewise decided exactly: it is zero precisely when no
generator of lk(g1) ∩ lk(g2) commutes with the whole separator between the
carriers, and infinite otherwise, so crossing_count certifies every answer.
Two walls whose generators neither commute nor share a link generator are
strongly separated whatever their bases, and that is read off the defining
graph alone.
"""

from __future__ import annotations

import math

from .raag import (
    DEFAULT_BALL_CAP,
    CertificateViolation,
    DefiningGraph,
    GroupElement,
    Letter,
    TruncationLimit,
    WordError,
    _Frozen,
    _strip_left,
    _strip_right,
    quotient,
)

# a Vertex of the complex is exactly a group element
Vertex = GroupElement


class WallsCross(ValueError):
    """crossing_count was asked about a transverse pair."""


class InvalidPair(ValueError):
    """Operation needs two distinct walls."""


class BallCapExceeded(TruncationLimit):
    """Requested radius above the configured cap."""


class Wall(_Frozen):
    """Canonical wall name: minimal representative of the carrier coset.

    The constructor canonicalizes, so Wall(p, g) == Wall(q, g) iff the edges
    at p and q in direction g are dual to the same wall.
    """

    def __init__(self, base: GroupElement, gen: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gen", gen)
        # canonicalising is a method of its own, which the benchmark's
        # tracer and the tests wrap to count the walls built
        self.__post_init__()

    def __post_init__(self) -> None:
        graph = self.base.graph
        if not 0 <= self.gen < len(graph.generators):
            raise WordError(f"generator index out of range: {self.gen}")
        kept, removed = _strip_right(
            graph, self.base.syllables, graph.adj_mask[self.gen]
        )
        if removed:
            object.__setattr__(self, "base", GroupElement(graph, kept))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.gen) == (other.base, other.gen)

    def __hash__(self) -> int:
        return hash((self.base, self.gen))

    @property
    def graph(self) -> DefiningGraph:
        return self.base.graph

    def gen_name(self) -> str:
        return self.graph.generators[self.gen]

    def text(self) -> str:
        return f"{self.base.text() or '1'}@{self.gen_name()}"

    def __repr__(self) -> str:
        return f"Wall({self.text()})"


# --- coset arithmetic --------------------------------------------------------


def _carrier_strip(x: GroupElement, h: Wall) -> tuple[tuple, int, int]:
    """(removed, distance, side) of x relative to the carrier of h, where
    the gate is base·removed, times g on the + side.

    One quotient and one strip decide all three: left-strip lk(g) from
    t = nf(base^-1 x). x is on the + side exactly when the kept half starts
    with a positive g syllable; then g^+ is a left descent of t, and the
    carrier's other coset base·g·⟨lk g⟩ is one step nearer. Only lk(g)
    commutes with g, and the strip leaves no lk(g) syllable that could move
    to the front, so a g descent of the kept half can only be its first
    syllable. The distance is |kept|, minus one on the + side.
    """
    graph = h.graph
    t = quotient(h.base, x)
    removed, kept = _strip_left(graph, t.syllables, graph.adj_mask[h.gen])
    d = sum(abs(e) for _, e in kept)
    if kept and kept[0][0] == h.gen and kept[0][1] > 0:
        return removed, d - 1, 1
    return removed, d, -1


# --- operations --------------------------------------------------------------


def wall_of_edge(v: Vertex, letter: Letter) -> Wall:
    """The wall dual to the edge from v in the given letter direction."""
    g, s = letter
    p = v if s > 0 else v.append_run(g, -1)
    return Wall(p, g)


def walls_between(x: Vertex, y: Vertex) -> tuple[Wall, ...]:
    """Walls separating x from y, in crossing order along the normal-form
    geodesic from x to y. Geodesics cross each separating wall once, so the
    result has distance(x,y) entries and no duplicates."""
    w = quotient(x, y)
    out = []
    p = x
    for g, e in w.syllables:
        s = 1 if e > 0 else -1
        for _ in range(abs(e)):
            out.append(wall_of_edge(p, Letter(g, s)))
            p = p.append_run(g, s)
    return tuple(out)


def side(h: Wall, x: Vertex) -> int:
    """-1 on the base side of h, +1 on the base·gen side."""
    return _carrier_strip(x, h)[2]


def line_gate_exponent(x: Vertex, g: int) -> int:
    """e such that g^e is the gate of x on the line ⟨g⟩ through 1.

    Left-strip ⟨lk g⟩ from nf(x) = l·r: e is the exponent of r's first
    syllable when that is a g syllable, and 0 otherwise; write r = g^e·r′.
    This is _carrier_strip's argument with base 1. The strip keeps an
    lk(g) syllable only when a kept syllable before it blocks it, so r
    does not start with one. Nor can a g syllable of r′ reach the front of
    r′: everything before it would commute with g, so r would start with
    an lk(g) syllable, or with a g syllable that nf(x) would have merged
    with it. As l commutes with g, g^-j·x = l·g^(e-j)·r′ for every j, and
    that word is geodesic: a pair of inverse letters that could cancel in
    it could cancel in nf(x) too, or is a g letter of r′ that reaches the
    front of r′. So d(x, g^j) = |l| + |e - j| + |r′|, least exactly at
    j = e.

    Hence the sides. A vertex lies on the side of an edge's wall that
    holds the edge's endpoint nearer to it. Let W_k (k >= 0) be the wall of
    the edge from g^(s·k) to g^(s·(k+1)), for a sign s. Then x lies beyond
    W_k, on the side away from 1, exactly when |s·e - (k+1)| < |s·e - k|,
    that is when s·e > k.
    """
    graph = x.graph
    _, kept = _strip_left(graph, x.syllables, graph.adj_mask[g])
    return kept[0][1] if kept and kept[0][0] == g else 0


def _separation_mask(graph: DefiningGraph, g1: int, between, g2: int) -> int | None:
    """The one double strip. For walls [b1⟨lk g1⟩, g1] and [b2⟨lk g2⟩, g2]
    and `between` any geodesic word for an element of ⟨lk g1⟩·b1^-1·b2·⟨lk g2⟩:
    None when the walls cross, and otherwise the bit mask of the generators
    h such that some (equivalently, infinitely many) h-walls cross both.

    Left-strip ⟨lk g1⟩, then right-strip ⟨lk g2⟩: the middle m left is
    empty iff the carriers meet, so the walls cross iff m is empty and g1,
    g2 commute (equal walls share a generator, not adjacent to itself). A
    wall crossing both has its generator in both links, and its carrier
    meets both carriers, so the generator commutes with all of m.
    Conversely, with the word = x·m·y, x in ⟨lk g1⟩ and y in ⟨lk g2⟩, such
    an h gives for every k a wall [b1·x·h^k, h], as b1·x·h^k·m = b2·y^-1·h^k
    lies on the second carrier. A right factor in ⟨lk g2⟩ names the same
    second carrier, and a left one in ⟨lk g1⟩ is a translation that fixes
    the first wall and keeps edge labels, so any element of the double
    coset will do; and two geodesic words for it differ by swaps of
    adjacent commuting letters, which change no letter's strip decision.

    With lk(g1) ∩ lk(g2) empty and g1, g2 not commuting, the answer is 0
    from the masks alone, as the strip would find.
    """
    adj = graph.adj_mask
    common = adj[g1] & adj[g2]
    adjacent = (adj[g1] >> g2) & 1
    if not common and not adjacent:
        return 0
    _, kept = _strip_left(graph, between, adj[g1])
    middle, _ = _strip_right(graph, kept, adj[g2])
    if not middle and adjacent:
        return None
    for g, _ in middle:
        common &= adj[g]
    return common


def _wall_pair_mask(h1: Wall, h2: Wall) -> int | None:
    """_separation_mask of two walls, read through nf(b1^-1·b2)."""
    return _separation_mask(h1.graph, h1.gen, quotient(h1.base, h2.base).syllables, h2.gen)


def crosses(h1: Wall, h2: Wall) -> bool:
    """Transversality: the generators commute and the carrier cosets meet,
    decided by the double strip (see _separation_mask)."""
    if not h1.graph.adjacent(h1.gen, h2.gen):
        return False
    return _wall_pair_mask(h1, h2) is None


def common_transversal_directions(h1: Wall, h2: Wall) -> frozenset[int] | None:
    """Generators h such that some (equivalently, infinitely many) walls with
    generator h cross both h1 and h2; None when h1 and h2 cross. See
    _separation_mask."""
    mask = _wall_pair_mask(h1, h2)
    if mask is None:
        return None
    return frozenset(g for g in range(len(h1.graph.generators)) if (mask >> g) & 1)


def strongly_separated(h1: Wall, h2: Wall) -> bool:
    """No wall crosses both (0-separation). Exact, no search."""
    return _wall_pair_mask(h1, h2) == 0


def crossing_count(h1: Wall, h2: Wall) -> tuple[float, bool]:
    """How many walls cross both h1 and h2: (0, True) when no common
    transversal direction exists, and (math.inf, True) otherwise. Both
    answers are exact; see _separation_mask."""
    if h1 == h2:
        raise InvalidPair("crossing_count needs two distinct walls")
    mask = _wall_pair_mask(h1, h2)
    if mask is None:
        raise WallsCross("walls are transverse; no separation to measure")
    return (math.inf, True) if mask else (0, True)


def gate(x: Vertex, h: Wall) -> Vertex:
    """The unique vertex of the carrier of h nearest to x: base·removed,
    times g when x is on the + side; see _carrier_strip."""
    removed, _, s = _carrier_strip(x, h)
    if s > 0:
        removed += ((h.gen, 1),)
    return h.base.append_syllables(removed)


def wall_distance(o: Vertex, k: Wall) -> int:
    """d(o, carrier(k)): how many walls separate o from the whole carrier."""
    return _carrier_strip(o, k)[1]


def walls_separating_point_from_wall(o: Vertex, k: Wall) -> tuple[Wall, ...]:
    """Walls separating o from the entire carrier of k, in crossing order.

    These are the walls between o and its gate; the geodesic to the gate
    never runs parallel to k or crosses anything transverse to k, so the
    two filters below cannot fire, but they state the definition.
    """
    g = gate(o, k)
    out = tuple(
        h for h in walls_between(o, g) if h != k and not crosses(h, k)
    )
    if len(out) != wall_distance(o, k):
        raise CertificateViolation(f"gate geodesic from {o!r} to {k} crossed a stray wall")
    return out


def _ball_graph(
    o: Vertex, r: int, cap: int = DEFAULT_BALL_CAP
) -> tuple[tuple[Vertex, ...], list[list[int]]]:
    """The ball of radius r about o, sorted as ball sorts it, and for each
    of its vertices the places in it of its neighbours in it. Relators of a
    RAAG have even length, so the Cayley graph is bipartite: no edge joins
    two vertices of one sphere, and the search meets every edge of the ball
    while it expands the edge's inner end."""
    if r < 0:
        raise WordError("radius must be nonnegative")
    if cap < 0:
        raise WordError(f"ball cap must be nonnegative, got {cap}")
    if r > cap:
        raise BallCapExceeded(f"radius {r} above cap {cap}")
    moves = [(g, s) for g in range(len(o.graph.generators)) for s in (1, -1)]
    found = [o]
    place = {o: 0}
    edges: list[list[int]] = [[]]
    start = 0
    for _ in range(r):
        end = len(found)
        for i in range(start, end):
            for g, s in moves:
                child = found[i].append_run(g, s)
                j = place.setdefault(child, len(found))
                if j < start:  # child lies one sphere in: the edge was met from it
                    continue
                if j == len(found):
                    found.append(child)
                    edges.append([])
                edges[i].append(j)
                edges[j].append(i)
        start = end
    order = sorted(range(len(found)), key=lambda k: (found[k].length, found[k].syllables))
    pos = {k: p for p, k in enumerate(order)}
    return tuple(found[k] for k in order), [[pos[j] for j in edges[k]] for k in order]


def ball(o: Vertex, r: int, cap: int = DEFAULT_BALL_CAP) -> tuple[Vertex, ...]:
    """All vertices within distance r of o, sorted deterministically."""
    return _ball_graph(o, r, cap)[0]
