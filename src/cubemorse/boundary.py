"""Boundary points as eventually periodic rays, and the wall-counting
products between them.

A ray is a pair of words (prefix, period) naming the limit of the geodesic
words prefix·period^K read from the identity, together with a base vertex o.
All products are computed along the geodesic representative from o, obtained
by normalizing o⁻¹·prefix·period^J for J large enough that the first `depth`
letters stabilize.

Finite truncation cannot see the whole ray, so every product carries a
certification flag. The tail bound is combinatorial: if a geodesic has
crossed j pairwise strongly separated walls, any wall it crosses later is
separated from the base by at least j-1 of them.

Every product reads a ray through one index per (ray, depth), kept in a
single bounded cache: the walls in crossing order and their positions,
each wall's distance from the base, the strong-separation relation among
the walls, and the greedy separated chains. A wall's distance is read
from the ray's own prefix while the walls are built: one right strip of
the vertex reached so far, seen from the base, with no inverse or
product. A greedy chain is a walk along next pointers: from each wall to
the first later wall strongly separated from it, within the gap bound.
The pointers and the chain lengths they give are memoised per gap bound,
so the chains from all starts share one walk. A product only asks
whether the tail bound exceeds one number, and the index answers by
scanning starts in order until some chain is long enough, resuming there
on the next question. Only the walls and their distances are computed
when the index is built; each relation is filled on first use and
memoised, so a pair of walls is tested at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .raag import (
    CertificateViolation,
    DefiningGraph,
    GroupElement,
    Word,
    _append_syllable,
    _strip_right,
    normal_form,
    parse_word,
)
from .walls import (
    Wall,
    crosses,
    strongly_separated,
    wall_distance,
)

DEFAULT_DEPTH = 40


class InvalidRay(ValueError):
    """Ray fails geodesy or its representative does not stabilize."""


class UnstableRepresentative(InvalidRay):
    """The ray's representative did not stabilize at the chosen depth: a
    truncation limit, not bad input."""


class UncertifiedDepth(ValueError):
    """The truncation depth cannot settle the query either way."""


class ChainExhausted(ValueError):
    """The detected separated chain ends before a suitable wall."""


class MismatchedBase(ValueError):
    """Products require all rays anchored at the same base vertex."""


@dataclass(frozen=True)
class BoundaryRay:
    """Eventually periodic ray: the boundary point of prefix·period^∞,
    anchored at base for product computations."""

    base: GroupElement
    prefix: Word
    period: Word

    def __post_init__(self) -> None:
        if len(self.period) == 0:
            raise InvalidRay("period must be a nonempty word")
        if self.prefix.graph is not self.base.graph and self.prefix.graph != self.base.graph:
            raise InvalidRay("prefix and base use different defining graphs")
        if self.period.graph is not self.base.graph and self.period.graph != self.base.graph:
            raise InvalidRay("period and base use different defining graphs")

    @property
    def graph(self) -> DefiningGraph:
        return self.base.graph

    @classmethod
    def from_text(
        cls,
        graph: DefiningGraph,
        text: str,
        base: Optional[GroupElement] = None,
    ) -> "BoundaryRay":
        """Parse "PREFIX|PERIOD"; the prefix may be empty."""
        if "|" not in text:
            raise InvalidRay(f"ray text needs a | separator: {text!r}")
        left, right = text.split("|", 1)
        if base is None:
            base = GroupElement.identity(graph)
        return cls(base, parse_word(left, graph), parse_word(right, graph))

    def text(self) -> str:
        return f"{self.prefix.text()}|{self.period.text()}"

    def point_element(self, copies: int) -> GroupElement:
        """The group element prefix·period^copies, read from the identity."""
        return normal_form(self.prefix) * normal_form(self.period) ** copies

    def same_point_structurally(self, other: "BoundaryRay") -> bool:
        return (
            self.base == other.base
            and normal_form(self.prefix) == normal_form(other.prefix)
            and normal_form(self.period) == normal_form(other.period)
        )

    def __hash__(self) -> int:
        return hash((self.base, self.prefix.runs, self.period.runs))


@dataclass(frozen=True)
class ProductValue:
    """A wall-counting product at finite truncation.

    value is a nonnegative integer or math.inf; certified means the value
    cannot change at any larger depth; depth_used echoes the truncation.
    """

    value: object
    certified: bool
    depth_used: int


@dataclass(frozen=True)
class SeparatedChain:
    """Walls crossed by a ray, consecutive pairs certified n-separated and
    crossing points less than r apart."""

    walls: tuple[Wall, ...]
    gaps: tuple[int, ...]
    n: int
    r: int

    def __len__(self) -> int:
        return len(self.walls)


def validate_ray(ray: BoundaryRay, depth: int) -> bool:
    """True iff prefix·period^K stays geodesic up to the depth and the last
    two period copies append without any cancellation, merge or reorder."""
    if depth < 1:
        raise ValueError("depth must be positive")
    p = normal_form(ray.prefix)
    if p.length != len(ray.prefix):
        return False
    per = normal_form(ray.period)
    if per.is_identity:
        return False
    if per.length != len(ray.period):
        return False
    copies = max(2, -(-depth // per.length) + 2)
    acc = p
    clean_tail = 0
    for _ in range(copies):
        nxt = acc * per
        if nxt.length != acc.length + per.length:
            return False
        # clean: the normal form extends letter by letter, no reorder/merge
        # across the seam beyond plain run concatenation
        if nxt.syllables == Word(ray.graph, acc.syllables + per.syllables).runs:
            clean_tail += 1
        else:
            clean_tail = 0
        acc = nxt
    return clean_tail >= 2


def _literal_letters(ray: BoundaryRay, depth: int):
    """Letters of prefix·period^K exactly as written, provided the ray is
    based at the identity and the written word is itself geodesic past
    `depth`; None otherwise.

    Keeping the written order matters for chain detection: shortlex
    normalization may pull a commuting letter across a period seam, moving
    the wall it crosses away from its geometric position along the ray and
    stretching the index gaps a separated chain has to fit under."""
    if not ray.base.is_identity:
        return None
    step = len(ray.period)
    copies = -(-(depth + 2 * step) // step)
    word = Word(ray.graph, ray.prefix.runs + ray.period.runs * copies)
    if normal_form(word).length != len(word):
        return None
    return list(word[:depth])


def _representative_letters(ray: BoundaryRay, depth: int):
    """First `depth` letters of the geodesic representative of the ray's
    boundary point based at ray.base, certified stable under lengthening.

    Prefers the literal written word when it is already geodesic from the
    identity; falls back to the shortlex representative otherwise."""
    per = normal_form(ray.period)
    if per.is_identity:
        raise InvalidRay("period reduces to the identity")
    literal = _literal_letters(ray, depth)
    if literal is not None:
        return literal
    inv_base = ray.base.inverse()
    step = max(1, per.length)
    copies = max(2, -(-(depth + 2 * step + ray.base.length) // step))
    for _ in range(8):
        cur = (inv_base * ray.point_element(copies)).normal
        nxt = (inv_base * ray.point_element(copies + 1)).normal
        if len(cur) >= depth and cur[:depth] == nxt[:depth]:
            return list(cur[:depth])
        copies *= 2
    raise UnstableRepresentative("representative does not stabilize at this depth")


class _RayIndex:
    """The walls of one ray at one depth, their distances from the base and
    the relations among them that the products read. Built once per
    (ray, depth) by _ray_index, which reads each distance from the ray's
    prefix as it builds the walls (see dist); the relations are filled in
    place on first use and memoised, so a query pays only for the pairs it
    touches. Not safe for concurrent filling from several threads.

    The greedy chain with gap bound r from start s is s, next_r(s),
    next_r(next_r(s)), ..., where next_r(s) is the first t with
    s < t < s + r (no upper limit when r is None) and walls s, t strongly
    separated. Its length obeys L_r(s) = 1 + L_r(next_r(s)), so the
    pointers and lengths are kept per r and every start's chain reuses the
    walks already made. Computing L_r(s) tests the pairs (s, t) for t up to
    next_r(s), exactly the pairs the plain greedy loop from s tests at s;
    so filling every start tests the same pairs as running that loop from
    every start. The tail test scans the starts in order and stops as soon
    as the longest chain so far settles its answer."""

    __slots__ = ("walls", "pos", "_dists", "_known", "_sep", "_walks", "_scanned", "_tail")

    def __init__(self, walls: tuple[Wall, ...], dists: tuple[int, ...]):
        self.walls = walls
        self.pos = {w: t for t, w in enumerate(walls)}
        if len(self.pos) != len(walls):
            raise CertificateViolation("geodesic crossed a wall twice")
        self._dists = dists
        # bit j of _known[i] / _sep[i], i < j: pair tested / strongly separated
        self._known = [0] * len(walls)
        self._sep = [0] * len(walls)
        # r -> (next_r, L_r); next_r(s) = len(walls) when the chain ends at s,
        # and L_r has one more entry, 0 at that end, None where not yet walked
        self._walks: dict[Optional[int], tuple[list[int], list[Optional[int]]]] = {}
        # the tail scan: starts folded in so far, max(0, their longest L_None - 1)
        self._scanned = 0
        self._tail = 0

    def dist(self, t: int) -> int:
        """wall_distance(base, wall t), read from the ray's prefix when the
        index was built. Let u = base^-1·v, where v is the vertex the ray
        reaches after its first t letters, and g the generator of letter t.
        Wall t is dual to the edge at v in direction g, whatever the
        letter's sign, so the carrier coset on v's side is v·⟨lk g⟩; the
        other coset lies across the wall, one g-edge further. The geodesic
        crosses wall t once, after v, so the base is on v's side too, and
        the distance is the least |u·h| over h in ⟨lk g⟩: the length of u
        right-stripped of ⟨lk g⟩, the minimal representative of u·⟨lk g⟩.

        The distance also counts the earlier ray walls not crossing k =
        wall t. The distance to the convex carrier of k counts the walls
        separating it from the base. An earlier wall h not crossing k has
        k's carrier on one side, the far side from the base, as the
        geodesic crosses h before k's edge; so h separates. Conversely, a
        separating wall is crossed before k's edge and cannot cross k,
        which would take it through the carrier."""
        return self._dists[t]

    def separated(self, i: int, j: int) -> bool:
        """Whether walls i < j are strongly separated."""
        bit = 1 << j
        if not self._known[i] & bit:
            if strongly_separated(self.walls[i], self.walls[j]):
                self._sep[i] |= bit
            self._known[i] |= bit
        return bool(self._sep[i] & bit)

    def _length(self, r: Optional[int], start: int) -> int:
        """L_r(start), following next pointers until a walked start and
        filling in the lengths on the way back."""
        n = len(self.walls)
        if r not in self._walks:
            self._walks[r] = ([n] * n, [None] * n + [0])
        nxt, length = self._walks[r]
        path = []
        s = start
        while length[s] is None:
            path.append(s)
            stop = n if r is None else min(n, s + r)
            t = next((t for t in range(s + 1, stop) if self.separated(s, t)), n)
            nxt[s] = t
            s = t
        for p in reversed(path):
            length[p] = length[nxt[p]] + 1
        return length[start]

    def chain(self, r: Optional[int]) -> tuple[int, ...]:
        """Greedy longest chain of wall indices with consecutive pairs
        strongly separated and index gaps < r (r None = unbounded): the
        chain from the first start of greatest length. Crossing points of
        walls i and j on a geodesic are |i-j| apart."""
        n = len(self.walls)
        s = max(range(n), key=lambda s: self._length(r, s), default=n)
        out = []
        while s < n:
            out.append(s)
            s = self._walks[r][0][s]
        return tuple(out)

    def tail_exceeds(self, x: int) -> bool:
        """Whether every wall crossed after these has more than x walls
        between it and the base.

        The tail bound is max(0, greatest L_None - 1): pairwise strongly
        separated chain walls can share no crossing wall, so a later wall
        crosses at most one wall of a chain of length L and at least L - 1
        lie between it and the base. Starts are scanned only until the
        longest chain so far decides the question: the running value only
        grows and ends at the tail bound, so once it exceeds x so does the
        bound, and when every start is scanned it is the bound."""
        n = len(self.walls)
        while self._tail <= x and self._scanned < n:
            self._tail = max(self._tail, self._length(None, self._scanned) - 1)
            self._scanned += 1
        return self._tail > x


@lru_cache(maxsize=4096)
def _ray_index(ray: BoundaryRay, depth: int) -> _RayIndex:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth == 0:
        return _RayIndex((), ())
    graph = ray.graph
    walls, dists = [], []
    # v, the vertex reached, and u = base^-1·v, as syllable lists grown in
    # place; each wall is named from v at the tail of its letter's g-edge,
    # and the walk builds no group element but the walls' bases
    v, u = list(ray.base.syllables), []
    for gen, sign in _representative_letters(ray, depth):
        kept, _ = _strip_right(graph, u, graph.adj_mask[gen])
        dists.append(sum(abs(e) for _, e in kept))
        _append_syllable(graph, u, gen, sign)
        if sign < 0:
            _append_syllable(graph, v, gen, sign)
        walls.append(Wall(GroupElement(graph, tuple(v)), gen))
        if sign > 0:
            _append_syllable(graph, v, gen, sign)
    return _RayIndex(tuple(walls), tuple(dists))


def ray_walls(ray: BoundaryRay, depth: int) -> tuple[Wall, ...]:
    """Walls dual to the first `depth` edges of the representative from
    ray.base, in crossing order."""
    return _ray_index(ray, depth).walls


def _check_same_base(x: BoundaryRay, e: BoundaryRay) -> None:
    # graphs first: bases over different graphs are never equal
    if x.graph is not e.graph and x.graph != e.graph:
        raise MismatchedBase("rays live over different defining graphs")
    if x.base != e.base:
        raise MismatchedBase("rays are anchored at different base vertices")


def bracket_product(xi: BoundaryRay, eta: BoundaryRay, depth: int) -> ProductValue:
    """[ξ|η]_o: the least number of walls between o and a wall separating
    the two rays; +inf when no wall separates them.

    The minimum runs over the walls only one ray crosses within depth,
    each read from its own ray's index. Certified when the minimum is
    strictly below both rays' tail bounds, so no unseen wall can beat it
    and the minimizing wall cannot be secretly common. best < min of the
    two bounds holds exactly when each bound exceeds best, which is what
    tail_exceeds decides, stopping at the first chain long enough.
    """
    _check_same_base(xi, eta)
    ix = _ray_index(xi, depth)
    ie = _ray_index(eta, depth)
    dists = [ix.dist(t) for t, w in enumerate(ix.walls) if w not in ie.pos]
    dists += [ie.dist(t) for t, w in enumerate(ie.walls) if w not in ix.pos]
    if not dists:
        return ProductValue(math.inf, xi.same_point_structurally(eta), depth)
    best = min(dists)
    return ProductValue(best, ix.tail_exceeds(best) and ie.tail_exceeds(best), depth)


def gromov_product(xi: BoundaryRay, eta: BoundaryRay, depth: int) -> ProductValue:
    """(ξ|η)_o: the number of walls both rays cross.

    Certified via barrier pairs: on each ray, after its last common wall, a
    consecutive strongly separated pair of walls the other ray does not
    cross. A common wall beyond depth would have to cross or be separated by
    each barrier, forcing the other ray through a wall it provably avoids.
    """
    _check_same_base(xi, eta)
    ix = _ray_index(xi, depth)
    ie = _ray_index(eta, depth)
    common = ix.pos.keys() & ie.pos.keys()
    value = len(common)

    def barrier_after(own: _RayIndex) -> bool:
        last = -1
        for t, w in enumerate(own.walls):
            if w in common:
                last = t
        prev = None
        for t in range(last + 1, len(own.walls)):
            if prev is not None and own.separated(prev, t):
                return True
            prev = t
        return False

    certified = barrier_after(ix) and barrier_after(ie)
    return ProductValue(value, certified, depth)


class InfiniteTerm(ValueError):
    """A cross ratio summand is +inf because two arguments coincide."""


def _cross_ratio(
    product: Callable[[BoundaryRay, BoundaryRay, int], ProductValue],
    w: BoundaryRay, x: BoundaryRay, y: BoundaryRay, z: BoundaryRay, depth: int,
) -> tuple[int, bool]:
    """product(w,x) + product(y,z) - product(w,y) - product(x,z), with the
    joint flag. The callers pass the product by its global name at call
    time, so a product rebound on the module is the one used."""
    terms = [product(a, b, depth) for a, b in ((w, x), (y, z), (w, y), (x, z))]
    if any(t.value == math.inf for t in terms):
        raise InfiniteTerm("cross ratio undefined: a summand is infinite")
    wx, yz, wy, xz = (t.value for t in terms)
    return wx + yz - wy - xz, all(t.certified for t in terms)


def cross_ratio_cr(
    w: BoundaryRay, x: BoundaryRay, y: BoundaryRay, z: BoundaryRay, depth: int
) -> tuple[int, bool]:
    """cr_o(w,x,y,z) = [w|x] + [y|z] - [w|y] - [x|z], with joint flag."""
    return _cross_ratio(bracket_product, w, x, y, z, depth)


def cross_ratio_bfm(
    w: BoundaryRay, x: BoundaryRay, y: BoundaryRay, z: BoundaryRay, depth: int
) -> tuple[int, bool]:
    """[w,x,y,z] = (w|x) + (y|z) - (w|y) - (x|z), with joint flag."""
    return _cross_ratio(gromov_product, w, x, y, z, depth)


def hyp_member(xi: BoundaryRay, walls: Iterable[Wall], depth: int) -> bool:
    """Whether the ray crosses every listed wall.

    A wall absent from the truncation is certifiably uncrossed only when its
    distance from the base is below the ray's tail bound; otherwise the
    depth cannot decide and UncertifiedDepth is raised. distance >= tail
    bound is the negation of tail_exceeds(distance).
    """
    index = _ray_index(xi, depth)
    missing = [w for w in walls if w not in index.pos]
    if not missing:
        return True
    o = xi.base
    for w in missing:
        if not index.tail_exceeds(wall_distance(o, w)):
            raise UncertifiedDepth(
                "wall not crossed within depth and tail bound too weak"
            )
    return False


def find_separated_chain(
    xi: BoundaryRay, n: int, r: int, depth: int
) -> SeparatedChain:
    """Greedy longest chain among the ray's walls with consecutive pairs
    certified n-separated and crossing points less than r apart. A chain
    needs at least two walls; otherwise the empty chain is returned.

    Two disjoint walls of a RAAG are crossed by no wall or by infinitely
    many (see walls.crossing_count), so for every n >= 0 a pair is certified
    n-separated exactly when it is strongly separated, and the chain is the
    n = 0 chain. A negative n admits no pair."""
    index = _ray_index(xi, depth)
    walls = index.walls
    idx = index.chain(r) if n >= 0 else ()
    if len(idx) < 2:
        return SeparatedChain((), (), n, r)
    gaps = tuple(idx[k + 1] - idx[k] for k in range(len(idx) - 1))
    return SeparatedChain(tuple(walls[k] for k in idx), gaps, n, r)


def refine_to_single_wall(
    xi: BoundaryRay,
    walls: Iterable[Wall],
    chain: SeparatedChain,
    depth: int = DEFAULT_DEPTH,
) -> Wall:
    """The first chain wall crossed after all input walls such that every
    input wall separates the base from it; then any ray through it crosses
    all the inputs.

    That is the first chain wall k past the inputs that no input wall
    crosses, by the argument of _RayIndex.dist: the ray crosses an input
    wall w before k.
    If w does not cross k, k's carrier lies on w's far side from the base,
    so w separates. If w crosses k, w does not separate the base from
    that carrier."""
    pos = _ray_index(xi, depth).pos
    inputs = list(walls)
    for w in inputs:
        if w not in pos:
            raise ValueError("input wall is not crossed by the ray at this depth")
    after = max((pos[w] for w in inputs), default=-1)
    for k in chain.walls:
        if pos.get(k, -1) > after and not any(crosses(w, k) for w in inputs):
            return k
    raise ChainExhausted("no chain wall past the inputs separates as required")

