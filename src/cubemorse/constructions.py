"""Explicit geometry on top of the wall engine.

The path group on four generators with its periodic diagonal geodesic
and the flat-hopping quasi-geodesic built against it, wall-counting
separation certificates, an exhaustive contraction checker, and the
divergence dichotomy for paths near a contracting set. The sublinear
gauges and the kappa radii live in cubemorse.gauges, the glued labeled
graph of Example 2.3 in cubemorse.example23.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Callable, Optional

from .gauges import RhoLike, _kappa_prime, as_gauge, kappa
from .raag import (
    CertificateViolation,
    ConfigError,
    DefiningGraph,
    GroupElement,
    Letter,
    MixedGraphs,
    PreconditionFailed,
    _strip_left,
    _strip_right,
    distance,
    quotient,
)
from .records import _Record
from .runpaths import (
    QuasiGeodesicReport,
    RunPath,
    _star_frame,
    certify_quasigeodesic_runs,
    set_distance_knots,
)
from .walls import (
    DEFAULT_BALL_CAP,
    Wall,
    _ball_graph,
    line_gate_exponent,
    wall_of_edge,
)


# --- the four-generator path group --------------------------------------------


_CK_DATA = {
    "generators": ["a", "b", "c", "d"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
}

def build_croke_kleiner() -> DefiningGraph:
    """The defining graph of the Croke-Kleiner RAAG: the path a-b-c-d. Wall
    families are named by generator."""
    return DefiningGraph.from_data(_CK_DATA)


class _Coset(_Record):
    """Coset base * <gens>, with the stored base normalized to the coset's
    minimal representative, so two handles for the same coset compare and
    hash equal. That representative is the coset's gate at the identity;
    one right strip of the canonical base finds it. Subclasses name their
    generators in _gens, validate them, then call this __post_init__."""

    base: GroupElement

    def __post_init__(self) -> None:
        kept, _ = _strip_right(self.graph, self.base.syllables, self.mask)
        object.__setattr__(self, "base", GroupElement(self.graph, kept))

    @property
    def graph(self) -> DefiningGraph:
        return self.base.graph

    @property
    def mask(self) -> int:
        return self.graph.mask_of(self._gens)

    def _same_graph(self, graph: DefiningGraph) -> None:
        if graph is not self.graph and graph != self.graph:
            raise MixedGraphs("cannot compare across defining graphs")

    def distance_to(self, x: GroupElement) -> int:
        """The length of nf(base^-1 x) once <gens> is stripped off its
        front: the rest is the path from x's gate on the coset to x."""
        _, kept = _strip_left(self.graph, quotient(self.base, x).syllables, self.mask)
        return sum(abs(e) for _, e in kept)

    def contains(self, x: GroupElement) -> bool:
        """One right strip of x gives the stored minimal representative."""
        self._same_graph(x.graph)
        return _strip_right(self.graph, x.syllables, self.mask)[0] == self.base.syllables

    def is_cut_by(self, h: Wall) -> bool:
        """Whether h separates two vertices of this coset x<S>.

        Write g = h.gen; h is the wall of the g-edges from h.base<lk g>.
        h cuts x<S> iff it is dual to an edge of it, as the coset is convex.
        That edge is in direction g, so g is in S, and it exists iff h.base
        is in x<S><lk g>. For a Flat or Line S ⊆ star g, and g commutes
        with lk g, so that is x<star g>: h cuts x<S> iff g is in S and
        h.base and x have the same <star g> key."""
        self._same_graph(h.graph)
        g = h.gen
        return (
            g in self._gens
            and _star_frame(self.graph, h.base, g)[0] == _star_frame(self.graph, self.base, g)[0]
        )


class Flat(_Coset):
    """Coset base * <g1, g2> of a commuting pair: a combinatorial plane."""

    gens: tuple[int, int]

    def __post_init__(self) -> None:
        g1, g2 = self.gens
        if g1 == g2 or not self.graph.adjacent(g1, g2):
            raise ConfigError("flat generators must be distinct and commuting")
        if g2 < g1:
            object.__setattr__(self, "gens", (g2, g1))
        super().__post_init__()

    @property
    def _gens(self) -> tuple[int, int]:
        return self.gens

    def __repr__(self) -> str:
        names = "".join(sorted(self.graph.generators[g] for g in self.gens))
        return f"Flat({self.base.text()!r}, {names})"


class Line(_Coset):
    """Coset base * <gen>: a combinatorial line."""

    gen: int

    def __post_init__(self) -> None:
        if not 0 <= self.gen < len(self.graph.generators):
            raise ConfigError("line generator out of range")
        super().__post_init__()

    @property
    def _gens(self) -> tuple[int]:
        return (self.gen,)

    def __repr__(self) -> str:
        return f"Line({self.base.text()!r}, {self.graph.generators[self.gen]})"


# --- the periodic diagonal geodesic -------------------------------------------

# per flat of the period: its two steps, then the generator of its exit
# line, which it shares with the next flat
_GAMMA_PERIOD = (("b", "c", "c"), ("c", "d", "c"), ("c", "b", "b"), ("b", "a", "b"))


class GammaPath(_Record):
    """The first L flats of the P-periodic geodesic G through the flat
    cycle B, C, B, A: two steps per flat, repeating b c | c d | c b | b a.

    Only one period is stored, in frame 0: the vertices G(0) .. G(8), with
    G(8) = P, the letters and walls W_0 .. W_7 of its steps, and its four
    flats and exit lines. G(8k + i) = P^k·G(i) and W_(8k + i) = P^k·W_i.
    Flat l = 4k + m + 1 (1-based) is P^k·period_flats[m]; its exit line,
    its two walls and its entry vertex are P^k times period_lines[m],
    period_walls[2m], period_walls[2m + 1] and period_vertices[2m]. Flat l
    and flat l+1 share flat l's exit line. graph is the Croke-Kleiner
    defining graph every vertex and wall is over."""

    graph: DefiningGraph
    L: int
    period_vertices: tuple[GroupElement, ...]
    period_letters: tuple[Letter, ...]
    period_walls: tuple[Wall, ...]
    period_flats: tuple[Flat, ...]
    period_lines: tuple[Line, ...]

    @property
    def period(self) -> GroupElement:
        return self.period_vertices[8]

    def runpath(self) -> RunPath:
        runs = tuple((lt.gen, lt.sign) for lt in self.period_letters)
        return RunPath(
            GroupElement.identity(self.graph), tuple(runs[t % 8] for t in range(2 * self.L))
        )

    def families(self) -> str:
        """The wall families A/B/C/D crossed, named by generator."""
        names = [h.gen_name().upper() for h in self.period_walls]
        return "".join(names[t % 8] for t in range(2 * self.L))

    @cached_property
    def _sum_test(self) -> tuple:
        """By generator g: P's exponent sums, the generators off lk(g), and
        (sums of G(i), W_i) for each step i along g (_crossed_by_sums)."""
        per, lk = _exponent_sums(self.period), self.graph.link
        at = list(zip(map(_exponent_sums, self.period_vertices), self.period_walls))
        return tuple(
            (per, [x for x in range(len(per)) if x not in lk(g)], [a for a in at if a[1].gen == g])
            for g in range(len(per))
        )


def build_gamma(L: int) -> GammaPath:
    """The periodic combinatorial geodesic through the flat cycle B, C, B, A.

    The period is built once, and nothing in it depends on L, so it needs
    no runtime check. Every letter of P is positive, and the exponent sum,
    a homomorphism onto Z, bounds the length of every word for an element,
    so G is a geodesic and crosses each wall once. Each flat is built at
    the vertex its two steps start from and each exit line at the vertex
    they end at, so both steps lie in the flat, its two walls cut it, and
    the exit line holds the second step; the next flat starts there and
    has the line's generator, so it holds the line. Left translation by
    P^k keeps cuts and memberships, so flats 4k+1 .. 4k+4 are laid out as
    flats 1 .. 4 are. Each call builds its own build_croke_kleiner()
    graph; values over equal graphs mix freely."""
    if L < 1:
        raise ConfigError("need at least one flat")
    graph = build_croke_kleiner()
    gen = graph.gen_index
    v = GroupElement.identity(graph)
    vertices, letters, walls_, flats, lines = [v], [], [], [], []
    for first, second, line in _GAMMA_PERIOD:
        flats.append(Flat(v, (gen(first), gen(second))))
        for name in (first, second):
            lt = Letter(gen(name), 1)
            walls_.append(wall_of_edge(v, lt))
            letters.append(lt)
            v = v.append_run(lt.gen, 1)
            vertices.append(v)
        lines.append(Line(v, gen(line)))
    return GammaPath(
        graph, L, tuple(vertices), tuple(letters), tuple(walls_), tuple(flats), tuple(lines)
    )


def line_wall_counts(gamma: GammaPath) -> tuple[int, ...]:
    """How many of the path's walls W_0 .. W_(2L-1) cut each flat's exit
    line. The exit line of flat l is the g-line through G(u), u = 2l, and
    only the W_t with u - 3 <= t <= u + 2 can cut it:

    - By _Coset.is_cut_by, W_t cuts it iff W_t is a g-wall and G(t) and
      G(u) have the same <star g> key, that is G(t)^-1·G(u) is in
      <star g>. A positive subword of G spells that element, so it is
      geodesic, and a geodesic word for an element of <star g> uses only
      star g letters. So W_t cuts the line iff letter t is g and every
      step of G between G(t) and G(u) is along star g.
    - The exit lines run along c at u = 2, 4 and along b at u = 6, 8,
      mod 8. star c misses only a, at t = 7 mod 8, and star b only d, at
      t = 3 mod 8. Between the a's, t = 0 .. 6, the c's are at 1, 2, 4;
      between the d's, t = 4 .. 10, the b's are at 5, 6, 8. So each exit
      line of the bi-infinite G is cut by three of its walls, at
      t - u in {-1, 0, 2} for u = 2, 6 and {-3, -2, 0} for u = 4, 8.

    Each period line is asked about the walls of its window once, in
    frame 0, where W_t is P^j·W_i for t = 8j + i and j = -1, 0 or 1. Flat
    l = 4k + m + 1 counts those that are among the path's walls after
    translation by P^k."""
    P = gamma.period
    near = {
        8 * j + i: translate_wall(shift, w)
        for j, shift in ((-1, P.inverse()), (0, GroupElement.identity(gamma.graph)), (1, P))
        for i, w in enumerate(gamma.period_walls)
    }
    cuts = [
        [t for t in range(2 * m - 1, 2 * m + 5) if ln.is_cut_by(near[t])]
        for m, ln in enumerate(gamma.period_lines)
    ]
    return tuple(
        sum(0 <= 8 * (l // 4) + t < 2 * gamma.L for t in cuts[l % 4]) for l in range(gamma.L)
    )


# --- periodic orbit membership ------------------------------------------------


def translate_wall(g: GroupElement, h: Wall) -> Wall:
    """Image of h under left translation by g (canonicalized by Wall)."""
    return Wall(g * h.base, h.gen)


def _exponent_sums(x: GroupElement) -> list[int]:
    sums = [0] * len(x.graph.generators)
    for g, e in x.syllables:
        sums[g] += e
    return sums


def _crossed_by_sums(
    gamma: GammaPath, g: int, sums: list[int], k: int, wall: Callable[[], Wall]
) -> bool:
    """Whether gamma, seen from frame k, crosses the g-wall wall(), whose
    base has the exponent sums `sums` off lk(g).

    Frame k crosses the walls W_(8j+i) = P^j·W_i with j >= -k. Each x-sum
    eps_x is a homomorphism onto Z, constant for x off lk g on a coset
    b<lk g>, whose g-edges are those of Wall(b, g); so if the wall is
    P^j·W_i, then eps_x(base) = j·eps_x(P) + eps_x(G(i)) for each such x,
    g among them. Every letter of P is positive, so eps_g(P) >= 1 and
    eps_g fixes j. Only a W_i whose j is a whole number at least -k, with
    the other sums agreeing, is translated and compared with wall(), which
    is called only then; a wall the sums rule out costs no power of P."""
    per, off_link, steps = gamma._sum_test[g]
    for at, w in steps:
        j, r = divmod(sums[g] - at[g], per[g])
        if not r and j >= -k and all(sums[x] == j * per[x] + at[x] for x in off_link):
            if translate_wall(gamma.period ** j, w) == wall():
                return True
    return False


def gamma_crosses(gamma: GammaPath, h: Wall, k: int = 0) -> bool:
    """Whether the infinite periodic extension of gamma, seen from frame k,
    crosses h: whether gamma crosses P^k·h. No translate is kept, so no
    answer depends on earlier queries."""
    if h.graph is not gamma.graph and h.graph != gamma.graph:
        raise MixedGraphs("wall belongs to a different group")
    return _crossed_by_sums(gamma, h.gen, _exponent_sums(h.base), k, lambda: h)


# --- the flat-hopping quasi-geodesic ------------------------------------------


_BETA_CASES = (3, 2, 3, 1)  # by (l-1) % 4


class BetaSegment(_Record):
    """One flat's worth of the construction: a long escape run p and a
    short connector run q. Where it starts is not stored: it is where the
    segments before it end, and its vertices are those of BetaReport.path."""

    index: int
    case: int
    M: int
    N: int
    p_gen: int
    p_sign: int
    q_gen: int
    q_sign: int

    @property
    def length(self) -> int:
        return self.N + self.M


class BetaReport(_Record):
    """The escape path, recorded once as its segments' runs: the run path
    and the family sequence are read off them."""

    delta: int
    L: int
    gamma: GammaPath
    segments: tuple[BetaSegment, ...]

    @cached_property
    def path(self) -> RunPath:
        return RunPath(GroupElement.identity(self.gamma.graph), tuple(
            run
            for s in self.segments
            for run in ((s.p_gen, s.p_sign * s.N), (s.q_gen, s.q_sign * s.M))
        ))

    @property
    def family_sequence(self) -> str:
        names = self.gamma.graph.generators
        return "".join(names[s.p_gen].upper() + names[s.q_gen].upper() for s in self.segments)

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.segments)


def build_beta(delta: int, L: int) -> BetaReport:
    """Build the inductive flat-by-flat escape path against gamma, the
    build_gamma(L) it builds first.

    In flat l the path runs N_l steps along a fresh wall direction (p_l),
    parallel to the flat's exit line, then M_l connector steps along the
    flat's other direction (q_l) onto that line, where M_l is the
    exact coset distance from the previous endpoint to that line and
    N_l = max(delta + 3, 5*M_l, twice the length built so far). Case 3
    picks the escape direction whose first wall gamma never crosses;
    cases 1 and 2 keep to gamma's side of the sandwiching walls and cross
    the same connector wall as gamma does in that flat.

    Every choice and check of flat l = 4k + m + 1 runs in its period
    frame, translated by P^-k, where gamma's exit line, entry vertex and
    connector wall are the stored period_lines[m], period_vertices[2m] and
    period_walls[2m + 1]. The previous endpoint x is carried in that frame,
    with one quotient by P at each frame change, so it stays a word of a
    few syllables; the previous segment's start is kept beside it for the
    seam check. The segments store only their runs. The run path they
    spell from 1 is global, and its endpoint must be P^k·x for the last
    flat's k, which ties the frame-carried points to it. Each proof
    obligation raises CertificateViolation when it fails, under python -O
    too."""
    if delta <= 3:
        raise ConfigError("need delta > 3")
    gamma = build_gamma(L)

    segments: list[BetaSegment] = []
    x = GroupElement.identity(gamma.graph)  # the current point, in flat l's frame
    start = None  # the previous segment's start, in the frame of flat l - 1
    total = 0
    for l in range(1, L + 1):
        k, m = divmod(l - 1, 4)
        if m == 0 and k:
            x = quotient(gamma.period, x)
        case = _BETA_CASES[m]
        line_l = gamma.period_lines[m]
        p_gen = line_l.gen
        (q_gen,) = set(gamma.period_flats[m].gens) - {p_gen}

        M = line_l.distance_to(x)
        if M < 1:
            raise CertificateViolation(f"flat {l}: previous endpoint already on the exit line")
        N = max(delta + 3, 5 * M, 2 * total)

        if case == 3:
            candidates = {s: wall_of_edge(x, Letter(p_gen, s)) for s in (1, -1)}
            kept = [s for s, h in candidates.items() if not gamma_crosses(gamma, h, k)]
        else:
            # gamma's entry vertex w lies on x's side of the wall of x's
            # p-edge in direction s iff s·e <= 0, where p^e is the gate of
            # x⁻¹·w on the line ⟨p⟩ (line_gate_exponent)
            e = line_gate_exponent(quotient(x, gamma.period_vertices[2 * m]), p_gen)
            kept = [s for s in (1, -1) if s * e <= 0]
        if len(kept) != 1:
            raise CertificateViolation(f"escape direction ambiguous in flat {l}")
        p_sign = kept[0]
        mid_x = x.append_run(p_gen, p_sign * N)

        if case == 3:
            q_kept = [
                s
                for s in (1, -1)
                if line_l.distance_to(mid_x.append_run(q_gen, s)) == M - 1
            ]
        else:
            if M != 1:
                raise CertificateViolation(f"flat {l}: connector case needs M = 1, got {M}")
            shared = gamma.period_walls[2 * m + 1]
            q_kept = [
                s for s in (1, -1) if wall_of_edge(mid_x, Letter(q_gen, s)) == shared
            ]
        if len(q_kept) != 1:
            raise CertificateViolation(f"connector direction ambiguous in flat {l}")
        q_sign = q_kept[0]
        end_x = mid_x.append_run(q_gen, q_sign * M)
        if not line_l.contains(end_x):
            raise CertificateViolation(f"segment {l} endpoint missed the exit line")

        # locally geodesic seams: p*q*p from the previous segment start
        if segments:
            prev = segments[-1]
            start_x = start if m else quotient(gamma.period, start)
            if distance(start_x, mid_x) != prev.N + prev.M + N:
                raise CertificateViolation(f"seam before segment {l} is not geodesic")

        if Fraction(N, 2) - M < Fraction(N, 4) + Fraction(M, 8):
            raise CertificateViolation(f"segment {l} breaks the growth inequality")

        segments.append(BetaSegment(l, case, M, N, p_gen, p_sign, q_gen, q_sign))
        total += N + M
        start, x = x, end_x

    rep = BetaReport(delta, L, gamma, tuple(segments))
    if rep.path.endpoint() != gamma.period ** ((L - 1) // 4) * x:
        raise CertificateViolation("run path does not follow the segments")
    return rep


# --- separation certificates ---------------------------------------------------


class SegmentCertificate(_Record):
    index: int
    p_wall_count: int
    q_wall_count: int

    @property
    def separation(self) -> int:
        return min(self.p_wall_count, self.q_wall_count)


class SeparationReport(_Record):
    delta: int
    segments: tuple[SegmentCertificate, ...]
    ok: bool

    @property
    def min_separation(self) -> int:
        """A lower bound on the distance to gamma, at most delta + 1: see
        verify_separation."""
        return min(c.separation for c in self.segments)


def _step_wall(start: GroupElement, g: int, s: int, k: int) -> Wall:
    """The wall of the k-th step along g^s from start."""
    return wall_of_edge(start.append_run(g, s * k), Letter(g, s))


def _uncrossed_steps(
    gamma: GammaPath, frame: int, start: GroupElement, g: int, s: int, steps: int, want: int
) -> list[int]:
    """The first `want` of the first `steps` steps k along g^s from start
    whose walls gamma, seen from the given frame, does not cross, tested
    by exponent sums (see verify_separation)."""
    out: list[int] = []
    sums = _exponent_sums(start)
    first = sums[g] - (s < 0)
    for k in range(steps):
        sums[g] = first + s * k
        if not _crossed_by_sums(gamma, g, sums, frame, lambda: _step_wall(start, g, s, k)):
            out.append(k)
            if len(out) >= want:
                break
    return out


def verify_separation(beta: BetaReport, delta: Optional[int] = None) -> SeparationReport:
    """Certify that every vertex of segment l >= 2 keeps distance >= delta
    from every vertex of the periodic gamma.

    Each certificate is a list of walls crossed by neither gamma nor the
    covered piece of the segment, with the piece and gamma on opposite
    sides; each separates every covered vertex from all of gamma, so the
    list size bounds the distance from below. The escape run is covered
    by walls cutting the entry line between the segment start and gamma,
    the connector run by the escape run's own walls. A run in one
    direction changes sides only across walls in that direction, so side
    checks at its ends certify it whole. The walks stop at delta + 3 and
    delta + 1 walls, so min_separation is capped at delta + 1; delta < 0
    is refused. gamma's side of a wall is read at its entry vertex of
    flat l: a wall gamma does not cross has all of gamma on one side.

    The walks run in the period frame of flat l, translated by P^-n for
    4n < l <= 4n + 4; sides, cosets and crossings are invariant under
    left translation. There gamma's entry vertex and the exit line of
    flat l - 1 are the period's, and the segment start, formed from the
    segments' runs with one quotient by P at a frame change, is a word of
    a few syllables whose P^n-translate is the vertex of BetaReport.path.

    A walk tests the wall of its k-th step along g^s without building it.
    That wall is Wall(start·g^(s·k - [s < 0]), g), as wall_of_edge steps
    back one g when s < 0, and Wall strips only lk(g) syllables, so off
    lk(g) its base has start's exponent sums, the g-sum raised by
    s·k - [s < 0]: all that _crossed_by_sums reads, in frame n. A wall is
    built only where they admit a period translate, to compare it
    exactly, or for a message.

    The side checks run in the segment's frame, translated by start^-1:
    the start becomes 1, the end of the escape run p^N, the segment's end
    p^N q^M, gamma's entry vertex w one syllable lg^-m, and the k-th wall
    along g^s the wall W_k of the edge g^(s*k) to g^(s*(k+1)). x is beyond
    W_k iff s*e > k, g^e being x's gate on <g>, so one strip per point and
    line decides each side check (line_gate_exponent)."""
    if len(beta.segments) < 2:
        raise ConfigError(
            "separation is certified from segment 2 on, so it needs at least "
            f"2 flats, got {len(beta.segments)}"
        )
    delta = beta.delta if delta is None else delta
    if delta < 0:
        raise ConfigError(f"need delta >= 0, got {delta}")
    gamma = beta.gamma
    one = GroupElement.identity(gamma.graph)
    ok = True
    certs: list[SegmentCertificate] = []
    start = one  # where segment l starts, in the period frame of flat l
    for l, seg in enumerate(beta.segments, 1):
        frame, m = divmod(l - 1, 4)
        if l > 1:  # the previous segment's end, moved to this frame
            start = start * end if m else quotient(gamma.period, start * end)
        mid = one.append_run(seg.p_gen, seg.p_sign * seg.N)
        end = mid.append_run(seg.q_gen, seg.q_sign * seg.M)
        if l == 1:
            continue
        # the exit line of flat l - 1 runs through flat l's entry vertex
        entry = gamma.period_vertices[2 * m]
        line_prev = Line(entry, gamma.period_lines[m - 1].gen)
        lg = line_prev.gen
        if not line_prev.contains(start):
            raise CertificateViolation(
                f"segment {l} does not start on the exit line of flat {l - 1}"
            )
        w = quotient(start, entry)
        budget = w.length
        toward = 1 if distance(one.append_run(lg, 1), w) < budget else -1

        # each walk's run goes from gate exponent a to b along g^s, and
        # gamma's entry vertex w has gate exponent gw; the escape run starts
        # at 1, whose gate exponent is 0
        mid_l, w_l = (toward * line_gate_exponent(x, lg) for x in (mid, w))
        mid_p, end_p, w_p = (
            seg.p_sign * line_gate_exponent(x, seg.p_gen) for x in (mid, end, w)
        )
        found = []
        for run, g, s, steps, want, a, b, gw in (
            ("escape", lg, toward, budget, delta + 3, 0, mid_l, w_l),
            ("connector", seg.p_gen, seg.p_sign, seg.N, delta + 1, mid_p, end_p, w_p),
        ):
            H = _uncrossed_steps(gamma, frame, start, g, s, steps, want)
            for k in H:
                crossed = (a > k) != (b > k)
                if crossed or (gw > k) == (a > k):  # name the wall by its global image
                    h = f"P^{frame}·{_step_wall(start, g, s, k)}"
                    raise CertificateViolation(
                        f"segment {l}: {run} run crosses {h}" if crossed
                        else f"segment {l}: {h} does not separate the {run} run"
                    )
            found.append(len(H))

        cert = SegmentCertificate(l, *found)
        certs.append(cert)
        ok = ok and cert.separation >= delta
    return SeparationReport(delta, tuple(certs), ok)


# --- quasi-geodesic certification ----------------------------------------------


def certify_quasigeodesic(path: RunPath, K, C) -> QuasiGeodesicReport:
    """Exact check of the paper's lower bound d(s,t) >= (t-s)/K - C over
    all vertex pairs s <= t of the path.

    Multiplied by K it is the engine's form K*d(s,t) + K*C >= t-s, so this
    is certify_quasigeodesic_runs at (K, K*C) with C restored and the
    margin divided by K: min_margin is the exact minimum of
    d - ((t-s)/K - C), a Fraction, and witness attains it. The upper bound
    d <= t-s holds for every unit-speed edge path."""
    K, C = Fraction(K), Fraction(C)
    rep = certify_quasigeodesic_runs(path, K, K * C)
    return QuasiGeodesicReport(
        rep.certified, rep.K, C, Fraction(rep.min_margin) / K, rep.witness, rep.evaluations
    )


# --- contraction checking -------------------------------------------------------


class ContractionReport(_Record):
    passed: bool
    radius: int
    rho_text: str
    pairs_tested: int
    exhaustive: bool
    annulus_diam: tuple[tuple[int, int], ...]
    witness: Optional[tuple[str, str, int, int]]


def _near_vertices(S, R: int) -> list[GroupElement]:
    """The vertices of S within R of its first vertex, that one first. On a
    RunPath, t -> d(S(0), S(t)) is read off set_distance_knots, linear
    between knots, so only the t within R are visited."""
    if not isinstance(S, RunPath):
        S = list(S)
        return S[:1] + [s for s in S[1:] if distance(S[0], s) <= R]
    knots = set_distance_knots(S, RunPath(S.origin, ()))
    ts = {0}
    for (t1, d1), (t2, d2) in zip(knots, knots[1:]):
        if min(d1, d2) <= R:
            ts.update(range(t1 + max(d1 - R, 0), t2 - max(d2 - R, 0) + 1))
    return [S.vertex_at(t) for t in sorted(ts)]


def _bfs_depths(nbrs: list[list[int]], x: int, depth: int) -> dict[int, int]:
    """{vertex: BFS depth from x} over the adjacency nbrs, for the
    vertices at depth at most `depth`."""
    seen = {x: 0}
    frontier = [x]
    for d in range(1, depth + 1):
        nxt = []
        for v in frontier:
            for w in nbrs[v]:
                if w not in seen:
                    seen[w] = d
                    nxt.append(w)
        frontier = nxt
    return seen


def check_contracting(
    S,
    rho: RhoLike,
    radius: int,
    cap: int = DEFAULT_BALL_CAP,
) -> ContractionReport:
    """Exhaust the contraction inequality on a ball around the path start.

    For points x, y off S with d(x,y) < d(S,y), the projection set of x
    united with that of y must have diameter at most rho(d(S,y)).
    Projections are exact argmin sets over S, and every ordered pair of
    ball vertices off S that passes the gate is tested.

    Only S within 2r of its first vertex s0, the centre of the ball of
    radius r, is read: a ball vertex v has d(v, s0) <= r, so an s with
    d(s0, s) > 2r has d(v, s) > r >= d(v, s0) and is in no projection,
    not even by a tie.

    Distances inside the ball are BFS depths over the ball's own edges,
    which one search finds with the ball: the Cayley graph is bipartite,
    so each edge joins consecutive spheres and is met from its inner end.
    The Cayley graph is the 1-skeleton of a CAT(0) cube complex, a median
    graph, so the median m of (s0, x, y) lies on a geodesic from x to y.
    Every vertex on a geodesic from x to s0 lies within d(s0, x) <= r of
    s0, and m is on one, so a geodesic from x to m stays in the ball;
    likewise from y. So x -> m -> y is a geodesic inside the ball, and d
    from each s of S inside the ball is its search to depth 2r; an s
    outside takes one product per ball vertex. A partner y has
    d(x,y) < d(S,y) <= top, top the largest d(S, .) off S, so x's search
    stops at depth top - 1. Each x takes its partners in ball order, so
    pairs are tested, and the witness found, in the order of the
    all-pairs loop over the ball."""
    rho = as_gauge(rho)
    sverts = list(dict.fromkeys(_near_vertices(S, 2 * radius)))
    if not sverts:
        raise ConfigError("empty set cannot be tested")
    B, nbrs = _ball_graph(sverts[0], radius, cap)
    place = {v: k for k, v in enumerate(B)}
    inverses = None
    rows = []  # d(v, s) for each s of S, over the ball vertices v
    for s1 in sverts:
        if s1 in place:
            depths = _bfs_depths(nbrs, place[s1], 2 * radius)
            rows.append([depths[k] for k in range(len(B))])
        else:
            inverses = inverses or [v.inverse() for v in B]
            rows.append([(v_inv * s1).length for v_inv in inverses])
    dist_to_s: list[int] = []
    proj: list[tuple[int, ...]] = []
    for ds in zip(*rows):
        m = min(ds)
        dist_to_s.append(m)
        proj.append(tuple(i for i, dv in enumerate(ds) if dv == m))

    # memoised for the call: few distinct pairs recur over many tested pairs
    sdist = lru_cache(maxsize=None)(lambda i, j: distance(sverts[i], sverts[j]))
    below = lru_cache(maxsize=None)(lambda dy, diam: rho.cmp_at(dy, diam) < 0)
    annulus: dict[int, int] = {}
    witness = None
    passed = True
    tested = 0
    outside = [k for k in range(len(B)) if dist_to_s[k] > 0]
    top = max((dist_to_s[k] for k in outside), default=1)
    for x in outside:
        # the search passes through S, whose vertices have d(S, .) = 0 and
        # are never partners
        depths = _bfs_depths(nbrs, x, top - 1)
        for y in sorted(y for y, d in depths.items() if 0 < d < dist_to_s[y]):
            dy = dist_to_s[y]
            tested += 1
            union = set(proj[x]) | set(proj[y])
            diam = max((sdist(i, j) for i in union for j in union if i < j), default=0)
            if diam > annulus.get(dy, -1):
                annulus[dy] = diam
            if passed and below(dy, diam):
                passed = False
                witness = (B[x].text(), B[y].text(), diam, dy)

    return ContractionReport(
        passed, radius, rho.text(), tested, True, tuple(sorted(annulus.items())), witness
    )


# --- divergence dichotomy -------------------------------------------------------


class DichotomyReport(_Record):
    case: int
    kappa_value: Fraction
    kappa_prime_value: Fraction
    T0: int
    max_distance: int
    bound_ok: bool
    residual_min: Optional[Fraction]
    beta_steps: int
    z_steps: int


def runpath_prefix(path: RunPath, steps: int) -> RunPath:
    """The first `steps` edges of path as their own path."""
    steps = min(steps, path.length)
    if steps <= 0:
        raise ConfigError("prefix needs at least one step")
    i, off = path._locate(steps)
    runs = path.runs[:i]
    if off:  # the cut falls inside run i
        g, e = path.runs[i]
        runs += ((g, off if e > 0 else -off),)
    return RunPath(path.origin, runs)


def check_divergence_dichotomy(
    Z: RunPath,
    beta: RunPath,
    rho: RhoLike,
    K_prime,
    C_prime,
) -> DichotomyReport:
    """Classify a path near a contracting set: trapped or escaping linearly.

    Case (1): the path stays inside the kappa-prime neighbourhood of Z and
    its last return to the kappa neighbourhood is at the final step. Case
    (2): after the last return time T0 the distance to Z must satisfy
    d >= (t - T0)/(2K') - 2(C' + kappa) pointwise; residual_min is the
    exact minimum slack of that bound.

    The distance t -> d(beta_t, Z) is exact and run-scale: it is linear on
    the integers between the knots of set_distance_knots, so T0, the
    maximum and residual_min are read off the knots, the run ends and
    T0 + 1."""
    rho = as_gauge(rho)
    Kp, Cp = Fraction(K_prime), Fraction(C_prime)
    kap = kappa(rho, Kp, Cp)
    kap2 = _kappa_prime(kap, Kp, Cp)

    knots = set_distance_knots(beta, Z)
    if knots[0][1] > kap:
        raise PreconditionFailed(
            f"path starts at distance {knots[0][1]} > kappa = {kap} from Z"
        )
    end = beta.length
    max_d = max(d for _, d in knots)
    k = max(n for n, (_, d) in enumerate(knots) if d <= kap)
    t, d = knots[k]
    # past the last knot within kappa the distance climbs at slope +1, so
    # it leaves the kappa neighbourhood before the next knot
    T0 = t if t == end else t + math.floor(kap - d)
    if max_d <= kap2 and T0 == end:
        return DichotomyReport(1, kap, kap2, T0, max_d, True, None, beta.length, Z.length)
    residual_min: Optional[Fraction] = None
    if T0 < end:
        # with K' = num/den the slack is (2*num*dt - den*(t - T0)) / (2*num)
        # + 2(C' + kappa), least where the integer numerator is least
        num, den = Kp.numerator, Kp.denominator
        candidates = [(T0 + 1, d + T0 + 1 - t)] + [kn for kn in knots[k + 1:] if kn[0] > T0 + 1]
        least = min(2 * num * dt - den * (t - T0) for t, dt in candidates)
        residual_min = Fraction(least, 2 * num) + 2 * (Cp + kap)
    bound_ok = residual_min is None or residual_min >= 0
    return DichotomyReport(2, kap, kap2, T0, max_d, bound_ok, residual_min, beta.length, Z.length)
