"""Explicit geometry on top of the wall engine.

Sublinear gauges with exact escape thresholds, the path group on four
generators with its periodic diagonal geodesic and the flat-hopping
quasi-geodesic built against it, wall-counting separation certificates,
a brute-force contraction checker, the divergence dichotomy for paths
near a contracting set, and a glued labeled graph used for basepoint
sensitivity and small cancellation experiments.
"""

from __future__ import annotations

import decimal
import math
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .boundary import BoundaryRay, fellow_travel_radius
from .raag import (
    CertificateViolation,
    DefiningGraph,
    GroupElement,
    Letter,
    LetterSeq,
    Word,
    _runs_to_text,
    _strip_right,
    distance,
    normal_form,
    parse_word,
)
from .runpaths import (
    RunPath,
    certify_quasigeodesic_runs,
    set_distance_knots,
)
from .walls import (
    DEFAULT_BALL_CAP,
    Wall,
    ball,
    coset_gate_and_distance,
    side,
    wall_of_edge,
)


class ConfigError(ValueError):
    """A builder was asked for parameters outside its domain."""


class PreconditionFailed(ValueError):
    """Input data violates a stated precondition of the construction."""


# --- sublinear gauges ---------------------------------------------------------


RhoLike = Union["SublinearFn", int, Fraction, str]


@dataclass(frozen=True)
class SublinearFn:
    """A non-decreasing sublinear gauge r -> rho(r) with exact comparisons.

    Three kinds: "constant" is rho = a, "power" is rho = a * r**alpha with
    0 <= alpha < 1, and "log" is rho = a * log(1 + r). Comparisons against
    rationals are decided in exact rational arithmetic for the first two
    kinds. The log kind escalates working precision until the sign is
    certain; a rational target never ties a*log(1+r) at r > 0, so this
    terminates.
    """

    kind: str
    a: Fraction
    alpha: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "power", "log"):
            raise ConfigError(f"unknown gauge kind: {self.kind!r}")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.a < 0:
            raise ConfigError("gauge scale must be nonnegative")
        if self.kind == "power":
            if not 0 <= self.alpha < 1:
                raise ConfigError("power exponent must satisfy 0 <= alpha < 1")
        elif self.alpha != 0:
            raise ConfigError("alpha only applies to the power kind")

    @classmethod
    def constant(cls, c) -> "SublinearFn":
        return cls("constant", Fraction(c))

    @classmethod
    def power(cls, a, alpha) -> "SublinearFn":
        return cls("power", Fraction(a), Fraction(alpha))

    @classmethod
    def log(cls, a) -> "SublinearFn":
        return cls("log", Fraction(a))

    @classmethod
    def from_text(cls, text: str) -> "SublinearFn":
        """Parse "const 3", "power 2 1/2", "log 3"; a bare number is a
        constant."""
        parts = text.replace(":", " ").split()
        if not parts:
            raise ConfigError("empty gauge spec")
        head = parts[0].lower()
        try:
            if head in ("const", "constant"):
                (val,) = parts[1:]
                return cls.constant(Fraction(val))
            if head == "power":
                a, alpha = parts[1:]
                return cls.power(Fraction(a), Fraction(alpha))
            if head == "log":
                (a,) = parts[1:]
                return cls.log(Fraction(a))
            (val,) = parts
            return cls.constant(Fraction(val))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad gauge spec {text!r}: {exc}") from None

    def text(self) -> str:
        if self.kind == "constant":
            return f"const {self.a}"
        if self.kind == "power":
            return f"power {self.a} {self.alpha}"
        return f"log {self.a}"

    def cmp_at(self, r, m) -> int:
        """Sign of rho(r) - m, exact. r must be >= 0."""
        r = Fraction(r)
        m = Fraction(m)
        if r < 0:
            raise ValueError("gauge argument must be nonnegative")
        if self.kind == "constant" or (self.kind == "power" and self.alpha == 0):
            return _sign(self.a - m)
        if self.kind == "power":
            if r == 0 or self.a == 0:
                return _sign(-m)
            if m < 0:
                return 1
            p, q = self.alpha.numerator, self.alpha.denominator
            # a*r^(p/q) vs m, both nonnegative: compare q-th powers
            return _sign(self.a**q * r**p - m**q)
        # log kind
        if self.a == 0 or r == 0:
            return _sign(-m)
        if m <= 0:
            return 1
        return _log_cmp(r, m / self.a)

    def threshold(self, slope) -> Fraction:
        """Least R with rho(r) <= slope*r for all r >= R, reported as a
        certified upper bound within 2**-32 of the true value (exact for
        the constant kind, for thresholds that are exact rational roots,
        and for the slope-dominated log case)."""
        slope = Fraction(slope)
        if slope <= 0:
            raise ConfigError("threshold needs a positive slope")
        if self.kind == "constant" or (self.kind == "power" and self.alpha == 0):
            return self.a / slope
        if self.a == 0:
            return Fraction(0)
        if self.kind == "power":
            p, q = self.alpha.numerator, self.alpha.denominator
            # slope*R = a*R^alpha  <=>  R^(q-p) = (a/slope)^q
            target = (self.a / slope) ** q
            root = _nth_root_fraction(target, q - p)
            if root is not None:
                return root

            def holds(R: Fraction) -> bool:
                return self.a**q * R**p <= slope**q * R**q

            hi = Fraction(1)
            while not holds(hi):
                hi *= 2
            lo = Fraction(0)
            return _bisect_up(holds, lo, hi)
        # log kind: slope*r - a*log(1+r) is increasing past a/slope - 1
        if slope >= self.a:
            return Fraction(0)

        def holds_log(R: Fraction) -> bool:
            return _log_cmp(R, slope * R / self.a) <= 0

        lo = self.a / slope - 1
        hi = max(2 * lo, Fraction(1))
        while not holds_log(hi):
            hi *= 2
        return _bisect_up(holds_log, lo, hi)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _log_cmp(r: Fraction, target: Fraction) -> int:
    """Sign of log(1+r) - target for r > 0 and rational target.

    log(1+r) is irrational for rational r > 0, so the difference is never
    zero and precision escalation terminates. At p digits the five
    correctly rounded steps below each err by at most half a unit in the
    last place of a value no larger than the largest operand, so the sign
    is certain once |diff| exceeds 10**(adjusted + 3 - p)."""
    prec = 30
    while prec <= 4000:
        ctx = decimal.Context(prec=prec)
        hi = ctx.ln(r.numerator + r.denominator)
        lo = ctx.ln(r.denominator)
        t = ctx.divide(target.numerator, target.denominator)
        diff = ctx.subtract(ctx.subtract(hi, lo), t)
        adjusted = max(hi.adjusted(), lo.adjusted(), t.adjusted())
        if abs(diff) > decimal.Decimal(10) ** (adjusted + 3 - prec):
            return 1 if diff > 0 else -1
        prec *= 2
    raise ArithmeticError("log comparison did not resolve")


def _nth_root_fraction(x: Fraction, n: int) -> Optional[Fraction]:
    """Exact n-th root of a nonnegative rational, or None."""
    if n <= 0:
        raise ValueError("root order must be positive")
    if x < 0:
        return None
    num = _iroot_exact(x.numerator, n)
    den = _iroot_exact(x.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _iroot_exact(v: int, n: int) -> Optional[int]:
    if v in (0, 1):
        return v
    lo, hi = 0, 1
    while hi**n < v:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < v:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == v else None


def _bisect_up(holds: Callable[[Fraction], bool], lo: Fraction, hi: Fraction) -> Fraction:
    """Shrink [lo, hi] with holds(hi) true and the predicate upward-closed
    on the bracket; returns hi as a certified bound."""
    eps = Fraction(1, 2**32)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def as_gauge(rho: RhoLike) -> SublinearFn:
    if isinstance(rho, SublinearFn):
        return rho
    if isinstance(rho, str):
        return SublinearFn.from_text(rho)
    return SublinearFn.constant(rho)


def kappa(rho: RhoLike, K, C) -> Fraction:
    """max(3K^2, 3C, 1 + the threshold past which rho(r) <= 3K^2 * r)."""
    rho = as_gauge(rho)
    K = Fraction(K)
    C = Fraction(C)
    if K < 1 or C < 0:
        raise ConfigError("need K >= 1 and C >= 0")
    slope = 3 * K * K
    return max(slope, 3 * C, 1 + rho.threshold(slope))


def kappa_prime(rho: RhoLike, K, C) -> Fraction:
    """(K^2 + 2) * (2*kappa + C), the neighbourhood radius of case (1)."""
    K = Fraction(K)
    C = Fraction(C)
    return (K * K + 2) * (2 * kappa(rho, K, C) + C)


# --- the four-generator path group --------------------------------------------


_CK_DATA = {
    "generators": ["a", "b", "c", "d"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
}

@dataclass(frozen=True)
class CrokeKleiner:
    """The RAAG on the path a-b-c-d with wall families named by generator."""

    graph: DefiningGraph

    def gen(self, name: str) -> int:
        return self.graph.gen_index(name)

    @property
    def origin(self) -> GroupElement:
        return GroupElement.identity(self.graph)

    def family(self, h: Wall) -> str:
        """A/B/C/D, by the wall's generator."""
        return h.gen_name().upper()

    def parse(self, text: str) -> GroupElement:
        return normal_form(parse_word(text, self.graph))


def build_croke_kleiner() -> CrokeKleiner:
    return CrokeKleiner(DefiningGraph.from_data(_CK_DATA))


@dataclass(frozen=True)
class _Coset:
    """Coset base * <gens>, with the stored base normalized to the coset's
    minimal representative, so two handles for the same coset compare and
    hash equal. That representative is the coset's gate at the identity;
    one right strip of the canonical base finds it. Subclasses validate
    their generators, then call this __post_init__."""

    base: GroupElement

    def __post_init__(self) -> None:
        kept, _ = _strip_right(self.graph, self.base.syllables, self.mask)
        object.__setattr__(self, "base", GroupElement(self.graph, kept))

    @property
    def _gens(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def graph(self) -> DefiningGraph:
        return self.base.graph

    @property
    def mask(self) -> int:
        return self.graph.mask_of(self._gens)

    def distance_to(self, x: GroupElement) -> int:
        return coset_gate_and_distance(self.base, self.mask, x)[1]

    def contains(self, x: GroupElement) -> bool:
        return self.distance_to(x) == 0

    def is_cut_by(self, h: Wall) -> bool:
        """Whether h separates two vertices of this coset.

        Only walls in one of the coset's directions can. Such a wall meets
        a flat in a full line, constant in the commuting coordinate, so one
        long test line in the wall's own direction decides it."""
        if h.gen not in self._gens:
            return False
        T = h.base.length + self.base.length + 2
        lo = self.base.append_run(h.gen, -T)
        hi = self.base.append_run(h.gen, T)
        return side(h, lo) != side(h, hi)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

# step letters, flat span, and exit-line direction per flat index mod 4
_GAMMA_STEPS = (("b", "c"), ("c", "d"), ("c", "b"), ("b", "a"))
_GAMMA_FLATS = (("b", "c"), ("c", "d"), ("b", "c"), ("a", "b"))
_GAMMA_LINES = ("c", "c", "b", "b")

_GAMMA_PERIOD_LETTERS = ("b", "c", "c", "d", "c", "b", "b", "a")


@dataclass(frozen=True)
class GammaPath:
    """Two steps per flat, repeating b c | c d | c b | b a.

    Flat l and flat l+1 share the line lines[l-1], and the path crosses
    exactly its two designated walls inside each flat; three bounds the
    wall count of any flat it passes through."""

    ck: CrokeKleiner
    vertices: tuple[GroupElement, ...]
    letters: tuple[Letter, ...]
    walls: tuple[Wall, ...]
    flats: tuple[Flat, ...]
    lines: tuple[Line, ...]
    period: GroupElement
    period_walls: tuple[Wall, ...]

    @property
    def L(self) -> int:
        return len(self.flats)

    def runpath(self) -> RunPath:
        runs = tuple((lt.gen, lt.sign) for lt in self.letters)
        return RunPath(self.ck.origin, runs)

    def families(self) -> str:
        return "".join(self.ck.family(h) for h in self.walls)

    def ray(self) -> BoundaryRay:
        return BoundaryRay.from_text(self.ck.graph, "|" + " ".join(_GAMMA_PERIOD_LETTERS))

    def piece_walls(self, l: int) -> tuple[Wall, Wall]:
        """The two walls crossed inside flat l (1-based)."""
        return self.walls[2 * (l - 1)], self.walls[2 * l - 1]

    def entry_vertex(self, l: int) -> GroupElement:
        return self.vertices[2 * (l - 1)]

    @cached_property
    def _orbit(self) -> "_PeriodOrbit":
        """The period translates of period_walls, grown on demand."""
        return _PeriodOrbit(self.period, self.period_walls)


def build_gamma(L: int, ck: Optional[CrokeKleiner] = None) -> GammaPath:
    """The periodic combinatorial geodesic through the flat cycle B, C, B, A."""
    if L < 1:
        raise ConfigError("need at least one flat")
    ck = ck or build_croke_kleiner()
    graph = ck.graph
    v = GroupElement.identity(graph)
    vertices = [v]
    letters: list[Letter] = []
    walls_: list[Wall] = []
    for l in range(L):
        for name in _GAMMA_STEPS[l % 4]:
            lt = Letter(graph.gen_index(name), 1)
            walls_.append(wall_of_edge(v, lt))
            letters.append(lt)
            v = v.append_letter(lt.gen, 1)
            vertices.append(v)
    assert vertices[-1].length == 2 * L, "path is not geodesic"
    assert len(set(walls_)) == 2 * L, "wall repeated"

    flats = tuple(
        Flat(
            vertices[2 * l],
            (graph.gen_index(_GAMMA_FLATS[l % 4][0]), graph.gen_index(_GAMMA_FLATS[l % 4][1])),
        )
        for l in range(L)
    )
    lines = tuple(
        Line(vertices[2 * l + 2], graph.gen_index(_GAMMA_LINES[l % 4])) for l in range(L)
    )

    period = GroupElement.identity(graph)
    period_walls: list[Wall] = []
    for name in _GAMMA_PERIOD_LETTERS:
        lt = Letter(graph.gen_index(name), 1)
        period_walls.append(wall_of_edge(period, lt))
        period = period.append_letter(lt.gen, 1)

    gp = GammaPath(
        ck,
        tuple(vertices),
        tuple(letters),
        tuple(walls_),
        flats,
        lines,
        period,
        tuple(period_walls),
    )
    for l in range(1, L + 1):
        assert _flat_layout_holds(gp, l), f"flat {l} is laid out wrongly"
    if L >= 4:
        assert gp.walls[:8] == gp.period_walls
    return gp


def _flat_layout_holds(gamma: GammaPath, l: int) -> bool:
    """Flat l is cut by its two piece walls and holds the path's two steps
    in it, and its exit line holds the second.

    Cuts and memberships are invariant under left translation, so they
    are tested on the translate by the flat's entry vertex^-1: the local
    flat, the local piece walls, the two local steps and the local exit
    line are short words, and only the translation itself reads the long
    ones."""
    u = gamma.entry_vertex(l).inverse()
    f = gamma.flats[l - 1]
    flat = Flat(u * f.base, f.gens)
    pw = tuple(translate_wall(u, h) for h in gamma.piece_walls(l))
    step1 = u * gamma.vertices[2 * l - 1]
    step2 = u * gamma.vertices[2 * l]
    ln = gamma.lines[l - 1]
    return (
        all(flat.is_cut_by(h) for h in pw)
        and len(pw) <= 3
        and flat.contains(step1)
        and flat.contains(step2)
        and Line(u * ln.base, ln.gen).contains(step2)
    )


def line_wall_count(gamma: GammaPath, l: int) -> int:
    """How many of the path's crossed walls cut the exit line of flat l."""
    ln = gamma.lines[l - 1]
    return sum(1 for h in gamma.walls if ln.is_cut_by(h))


def flat_wall_count(gamma: GammaPath, l: int) -> int:
    """How many of the path's crossed walls cut flat l."""
    f = gamma.flats[l - 1]
    return sum(1 for h in gamma.walls if f.is_cut_by(h))


# --- periodic orbit membership ------------------------------------------------


_ORBIT_RUN_BOUND = 4
_ORBIT_LENGTH_SLACK = 5


def translate_wall(g: GroupElement, h: Wall) -> Wall:
    """Image of h under left translation by g (canonicalized by Wall)."""
    return Wall(g * h.base, h.gen)


def _runs_bounded(h: Wall) -> bool:
    return all(abs(e) <= _ORBIT_RUN_BOUND for _, e in h.base.syllables)


class _PeriodOrbit:
    """The walls P^k·w for the period P and each period wall w, held for
    k < levels and grown one period at a time. Every translate is checked
    against the run bound and the growth bound as it enters the table."""

    def __init__(self, period: GroupElement, period_walls: tuple[Wall, ...]):
        self.period = period
        self.period_walls = period_walls
        self.walls: set[Wall] = set()
        self.levels = 0
        self._shift = GroupElement.identity(period.graph)

    def cover(self, length: int) -> None:
        """Grow the table until it holds every level k with
        8k - slack <= length."""
        while 8 * self.levels - _ORBIT_LENGTH_SLACK <= length:
            floor = 8 * self.levels - _ORBIT_LENGTH_SLACK
            for w in self.period_walls:
                t = translate_wall(self._shift, w)
                if not _runs_bounded(t):
                    raise CertificateViolation(f"translate {t} violates the run bound")
                if t.base.length < floor:
                    raise CertificateViolation(f"translate {t} violates the growth bound")
                self.walls.add(t)
            self.levels += 1
            self._shift = self._shift * self.period


def gamma_crosses(gamma: GammaPath, h: Wall) -> bool:
    """Whether the infinite periodic extension of gamma crosses h.

    The crossed set is exactly the period translates of the first eight
    walls. Canonical bases of those translates keep every run exponent at
    most 4 and gain eight letters per period up to a slack of 5. So a wall
    violating the run bound is not crossed, and translates at levels k
    with 8k - 5 > |h.base| are all longer than h. Membership is a lookup
    in gamma._orbit, the table of translates held once per GammaPath and
    grown up to that horizon; both bounds are checked on each translate
    when it enters the table, and a failure raises CertificateViolation.
    The answer does not depend on how far earlier queries grew it."""
    if h.graph is not gamma.ck.graph:
        raise ValueError("wall belongs to a different group")
    if not _runs_bounded(h):
        return False
    orbit = gamma._orbit
    orbit.cover(h.base.length)
    return h in orbit.walls


# --- the flat-hopping quasi-geodesic ------------------------------------------


_BETA_CASES = (3, 2, 3, 1)  # by (l-1) % 4
_BETA_P_GENS = ("c", "c", "b", "b")
_BETA_Q_GENS = ("b", "d", "c", "a")


@dataclass(frozen=True)
class BetaSegment:
    """One flat's worth of the construction: a long escape run p and a
    short connector run q."""

    index: int
    case: int
    mirrored: bool
    M: int
    N: int
    p_gen: int
    p_sign: int
    q_gen: int
    q_sign: int
    designated: Wall
    start: GroupElement
    mid: GroupElement
    end: GroupElement

    @property
    def length(self) -> int:
        return self.N + self.M


@dataclass(frozen=True)
class BetaReport:
    delta: int
    L: int
    gamma: GammaPath
    segments: tuple[BetaSegment, ...]
    path: RunPath
    family_sequence: str

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.segments)


def build_beta(
    delta: int,
    L: int,
    gamma: Optional[GammaPath] = None,
    ck: Optional[CrokeKleiner] = None,
) -> BetaReport:
    """Build the inductive flat-by-flat escape path against gamma.

    In flat l the path runs N_l steps along a fresh wall direction (p_l),
    then M_l connector steps onto the exit line (q_l), where M_l is the
    exact coset distance from the previous endpoint to that line and
    N_l = max(delta + 3, 5*M_l, twice the length built so far). Case 3
    picks the escape direction whose first wall gamma never crosses;
    cases 1 and 2 keep to gamma's side of the sandwiching walls and cross
    the same connector wall as gamma does in that flat."""
    if delta <= 3:
        raise ConfigError("need delta > 3")
    if L < 1:
        raise ConfigError("need at least one flat")
    if gamma is None:
        gamma = build_gamma(L, ck)
    if gamma.L < L:
        raise ConfigError("gamma must cover at least L flats")
    graph = gamma.ck.graph
    origin = gamma.ck.origin

    segments: list[BetaSegment] = []
    family_seq: list[str] = []
    runs: list[tuple[int, int]] = []
    v_prev = origin
    total = 0
    for l in range(1, L + 1):
        m = (l - 1) % 4
        case = _BETA_CASES[m]
        line_l = gamma.lines[l - 1]
        p_gen = graph.gen_index(_BETA_P_GENS[m])
        q_gen = graph.gen_index(_BETA_Q_GENS[m])
        w_prev = gamma.entry_vertex(l)

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
        designated = candidates[p_sign]
        mid = v_prev.append_run(p_gen, p_sign * N)

        if case == 3:
            q_kept = [
                s
                for s in (1, -1)
                if line_l.distance_to(mid.append_letter(q_gen, s)) == M - 1
            ]
        else:
            assert M == 1, "connector cases expect an adjacent exit line"
            shared = gamma.walls[2 * l - 1]
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
        if segments:
            prev = segments[-1]
            assert distance(prev.start, mid) == prev.N + prev.M + N

        assert Fraction(N, 2) - M >= Fraction(N, 4) + Fraction(M, 8)

        seg = BetaSegment(
            l, case, m == 2, M, N, p_gen, p_sign, q_gen, q_sign, designated, v_prev, mid, end
        )
        segments.append(seg)
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
    return BetaReport(delta, L, gamma, tuple(segments), path, fam)


# --- separation certificates ---------------------------------------------------


@dataclass(frozen=True)
class SegmentCertificate:
    index: int
    p_wall_count: int
    q_wall_count: int

    @property
    def separation(self) -> int:
        return min(self.p_wall_count, self.q_wall_count)


@dataclass(frozen=True)
class SeparationReport:
    delta: int
    segments: tuple[SegmentCertificate, ...]
    ok: bool

    @property
    def min_separation(self) -> int:
        return min(c.separation for c in self.segments)


def _uncrossed_steps(
    gamma: GammaPath, start: GroupElement, g: int, s: int, steps: int, want: int
) -> list[tuple[int, Wall]]:
    """(k, wall) for the first `want` of the first `steps` edges along g^s
    from start whose walls gamma does not cross; k counts the steps."""
    out: list[tuple[int, Wall]] = []
    x = start
    for k in range(steps):
        h = wall_of_edge(x, Letter(g, s))
        x = x.append_letter(g, s)
        if not gamma_crosses(gamma, h):
            out.append((k, h))
            if len(out) >= want:
                break
    return out


def verify_separation(beta: BetaReport, delta: Optional[int] = None) -> SeparationReport:
    """Certify that every vertex of segment l >= 2 keeps distance >= delta
    from every vertex of the periodic gamma.

    Each certificate is a list of walls crossed by neither gamma nor the
    covered piece of the segment, with the piece and gamma's basepoint on
    opposite sides. Every such wall separates each covered vertex from all
    of gamma, so the list size bounds the distance from below. The escape
    run is covered by walls cutting the entry line between the segment
    start and gamma; the connector run by the escape run's own walls.
    Single-direction runs change sides only across walls in their own
    direction, so the endpoint side checks certify whole runs.

    The side checks run in the segment's frame. Which side of a wall a
    vertex lies on is invariant under left translation, so each segment
    is translated by its start^-1: the start becomes 1, the end of the
    escape run p^N and the segment's end p^N q^M, and the k-th wall
    along a direction g^s from the start becomes the wall of the edge
    from g^(s*k). Only gamma's basepoint becomes a long word, one inverse
    per segment. gamma_crosses reads gamma's global orbit table, so it
    takes the walls in place."""
    if len(beta.segments) < 2:
        raise ConfigError(
            "separation is certified from segment 2 on, so it needs at least "
            f"2 flats, got {len(beta.segments)}"
        )
    delta = beta.delta if delta is None else delta
    gamma = beta.gamma
    one = gamma.ck.origin
    # the frames share their short walls, so each is built once per call
    local_walls: dict[tuple[int, int, int], Wall] = {}

    def local_wall(g: int, s: int, k: int) -> Wall:
        h = local_walls.get((g, s, k))
        if h is None:
            h = local_walls[g, s, k] = wall_of_edge(one.append_run(g, s * k), Letter(g, s))
        return h

    ok = True
    certs: list[SegmentCertificate] = []
    for seg in beta.segments[1:]:
        l = seg.index
        o = seg.start.inverse()  # gamma's basepoint, in the segment's frame
        line_prev = gamma.lines[l - 2]
        lg = line_prev.gen
        assert Line(o * line_prev.base, lg).contains(one)
        w_prev = o * gamma.entry_vertex(l)
        budget = w_prev.length
        toward = 1 if distance(one.append_letter(lg, 1), w_prev) < budget else -1
        mid = one.append_run(seg.p_gen, seg.p_sign * seg.N)
        end = mid.append_run(seg.q_gen, seg.q_sign * seg.M)

        H_p = _uncrossed_steps(gamma, seg.start, lg, toward, budget, delta + 3)
        for k, h in H_p:
            hl = local_wall(lg, toward, k)
            if side(hl, one) != side(hl, mid):
                raise CertificateViolation(f"segment {l}: escape run crosses {h}")
            if side(hl, o) == side(hl, one):
                raise CertificateViolation(f"segment {l}: {h} does not separate the escape run")

        H_q = _uncrossed_steps(gamma, seg.start, seg.p_gen, seg.p_sign, seg.N, delta + 1)
        for k, h in H_q:
            hl = local_wall(seg.p_gen, seg.p_sign, k)
            if side(hl, mid) != side(hl, end):
                raise CertificateViolation(f"segment {l}: connector run crosses {h}")
            if side(hl, o) == side(hl, mid):
                raise CertificateViolation(f"segment {l}: {h} does not separate the connector run")

        cert = SegmentCertificate(l, len(H_p), len(H_q))
        certs.append(cert)
        ok = ok and cert.separation >= delta
    return SeparationReport(delta, tuple(certs), ok)


# --- quasi-geodesic certification ----------------------------------------------


@dataclass(frozen=True)
class QuasiGeodesicCertificate:
    """Exact check of d(s,t) >= |s-t|/K - C over all vertex pairs.

    min_margin is the global minimum of d - (|s-t|/K - C) and witness
    attains it. upper_ok records the structural bound d <= |s-t|, which
    holds for every unit-speed edge path. A pass implies the euclidean
    statement with multiplicative constant sqrt(l2_K_squared), since the
    euclidean metric of a square complex shrinks the edge metric by at
    most sqrt(2)."""

    certified: bool
    K: Fraction
    C: Fraction
    min_margin: Fraction
    witness: tuple[int, int]
    evaluations: int
    upper_ok: bool
    l2_K_squared: Fraction
    l2_C: Fraction


def certify_quasigeodesic(path: RunPath, K, C) -> QuasiGeodesicCertificate:
    K = Fraction(K)
    C = Fraction(C)
    rep = certify_quasigeodesic_runs(path, K, K * C)
    return QuasiGeodesicCertificate(
        rep.certified,
        K,
        C,
        Fraction(rep.min_margin) / K,
        rep.witness,
        rep.evaluations,
        True,
        2 * K * K,
        C,
    )


# --- contraction checking -------------------------------------------------------


@dataclass(frozen=True)
class ContractionReport:
    passed: bool
    radius: int
    rho_text: str
    pairs_tested: int
    exhaustive: bool
    annulus_diam: tuple[tuple[int, int], ...]
    witness: Optional[tuple[str, str, int, int]]


def _path_vertices(S) -> list[GroupElement]:
    if isinstance(S, RunPath):
        return [S.vertex_at(t) for t in range(S.length + 1)]
    return list(S)


def check_contracting(
    S,
    rho: RhoLike,
    radius: int,
    cap: int = DEFAULT_BALL_CAP,
    max_pairs: int = 200_000,
    seed: int = 0,
) -> ContractionReport:
    """Brute-force the contraction inequality on a ball around the path start.

    For points x, y off S with d(x,y) < d(S,y), the projection set of x
    united with that of y must have diameter at most rho(d(S,y)).
    Projections are exact argmin sets over S. All ordered pairs are tested
    when their number fits the budget; otherwise a seeded deterministic
    sample is drawn and the report says so.

    The exhaustive pass enumerates only pairs that can pass the gate
    d(x,y) < d(S,y). Every y in the ball has d(S,y) <= d(y, s0) <= radius,
    with s0 the ball's centre, so a partner of x is y = x*u with |u| below
    top = max d(S, .) off S. One short ball of such u serves every x, and
    |u| is d(x,y) exactly. Each x visits its partners in the order of the
    ball, so pairs are tested, and the witness found, in the order of the
    all-pairs loop over the ball."""
    if max_pairs < 0:
        raise ConfigError(f"max_pairs must be nonnegative, got {max_pairs}")
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
        v_inv = v.inverse()
        ds = [(v_inv * s1).length for s1 in sverts]
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
    n = len(outside)
    total = n * (n - 1)
    exhaustive = total <= max_pairs

    annulus: dict[int, int] = {}
    witness = None
    passed = True
    tested = 0

    def check_pair(x: GroupElement, y: GroupElement) -> None:
        # a pair that passed the gate d(x,y) < d(S,y)
        nonlocal witness, passed, tested
        dy = dist_to_s[y]
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

    if exhaustive:
        order = {v: k for k, v in enumerate(outside)}
        top = max((dist_to_s[v] for v in outside), default=1)
        short = ball(GroupElement.identity(B[0].graph), top - 1, cap)
        for x in outside:
            partners = []
            for u in short:
                y = x * u
                k = order.get(y)
                if k is not None and 0 < u.length < dist_to_s[y]:
                    partners.append(k)
            partners.sort()
            for k in partners:
                check_pair(x, outside[k])
    else:
        rnd = random.Random(seed)
        for _ in range(max_pairs):
            i = rnd.randrange(n)
            j = rnd.randrange(n - 1)
            if j >= i:
                j += 1
            x, y = outside[i], outside[j]
            if distance(x, y) < dist_to_s[y]:
                check_pair(x, y)

    return ContractionReport(
        passed,
        radius,
        rho.text(),
        tested,
        exhaustive,
        tuple(sorted(annulus.items())),
        witness,
    )


# --- divergence dichotomy -------------------------------------------------------


@dataclass(frozen=True)
class DichotomyReport:
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
    runs = tuple((g, e) for _, g, e in path.segments_between(0, steps))
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
    Kp = Fraction(K_prime)
    Cp = Fraction(C_prime)
    kap = kappa(rho, Kp, Cp)
    kap2 = kappa_prime(rho, Kp, Cp)

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
        candidates = [(T0 + 1, d + T0 + 1 - t)] + [kn for kn in knots[k + 1:] if kn[0] > T0 + 1]
        for t, dt in candidates:
            bound = Fraction(t - T0, 1) / (2 * Kp) - 2 * (Cp + kap)
            r = Fraction(dt) - bound
            if residual_min is None or r < residual_min:
                residual_min = r
    bound_ok = residual_min is None or residual_min >= 0
    return DichotomyReport(2, kap, kap2, T0, max_d, bound_ok, residual_min, beta.length, Z.length)


# --- glued labeled graph ---------------------------------------------------------


ALPHABET14 = ("a", "b1", "b2", "b3", "b4", "b5", "b6", "c", "d1", "d2", "d3", "d4", "d5", "d6")


def free_alphabet_graph() -> DefiningGraph:
    """The 14 edge labels as a free (edgeless) generator set."""
    return DefiningGraph.from_data({"generators": list(ALPHABET14), "edges": []})


@dataclass(frozen=True)
class PolySpec:
    """Integer-coefficient polynomial, coefficients by ascending degree."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_text(cls, text: str) -> "PolySpec":
        parts = text.replace(":", " ").split()
        if parts and parts[0].lower() == "poly":
            parts = parts[1:]
        if not parts:
            raise ConfigError("empty polynomial spec")
        try:
            return cls(tuple(Fraction(p) for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad polynomial spec {text!r}: {exc}") from None

    def __call__(self, i: int) -> Fraction:
        acc = Fraction(0)
        for k, c in enumerate(self.coeffs):
            acc += c * Fraction(i) ** k
        return acc

    def text(self) -> str:
        return "poly " + " ".join(str(c) for c in self.coeffs)


def _as_f(f) -> Callable[[int], Fraction]:
    if isinstance(f, str):
        return PolySpec.from_text(f)
    if callable(f):
        return lambda i: Fraction(f(i))
    raise ConfigError("f must be a polynomial spec or a callable")


def _check_f(fn: Callable[[int], Fraction], i_max: int) -> dict[int, int]:
    values: dict[int, int] = {}
    for i in range(1, i_max + 1):
        v = fn(i)
        if v.denominator != 1:
            raise PreconditionFailed(f"f({i}) = {v} is not an integer")
        values[i] = int(v)
    for i, v in values.items():
        if v <= i:
            raise PreconditionFailed(f"f({i}) = {v} must exceed {i}")
    if len(set(values.values())) != len(values):
        raise PreconditionFailed("f is not injective on the range")
    # superlinearity proxy on the sampled range
    for i in range(1, i_max):
        if Fraction(values[i + 1], i + 1) <= Fraction(values[i], i):
            raise PreconditionFailed(f"f(i)/i does not increase at i = {i}")
    return values


class LabeledGraph:
    """Finite graph with string vertices, labeled edges, deterministic BFS."""

    def __init__(self) -> None:
        self._adj: dict[str, dict[str, str]] = {}

    def add_vertex(self, name: str) -> None:
        if name in self._adj:
            raise ConfigError(f"vertex exists: {name}")
        self._adj[name] = {}

    def add_edge(self, u: str, v: str, label: str) -> None:
        if u == v:
            raise ConfigError("no loops")
        if v in self._adj[u]:
            raise ConfigError(f"edge exists: {u} {v}")
        self._adj[u][v] = label
        self._adj[v][u] = label

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def vertices(self) -> tuple[str, ...]:
        return tuple(self._adj)

    def neighbors(self, u: str) -> tuple[str, ...]:
        return tuple(sorted(self._adj[u]))

    def label(self, u: str, v: str) -> str:
        return self._adj[u][v]

    def distances_from(self, u: str) -> dict[str, int]:
        seen = {u: 0}
        queue = [u]
        for x in queue:
            dx = seen[x]
            for y in self.neighbors(x):
                if y not in seen:
                    seen[y] = dx + 1
                    queue.append(y)
        return seen

    def distance(self, u: str, v: str) -> int:
        d = self.distances_from(u).get(v)
        if d is None:
            raise ValueError(f"{v} unreachable from {u}")
        return d

    def geodesic(self, u: str, v: str) -> list[str]:
        """BFS geodesic; the lexicographically least parent wins, so the
        result is deterministic."""
        parent: dict[str, Optional[str]] = {u: None}
        queue = [u]
        for x in queue:
            if x == v:
                break
            for y in self.neighbors(x):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if v not in parent:
            raise ValueError(f"{v} unreachable from {u}")
        out = [v]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        out.reverse()
        return out


@dataclass(frozen=True)
class Example23:
    """Finite truncation of the glued ray space.

    The base ray R runs o, a1 .. a{tail} with label a. Branch ray R_i
    leaves R at a{i}: six blocks of f(i) edges labeled b1 .. b6, then a
    c-labeled tail. The shortcut S_i leaves the shared c-spine at c{i}
    with one b1 edge and six descending d-blocks, rejoining R_i at the
    junction after its b-blocks. o' is c1, the common second vertex of
    every shortcut."""

    graph: LabeledGraph
    f_items: tuple[tuple[int, int], ...]
    i_max: int
    tail: int

    @property
    def o(self) -> str:
        return "o"

    @property
    def o_prime(self) -> str:
        return "c1"

    @property
    def f_values(self) -> dict[int, int]:
        return dict(self.f_items)

    @property
    def spine(self) -> tuple[str, ...]:
        return ("o",) + tuple(f"a{k}" for k in range(1, self.tail + 1))

    def junction(self, i: int) -> str:
        return f"r{i}.{6 * self.f_values[i]}"

    def ray_end(self, i: int) -> str:
        return f"r{i}.{6 * self.f_values[i] + self.tail}"


def build_example23(f, i_max: int, tail: int) -> Example23:
    """Assemble the truncation; f is checked on [1, i_max] first."""
    if i_max < 1:
        raise ConfigError("need i_max >= 1")
    fn = _as_f(f)
    values = _check_f(fn, i_max)
    if tail < i_max:
        raise ConfigError("tail must reach every branch point: tail >= i_max")

    g = LabeledGraph()
    g.add_vertex("o")
    prev = "o"
    for k in range(1, tail + 1):
        g.add_vertex(f"a{k}")
        g.add_edge(prev, f"a{k}", "a")
        prev = f"a{k}"
    prev = "o"
    for k in range(1, i_max + 1):
        g.add_vertex(f"c{k}")
        g.add_edge(prev, f"c{k}", "c")
        prev = f"c{k}"
    for i in range(1, i_max + 1):
        fi = values[i]
        prev = f"a{i}"
        for k in range(1, 6 * fi + tail + 1):
            name = f"r{i}.{k}"
            label = f"b{(k - 1) // fi + 1}" if k <= 6 * fi else "c"
            g.add_vertex(name)
            g.add_edge(prev, name, label)
            prev = name
        prev = f"c{i}"
        for k in range(1, 6 * fi + 1):
            name = f"s{i}.{k}"
            # d-blocks descend from d6 to d1 so the reversed reading
            # of the shortcut starts with d1
            label = "b1" if k == 1 else f"d{6 - (k - 2) // fi}"
            g.add_vertex(name)
            g.add_edge(prev, name, label)
            prev = name
        g.add_edge(prev, f"r{i}.{6 * fi}", "d1")

    n_branch = sum(12 * v + tail for v in values.values())
    assert g.vertex_count == 1 + tail + i_max + n_branch
    assert g.edge_count == tail + i_max + n_branch + i_max
    return Example23(g, tuple(sorted(values.items())), i_max, tail)


@dataclass(frozen=True)
class BasepointRow:
    i: int
    d_o: int
    d_oprime: int
    radius_o: int
    radius_oprime: int


def basepoint_experiment(
    ex: Example23, kappa_val: int, i_range: Optional[Iterable[int]] = None
) -> tuple[BasepointRow, ...]:
    """Fellow-travel radii of branch-ray geodesics against the base ray.

    For each i, a BFS geodesic is traced to the end of R_i from o and
    from o'. The radius is how far from the basepoint the geodesic stays
    within kappa_val of R. From o the geodesic must ride R to the branch
    point, so the radius grows with i; from o' it shortcuts through the
    spine of c-edges and leaves the neighbourhood of R immediately."""
    g = ex.graph
    spine = ex.spine
    tables = {s: g.distances_from(s) for s in spine}
    tables[ex.o_prime] = g.distances_from(ex.o_prime)

    def dist(u: str, v: str) -> int:
        # every query has one endpoint on the spine or at a basepoint
        if u in tables:
            return tables[u][v]
        return tables[v][u]

    rows = []
    for i in i_range if i_range is not None else range(1, ex.i_max + 1):
        end = ex.ray_end(i)
        geo_o = g.geodesic(ex.o, end)
        geo_op = g.geodesic(ex.o_prime, end)
        r_o = fellow_travel_radius(geo_o, spine, kappa_val, ex.o, dist)
        r_op = fellow_travel_radius(geo_op, spine, kappa_val, ex.o_prime, dist)
        rows.append(BasepointRow(i, len(geo_o) - 1, len(geo_op) - 1, r_o, r_op))
    return tuple(rows)


def example23_relators(f, i_range: Iterable[int]) -> tuple[Word, ...]:
    """The glued loops read as words over the 14-letter alphabet.

    Loop i goes out along R to the branch point, through the b-blocks of
    R_i to the junction, then back through the shortcut and the c-spine:
    a^i b1^f .. b6^f d1^-f .. d6^-f b1^-1 c^-i."""
    graph = free_alphabet_graph()
    fn = _as_f(f)
    words = []
    for i in i_range:
        v = fn(i)
        if v.denominator != 1 or v <= i:
            raise PreconditionFailed(f"f({i}) = {v} unusable")
        fi = int(v)
        text = (
            f"a^{i} "
            + " ".join(f"b{j}^{fi}" for j in range(1, 7))
            + " "
            + " ".join(f"d{j}^-{fi}" for j in range(1, 7))
            + f" b1^-1 c^-{i}"
        )
        words.append(parse_word(text, graph))
    return tuple(words)


# --- small cancellation ----------------------------------------------------------


@dataclass(frozen=True)
class SmallCancellationReport:
    max_ratio: Fraction
    piece_length: int
    relator_pair: tuple[int, int]
    piece: str
    relator_lengths: tuple[int, ...]
    passes_sixth: bool


def _encode(w: Word) -> bytes:
    return bytes(lt.gen * 2 + (0 if lt.sign > 0 else 1) for lt in w)


def _invert_bytes(b: bytes) -> bytes:
    return bytes(x ^ 1 for x in reversed(b))


def _substrings(doubled: bytes, n: int, L: int) -> set[bytes]:
    return {doubled[k : k + L] for k in range(n)}


def _longest(exists: Callable[[int], Optional[bytes]], hi: int) -> tuple[int, bytes]:
    """The largest L in [0, hi] with a witness exists(L), and that witness,
    by binary search: a witness of length L has witnesses of every shorter
    length inside it."""
    lo, best = 0, b""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        w = exists(mid)
        if w is None:
            hi = mid - 1
        else:
            lo, best = mid, w
    return lo, best


def _max_common(d1: bytes, n1: int, d2: bytes, n2: int, cap: int) -> tuple[int, bytes]:
    """Longest common cyclic substring up to cap, with one witness."""

    def exists(L: int) -> Optional[bytes]:
        common = _substrings(d1, n1, L) & _substrings(d2, n2, L)
        return min(common) if common else None

    return _longest(exists, cap)


def _max_repeated(doubled: bytes, n: int) -> tuple[int, bytes]:
    """Longest substring occurring at two distinct cyclic starts."""

    def exists(L: int) -> Optional[bytes]:
        seen: set[bytes] = set()
        for k in range(n):
            sub = doubled[k : k + L]
            if sub in seen:
                return sub
            seen.add(sub)
        return None

    return _longest(exists, n - 1)


def small_cancellation_check(relators: Sequence[Word]) -> SmallCancellationReport:
    """Classical C'(1/6) proxy over the symmetrized relator set.

    A piece is a common subword of two distinct elements of the
    symmetrized set: cyclic shifts of distinct relators or their
    inverses, a subword repeated at two cyclic starts of one relator, or
    a common subword of a relator and its own inverse. The ratio of a
    piece is its length over the shorter relator involved."""
    if not relators:
        raise ValueError("need at least one relator")
    graph = relators[0].graph
    encoded: list[bytes] = []
    for w in relators:
        if w.graph is not graph:
            raise ValueError("relators must share one alphabet")
        b = _encode(w)
        if not b:
            raise ValueError("empty relator")
        for k in range(len(b)):
            if b[k] ^ 1 == b[(k + 1) % len(b)]:
                raise ValueError("relator is not cyclically reduced")
        encoded.append(b)
    for i in range(len(encoded)):
        for j in range(i + 1, len(encoded)):
            if encoded[i] == encoded[j]:
                raise ValueError(f"relators {i} and {j} are equal")

    doubled = [b + b for b in encoded]
    inv_doubled = []
    for b in encoded:
        ib = _invert_bytes(b)
        inv_doubled.append(ib + ib)
    lengths = tuple(len(b) for b in encoded)

    best_ratio = Fraction(0)
    best = (0, (0, 0), b"")
    for i in range(len(encoded)):
        ni = lengths[i]
        cands: list[tuple[int, bytes, tuple[int, int]]] = []
        lam, w = _max_repeated(doubled[i], ni)
        cands.append((lam, w, (i, i)))
        lam, w = _max_common(doubled[i], ni, inv_doubled[i], ni, ni)
        cands.append((lam, w, (i, i)))
        for j in range(i + 1, len(encoded)):
            nj = lengths[j]
            cap = min(ni, nj)
            lam, w = _max_common(doubled[i], ni, doubled[j], nj, cap)
            cands.append((lam, w, (i, j)))
            lam, w = _max_common(doubled[i], ni, inv_doubled[j], nj, cap)
            cands.append((lam, w, (i, j)))
        for lam, w, pair in cands:
            denom = min(lengths[pair[0]], lengths[pair[1]])
            ratio = Fraction(lam, denom)
            if ratio > best_ratio or (ratio == best_ratio and lam > best[0]):
                best_ratio = ratio
                best = (lam, pair, w)

    lam, pair, w = best
    return SmallCancellationReport(
        best_ratio,
        lam,
        pair,
        _runs_to_text(graph, LetterSeq((x // 2, 1 - 2 * (x % 2)) for x in w).runs),
        lengths,
        best_ratio < Fraction(1, 6),
    )
