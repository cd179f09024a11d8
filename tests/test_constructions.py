"""Gauges, the diagonal geodesic, the escape path, and its certificates."""

import decimal
import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from childproc import run_python
from cubemorse import constructions, raag, runpaths, walls
from cubemorse.constructions import (
    BetaSegment,
    ConfigError,
    Flat,
    Line,
    PreconditionFailed,
    build_beta,
    build_croke_kleiner,
    build_gamma,
    certify_quasigeodesic,
    check_contracting,
    check_divergence_dichotomy,
    gamma_crosses,
    line_wall_counts,
    runpath_prefix,
    translate_wall,
    verify_separation,
)
from cubemorse.gauges import SublinearFn, _iroot_exact, _log_cmp, as_gauge, kappa, kappa_prime
from cubemorse.raag import (
    DefiningGraph,
    GroupElement,
    Letter,
    MixedGraphs,
    Word,
    distance,
    normal_form,
    parse_word,
)
from cubemorse.runpaths import CertificateViolation, RunPath
from cubemorse.walls import (
    BallCapExceeded,
    Wall,
    ball,
    crosses,
    line_gate_exponent,
    wall_of_edge,
    walls_between,
)
from oracles import (
    LENGTH_SLACK,
    build_beta_by_global_frame,
    check_contracting_all_pairs,
    coset_base_by_gate,
    coset_gate_and_distance,
    gamma_by_global_words,
    gamma_crosses_by_scan,
    gamma_ray,
    is_cut_by_test_line,
    line_wall_counts_by_keys,
    random_graphs,
    runs_bounded,
    segment_starts,
    uncrossed_steps_by_walls,
    verify_separation_by_global_frame,
)


@pytest.fixture(scope="module")
def ckg():
    return build_croke_kleiner()


@pytest.fixture(scope="module")
def gamma12():
    return build_gamma(12)


@pytest.fixture(scope="module")
def words12():
    return gamma_by_global_words(12)


@pytest.fixture(scope="module")
def beta12():
    return build_beta(4, 12)


def wall_of(ckg, text, gen):
    return Wall(GroupElement.from_text(ckg, text), ckg.gen_index(gen))


def period_power(gamma, k):
    """P^k for gamma's period P, k >= 0."""
    shift = GroupElement.identity(gamma.graph)
    for _ in range(k):
        shift = shift * gamma.period
    return shift


def segment_vertices(beta):
    """The global start, escape-run end and end of each segment of beta,
    read off its run path."""
    out, t = [], 0
    for s in beta.segments:
        out.append(tuple(beta.path.vertex_at(u) for u in (t, t + s.N, t + s.length)))
        t += s.length
    return out


def record_translations(monkeypatch):
    """Record the wall of every constructions.translate_wall call."""
    asked = []
    real = constructions.translate_wall

    def recorded(g, h):
        asked.append(h)
        return real(g, h)

    monkeypatch.setattr(constructions, "translate_wall", recorded)
    return asked


def record_strips(monkeypatch):
    """Record the walls of every walls._carrier_strip call: the one strip
    behind each side, gate and wall_distance question."""
    asked = []
    real = walls._carrier_strip

    def recorded(x, h):
        asked.append(h)
        return real(x, h)

    monkeypatch.setattr(walls, "_carrier_strip", recorded)
    return asked


class TestSublinearFn:
    def test_from_text_variants(self):
        assert as_gauge("const 36").a == 36
        assert as_gauge("7").kind == "constant"
        p = as_gauge("power 2 1/2")
        assert (p.a, p.alpha) == (2, Fraction(1, 2))
        assert as_gauge("log 3").kind == "log"
        assert as_gauge(5).a == 5
        g = SublinearFn.log(2)
        assert as_gauge(g) is g

    def test_bad_specs(self):
        for text in ("", "power 2", "power 2 1", "wavy 3", "const x"):
            with pytest.raises(ConfigError):
                SublinearFn.from_text(text)
        with pytest.raises(ConfigError):
            SublinearFn.power(-1, Fraction(1, 2))
        with pytest.raises(ConfigError):
            SublinearFn("constant", 1, Fraction(1, 2))

    def test_cmp_exact_power(self):
        f = SublinearFn.power(3, Fraction(1, 2))
        # 3 * sqrt(9) = 9 exactly
        assert f.cmp_at(9, 9) == 0
        assert f.cmp_at(9, Fraction(80, 9)) > 0
        assert f.cmp_at(9, 10) < 0
        assert f.cmp_at(0, 0) == 0

    def test_cmp_log_never_ties(self):
        f = SublinearFn.log(3)
        assert f.cmp_at(10, 1) > 0
        assert f.cmp_at(1, 3) < 0
        # 3*log(2) = 2.079...
        assert f.cmp_at(1, 2) > 0
        assert f.cmp_at(0, 0) == 0

    def test_threshold_constant_exact(self):
        assert SublinearFn.constant(36).threshold(3) == 12
        assert SublinearFn.constant(0).threshold(5) == 0

    def test_threshold_power_exact_root(self):
        f = SublinearFn.power(3, Fraction(1, 2))
        # 3 sqrt(R) = R at R = 9
        assert f.threshold(1) == 9
        g = SublinearFn.power(2, Fraction(1, 2))
        assert g.threshold(1) == 4

    def test_threshold_power_bisected(self):
        f = SublinearFn.power(2, Fraction(2, 3))
        R = f.threshold(1)
        # true threshold is 8; the certified bound is within 2^-32 above
        assert 8 <= R <= 8 + Fraction(1, 2**31)
        assert f.cmp_at(R, R) <= 0

    def test_threshold_log(self):
        f = SublinearFn.log(3)
        assert f.threshold(3) == 0
        assert f.threshold(4) == 0
        R = f.threshold(1)
        assert f.cmp_at(R, R) <= 0
        assert f.cmp_at(R - Fraction(1, 4), R - Fraction(1, 4)) > 0

    @pytest.mark.parametrize(
        "v, n, root",
        [
            (0, 1, 0), (0, 5, 0), (1, 7, 1), (2, 1, 2), (2, 2, None), (3, 2, None),
            (4, 2, 2), (8, 3, 2), (9, 3, None), (26, 3, None), (27, 3, 3), (28, 3, None),
            (2**64, 64, 2), (2**64 - 1, 64, None), (2**64 + 1, 64, None),
            (3**300, 100, 27), (3**300 + 1, 100, None), (10**600, 3, 10**200),
            ((10**1000 + 7) ** 3, 3, 10**1000 + 7), ((10**1000 + 7) ** 3 - 1, 3, None),
            ((10**50 - 1) ** 9, 9, 10**50 - 1), (12345678987654321, 1, 12345678987654321),
            (-8, 3, None),
        ],
    )
    def test_exact_integer_roots(self, v, n, root):
        assert _iroot_exact(v, n) == root

    def test_threshold_needs_positive_slope(self):
        with pytest.raises(ConfigError):
            SublinearFn.constant(1).threshold(0)

    @given(
        a=st.integers(1, 50),
        num=st.integers(0, 4),
        slope_n=st.integers(1, 9),
        slope_d=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_certifies_power(self, a, num, slope_n, slope_d):
        f = SublinearFn.power(a, Fraction(num, 5))
        slope = Fraction(slope_n, slope_d)
        R = f.threshold(slope)
        for r in (R, R + 1, 4 * R + 7):
            assert f.cmp_at(r, slope * r) <= 0

    @given(
        a=st.integers(1, 50),
        slope_n=st.integers(1, 9),
        slope_d=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_certifies_log(self, a, slope_n, slope_d):
        f = SublinearFn.log(a)
        slope = Fraction(slope_n, slope_d)
        R = f.threshold(slope)
        for r in (R, R + 1, 4 * R + 7):
            assert f.cmp_at(r, slope * r) <= 0
        # within 2**-32 of the least such R: a log gauge exceeds slope*r on
        # the whole open interval (0, least R)
        below = R - Fraction(1, 2**31)
        assert below <= 0 or f.cmp_at(below, slope * below) > 0


def exp_cmp(x: Fraction, p: int) -> int:
    """Sign of x - e**p for rational x and integer p >= 1, from the Taylor
    partial sums S_N of e**p alone: S_N < e**p, and once N + 2 > 2p the
    tail e**p - S_N is at most twice the next term."""
    term = total = Fraction(1)
    n = 0
    while True:
        n += 1
        term = term * p / n
        total += term
        if x < total:
            return -1
        if n + 2 > 2 * p and x > total + 2 * term * p / (n + 1):
            return 1


def e_minus_1_convergents(count: int) -> list[Fraction]:
    # e - 1 = [1; 1, 2, 1, 1, 4, 1, 1, 6, ...]
    quotients = [1] + [2 * (i + 1) // 3 if i % 3 == 2 else 1 for i in range(1, count)]
    h, h0, k, k0 = 1, 0, 0, 1
    out = []
    for a in quotients:
        h, h0 = a * h + h0, h
        k, k0 = a * k + k0, k
        out.append(Fraction(h, k))
    return out


class TestLogCmpOracle:
    """_log_cmp(r, p/q) against sign((1+r)**q - e**p) in rationals only."""

    @staticmethod
    def check(r: Fraction, target: Fraction) -> None:
        expected = exp_cmp((1 + r) ** target.denominator, target.numerator)
        assert _log_cmp(r, target) == expected, (r, target)

    def test_seeded_grid(self):
        rng = random.Random(2019)
        for _ in range(1000):
            r = Fraction(rng.randint(1, 2000), rng.randint(1, 500))
            q = rng.randint(1, 30)
            # half the targets sit next to q*log(1+r), the rest anywhere
            if rng.random() < 0.5:
                p = max(1, round(q * math.log1p(float(r))) + rng.randint(-1, 1))
            else:
                p = rng.randint(1, 40)
            self.check(r, Fraction(p, q))

    def test_e_minus_1_convergents_at_target_1(self):
        # log(1+r) - 1 has the sign of r - (e-1): the convergents alternate
        # around e - 1 and close in on it fast
        convergents = e_minus_1_convergents(22)
        for r in convergents:
            self.check(r, Fraction(1))
        assert [_log_cmp(r, Fraction(1)) for r in convergents[:4]] == [-1, 1, -1, 1]

    def test_near_ties_need_escalation(self):
        # r within 10**-digits of exp(p/q) - 1; the two closer ties need
        # more than the starting 30 digits
        for p, q in ((1, 1), (2, 3), (5, 7)):
            for digits in (20, 45, 100):
                ctx = decimal.Context(prec=digits + 10)
                tie = ctx.subtract(ctx.exp(ctx.divide(p, q)), 1)
                r = Fraction(tie.quantize(decimal.Decimal(10) ** -digits, context=ctx))
                self.check(r, Fraction(p, q))


class TestKappa:
    def test_frozen_values(self):
        assert kappa(0, 1, 0) == 3
        assert kappa(0, 2, 1) == 12
        assert kappa(36, 1, 0) == 13
        assert kappa(0, 8, 1) == 192
        assert kappa_prime(0, 1, 0) == 18
        assert kappa_prime(0, 2, 1) == 150
        assert kappa_prime(0, 8, 1) == 25410

    def test_rejects_bad_constants(self):
        with pytest.raises(ConfigError):
            kappa(0, Fraction(1, 2), 0)
        with pytest.raises(ConfigError):
            kappa(0, 1, -1)

    def test_monotone_for_zero_gauge(self):
        vals = [[kappa(0, K, C) for C in range(5)] for K in range(1, 6)]
        for row in vals:
            assert row == sorted(row)
        for col in zip(*vals):
            assert list(col) == sorted(col)

    def test_not_monotone_in_K_for_constant_gauge(self):
        # larger K raises the slope, shrinking the escape radius of a big
        # constant gauge faster than 3K^2 grows
        assert kappa(36, 1, 0) == 13
        assert kappa(36, 2, 1) == 12


class TestFlatsAndLines:
    def test_flat_base_canonicalized(self, ckg):
        f1 = Flat(GroupElement.from_text(ckg, "b c^5"), (ckg.gen_index("b"), ckg.gen_index("c")))
        f2 = Flat(GroupElement.from_text(ckg, "c^-2 b^3"), (ckg.gen_index("c"), ckg.gen_index("b")))
        assert f1 == f2
        assert f1.base.is_identity

    def test_flat_requires_commuting_pair(self, ckg):
        with pytest.raises(ConfigError):
            Flat(GroupElement.identity(ckg), (ckg.gen_index("a"), ckg.gen_index("c")))
        with pytest.raises(ConfigError):
            Flat(GroupElement.identity(ckg), (ckg.gen_index("b"), ckg.gen_index("b")))

    def test_flat_distance_and_membership(self, ckg):
        f = Flat(GroupElement.from_text(ckg, "b c^2 d"), (ckg.gen_index("c"), ckg.gen_index("d")))
        assert f.contains(GroupElement.from_text(ckg, "b d^4 c^-1"))
        assert f.distance_to(GroupElement.identity(ckg)) == 1
        assert f.distance_to(GroupElement.from_text(ckg, "a")) == 2

    def test_line_gate(self, ckg):
        ln = Line(GroupElement.from_text(ckg, "b c^3 d b"), ckg.gen_index("b"))
        assert ln.base == GroupElement.from_text(ckg, "b c^3 d")
        assert ln.contains(GroupElement.from_text(ckg, "b c^3 d b^-40"))
        assert ln.distance_to(GroupElement.from_text(ckg, "b c^-23 d")) == 26

    def test_is_cut_by(self, ckg):
        f = Flat(GroupElement.identity(ckg), (ckg.gen_index("b"), ckg.gen_index("c")))
        assert f.is_cut_by(wall_of(ckg, "c^4", "c"))
        assert f.is_cut_by(wall_of(ckg, "b^-2", "b"))
        assert not f.is_cut_by(wall_of(ckg, "b c^3 d", "a"))
        # a d-wall in a parallel sheet misses the flat through the origin
        assert not f.is_cut_by(wall_of(ckg, "b", "d"))
        ln = Line(GroupElement.from_text(ckg, "b"), ckg.gen_index("c"))
        assert ln.is_cut_by(wall_of(ckg, "c^7", "c"))
        assert not ln.is_cut_by(wall_of(ckg, "b", "b"))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_handle_is_the_gate_at_the_identity(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        letters = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2))), max_size=14)
        )
        base = normal_form(Word(graph, letters))
        g = data.draw(st.integers(0, n - 1))
        assert Line(base, g).base == coset_base_by_gate(base, 1 << g)
        for h in sorted(graph.link(g)):
            assert Flat(base, (g, h)).base == coset_base_by_gate(base, graph.mask_of((g, h)))


def _word(data, graph, gens, max_size):
    """A random element spelled in the generators gens."""
    letters = data.draw(
        st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((-2, -1, 1, 2))), max_size=max_size)
    )
    return normal_form(Word(graph, letters))


def _coset(data, graph):
    """A random Line, or a Flat when its generator has a neighbour."""
    n = len(graph.generators)
    base = _word(data, graph, range(n), 10)
    g = data.draw(st.integers(0, n - 1))
    partners = sorted(graph.link(g))
    if partners and data.draw(st.booleans()):
        return Flat(base, (g, data.draw(st.sampled_from(partners))))
    return Line(base, g)


class TestCosetQuestions:
    """Cuts, memberships and distances of flats and lines against oracles
    that ask sides of a long test line and gates of a plain product."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_cut_matches_test_line(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        c = _coset(data, graph)
        g = data.draw(st.integers(0, n - 1))
        # walls near the coset's <star g> cluster, and some beside it
        near = sorted(graph.link(g) | {g} | set(c._gens))
        b = c.base * _word(data, graph, near, 6) * _word(data, graph, range(n), 2)
        h = Wall(b, g)
        assert c.is_cut_by(h) == is_cut_by_test_line(c, h)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_membership_is_distance_zero(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        c = _coset(data, graph)
        x = c.base * _word(data, graph, c._gens, 6) * _word(data, graph, range(n), 2)
        d = c.distance_to(x)
        assert d == coset_gate_and_distance(c.base, c.mask, x)[1]
        assert c.contains(x) == (d == 0)

    @pytest.mark.parametrize("L", [4, 12, 40])
    def test_line_counts_match_per_wall_oracle(self, L):
        words = gamma_by_global_words(L)
        want = tuple(
            sum(1 for h in words.walls if is_cut_by_test_line(ln, h)) for ln in words.lines
        )
        assert line_wall_counts(build_gamma(L)) == want

    @pytest.mark.parametrize("L", [*range(1, 10), 40, 120])
    def test_line_counts_match_key_oracle(self, L):
        want = line_wall_counts_by_keys(gamma_by_global_words(L))
        assert line_wall_counts(build_gamma(L)) == want

    def test_line_counts_pinned(self):
        counts = [line_wall_counts(build_gamma(L)) for L in range(1, 6)]
        assert counts == [(1,), (2, 2), (3, 3, 1), (3, 3, 2, 2), (3, 3, 3, 3, 1)]

    def test_layout_and_line_counts_ask_no_side(self, monkeypatch):
        asked = record_strips(monkeypatch)
        gamma = build_gamma(120)
        assert line_wall_counts(gamma) == (3,) * 118 + (2, 2)
        assert asked == []

    def test_other_graph_raises(self, z3z, ckg):
        f = Flat(GroupElement.identity(ckg), (ckg.gen_index("b"), ckg.gen_index("c")))
        ln = Line(GroupElement.identity(ckg), ckg.gen_index("c"))
        x = GroupElement.identity(z3z)
        h = Wall(x, 0)
        for c in (f, ln):
            with pytest.raises(MixedGraphs):
                c.contains(x)
            with pytest.raises(MixedGraphs):
                c.is_cut_by(h)
            with pytest.raises(MixedGraphs):
                c.distance_to(x)


class TestGamma:
    def test_needs_a_flat(self):
        with pytest.raises(ConfigError):
            build_gamma(0)

    def test_geodesic_and_distinct_walls(self, words12):
        assert words12.vertices[-1].length == 24
        assert distance(words12.vertices[0], words12.vertices[-1]) == 24
        assert len(set(words12.walls)) == 24

    def test_first_two_wall_families(self, gamma12):
        fams = gamma12.families()
        assert fams[0] == "B" and fams[1] == "C"
        assert fams == "BCCDCBBA" * 3

    def test_period_walls_match_prefix(self, gamma12, words12):
        assert words12.walls[:8] == gamma12.period_walls
        assert gamma12.period == words12.vertices[8]

    @pytest.mark.parametrize("L", [*range(1, 10), 40, 120])
    def test_matches_global_words(self, L):
        # P^k times the period's objects, against the step-by-step walk
        gamma, words = build_gamma(L), gamma_by_global_words(L)
        assert gamma.L == L
        vertices, letters, walls_, flats, lines = [], [], [], [], []
        for k in range((L + 3) // 4):
            shift = period_power(gamma, k)
            vertices += [shift * v for v in gamma.period_vertices[:8]]
            letters += gamma.period_letters
            walls_ += [translate_wall(shift, h) for h in gamma.period_walls]
            flats += [Flat(shift * f.base, f.gens) for f in gamma.period_flats]
            lines += [Line(shift * ln.base, ln.gen) for ln in gamma.period_lines]
        vertices.append(period_power(gamma, (L + 3) // 4))
        assert tuple(vertices[: 2 * L + 1]) == words.vertices
        assert tuple(letters[: 2 * L]) == words.letters
        assert tuple(walls_[: 2 * L]) == words.walls
        assert tuple(flats[:L]) == words.flats
        assert tuple(lines[:L]) == words.lines
        assert gamma.runpath().endpoint() == words.vertices[-1]
        assert gamma.families() == "".join(h.gen_name().upper() for h in words.walls)

    def test_period_layout(self):
        # each period flat holds its steps and is cut by its walls; its exit
        # line holds the second step and lies in the next flat
        gamma = build_gamma(4)
        vs, hs, fs = gamma.period_vertices, gamma.period_walls, gamma.period_flats
        nxt = [*fs[1:], Flat(gamma.period * fs[0].base, fs[0].gens)]
        for m, (f, ln) in enumerate(zip(fs, gamma.period_lines)):
            assert f.contains(vs[2 * m + 1]) and f.contains(vs[2 * m + 2])
            assert f.is_cut_by(hs[2 * m]) and f.is_cut_by(hs[2 * m + 1])
            assert ln.contains(vs[2 * m + 2])
            assert ln.gen in nxt[m].gens and nxt[m].contains(ln.base)

    def test_runpath_matches_vertices(self, gamma12, words12):
        p = gamma12.runpath()
        assert p.length == 24
        assert p.endpoint() == words12.vertices[-1]

    def test_walls_between_equals_crossed_walls(self, words12):
        hs = walls_between(words12.vertices[0], words12.vertices[-1])
        assert set(hs) == set(words12.walls)

    def test_piece_walls_cut_their_flat(self, words12):
        for l in range(1, 13):
            f = words12.flats[l - 1]
            for h in words12.walls[2 * l - 2 : 2 * l]:
                assert f.is_cut_by(h)

    def test_line_sheet_counts(self, gamma12):
        counts = list(line_wall_counts(gamma12))
        # interior exit lines carry exactly three crossed walls; the last
        # two lines lose sheets to the truncation
        assert counts == [3] * 10 + [2, 2]

    def test_flat_counts_exceed_three(self, words12):
        counts = [
            sum(1 for h in words12.walls if f.is_cut_by(h)) for f in words12.flats
        ]
        assert counts == [4, 4, 6, 4, 6, 4, 6, 4, 6, 4, 5, 3]

    def test_ray_is_valid_and_chain_exists(self, gamma12):
        from cubemorse.boundary import find_separated_chain, validate_ray

        ray = gamma_ray(gamma12)
        assert validate_ray(ray, 32)
        chain = find_separated_chain(ray, 0, 5, 24)
        assert len(chain) >= 4


class TestGammaCrosses:
    def test_period_orbit_pins(self, ckg, gamma12):
        one = GroupElement.identity(ckg)
        assert gamma_crosses(gamma12, Wall(one, ckg.gen_index("c")))
        assert gamma_crosses(gamma12, Wall(one, ckg.gen_index("b")))
        assert gamma_crosses(gamma12, wall_of(ckg, "b d b^2", "b"))
        assert gamma_crosses(gamma12, wall_of(ckg, "b c^3 d a", "c"))
        assert gamma_crosses(gamma12, wall_of(ckg, "b c^3 d", "a"))

    def test_non_orbit_pins(self, ckg, gamma12):
        assert not gamma_crosses(gamma12, wall_of(ckg, "c^-1", "c"))
        assert not gamma_crosses(gamma12, wall_of(ckg, "b d b^-1", "b"))
        assert not gamma_crosses(gamma12, wall_of(ckg, "d", "b"))
        # a-translate of the origin b-wall is the same wall, and crossed
        assert wall_of(ckg, "a", "b") == wall_of(ckg, "", "b")
        assert gamma_crosses(gamma12, wall_of(ckg, "a", "b"))

    def test_far_wall_fast_path(self, ckg, gamma12):
        h = wall_of(ckg, "b d b^-913455", "b")
        assert not gamma_crosses(gamma12, h)

    def test_far_positive_wall_fast_path(self, ckg, gamma12, monkeypatch):
        # eps_b puts this wall at level 304485 as a translate of W_6, and
        # eps_d then rules that out: no power of P is formed
        h = wall_of(ckg, "b d b^913455", "b")

        def no_power(x, n):
            raise AssertionError(f"formed a power {n}")

        monkeypatch.setattr(GroupElement, "__pow__", no_power)
        assert not gamma_crosses(gamma12, h)

    def test_equal_graph_gets_the_same_answer(self, z3z, gamma12):
        # graphs are compared by value: a wall over an equal but distinct
        # graph is the same wall, and one over another graph is refused
        other = build_croke_kleiner()
        assert other == gamma12.graph and other is not gamma12.graph
        answers = set()
        for w in gamma12.period_walls:
            w2 = Wall(GroupElement(other, w.base.syllables), w.gen)
            assert w2 == w
            assert gamma_crosses_by_scan(gamma12, w2) == gamma_crosses_by_scan(gamma12, w)
            for k in range(-1, 3):
                answers.add(gamma_crosses(gamma12, w, k))
                assert gamma_crosses(gamma12, w2, k) == gamma_crosses(gamma12, w, k)
        assert answers == {True, False}
        with pytest.raises(MixedGraphs):
            gamma_crosses(gamma12, Wall(GroupElement.identity(z3z), 0))

    def test_far_orbit_wall_translates_once(self, gamma12, monkeypatch):
        # P^2000·W_3 is read at its level, not reached by 2000 levels of
        # translates; frame -2001 sees it as a wall before gamma starts
        h = translate_wall(gamma12.period ** 2000, gamma12.period_walls[3])
        translated = record_translations(monkeypatch)
        assert gamma_crosses(gamma12, h)
        assert not gamma_crosses(gamma12, h, -2001)
        assert 1 <= len(translated) <= 3

    def test_translates_of_period_walls_cross(self, gamma12):
        shift = period_power(gamma12, 4)
        for w in gamma12.period_walls:
            assert gamma_crosses(gamma12, translate_wall(shift, w))

    def test_membership_matches_truncation_walls(self, gamma12, words12):
        for h in words12.walls:
            assert gamma_crosses(gamma12, h)

    def test_rejects_foreign_graph(self, gamma12, z3z):
        h = Wall(GroupElement.identity(z3z), 0)
        with pytest.raises(ValueError):
            gamma_crosses(gamma12, h)

    def test_matches_scan_on_certificate_walls(self, monkeypatch):
        # every wall that build_beta asks about, and the wall of every step
        # that verify_separation's walks decide; a wall asked in the frame
        # P^-k·gamma stands for its global image P^k·h, and the frame's
        # answer must be the scan's answer for that image
        asked: set = set()
        framed: list = []
        real_crosses, real_walk = constructions.gamma_crosses, constructions._uncrossed_steps

        def record(gamma, k, h, answer):
            image = translate_wall(period_power(gamma, k), h)
            asked.add(image)
            framed.append((gamma, image, answer))

        def crosses_recorded(gamma, h, k=0):
            answer = real_crosses(gamma, h, k)
            record(gamma, k, h, answer)
            return answer

        def walk_recorded(gamma, frame, start, g, s, steps, want):
            # the walk decides each step up to its last kept one, or all
            kept = real_walk(gamma, frame, start, g, s, steps, want)
            for k in range(kept[-1] + 1 if len(kept) == want else steps):
                h = wall_of_edge(start.append_run(g, s * k), Letter(g, s))
                record(gamma, frame, h, k not in kept)
            return kept

        monkeypatch.setattr(constructions, "gamma_crosses", crosses_recorded)
        monkeypatch.setattr(constructions, "_uncrossed_steps", walk_recorded)
        stripped = record_strips(monkeypatch)
        for delta, L in ((4, 12), (6, 41)):
            verify_separation(build_beta(delta, L))
        monkeypatch.undo()
        asked.update(stripped)
        assert sum(map(runs_bounded, asked)) > 100
        crossed = assert_scan_agrees(asked, random.Random(41))
        assert 0 < crossed < len(asked)
        assert all(gamma_crosses_by_scan(g, image) == answer for g, image, answer in framed)

    def test_matches_scan_on_orbit_translates(self):
        gamma = build_gamma(8)
        walls = [orbit_translate(gamma, k, idx) for k in range(41) for idx in range(8)]
        assert_scan_agrees(walls, random.Random(40))

    def test_matches_scan_on_bounded_random_walls(self, ckg):
        # random walls near the orbit: a period power, then a short detour
        rng = random.Random(2026)
        gamma = build_gamma(8)
        walls = []
        while len(walls) < 400:
            k = rng.randrange(12)
            detour = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randrange(6))]
            base = orbit_translate(gamma, k, rng.randrange(8)).base
            h = Wall(base * normal_form(Word(ckg, detour)), rng.randrange(4))
            if runs_bounded(h):
                walls.append(h)
        assert 0 < assert_scan_agrees(walls, rng) < len(set(walls))

    def test_frame_window_matches_scan(self):
        # every wall within distance 3 of a vertex of gamma and of a segment
        # start, asked in frame k of their flats, k = 0..30, against the
        # scan of its global image P^k·h, shortest wall first on a fresh
        # gamma each frame.
        starts = segment_starts(build_beta(4, 124))
        crossed = checked = 0
        for k in range(31):
            gamma = build_gamma(4 * k + 4)
            shift = period_power(gamma, k)
            start = starts[4 * k + 1]
            near = {
                wall_of_edge(x, Letter(g, s))
                for v in (gamma.period_vertices[4], start)
                for x in ball(v, 3)
                for g in range(4)
                for s in (1, -1)
            }
            for h in sorted(near, key=lambda h: (h.base.length, h.text())):
                want = gamma_crosses_by_scan(gamma, translate_wall(shift, h))
                assert gamma_crosses(gamma, h, k) == want, (k, h)
                crossed += want
                checked += runs_bounded(h)
        assert crossed > 400 and checked > 30_000


class TestBeta:
    def test_rejects_small_delta(self):
        with pytest.raises(ConfigError):
            build_beta(3, 4)

    def test_frozen_run_lengths(self, beta12):
        assert [s.N for s in beta12.segments] == [
            7, 16, 130, 362, 2475, 7028, 47530, 135158,
            913455, 2597768, 17556130, 49928018,
        ]
        assert [s.M for s in beta12.segments] == [
            1, 1, 26, 1, 495, 1, 9506, 1, 182691, 1, 3511226, 1,
        ]

    def test_connector_length_closed_form(self, beta12):
        segs = beta12.segments
        for l in range(3, 13):
            if l % 4 in (1, 3):
                assert segs[l - 1].M == segs[l - 3].N + segs[l - 2].N + 3
            else:
                assert segs[l - 1].M == 1

    def test_cumulative_lengths(self, beta12):
        cum, t = [], 0
        for s in beta12.segments:
            t += s.length
            cum.append(t)
        assert cum[:4] == [8, 25, 181, 544]
        assert beta12.total_length == cum[-1] == beta12.path.length

    def test_frozen_endpoints(self, beta12):
        ends = [end.text() for _, _, end in segment_vertices(beta12)[:4]]
        assert ends == [
            "b c^-7",
            "b c^-23 d",
            "b c^3 d b^-130",
            "b c^3 d a b^-492",
        ]

    def test_growth_inequalities(self, beta12):
        total = 0
        for s in beta12.segments:
            assert s.N >= beta12.delta + 3
            assert s.N >= 5 * s.M
            assert Fraction(s.N, 2) - s.M >= Fraction(s.N, 4) + Fraction(s.M, 8)
            assert s.N >= 2 * total
            total += s.length

    def test_family_sequence(self, beta12):
        assert beta12.family_sequence == "CBCDBCBA" * 3

    def test_endpoint_on_shared_line(self, beta12, words12):
        for s, (_, _, end) in zip(beta12.segments, segment_vertices(beta12)):
            line = words12.lines[s.index - 1]
            assert line.contains(end)

    def test_seams_locally_geodesic(self, beta12):
        segs, verts = beta12.segments, segment_vertices(beta12)
        for k in range(1, len(segs)):
            prev, cur = segs[k - 1], segs[k]
            (prev_start, prev_mid, _), (_, cur_mid, _) = verts[k - 1], verts[k]
            assert distance(prev_start, cur_mid) == prev.N + prev.M + cur.N
            assert distance(prev_mid, cur_mid) == prev.M + cur.N

    def test_case3_escape_wall_avoids_gamma(self, beta12):
        for s, start in zip(beta12.segments, segment_starts(beta12)):
            if s.case == 3:
                h = wall_of_edge(start, Letter(s.p_gen, s.p_sign))
                assert not gamma_crosses(beta12.gamma, h, (s.index - 1) // 4)

    def test_case12_connector_crosses_gamma_wall(self, beta12, words12):
        for s, (_, mid, _) in zip(beta12.segments, segment_vertices(beta12)):
            if s.case in (1, 2):
                assert s.M == 1
                h = wall_of_edge(mid, Letter(s.q_gen, s.q_sign))
                assert h == words12.walls[2 * s.index - 1]

    def test_path_keeps_all_runs(self, beta12):
        assert len(beta12.path.runs) == 24

    def test_seam_obligation_under_python_O(self):
        # a proof obligation of build_beta is an explicit check, not an assert
        script = textwrap.dedent(
            """
            from cubemorse import constructions
            from cubemorse.raag import CertificateViolation
            constructions.distance = lambda x, y: -1
            try:
                constructions.build_beta(4, 12)
            except CertificateViolation as e:
                print("raised:", e)
            """
        )
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: seam before segment 2 is not geodesic"), proc.stdout

    def test_endpoint_obligation_under_python_O(self):
        # the path's global endpoint must be P^k times the frame-carried one
        script = textwrap.dedent(
            """
            from cubemorse import constructions
            from cubemorse.runpaths import CertificateViolation, RunPath
            RunPath.endpoint = lambda self: self.origin
            try:
                constructions.build_beta(4, 12)
            except CertificateViolation as e:
                print("raised:", e)
            """
        )
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: run path does not follow the segments"), proc.stdout

    def test_append_syllable_calls_grow_linearly(self, monkeypatch):
        # a deterministic scaling guard: doubling the flats at most 2.5x the
        # syllable work of build_beta and verify_separation together
        real, calls = raag._append_syllable, [0]

        def counted(*args):
            calls[0] += 1
            return real(*args)

        counts = []
        for L in (60, 120):
            calls[0] = 0
            monkeypatch.setattr(raag, "_append_syllable", counted)
            verify_separation(build_beta(4, L))
            monkeypatch.undo()
            counts.append(calls[0])
        assert 0 < counts[1] <= 2.5 * counts[0]


def assert_matches_oracle(got, want):
    """got makes the oracle's choices in every segment, segment l = 4k + m + 1
    starts at P^k·start, start its frame start walked from its runs, the
    oracle's global start, and the run paths and family sequences are
    equal."""
    names = BetaSegment._fields
    assert [tuple(getattr(s, n) for n in names) for s in got.segments] == list(want.choices)
    shift = GroupElement.identity(got.gamma.graph)
    for s, start, global_start in zip(got.segments, segment_starts(got), want.starts):
        if s.index > 1 and s.index % 4 == 1:
            shift = shift * got.gamma.period
        assert shift * start == global_start, s.index
    assert (got.path, got.family_sequence) == (want.path, want.family_sequence)
    assert got.total_length == want.path.length


class TestBetaOracle:
    @pytest.mark.parametrize("delta, L", [(4, 120), (8, 119)])
    def test_fixed_cases(self, delta, L):
        assert_matches_oracle(build_beta(delta, L), build_beta_by_global_frame(delta, L))

    @given(delta=st.integers(4, 9), L=st.integers(1, 48))
    @settings(max_examples=30, deadline=None)
    def test_random_inputs(self, delta, L):
        assert_matches_oracle(build_beta(delta, L), build_beta_by_global_frame(delta, L))


class TestSeparation:
    def test_certificates_at_delta_four(self, beta12):
        rep = verify_separation(beta12)
        assert rep.ok
        assert rep.min_separation == 5
        assert len(rep.segments) == 11
        for c in rep.segments:
            assert (c.p_wall_count, c.q_wall_count) == (7, 5)

    @pytest.mark.parametrize("asked", [-1, -10])
    def test_rejects_negative_delta(self, asked):
        # a walk that wants no wall would still keep one, so a negative
        # delta would break the cap of delta + 1 on min_separation
        beta = build_beta(4, 6)
        for fn in (verify_separation, verify_separation_by_global_frame):
            with pytest.raises(ConfigError, match="need delta >= 0"):
                fn(beta, asked)
        rep = verify_separation(beta, 0)
        assert rep == verify_separation_by_global_frame(beta, 0)
        assert rep.min_separation == 1

    def test_one_flat_has_no_segment_to_certify(self):
        # separation starts at segment 2, so one flat would give a vacuous
        # report whose min_separation is a min over nothing
        with pytest.raises(ConfigError, match="certified from segment 2 on"):
            verify_separation(build_beta(4, 1))

    def test_brute_force_window_cross_check(self, beta12):
        # independent oracle: actual distances to a truncation long enough
        # that any gamma vertex beyond it is automatically far
        win = gamma_by_global_words(100)
        o = win.vertices[0]
        for seg, (start, mid, end) in list(zip(beta12.segments, segment_vertices(beta12)))[1:3]:
            samples = [
                start,
                mid,
                end,
                start.append_run(seg.p_gen, seg.p_sign * (seg.N // 2)),
            ]
            for x in samples:
                r = distance(o, x)
                assert len(win.flats) * 2 >= r + 4
                assert min(distance(x, w) for w in win.vertices) >= 4


class TestSeparationFrames:
    @pytest.mark.parametrize("delta, L", [(4, 12), (5, 40), (8, 42), (6, 119)])
    def test_segment_frames_match_global_frame(self, delta, L):
        beta = build_beta(delta, L)
        assert verify_separation(beta) == verify_separation_by_global_frame(beta)

    @pytest.mark.parametrize("delta, L, asked", [(4, 120, 4), (8, 119, 5), (8, 119, 11)])
    def test_fixed_cases_with_explicit_delta(self, delta, L, asked):
        beta = build_beta(delta, L)
        want = verify_separation_by_global_frame(beta, asked)
        assert verify_separation(beta, asked) == want
        # the walks stop at asked + 3 and asked + 1 walls
        assert want.min_separation <= asked + 1

    @given(delta=st.integers(4, 9), L=st.integers(2, 48), asked=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_random_inputs(self, delta, L, asked):
        beta = build_beta(delta, L)
        assert verify_separation(beta) == verify_separation_by_global_frame(beta)
        assert verify_separation(beta, delta=asked) == verify_separation_by_global_frame(
            beta, delta=asked
        )

    def test_side_reads_only_short_words(self, monkeypatch):
        # in the frames no certificate step reads a long word: every gate
        # read, and every inverse, is of a word of at most 8 syllables
        beta = build_beta(4, 40)
        real_inverse, real_gate, long_words = (
            GroupElement.inverse, constructions.line_gate_exponent, []
        )

        def inverse_recorded(self):
            if len(self.syllables) > 8:
                long_words.append(self)
            return real_inverse(self)

        def gate_recorded(x, g):
            if len(x.syllables) > 8:
                long_words.append(x)
            return real_gate(x, g)

        monkeypatch.setattr(GroupElement, "inverse", inverse_recorded)
        monkeypatch.setattr(constructions, "line_gate_exponent", gate_recorded)
        rep = verify_separation(beta)
        assert rep.ok and len(rep.segments) == 39
        assert long_words == []

    def test_reads_gates_not_sides(self, monkeypatch):
        # five gate reads per segment answer every side check
        beta = build_beta(6, 120)
        real_gate, gates = constructions.line_gate_exponent, []

        def gate_recorded(x, g):
            gates.append(g)
            return real_gate(x, g)

        strips = record_strips(monkeypatch)
        monkeypatch.setattr(constructions, "line_gate_exponent", gate_recorded)
        rep = verify_separation(beta)
        assert len(rep.segments) == 119
        assert strips == []
        assert len(gates) == 5 * 119


class TestSeparationWalk:
    def test_matches_the_wall_by_wall_walk(self, monkeypatch):
        # from every vertex within distance 3 of gamma's vertex G(4) and of
        # a segment start, along every generator and sign, in frame k of
        # their flats, k = 0..30: the exponent-sum walk keeps the steps that
        # the walk building each step's wall keeps, that wall asked of the
        # scan of its global image P^k·h. Each walk wants 2 of 3 steps
        real_crossed, admitted = constructions._crossed_by_sums, []

        def crossed_recorded(gamma, g, sums, k, wall):
            # records the answer of each step whose sums admit a translate
            asked = []
            answer = real_crossed(gamma, g, sums, k, lambda: asked.append(1) or wall())
            if asked:
                admitted.append(answer)
            return answer

        monkeypatch.setattr(constructions, "_crossed_by_sums", crossed_recorded)
        starts = segment_starts(build_beta(4, 124))
        decided = crossed = 0
        for k in range(31):
            gamma = build_gamma(4 * k + 4)
            shift, scanned = period_power(gamma, k), {}

            def scan(gamma, h, frame):
                if h not in scanned:
                    scanned[h] = gamma_crosses_by_scan(gamma, translate_wall(shift, h))
                return scanned[h]

            for v in (gamma.period_vertices[4], starts[4 * k + 1]):
                for x in ball(v, 3):
                    for g, s in itertools.product(range(4), (1, -1)):
                        ref = uncrossed_steps_by_walls(gamma, k, x, g, s, 3, 2, scan)
                        got = constructions._uncrossed_steps(gamma, k, x, g, s, 3, 2)
                        assert got == [j for j, _ in ref], (k, x, g, s)
                        n = got[-1] + 1 if len(got) == 2 else 3
                        decided += n
                        crossed += n - len(got)
        assert decided > 250_000 and crossed > 25_000
        # steps whose sums admit a period translate: equal to their wall,
        # or told apart from it only by the exact comparison
        assert admitted.count(True) > 25_000 and admitted.count(False) > 5_000

    def test_walks_build_no_wall_the_sums_rule_out(self, monkeypatch):
        # an operation count: the certificate decides each step by its
        # exponent sums, asks gamma_crosses nothing, and builds a Wall only
        # where a step's sums admit a period translate: the translate and
        # the step's own wall
        beta = build_beta(8, 119)
        asked, built = [], []
        real_crosses, real_init = constructions.gamma_crosses, Wall.__post_init__
        monkeypatch.setattr(
            constructions, "gamma_crosses", lambda *a: asked.append(a) or real_crosses(*a)
        )
        monkeypatch.setattr(Wall, "__post_init__", lambda h: built.append(h) or real_init(h))
        translated = record_translations(monkeypatch)
        rep = verify_separation(beta)
        assert rep.ok and len(rep.segments) == 118
        assert len(asked) == 0
        assert len(built) <= 2 * len(translated), (len(built), len(translated))
        # and on this beta no step's sums admit one
        assert translated == []


def negate_nth_gate(monkeypatch, n):
    """Make constructions.line_gate_exponent negate its answer on its n-th
    call, which moves the point to the mirror image of its gate."""
    calls = []

    def negated(x, g):
        calls.append(x)
        e = line_gate_exponent(x, g)
        return -e if len(calls) == n + 1 else e

    monkeypatch.setattr(constructions, "line_gate_exponent", negated)


def replaced(record, **fields):
    """A copy of record with the given fields replaced, built from the
    fields its class names."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **fields})


def with_segment(beta, i, **fields):
    """beta with the given fields of its segment i (0-based) replaced."""
    segs = list(beta.segments)
    segs[i] = replaced(segs[i], **fields)
    return replaced(beta, segments=tuple(segs))


def separation_outcome(fn, beta, errors=CertificateViolation):
    """fn's separation report for beta, or "raised" when a check fails."""
    try:
        return fn(beta)
    except errors:
        return "raised"


SEGMENT_CHANGES = {
    "N*2": lambda s: {"N": 2 * s.N},
    "N+1": lambda s: {"N": s.N + 1},
    "-p_sign": lambda s: {"p_sign": -s.p_sign},
    "M+1": lambda s: {"M": s.M + 1},
}


class TestSeparationChecks:
    # verify_separation reads five gates per segment: of mid and w on the
    # entry line, then of mid, end and w on the escape run's line. In
    # segment 2 both lines are <c>, and the gate exponents are -16, 8, -16,
    # -16 and 8, none of them 0, so each negation breaks one check.
    @pytest.mark.parametrize(
        "n, message",
        [
            (0, "escape run crosses"),
            (1, "does not separate the escape run"),
            (2, "connector run crosses"),
            (4, "does not separate the connector run"),
        ],
    )
    def test_flipped_side_raises(self, beta12, monkeypatch, n, message):
        assert verify_separation(beta12).segments[0].p_wall_count == 7
        negate_nth_gate(monkeypatch, n)
        with pytest.raises(CertificateViolation, match=message):
            verify_separation(beta12)

    def test_flipped_side_raises_under_python_O(self):
        script = textwrap.dedent(
            """
            from cubemorse import constructions
            from cubemorse.runpaths import CertificateViolation
            beta = constructions.build_beta(4, 12)
            real, calls = constructions.line_gate_exponent, []
            def negated(x, g):
                calls.append(x)
                return -real(x, g) if len(calls) == 1 else real(x, g)
            constructions.line_gate_exponent = negated
            try:
                constructions.verify_separation(beta)
            except CertificateViolation as e:
                print("raised:", e)
            """
        )
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: segment 2: escape run crosses"), proc.stdout

    @pytest.mark.parametrize("change", list(SEGMENT_CHANGES))
    def test_changed_segment_moves_the_path(self, beta12, change):
        # a report keeps each segment once: changing one moves the run path,
        # the length and the family sequence with it, and the certificate
        # of the changed path agrees with the global-frame oracle's
        outcomes = []
        for i, seg in enumerate(beta12.segments):
            beta = with_segment(beta12, i, **SEGMENT_CHANGES[change](seg))
            new = beta.segments[i]
            runs = list(beta12.path.runs)
            runs[2 * i : 2 * i + 2] = [
                (new.p_gen, new.p_sign * new.N), (new.q_gen, new.q_sign * new.M)
            ]
            assert beta.path == RunPath(beta12.path.origin, tuple(runs))
            length = beta12.total_length - seg.length + new.length
            assert beta.total_length == beta.path.length == length
            assert beta.family_sequence == beta12.family_sequence
            got = separation_outcome(verify_separation, beta)
            want = separation_outcome(
                verify_separation_by_global_frame, beta, (CertificateViolation, AssertionError)
            )
            assert got == want, i
            outcomes.append(got)
        assert "raised" in outcomes

    def test_escape_ambiguity_raises(self, monkeypatch):
        # a gamma that crosses every wall leaves case 3 no escape direction
        monkeypatch.setattr(constructions, "gamma_crosses", lambda gamma, h, k=0: True)
        with pytest.raises(CertificateViolation, match="escape direction ambiguous in flat 1"):
            build_beta(4, 4)


class TestCertifyQuasigeodesic:
    def test_beta_at_eight_one(self, beta12):
        rep = certify_quasigeodesic(beta12.path, 8, 1)
        assert rep.certified
        assert rep.min_margin == Fraction(15, 8)
        assert rep.witness == (0, 1)

    def test_beta_at_sixteen_one(self, beta12):
        assert certify_quasigeodesic(beta12.path, 16, 1).certified

    def test_geodesic_at_one_zero(self, gamma12):
        rep = certify_quasigeodesic(gamma12.runpath(), 1, 0)
        assert rep.certified
        assert rep.min_margin == 0

    def test_backtrack_fails(self, ckg):
        p = RunPath(GroupElement.identity(ckg), ((ckg.gen_index("a"), 1), (ckg.gen_index("b"), 1), (ckg.gen_index("b"), -1)))
        rep = certify_quasigeodesic(p, 1, 0)
        assert not rep.certified
        assert rep.min_margin < 0

    def test_rejects_bad_constants(self, gamma12):
        with pytest.raises(ValueError):
            certify_quasigeodesic(gamma12.runpath(), Fraction(1, 2), 0)

    @pytest.mark.parametrize("delta, L, evaluations", [(6, 41, 1033), (4, 120, 3127)])
    def test_pinned_certificates(self, delta, L, evaluations):
        rep = certify_quasigeodesic(build_beta(delta, L).path, 8, 1)
        assert rep.certified
        assert (rep.min_margin, rep.witness, rep.evaluations) == (
            Fraction(15, 8), (0, 1), evaluations
        )

    def test_evaluations_grow_linearly(self):
        # walking every pair of runs would ask 16 times as many at 4 times the flats
        small, large = (
            certify_quasigeodesic(build_beta(4, L).path, 8, 1) for L in (120, 480)
        )
        assert large.certified
        assert (large.min_margin, large.witness) == (Fraction(15, 8), (0, 1))
        assert large.evaluations <= 5 * small.evaluations

    def test_cell_minima_asked_once(self, monkeypatch):
        path = build_beta(6, 41).path
        real, asked = runpaths._min_1d, []

        def recorded(alpha, lam, fixed, *rest):
            asked.append((alpha, lam, tuple(fixed), *rest))
            return real(alpha, lam, fixed, *rest)

        monkeypatch.setattr(runpaths, "_min_1d", recorded)
        rep = certify_quasigeodesic(path, 8, 1)
        assert rep.evaluations == 1033
        assert 0 < len(asked) == len(set(asked))


class TestContracting:
    def test_gamma_prefix_threshold(self, gamma12):
        pre = runpath_prefix(gamma12.runpath(), 8)
        assert not check_contracting(pre, 2, 3).passed
        rep = check_contracting(pre, 3, 3)
        assert rep.passed
        assert rep.exhaustive
        assert rep.pairs_tested == 2133

    def test_flat_ray_fails_every_constant(self, ckg):
        ray = RunPath(GroupElement.identity(ckg), ((ckg.gen_index("c"), 8),))
        rep = check_contracting(ray, 0, 3)
        assert not rep.passed and rep.exhaustive
        x, y, diam, dy = rep.witness
        assert diam > 0 and dy >= 1

    def test_flat_ray_exhaustive_at_radius_five(self, ckg):
        ray = RunPath(GroupElement.identity(ckg), ((ckg.gen_index("c"), 10),))
        rep = check_contracting(ray, 1, 5)
        assert not rep.passed and rep.exhaustive
        assert rep.pairs_tested == 396_190
        assert rep.witness == ("b^-3", "b^-3 c^2", 2, 3)

    def test_gamma_fails_const_three_at_radius_four(self):
        rep = check_contracting(build_gamma(4).runpath(), "const 3", 4)
        assert not rep.passed and rep.exhaustive
        assert rep.pairs_tested == 22_604
        assert rep.witness == ("b^-1 c", "b^-1 c^3", 5, 3)

    def test_flat_ray_passes_one_at_radius_four(self, ckg):
        rep = check_contracting(RunPath(GroupElement.identity(ckg), ((ckg.gen_index("c"), 10),)), 1, 4)
        assert rep.passed and rep.exhaustive
        assert rep.pairs_tested == 23_006
        assert rep.witness is None

    @pytest.mark.parametrize("radius", [3, 4])
    def test_products_are_the_projections(self, radius, monkeypatch):
        # distances from S inside the ball come from searches over its
        # edges, and S beyond 2r is never read, so the only products are one
        # per (ball vertex, vertex of S with r < d(s0, s) <= 2r)
        gamma = build_gamma(4).runpath()
        verts = {gamma.vertex_at(t) for t in range(gamma.length + 1)}
        n_mid = sum(radius < distance(gamma.origin, s) <= 2 * radius for s in verts)
        n_b = len(ball(gamma.origin, radius))
        real, calls = GroupElement.__mul__, []

        def counted(x, y):
            calls.append(1)
            return real(x, y)

        monkeypatch.setattr(GroupElement, "__mul__", counted)
        check_contracting(gamma, "const 3", radius)
        assert len(calls) <= n_b * n_mid

    @pytest.mark.parametrize("radius", [3, 4])
    def test_ball_edges_are_walked_once(self, radius, monkeypatch):
        # the one search that builds the ball also gives its edges; S is a
        # vertex list, so reading it takes no step along a run
        gamma = build_gamma(4).runpath()
        S = [gamma.vertex_at(t) for t in range(gamma.length + 1)]
        real, calls = GroupElement.append_run, []

        def counted(x, g, e):
            calls.append(1)
            return real(x, g, e)

        monkeypatch.setattr(GroupElement, "append_run", counted)
        ball(gamma.origin, radius)
        in_ball = len(calls)
        check_contracting(S, "const 3", radius)
        assert len(calls) == 2 * in_ball > 0

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_escape_path_is_read_near_the_ball(self, radius):
        # the certified (8, 1) bound gives d(s0, beta(t)) >= t/8 - 1, so every
        # vertex within 2r of s0 lies in the first 16r + 8 steps
        beta = build_beta(4, 12).path
        want = check_contracting(runpath_prefix(beta, 16 * radius + 8), "const 3", radius)
        assert check_contracting(beta, "const 3", radius) == want

    def test_single_vertex_passes_zero(self, ckg):
        rep = check_contracting([GroupElement.identity(ckg)], 0, 2)
        assert rep.passed and rep.pairs_tested > 0

    def test_monotone_in_radius(self, gamma12):
        pre = runpath_prefix(gamma12.runpath(), 8)
        r3 = check_contracting(pre, 3, 3)
        r2 = check_contracting(pre, 3, 2)
        assert r3.passed and r2.passed

    def test_cap_exceeded_propagates(self, ckg):
        with pytest.raises(BallCapExceeded):
            check_contracting([GroupElement.identity(ckg)], 0, 5, cap=4)

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            check_contracting([], 0, 2)


def contracting_cases(ckg, gamma12):
    """The TestContracting inputs and the golden word:c^8 case, as
    (S, rho, radius)."""
    pre = runpath_prefix(gamma12.runpath(), 8)
    c = ckg.gen_index("c")
    return {
        "gamma_rho2": (pre, 2, 3),
        "gamma_rho3": (pre, 3, 3),
        "gamma_radius2": (pre, 3, 2),
        "flat_ray": (RunPath(GroupElement.identity(ckg), ((c, 8),)), 0, 3),
        "single_vertex": ([GroupElement.identity(ckg)], 0, 2),
        "golden_word": (RunPath.from_word(parse_word("c c c c c c c c", ckg)), 0, 3),
        # s = c^6 lies at exactly 2r: it ties for the projection of c^3
        "far_tie": ([GroupElement.identity(ckg), GroupElement.from_text(ckg, "c^6")], 0, 3),
        # a ball centred off the identity
        "offset_path": (
            RunPath(
                GroupElement.from_text(ckg, "d^-1"),
                ((ckg.gen_index("b"), 2), (ckg.gen_index("a"), 1)),
            ),
            1,
            3,
        ),
    }


@st.composite
def contracting_inputs(draw, fixtures):
    """A graph, a short run path or vertex list near the identity, and
    check_contracting's arguments. The drawn radius is lowered until the
    ball has at most 80 vertices, so the oracle asks at most 6 320
    distances."""
    graph = draw(st.sampled_from(fixtures) | random_graphs())
    n = len(graph.generators)
    syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
    start = normal_form(Word(graph, draw(st.lists(syllable, min_size=1, max_size=2))))
    if draw(st.booleans()):
        S = RunPath(start, tuple(draw(st.lists(syllable, min_size=1, max_size=3))))
    else:
        words = draw(st.lists(st.lists(syllable, max_size=2), min_size=1, max_size=4))
        S = [start * normal_form(Word(graph, w)) for w in words]
    rho = f"const {draw(st.integers(0, 3))}"
    # hypothesis favours the first choice: a radius-2 ball fits on most
    # graphs, with pairs that pass the gate
    radius = draw(st.sampled_from((2, 3, 1, 0)))
    while len(ball(start, radius)) > 80:
        radius -= 1
    return S, rho, radius


class TestBallSearch:
    """The lemma behind check_contracting: the Cayley graph of a RAAG is a
    median graph, so a search over the edges of a ball, whatever its
    centre, measures the distance between any two of its vertices."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_search_inside_the_ball_is_the_distance(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
        o = normal_form(Word(graph, data.draw(st.lists(syllable, min_size=1, max_size=3))))
        radius = data.draw(st.integers(1, 3))
        while len(ball(o, radius)) > 100:
            radius -= 1
        B, nbrs = walls._ball_graph(o, radius)
        assert B == ball(o, radius)
        # the bipartite edge lemma: the search records every edge of the ball
        edges = {(x, y) for x in range(len(B)) for y in nbrs[x]}
        assert all(len(set(ys)) == len(ys) for ys in nbrs)
        assert edges == {
            (x, y) for x in range(len(B)) for y in range(len(B)) if distance(B[x], B[y]) == 1
        }
        # below the ball's diameter the search must stop at the depth asked
        depth = data.draw(st.integers(0, 2 * radius))
        for x in range(len(B)):
            dists = [distance(B[x], y) for y in B]
            want = {y: d for y, d in enumerate(dists) if d <= depth}
            assert constructions._bfs_depths(nbrs, x, depth) == want


class TestContractingOracle:
    """check_contracting's in-ball searches against the all-pairs loop at
    one distance each: the whole report, witness included, must agree."""

    @pytest.mark.parametrize(
        "name",
        ["gamma_rho2", "gamma_rho3", "gamma_radius2", "flat_ray",
         "single_vertex", "golden_word", "far_tie", "offset_path"],
    )
    def test_fixed_cases(self, ckg, gamma12, name):
        S, rho, radius = contracting_cases(ckg, gamma12)[name]
        assert check_contracting(S, rho, radius) == check_contracting_all_pairs(S, rho, radius)

    def test_short_ball_keeps_the_cap(self):
        # on Z at radius 15 the ball is above the default cap; the raised
        # cap admits it, and the ball is its only search bound
        z = DefiningGraph.from_data({"generators": ["a"], "edges": []})
        S = RunPath.from_word(parse_word("a", z))
        want = check_contracting_all_pairs(S, 0, 15, cap=15)
        assert want.exhaustive
        assert check_contracting(S, 0, 15, cap=15) == want

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_inputs(self, z3z, ck, data):
        S, rho, radius = data.draw(contracting_inputs((z3z, ck)))
        assert check_contracting(S, rho, radius) == check_contracting_all_pairs(S, rho, radius)


class TestDichotomy:
    def test_path_on_its_own_set_is_case_one(self):
        g = build_gamma(20)
        Z = g.runpath()
        rep = check_divergence_dichotomy(Z, Z, 0, 8, 1)
        assert rep.case == 1
        assert rep.T0 == Z.length
        assert rep.max_distance == 0
        assert rep.bound_ok and rep.residual_min is None

    def test_orthogonal_ray_is_case_two(self, ckg):
        Z = RunPath(GroupElement.identity(ckg), ((ckg.gen_index("b"), 30),))
        beta = RunPath(GroupElement.identity(ckg), ((ckg.gen_index("c"), 40),))
        rep = check_divergence_dichotomy(Z, beta, 0, 1, 0)
        assert rep.case == 2
        assert rep.T0 == 3
        assert rep.residual_min == Fraction(19, 2)
        assert rep.bound_ok

    def test_beta_escapes_gamma(self, beta12):
        Z = build_gamma(160).runpath()
        pre = runpath_prefix(beta12.path, 600)
        rep = check_divergence_dichotomy(Z, pre, 0, 8, 1)
        assert rep.case == 2
        assert rep.kappa_value == 192
        assert rep.kappa_prime_value == 25410
        assert rep.T0 == 243
        assert rep.max_distance == 549
        assert rep.residual_min == Fraction(9263, 16)
        assert rep.bound_ok

    def test_far_start_rejected(self, ckg):
        Z = RunPath(GroupElement.identity(ckg), ((ckg.gen_index("b"), 30),))
        far = RunPath(GroupElement.identity(ckg).append_run(ckg.gen_index("c"), 10), ((ckg.gen_index("c"), 3),))
        with pytest.raises(PreconditionFailed):
            check_divergence_dichotomy(Z, far, 0, 1, 0)

    def test_prefix_helper(self, beta12):
        # on beta:4,12 and gamma:160, at every run boundary and one step
        # either side, the prefix keeps the runs before the cut and ends at
        # the path's vertex there; a cut past the end is clamped
        for path in (beta12.path, build_gamma(160).runpath()):
            ends = [0]
            for _, e in path.runs:
                ends.append(ends[-1] + abs(e))
            cuts = {t + d for t in ends for d in (-1, 0, 1)} & set(range(1, path.length + 1))
            for t in sorted(cuts):
                pre = runpath_prefix(path, t)
                assert pre.origin == path.origin and pre.length == t
                assert pre.runs[:-1] == path.runs[: len(pre.runs) - 1]
                assert pre.endpoint() == path.vertex_at(t), t
            assert runpath_prefix(path, path.length + 7) == path
            for t in (0, -3):
                with pytest.raises(ConfigError):
                    runpath_prefix(path, t)


def orbit_translate(gamma, k, idx):
    """period^k applied to the idx-th period wall."""
    return translate_wall(period_power(gamma, k), gamma.period_walls[idx])


@given(k=st.integers(0, 5), idx=st.integers(0, 7))
@settings(max_examples=30, deadline=None)
def test_orbit_translates_always_cross(k, idx):
    gamma = build_gamma(8)
    assert gamma_crosses(gamma, orbit_translate(gamma, k, idx))


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_crosses_matches_scan_in_any_frame(data):
    # a translate P^j·W_i, moved by a conjugate u v u^-1, which has v's
    # exponent sums, with runs that may break the run bound, and named in
    # any direction, asked in frame k against the scan of its global image
    # P^k·h
    gamma = build_gamma(8)
    graph = gamma.graph
    j = data.draw(st.integers(-4, 12))
    i = data.draw(st.integers(0, 7))
    k = data.draw(st.integers(-3, 40))
    runs = st.lists(st.tuples(st.integers(0, 3), st.integers(-9, 9).filter(bool)), max_size=2)
    u, v = (normal_form(Word(graph, data.draw(runs))) for _ in range(2))
    w = gamma.period_walls[i]
    g = data.draw(st.sampled_from([w.gen, w.gen, 0, 1, 2, 3]))
    h = Wall(translate_wall(gamma.period ** j, w).base * u * v * u.inverse(), g)
    want = gamma_crosses_by_scan(gamma, translate_wall(gamma.period ** k, h))
    assert gamma_crosses(gamma, h, k) == want


def gamma_line(lo, hi):
    """G(t) for lo <= t <= hi and W_t for lo <= t < hi: the vertices and
    walls of the line through 1 that repeats gamma's period word in both
    directions."""
    gamma = build_gamma(1)
    period = [lt.gen for lt in gamma.period_letters]
    one = GroupElement.identity(gamma.graph)
    vertex = {0: one}
    for t in range(hi):
        vertex[t + 1] = vertex[t].append_run(period[t % 8], 1)
    for t in range(0, lo, -1):
        vertex[t - 1] = vertex[t].append_run(period[(t - 1) % 8], -1)
    return vertex, {t: wall_of_edge(vertex[t], Letter(period[t % 8], 1)) for t in range(lo, hi)}


def test_gamma_line_crossings():
    # the finite facts behind the scan oracle's growth bound (see
    # tests/oracles.py): crossing walls of the line are at most 24 apart,
    # and among those each wall crosses at most four before it and four
    # after
    _, W = gamma_line(-40, 80)
    for t in range(16, 24):
        before = sum(crosses(W[t - r], W[t]) for r in range(1, 25))
        after = sum(crosses(W[t + r], W[t]) for r in range(1, 25))
        assert before <= 4 and after <= 4
    assert max(
        sum(crosses(W[t - r], W[t]) for r in range(1, 25)) for t in range(16, 24)
    ) == 4


def test_gamma_line_bounds_are_tight():
    # the scan oracle's bounds: runs stay at most 3 and |base of W_t| >=
    # |t| - 4 on both sides, with equality on both sides, so its horizon
    # cannot be narrowed
    _, W = gamma_line(-160, 160)
    slack = {t: h.base.length - abs(t) for t, h in W.items()}
    assert all(abs(e) <= 3 for h in W.values() for _, e in h.base.syllables)
    assert min(slack.values()) == -LENGTH_SLACK
    assert min(v for t, v in slack.items() if t < 0) == min(v for t, v in slack.items() if t >= 0)
    # the walls agree with gamma's own, and W_t, at level t // 8, is
    # crossed from that level's frame on and not from the one before
    gamma = build_gamma(20)
    assert all(W[t] == w for t, w in enumerate(gamma_by_global_words(20).walls))
    for t in (-160, -41, -9, -1, 0, 7, 8, 77, 159):
        j = t // 8
        assert gamma_crosses(gamma, W[t], -j)
        assert not gamma_crosses(gamma, W[t], -j - 1)


def test_gamma_exit_line_window():
    # the finite facts behind line_wall_counts' window: the exit line
    # through G(u), u = 2l, is cut by exactly three walls of the line, all
    # with u - 3 <= t <= u + 2
    vertex, W = gamma_line(-40, 80)
    gamma = build_gamma(4)
    offsets = set()
    for l in range(-8, 24):
        u = 2 * l
        ln = Line(vertex[u], gamma.period_lines[(l - 1) % 4].gen)
        cut = [t - u for t in W if ln.is_cut_by(W[t])]
        assert len(cut) == 3, (u, cut)
        offsets.update(cut)
    assert min(offsets) == -3 and max(offsets) == 2


@pytest.mark.parametrize("L", [40, 160])
def test_quotients_take_short_words(monkeypatch, L):
    # gamma, the escape path's choices and its certificate ask raag.quotient
    # and wall_of_edge only of frame words, and the certificate forms every
    # segment start as one: a global word of the path never reaches them
    real_quotient, real_wall = constructions.quotient, constructions.wall_of_edge
    real_contains = Line.contains
    asked, edges, starts = [], [], []

    def quotient_recorded(a, b):
        asked.append((len(a.syllables), len(b.syllables)))
        return real_quotient(a, b)

    def wall_recorded(x, lt):
        edges.append(len(x.syllables))
        return real_wall(x, lt)

    monkeypatch.setattr(constructions, "quotient", quotient_recorded)
    monkeypatch.setattr(constructions, "wall_of_edge", wall_recorded)
    def contains_recorded(line, x):
        starts.append(x)
        return real_contains(line, x)

    beta = build_beta(4, L)
    # verify_separation asks a line only whether segment l >= 2 starts on it
    monkeypatch.setattr(Line, "contains", contains_recorded)
    verify_separation(beta)
    assert len(asked) > L and len(edges) > L
    assert max(max(pair) for pair in asked) <= 8
    assert max(edges) <= 8
    assert starts == list(segment_starts(beta)[1:])
    assert max(len(x.syllables) for x in starts) <= 8


def test_gamma_builds_one_period(monkeypatch):
    # build_gamma makes as many walls, flats and lines at 960 flats as at 12
    counts = []
    for L in (12, 960):
        made = {Wall: 0, Flat: 0, Line: 0}
        for cls in made:
            real = cls.__post_init__

            def counted(self, cls=cls, real=real):
                made[cls] += 1
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        build_gamma(L)
        monkeypatch.undo()
        counts.append(made)
    assert counts[0] == counts[1]
    assert counts[0][Flat] == 4 and counts[0][Line] == 4


def assert_scan_agrees(walls, rng):
    """gamma_crosses equals the scan on a fresh gamma, whatever order it is
    asked in: shuffled with the longest wall first, and then shortest
    first on another fresh gamma. Returns how many of the walls are
    crossed."""
    walls = list(dict.fromkeys(walls))
    rng.shuffle(walls)
    longest = max(walls, key=lambda h: h.base.length)
    walls.remove(longest)
    walls.insert(0, longest)
    gamma = build_gamma(8)
    want = {h: gamma_crosses_by_scan(gamma, h) for h in walls}
    assert [gamma_crosses(gamma, h) for h in walls] == [want[h] for h in walls]
    gamma = build_gamma(8)
    ascending = sorted(walls, key=lambda h: h.base.length)
    assert [gamma_crosses(gamma, h) for h in ascending] == [want[h] for h in ascending]
    return sum(want.values())


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_certify_wrapper_matches_engine(data):
    from cubemorse.runpaths import certify_quasigeodesic_runs

    graph = build_croke_kleiner()
    n = data.draw(st.integers(1, 6))
    runs = tuple(
        (
            data.draw(st.integers(0, 3)),
            data.draw(st.sampled_from([-2, -1, 1, 2])),
        )
        for _ in range(n)
    )
    p = RunPath(GroupElement.identity(graph), runs)
    K, C = 3, 2
    user = certify_quasigeodesic(p, K, C)
    engine = certify_quasigeodesic_runs(p, K, K * C)
    # one report type: the paper's form restores C and rescales the margin
    assert type(user) is type(engine)
    assert (user.certified, user.witness, user.evaluations) == (
        engine.certified, engine.witness, engine.evaluations
    )
    assert user.C == C
    assert user.min_margin == Fraction(engine.min_margin) / K
