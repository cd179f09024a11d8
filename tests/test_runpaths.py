"""Run-compressed paths: exact distances and quasi-geodesic certification."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cubemorse.constructions import build_beta, build_gamma, runpath_prefix
from cubemorse.raag import GroupElement, Word, WordError, distance, normal_form, parse_word
from cubemorse.runpaths import (
    RunPath,
    _ClusterTable,
    _min_1d,
    _min_2d,
    certify_quasigeodesic_runs,
    min_pair_distance,
    walk_wall_count,
)

from oracles import (
    certify_quasigeodesic_all_pairs,
    min_1d_by_levels,
    min_2d_by_levels,
    random_graphs,
    walk_between,
)


def walk_distance(p, s, t):
    """walk_wall_count of p's walk from arc position s to t: the distance
    between the two vertices."""
    return walk_wall_count(p.graph, walk_between(p, s, t))


def random_runpath(graph, rng, max_runs=14, max_exp=3):
    n = rng.randint(1, max_runs)
    runs = tuple(
        (rng.randrange(len(graph.generators)), rng.choice([1, -1]) * rng.randint(1, max_exp))
        for _ in range(n)
    )
    return RunPath(GroupElement.identity(graph), runs)


class TestRunPathBasics:
    def test_rejects_zero_run(self, ck):
        with pytest.raises(WordError):
            RunPath(GroupElement.identity(ck), ((0, 0),))

    def test_rejects_bad_generator(self, ck):
        with pytest.raises(WordError):
            RunPath(GroupElement.identity(ck), ((7, 1),))

    def test_length_and_endpoint(self, ck):
        p = RunPath.from_word(parse_word("a^3 b^-2 a", ck))
        assert p.length == 6
        assert p.endpoint() == GroupElement.from_text(ck, "a^3 b^-2 a")

    def test_vertex_at_walks_the_word(self, ck):
        w = parse_word("a^2 c^-1 b d^2", ck)
        p = RunPath.from_word(w)
        acc = GroupElement.identity(ck)
        assert p.vertex_at(0) == acc
        for i, letter in enumerate(w):
            acc = acc.append_run(letter.gen, letter.sign)
            assert p.vertex_at(i + 1) == acc

    def test_vertex_outside_range(self, ck):
        p = RunPath.from_word(parse_word("a", ck))
        with pytest.raises(WordError):
            p.vertex_at(2)
        with pytest.raises(WordError):
            p.vertex_at(-1)

    def test_huge_run_positions(self, ck):
        p = RunPath.from_word(parse_word("a^1000000000000 d a^-1000000000000", ck))
        assert p.length == 2 * 10**12 + 1
        mid = p.vertex_at(10**12)
        assert mid.length == 10**12
        assert mid.syllables == ((0, 10**12),)


class TestWallParityDistance:
    def test_matches_engine_on_random_walks(self, ck, z3z):
        rng = random.Random(7)
        for graph in (ck, z3z):
            for _ in range(60):
                p = random_runpath(graph, rng)
                for _ in range(6):
                    s = rng.randint(0, p.length)
                    t = rng.randint(0, p.length)
                    assert walk_distance(p, s, t) == distance(p.vertex_at(s), p.vertex_at(t))

    def test_closed_loop_has_zero_endpoint_distance(self, ck):
        loop = RunPath.from_word(parse_word("a b a^-1 b^-1", ck))
        assert walk_distance(loop, 0, loop.length) == 0

    def test_commuting_conjugate_collapses(self, ck):
        p = RunPath.from_word(parse_word("a^1000000000000 b a^-1000000000000", ck))
        assert walk_distance(p, 0, p.length) == 1 == distance(p.origin, p.endpoint())

    def test_blocking_letter_preserves_all_walls(self, ck):
        p = RunPath.from_word(parse_word("a^1000000000000 d a^-1000000000000", ck))
        want = 2 * 10**12 + 1
        assert walk_distance(p, 0, p.length) == want == distance(p.origin, p.endpoint())
        # backward, and from inside the first run to inside the last
        assert walk_distance(p, p.length, 0) == want
        assert walk_distance(p, 10**12 - 3, 10**12 + 5) == 8 == distance(
            p.vertex_at(10**12 - 3), p.vertex_at(10**12 + 5)
        )

    def test_empty_walk(self, ck):
        assert walk_wall_count(ck, []) == 0


class TestMinPairDistance:
    def test_matches_brute_force(self, ck, z3z):
        rng = random.Random(3)
        for graph in (ck, z3z):
            for _ in range(10):
                p = random_runpath(graph, rng, max_runs=6, max_exp=2)
                q = random_runpath(graph, rng, max_runs=6, max_exp=2)
                best = min(
                    distance(p.vertex_at(s), q.vertex_at(t))
                    for s in range(p.length + 1)
                    for t in range(q.length + 1)
                )
                got, s, t = min_pair_distance(p, q)
                assert got == best
                assert distance(p.vertex_at(s), q.vertex_at(t)) == best

    def test_shared_vertex_gives_zero(self, ck):
        p = RunPath.from_word(parse_word("a^4", ck))
        q = RunPath(GroupElement.from_text(ck, "a^2"), ((3, 5),))
        got, s, t = min_pair_distance(p, q)
        assert got == 0 and s == 2 and t == 0


# constants with unequal denominators, a zero C and an integer K next to a
# fractional C: the certifier scales them to integers by their common one
FRACTIONAL_KC = (
    (Fraction(3, 2), Fraction(1, 3)),
    (Fraction(7, 4), 0),
    (2, Fraction(5, 6)),
)


class TestQuasiGeodesicCertification:
    def test_geodesic_is_1_0(self, ck):
        p = RunPath.from_word(parse_word("a^5 d^3 a^-2", ck))
        rep = certify_quasigeodesic_runs(p, 1, 0)
        assert rep.certified and rep.min_margin >= 0

    def test_backtrack_needs_additive_slack(self, ck):
        p = RunPath.from_word(parse_word("a d d^-1 a", ck))
        assert not certify_quasigeodesic_runs(p, 1, 0).certified
        assert not certify_quasigeodesic_runs(p, 1, 1).certified
        assert certify_quasigeodesic_runs(p, 1, 2).certified

    def test_failure_witness_is_a_violation(self, ck):
        p = RunPath.from_word(parse_word("a b a^-1 b^-1 a b a^-1 b^-1", ck))
        rep = certify_quasigeodesic_runs(p, 2, 1)
        assert not rep.certified
        s, t = rep.witness
        assert (t - s) > 2 * walk_distance(p, s, t) + 1

    def test_exact_minimum_matches_brute_force(self, ck, z3z):
        rng = random.Random(11)
        for graph in (ck, z3z):
            for _ in range(25):
                p = random_runpath(graph, rng, max_runs=8, max_exp=4)
                verts = [p.vertex_at(k) for k in range(p.length + 1)]
                for K, C in ((1, 0), (2, 1), (3, 4), (8, 8)) + FRACTIONAL_KC:
                    want = min(
                        K * distance(verts[s], verts[t]) + C - (t - s)
                        for s in range(p.length + 1)
                        for t in range(s + 1, p.length + 1)
                    )
                    rep = certify_quasigeodesic_runs(p, K, C)
                    assert rep.min_margin == want
                    assert type(rep.min_margin) is type(want)
                    assert rep.certified == (want >= 0)
                    s, t = rep.witness
                    assert s < t
                    assert K * walk_distance(p, s, t) + C - (t - s) == want

    def test_degenerate_run_boundary_pair_is_excluded(self, ck):
        # two consecutive same-generator runs share a vertex at the boundary;
        # the s == t pair there must not be reported as the minimum
        p = RunPath(GroupElement.identity(ck), ((3, -1), (1, 6), (1, 6), (2, -6), (0, -3), (3, -3)))
        rep = certify_quasigeodesic_runs(p, 2, 3)
        assert rep.min_margin == 4
        s, t = rep.witness
        assert s < t

    @pytest.mark.parametrize("name, letters", [
        ("z3z", (("a", 3), ("a", -2), ("b", 1), ("b", 1), ("c", -1))),
        ("z3z", (("a", 3), ("a", 2), ("b", 1), ("b", 1), ("c", -1), ("d", 1))),
        ("ck", (("a", 1), ("b", 1), ("b", -1), ("c", 2), ("c", 1), ("d", -1), ("a", 1))),
        ("ck", (("a", 1), ("b", 1), ("b", 1), ("c", 2), ("c", 1), ("d", -1), ("a", 1))),
    ], ids=["z3z-backtracks", "z3z-geodesic", "ck-backtracks", "ck-geodesic"])
    def test_adjacent_cells_match_the_corner_exclusion(self, request, name, letters):
        # unit runs and adjacent runs of one cluster: the boxes that leave
        # out u = A and w = 0 agree with the oracle that leaves out only
        # their corner. On the geodesic paths with K > 1 every pair s < t
        # has margin above C, the corner's s == t margin
        graph = request.getfixturevalue(name)
        runs = tuple((graph.gen_index(g), e) for g, e in letters)
        p = RunPath(GroupElement.identity(graph), runs)
        for K, C in ((1, 0), (2, 0), (3, 2), (8, 1)) + FRACTIONAL_KC:
            got = certify_quasigeodesic_runs(p, K, C)
            want = certify_quasigeodesic_all_pairs(p, K, C)
            assert (got.certified, got.min_margin, got.witness) == (
                want.certified, want.min_margin, want.witness
            )

    def test_coupled_cluster_revisits(self, ck, z3z):
        cases = [
            (ck, ((0, 6), (1, 3), (0, -4), (1, -3), (0, 5))),
            (z3z, ((3, 7), (0, 1), (3, -5), (0, -1), (3, 6))),
            (ck, ((1, 6), (1, 6), (2, -6))),
        ]
        for graph, runs in cases:
            p = RunPath(GroupElement.identity(graph), runs)
            verts = [p.vertex_at(k) for k in range(p.length + 1)]
            for K, C in ((1, 0), (3, 2), (8, 8)) + FRACTIONAL_KC:
                want = min(
                    K * distance(verts[s], verts[t]) + C - (t - s)
                    for s in range(p.length + 1)
                    for t in range(s + 1, p.length + 1)
                )
                assert certify_quasigeodesic_runs(p, K, C).min_margin == want

    def test_long_geodesic_certifies_fast(self, ck):
        p = RunPath.from_word(parse_word("a^1000000000 d^1000000000", ck))
        rep = certify_quasigeodesic_runs(p, 1, 0)
        assert rep.certified and rep.min_margin == 0
        assert rep.evaluations < 100

    def test_huge_runs_certify_instantly(self, ck):
        p = RunPath(
            GroupElement.identity(ck),
            ((0, 10**12), (3, 5), (0, -(10**12) + 7), (3, -5), (0, 10**11)),
        )
        rep = certify_quasigeodesic_runs(p, 8, 8)
        assert rep.certified and rep.min_margin == 15

    def test_rejects_bad_constants(self, ck):
        p = RunPath.from_word(parse_word("a", ck))
        with pytest.raises(ValueError):
            certify_quasigeodesic_runs(p, 0, 1)
        with pytest.raises(ValueError):
            certify_quasigeodesic_runs(p, 1, -1)

    def test_empty_path(self, ck):
        p = RunPath(GroupElement.identity(ck), ())
        assert certify_quasigeodesic_runs(p, 1, 0).certified


# --- random defining graphs against brute force -----------------------------


def draw_runpath(data, graph, max_runs, max_exp, max_origin=0, min_runs=0):
    n = len(graph.generators)
    origin = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))), max_size=max_origin
    ))
    runs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(-max_exp, max_exp).filter(bool)),
        min_size=min_runs, max_size=max_runs,
    ))
    return RunPath(normal_form(Word(graph, origin)), tuple(runs))


constants = st.sampled_from((1, 2, 3, 8)) | st.fractions(1, 4, max_denominator=6)
slacks = st.sampled_from((0, 1, 4)) | st.fractions(0, 3, max_denominator=6)


@functools.cache
def escape_paths():
    """The escape path at (4, 12) and (6, 41), and gamma over 20 flats: their
    clusters have at most three runs and span at most five, so most of the
    cells of a long prefix are far."""
    return build_beta(4, 12).path, build_beta(6, 41).path, build_gamma(20).runpath()


class TestRandomGraphOracles:
    @seed(2101)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_distance_matches_engine(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        p = draw_runpath(data, graph, 8, 4, max_origin=4)
        s = data.draw(st.integers(0, p.length))
        t = data.draw(st.integers(0, p.length))
        assert walk_distance(p, s, t) == distance(p.vertex_at(s), p.vertex_at(t))

    @seed(2102)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_certificate_matches_all_pairs(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        p = draw_runpath(data, graph, 6, 3)
        K, C = data.draw(constants), data.draw(slacks)
        verts = [p.vertex_at(k) for k in range(p.length + 1)]
        margins = [
            K * distance(verts[s], verts[t]) + C - (t - s)
            for s in range(p.length + 1)
            for t in range(s + 1, p.length + 1)
        ]
        rep = certify_quasigeodesic_runs(p, K, C)
        if not margins:
            assert rep.certified
            return
        want = min(margins)
        assert rep.min_margin == want
        assert rep.certified == (want >= 0)
        s, t = rep.witness
        assert s < t
        assert K * distance(verts[s], verts[t]) + C - (t - s) == want

    @seed(2106)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_certificate_matches_all_run_pairs(self, z3z, ck, data):
        # long paths have far cells, which the certifier adds up instead of
        # walking; the oracle walks every pair of runs
        if data.draw(st.booleans()):
            graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
            p = draw_runpath(data, graph, 25, 3, max_origin=3, min_runs=8)
        else:
            whole = data.draw(st.sampled_from(escape_paths()))
            p = runpath_prefix(whole, data.draw(st.integers(1, whole.length)))
        K, C = data.draw(constants), data.draw(slacks)
        got = certify_quasigeodesic_runs(p, K, C)
        want = certify_quasigeodesic_all_pairs(p, K, C)
        assert (got.certified, got.min_margin, got.witness) == (
            want.certified, want.min_margin, want.witness
        )
        assert type(got.min_margin) is type(want.min_margin)

    @seed(2103)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_min_pair_distance_matches_all_pairs(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        p = draw_runpath(data, graph, 4, 3, max_origin=3)
        q = draw_runpath(data, graph, 4, 3, max_origin=3)
        want = min(
            distance(p.vertex_at(s), q.vertex_at(t))
            for s in range(p.length + 1)
            for t in range(q.length + 1)
        )
        got, s, t = min_pair_distance(p, q)
        assert got == want
        assert distance(p.vertex_at(s), q.vertex_at(t)) == want


levels = st.integers(-6, 6)
signed_lengths = st.integers(-6, 6).filter(bool)
kinds = st.sampled_from(("head", "tail"))


def draw_cluster(data):
    """Fixed runs (start level, signed length) of one cluster, and the
    cluster as the library stores it."""
    runs = data.draw(st.lists(st.tuples(levels, signed_lengths), max_size=5))
    table = _ClusterTable()
    for m, e in runs:
        table.add(0, m, e)
    return runs, table.get(0)


def draw_spec(data):
    """A partial run (kind, m, e) and bounds 0 <= lo <= hi <= |e| on u."""
    kind, m, e = data.draw(kinds), data.draw(levels), data.draw(signed_lengths)
    lo = data.draw(st.integers(0, abs(e)))
    return kind, m, e, lo, data.draw(st.integers(lo, abs(e)))


class TestCellMinimaAgainstLevels:
    @seed(2104)
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_min_1d(self, data):
        runs, flips = draw_cluster(data)
        spec = draw_spec(data)
        alpha, lam = data.draw(st.integers(1, 9)), data.draw(st.integers(-9, 9))
        assert _min_1d(alpha, lam, flips, spec) == min_1d_by_levels(alpha, lam, runs, spec)

    @seed(2105)
    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_min_2d(self, data):
        runs, flips = draw_cluster(data)
        specs = [draw_spec(data), draw_spec(data)]
        alpha = data.draw(st.integers(1, 9))
        lam_u, lam_w = data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9))
        got = _min_2d(alpha, lam_u, lam_w, flips, *specs)
        assert got == min_2d_by_levels(alpha, lam_u, lam_w, runs, *specs)
