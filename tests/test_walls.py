"""Wall combinatorics against brute-force oracles over finite balls.

Oracles here avoid the coset arithmetic under test: parallelism of edges is
the transitive closure of square parallelism (union-find), transversality is
the four-quadrant test on side tables, distances come from the letter BFS
oracle.
"""

import math
import random
import textwrap

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from childproc import run_python
from cubemorse.raag import (
    GroupElement,
    Letter,
    Word,
    _fold,
    normal_form,
)
from cubemorse import walls as walls_module
from cubemorse.runpaths import CertificateViolation
from cubemorse.walls import (
    BallCapExceeded,
    InvalidPair,
    Wall,
    WallsCross,
    ball,
    common_transversal_directions,
    crosses,
    crossing_count,
    gate,
    line_gate_exponent,
    side,
    strongly_separated,
    wall_distance,
    wall_of_edge,
    walls_between,
    walls_separating_point_from_wall,
)
from oracles import (
    bfs_oracle_distance,
    carrier_gates,
    common_transversal_directions_by_strip,
    crosses_by_square_search,
    random_graphs,
    transversals_near_gates,
    wall_gate_and_distance_by_cosets,
)

A, B, C, D = 0, 1, 2, 3


def edges_in(graph, verts):
    vs = set(verts)
    return [
        (v, g)
        for v in verts
        for g in range(len(graph.generators))
        if v.append_run(g, 1) in vs
    ]


def wall_pool_from(graph, verts):
    return sorted(
        {wall_of_edge(v, Letter(g, 1)) for v, g in edges_in(graph, verts)},
        key=lambda w: (w.base.length, w.base.syllables, w.gen),
    )


def side_table(walls, verts):
    return {w: tuple(side(w, v) for v in verts) for w in walls}


def four_quadrant(table, h1, h2):
    combos = set(zip(table[h1], table[h2]))
    return len(combos) == 4


@pytest.fixture(scope="module")
def ck_space(ck):
    one = GroupElement.identity(ck)
    pool = wall_pool_from(ck, ball(one, 1))
    verts = ball(one, 5)
    return {
        "one": one,
        "b3": ball(one, 3),
        "b4": ball(one, 4),
        "b5": verts,
        "pool": pool,
        "table": side_table(pool, verts),
    }


@pytest.fixture(scope="module")
def z3z_space(z3z):
    one = GroupElement.identity(z3z)
    pool = wall_pool_from(z3z, ball(one, 1))
    verts = ball(one, 5)
    return {
        "one": one,
        "b5": verts,
        "pool": pool,
        "table": side_table(pool, verts),
    }


class TestWallOfEdge:
    def test_identity_coset(self, z3z):
        one = GroupElement.identity(z3z)
        assert wall_of_edge(one, Letter(A, 1)) == Wall(one, A)

    def test_commuting_prefix_strips(self, z3z):
        one = GroupElement.identity(z3z)
        assert wall_of_edge(GroupElement.from_text(z3z, "b"), Letter(A, 1)) == Wall(one, A)

    def test_non_commuting_prefix_stays(self, z3z):
        d = GroupElement.from_text(z3z, "d")
        w = wall_of_edge(d, Letter(A, 1))
        assert w == Wall(d, A)
        assert w != Wall(GroupElement.identity(z3z), A)

    def test_orientation_independent(self, z3z):
        one = GroupElement.identity(z3z)
        assert wall_of_edge(GroupElement.from_text(z3z, "a"), Letter(A, -1)) == Wall(one, A)

    def test_agrees_with_square_parallelism_oracle(self, ck):
        # union-find closure of elementary square parallelism over ball(5);
        # edges sampled from ball(3) so their parallelism chains stay inside
        one = GroupElement.identity(ck)
        span = ball(one, 5)
        edges = edges_in(ck, span)
        idx = {e: i for i, e in enumerate(edges)}
        parent = list(range(len(edges)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for v, g in edges:
            for h in ck.link(g):
                for s in (1, -1):
                    j = idx.get((v.append_run(h, s), g))
                    if j is not None:
                        ri, rj = find(idx[(v, g)]), find(j)
                        if ri != rj:
                            parent[ri] = rj

        inner = set(ball(one, 3))
        sample = [
            (v, g) for (v, g) in edges if v in inner and v.append_run(g, 1) in inner
        ]
        rng = random.Random(11)
        for _ in range(300):
            e1, e2 = rng.choice(sample), rng.choice(sample)
            same_wall = wall_of_edge(e1[0], Letter(e1[1], 1)) == wall_of_edge(
                e2[0], Letter(e2[1], 1)
            )
            assert same_wall == (find(idx[e1]) == find(idx[e2])), (e1, e2)


class TestWallsBetween:
    def test_basic(self, z3z):
        one = GroupElement.identity(z3z)
        got = walls_between(one, GroupElement.from_text(z3z, "a b c"))
        assert set(got) == {Wall(one, A), Wall(one, B), Wall(one, C)}

    def test_same_point(self, z3z):
        x = GroupElement.from_text(z3z, "a b")
        assert walls_between(x, x) == ()

    def test_parallel_edges_distinct(self, z3z):
        one = GroupElement.identity(z3z)
        got = walls_between(one, GroupElement.from_text(z3z, "c^2"))
        assert set(got) == {Wall(one, C), Wall(GroupElement.from_text(z3z, "c"), C)}
        assert len(got) == 2

    def test_count_is_distance_and_no_duplicates(self, ck, ck_space):
        rng = random.Random(5)
        verts = ck_space["b4"]
        for _ in range(120):
            x, y = rng.choice(verts), rng.choice(verts)
            got = walls_between(x, y)
            assert len(got) == len(set(got))
            assert len(got) == bfs_oracle_distance(x, y, 10)

    def test_symmetric_as_sets(self, ck_space):
        rng = random.Random(6)
        verts = ck_space["b4"]
        for _ in range(60):
            x, y = rng.choice(verts), rng.choice(verts)
            assert set(walls_between(x, y)) == set(walls_between(y, x))


class TestSide:
    def test_base_convention(self, z3z):
        one = GroupElement.identity(z3z)
        assert side(Wall(one, A), one) == -1
        assert side(Wall(one, A), GroupElement.from_text(z3z, "a b")) == 1
        assert side(Wall(GroupElement.from_text(z3z, "d"), A), one) == -1

    def test_separation_characterization(self, ck_space):
        # h separates x from y iff the sides differ
        rng = random.Random(9)
        verts = ck_space["b4"]
        for _ in range(100):
            x, y = rng.choice(verts), rng.choice(verts)
            between = set(walls_between(x, y))
            probe = set(walls_between(rng.choice(verts), rng.choice(verts)))
            for h in between | probe:
                assert (h in between) == (side(h, x) != side(h, y))


def draw_element(data, graph, max_letters=12):
    n = len(graph.generators)
    letters = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
            max_size=max_letters,
        )
    )
    return normal_form(Word(graph, letters))


class TestOneProductSide:
    @seed(2026)
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_two_coset_oracle(self, z3z, ck, data):
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        h = Wall(draw_element(data, graph), data.draw(st.integers(0, len(graph.generators) - 1)))
        x = draw_element(data, graph)
        want = wall_gate_and_distance_by_cosets(x, h)
        assert (gate(x, h), wall_distance(x, h), side(h, x)) == want

    @seed(2027)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_side_change_rule(self, z3z, ck, data):
        # h separates x from y iff their sides differ, for the walls between
        # them and for walls between two unrelated vertices
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        x, y, u, v = (draw_element(data, graph, 8) for _ in range(4))
        between = set(walls_between(x, y))
        for h in between | set(walls_between(u, v)):
            assert (h in between) == (side(h, x) != side(h, y))


class TestLineGate:
    # W_k is the wall of the edge from g^(s*k) to g^(s*(k+1)) on the line <g>
    # through 1, and x lies beyond it exactly when s*e > k

    def test_examples(self, ck):
        one = GroupElement.identity(ck)
        # a and c commute with b, so they strip off either side of b^3
        assert line_gate_exponent(GroupElement.from_text(ck, "a b^3 c"), B) == 3
        assert line_gate_exponent(GroupElement.from_text(ck, "c^2 b^-2 a"), B) == -2
        # d does not commute with b, so the gate of d b^2 on <b> is 1
        assert line_gate_exponent(GroupElement.from_text(ck, "d b^2"), B) == 0
        x = GroupElement.from_text(ck, "a b^3")
        e = line_gate_exponent(x, B)
        beyond = [side(Wall(one.append_run(B, k), B), x) == 1 for k in range(5)]
        assert beyond == [e > k for k in range(5)] == [True, True, True, False, False]

    @seed(2028)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_side(self, z3z, ck, data):
        # x = u g^j v lies near the line, so some of W_0..W_12 separate it
        # from 1 and others do not, in either direction
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        g = data.draw(st.integers(0, len(graph.generators) - 1))
        u, v = (draw_element(data, graph, 3) for _ in range(2))
        x = u.append_run(g, data.draw(st.integers(-13, 13))) * v
        e = line_gate_exponent(x, g)
        one = GroupElement.identity(graph)
        for s in (1, -1):
            for k in range(13):
                h = wall_of_edge(one.append_run(g, s * k), Letter(g, s))
                assert (s * e > k) == (side(h, x) != side(h, one)), (x, g, s, k)


class TestCrosses:
    def test_examples(self, z3z):
        one = GroupElement.identity(z3z)
        assert crosses(Wall(one, A), Wall(one, B)) is True
        assert crosses(Wall(one, A), Wall(GroupElement.from_text(z3z, "d"), A)) is False
        assert crosses(Wall(one, A), Wall(one, D)) is False
        assert crosses(Wall(one, A), Wall(one, A)) is False

    def test_matches_four_quadrant_oracle(self, ck_space):
        pool, table = ck_space["pool"], ck_space["table"]
        for i, h1 in enumerate(pool):
            for h2 in pool[i + 1 :]:
                assert crosses(h1, h2) == four_quadrant(table, h1, h2), (h1, h2)

    def test_matches_four_quadrant_oracle_z3z(self, z3z_space):
        pool, table = z3z_space["pool"], z3z_space["table"]
        for i, h1 in enumerate(pool):
            for h2 in pool[i + 1 :]:
                assert crosses(h1, h2) == four_quadrant(table, h1, h2), (h1, h2)

    @seed(2404)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_square_search(self, z3z, ck, data):
        # two generators that differ, and the second base the first times
        # a short drawn word, so both answers occur; the search ball's
        # radius is kept at most 4
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        g1, g2 = data.draw(st.permutations(range(len(graph.generators))))[:2]
        h1 = Wall(draw_element(data, graph, 4), g1)
        h2 = Wall(h1.base * draw_element(data, graph, 4), g2)
        assume((h1.base.inverse() * h2.base).length <= 4)
        assert crosses(h1, h2) == crosses_by_square_search(h1, h2)
        assert crosses(h2, h1) == crosses_by_square_search(h2, h1)


class TestCrossingCount:
    def test_strongly_separated_parallel_walls(self, z3z):
        one = GroupElement.identity(z3z)
        d = GroupElement.from_text(z3z, "d")
        assert crossing_count(Wall(one, A), Wall(d, A)) == (0, True)
        assert strongly_separated(Wall(one, A), Wall(d, A))

    def test_adjacent_pair_strips_once(self, ck, monkeypatch):
        # b and c commute, but d a separates the carriers 1<a, c> and
        # d a<b, d>: one strip decides both that the walls do not cross and
        # that no generator crosses both
        real, strips = walls_module._stripped_middle, []

        def counted(h1, h2):
            strips.append((h1, h2))
            return real(h1, h2)

        monkeypatch.setattr(walls_module, "_stripped_middle", counted)
        h1, h2 = Wall(GroupElement.identity(ck), B), Wall(GroupElement.from_text(ck, "d a"), C)
        assert strongly_separated(h1, h2)
        assert strips == [(h1, h2)]
        assert crossing_count(h1, h2) == (0, True)
        assert len(strips) == 2
        assert not crosses(h1, h2)

    def test_directions_examples_match_strip_first_oracle(self, z3z, ck):
        # both orders of: crossing pairs, among them ck's 1@b and 1@c, whose
        # generators commute with an empty common link; an adjacent pair
        # the strip separates; equal walls; and pairs read off the defining
        # graph alone (a and d on ck, d and a or d on z3z)
        one_ck, one_z = GroupElement.identity(ck), GroupElement.identity(z3z)
        cases = [
            (Wall(one_ck, B), Wall(one_ck, C)),
            (Wall(one_ck, B), Wall(GroupElement.from_text(ck, "d a"), C)),
            (Wall(one_ck, A), Wall(one_ck, A)),
            (Wall(one_ck, A), Wall(GroupElement.from_text(ck, "b c"), D)),
            (Wall(one_z, A), Wall(one_z, B)),
            (Wall(one_z, A), Wall(GroupElement.from_text(z3z, "a"), A)),
            (Wall(one_z, D), Wall(one_z, D)),
            (Wall(one_z, D), Wall(GroupElement.from_text(z3z, "c^-2 d"), D)),
            (Wall(one_z, A), Wall(GroupElement.from_text(z3z, "c^-2"), D)),
        ]
        for h1, h2 in cases:
            for p, q in ((h1, h2), (h2, h1)):
                want = common_transversal_directions_by_strip(p, q)
                assert common_transversal_directions(p, q) == want, (p, q)
        assert common_transversal_directions(Wall(one_ck, B), Wall(one_ck, C)) is None

    @seed(2611)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_directions_match_strip_first_oracle(self, z3z, ck, data):
        # the second wall is the first itself, or the first's base times a
        # short drawn word with any generator, so equal, crossing and
        # disjoint pairs all occur, with and without a common link
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        h1 = Wall(draw_element(data, graph, 6), data.draw(st.integers(0, n - 1)))
        if data.draw(st.integers(0, 7)) == 0:
            h2 = h1
        else:
            h2 = Wall(h1.base * draw_element(data, graph, 4), data.draw(st.integers(0, n - 1)))
        want = common_transversal_directions_by_strip(h1, h2)
        assert common_transversal_directions(h1, h2) == want
        assert strongly_separated(h1, h2) == (want == frozenset())

    def test_slab_walls_cross_infinitely(self, z3z):
        one = GroupElement.identity(z3z)
        count = crossing_count(Wall(one, A), Wall(GroupElement.from_text(z3z, "a"), A))
        assert count == (math.inf, True)

    def test_equal_pair_rejected(self, z3z):
        one = GroupElement.identity(z3z)
        with pytest.raises(InvalidPair):
            crossing_count(Wall(one, A), Wall(one, A))

    def test_transverse_pair_rejected(self, z3z):
        one = GroupElement.identity(z3z)
        with pytest.raises(WallsCross):
            crossing_count(Wall(one, A), Wall(one, B))

    def test_zero_iff_oracle_finds_nothing(self, ck, ck_space):
        # a count of 0 means the quadrant oracle finds no transversal in the
        # ball; an infinite count comes with an oracle witness there
        pool, table = ck_space["pool"], ck_space["table"]
        rng = random.Random(23)
        zero_seen = infinite_seen = 0
        pairs = [
            (h1, h2)
            for i, h1 in enumerate(pool)
            for h2 in pool[i + 1 :]
            if not crosses(h1, h2)
        ]
        rng.shuffle(pairs)
        for h1, h2 in pairs[:24]:
            count, certified = crossing_count(h1, h2)
            assert certified is True
            oracle_found = sum(
                1
                for w in pool
                if w not in (h1, h2)
                and four_quadrant(table, w, h1)
                and four_quadrant(table, w, h2)
            )
            if count == 0:
                assert oracle_found == 0, (h1, h2, oracle_found)
                zero_seen += 1
            else:
                assert count == math.inf and oracle_found > 0, (h1, h2)
                infinite_seen += 1
        assert zero_seen >= 3 and infinite_seen >= 3

    def test_ck_neighbour_walls_cross_infinitely(self, ck):
        one = GroupElement.identity(ck)
        assert crossing_count(Wall(one, B), Wall(one, D)) == (math.inf, True)

    @seed(2026)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_ball_oracle(self, z3z, ck, data):
        # 0 exactly when the two balls about the gates hold no transversal;
        # otherwise the count in them grows with the radius, which a finite
        # answer cannot match. The carriers are kept at most 2 apart, so
        # the balls have radius at most 4
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        g1, g2 = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        h1 = Wall(draw_element(data, graph, 3), g1)
        h2 = Wall(h1.base * draw_element(data, graph, 3), g2)
        assume(h1 != h2 and not crosses(h1, h2))
        d = carrier_gates(h1, h2)[0]
        assume(d <= 2)
        near = transversals_near_gates(h1, h2, d + 1)
        if crossing_count(h1, h2) == (0, True):
            assert near == 0, (h1, h2)
        else:
            assert crossing_count(h1, h2) == (math.inf, True)
            assert 0 < near < transversals_near_gates(h1, h2, d + 2), (h1, h2)


def record_noncanonical(monkeypatch) -> list:
    """Collect the syllables of every GroupElement built with a word that
    is not its own normal form."""
    bad: list = []
    init = GroupElement.__init__

    def checked(self, graph, syllables):
        init(self, graph, syllables)
        if _fold(graph, syllables) != tuple(syllables):
            bad.append(syllables)

    monkeypatch.setattr(GroupElement, "__init__", checked)
    return bad


class TestCanonicalElements:
    def test_noncanonical_strip_half_is_refolded(self, ck, monkeypatch):
        # on ck, left-stripping {c, d} from nf(b^-3 c a^-1) keeps b^-3 a^-1,
        # which right-stripping {c} leaves as it is, and whose normal form is
        # a^-1 b^-3; the crossing-count oracle appends such a half to a gate
        bad = record_noncanonical(monkeypatch)
        half = ((B, -3), (A, -1))
        x = GroupElement.from_text(ck, "c").append_syllables(half)
        assert x == GroupElement.from_text(ck, "c b^-3 a^-1")
        assert bad == []

    def test_gates_and_crossing_counts(self, ck, z3z, monkeypatch):
        # gate appends a strip half to a representative, and crossing_count
        # must build no element that skips the refold either
        bad = record_noncanonical(monkeypatch)
        one = GroupElement.identity(ck)
        for text in ("c a b", "b^-3 c a^-1", "d c^2 b a"):
            for h in (Wall(one, A), Wall(GroupElement.from_text(ck, "c"), B), Wall(one, D)):
                gate(GroupElement.from_text(ck, text), h)
        assert crossing_count(Wall(one, B), Wall(one, D))[1] is True
        assert crossing_count(Wall(GroupElement.from_text(ck, "c a"), B), Wall(one, D))[1] is True
        one = GroupElement.identity(z3z)
        assert crossing_count(Wall(one, A), Wall(GroupElement.from_text(z3z, "a"), A))[1] is True
        assert bad == []


class TestGate:
    def test_examples(self, z3z):
        one = GroupElement.identity(z3z)
        assert gate(one, Wall(one, A)) == one
        assert gate(GroupElement.from_text(z3z, "c^-2"), Wall(one, C)) == one
        assert gate(GroupElement.from_text(z3z, "d"), Wall(one, A)) == one

    def test_minimizes_uniquely(self, ck, ck_space):
        rng = random.Random(31)
        verts = ck_space["b3"]
        pool = ck_space["pool"]
        for _ in range(50):
            x = rng.choice(verts)
            h = rng.choice(pool)
            g = gate(x, h)
            assert wall_distance(g, h) == 0  # on the carrier
            dg = bfs_oracle_distance(x, g, 12)
            assert dg == wall_distance(x, h)
            for v in verts:
                if v != g and wall_distance(v, h) == 0:
                    assert bfs_oracle_distance(x, v, 12) > dg, (x, h, v)


class TestSeparatingWalls:
    def test_point_on_carrier(self, z3z):
        one = GroupElement.identity(z3z)
        assert walls_separating_point_from_wall(one, Wall(one, B)) == ()

    def test_c_axis_count(self, z3z):
        # m walls separate c^-m from the wall between 1 and c
        one = GroupElement.identity(z3z)
        for m in (1, 3, 5):
            out = walls_separating_point_from_wall(
                GroupElement.from_text(z3z, f"c^-{m}"), Wall(one, C)
            )
            assert len(out) == m
            assert all(w.gen == C for w in out)

    def test_single_wall(self, z3z):
        one = GroupElement.identity(z3z)
        out = walls_separating_point_from_wall(one, Wall(GroupElement.from_text(z3z, "c"), C))
        assert out == (Wall(one, C),)

    def test_every_wall_separates_from_whole_carrier(self, ck, ck_space):
        rng = random.Random(37)
        verts = ck_space["b3"]
        pool = ck_space["pool"]
        for _ in range(30):
            o = rng.choice(verts)
            k = rng.choice(pool)
            seps = walls_separating_point_from_wall(o, k)
            carrier_samples = [v for v in verts if wall_distance(v, k) == 0][:6]
            for h in seps:
                for cv in carrier_samples:
                    assert side(h, o) != side(h, cv), (o, k, h, cv)

    def test_stray_wall_is_a_violation(self, z3z, monkeypatch):
        # a carrier distance one above the gate geodesic's wall count
        real = walls_module.wall_distance
        monkeypatch.setattr(walls_module, "wall_distance", lambda o, k: real(o, k) + 1)
        one = GroupElement.identity(z3z)
        with pytest.raises(CertificateViolation, match="crossed a stray wall"):
            walls_separating_point_from_wall(GroupElement.from_text(z3z, "c^-3"), Wall(one, C))

    def test_stray_wall_is_a_violation_under_python_O(self):
        script = textwrap.dedent(
            """
            from cubemorse import walls
            from cubemorse.raag import DefiningGraph, GroupElement
            from cubemorse.runpaths import CertificateViolation
            graph = DefiningGraph.from_json("tests/data/z3z.json")
            real = walls.wall_distance
            walls.wall_distance = lambda o, k: real(o, k) + 1
            one = GroupElement.identity(graph)
            try:
                walls.walls_separating_point_from_wall(
                    GroupElement.from_text(graph, "c^-3"), walls.Wall(one, 2)
                )
            except CertificateViolation as e:
                print("raised:", e)
            """
        )
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: gate geodesic from"), proc.stdout
        assert "crossed a stray wall" in proc.stdout


class TestBall:
    def test_small_counts(self, z3z):
        one = GroupElement.identity(z3z)
        assert len(ball(one, 0)) == 1
        assert len(ball(one, 1)) == 9

    def test_matches_letter_bfs_enumeration(self, ck):
        one = GroupElement.identity(ck)
        ours = ball(one, 3)
        seen = {one}
        frontier = [one]
        for _ in range(3):
            nxt = []
            for v in frontier:
                for g in range(4):
                    for s in (1, -1):
                        u = v.append_run(g, s)
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
            frontier = nxt
        assert set(ours) == seen
        for v in ours:
            assert bfs_oracle_distance(one, v, 4) <= 3

    def test_sorted_deterministic(self, ck):
        one = GroupElement.identity(ck)
        assert ball(one, 2) == ball(one, 2)
        lengths = [v.length for v in ball(one, 2)]
        assert lengths == sorted(lengths)

    def test_cap(self, ck):
        with pytest.raises(BallCapExceeded):
            ball(GroupElement.identity(ck), 13)


class TestSigma:
    # sigma(y) is the ultrafilter of y: the halfspace of each wall holding y,
    # i.e. side(h, y) for every wall h
    def test_examples(self, z3z):
        one = GroupElement.identity(z3z)
        ab = GroupElement.from_text(z3z, "a b")
        assert side(Wall(one, A), one) == -1
        assert side(Wall(one, A), ab) == 1
        assert side(Wall(one, B), ab) == 1
