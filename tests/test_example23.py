"""The glued labeled graph, its basepoint experiment, and the overlap check."""

import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorse.example23 import (
    ALPHABET14,
    LabeledGraph,
    basepoint_experiment,
    build_example23,
    example23_relators,
    free_alphabet_graph,
    small_cancellation_check,
)
from cubemorse.raag import (
    CertificateViolation,
    ConfigError,
    GroupElement,
    MixedGraphs,
    PreconditionFailed,
    parse_word,
)

from childproc import run_python
from oracles import basepoint_experiment_all_pairs, fellow_travel_radius, geodesic_by_early_stop

SQUARES = "poly 1 0 1"  # f(i) = i^2 + 1
MISCOUNT = "glued graph has the wrong vertex or edge count"


@pytest.fixture(scope="module")
def ex6():
    return build_example23(SQUARES, i_max=6, tail=20)


@pytest.fixture(scope="module")
def relators6():
    return example23_relators(SQUARES, 6)


class TestLabeledGraph:
    def test_counts_and_duplicates(self):
        g = LabeledGraph()
        g.add_vertex("x")
        g.add_vertex("y")
        g.add_edge("x", "y", "a")
        assert (g.vertex_count, g.edge_count) == (2, 1)
        with pytest.raises(ConfigError):
            g.add_vertex("x")
        with pytest.raises(ConfigError):
            g.add_edge("x", "y", "b")
        with pytest.raises(ConfigError):
            g.add_edge("x", "x", "a")

    def test_bfs_geodesic_deterministic(self):
        g = LabeledGraph()
        for v in "pqrs":
            g.add_vertex(v)
        g.add_edge("p", "q", "a")
        g.add_edge("p", "r", "a")
        g.add_edge("q", "s", "a")
        g.add_edge("r", "s", "a")
        assert g.distance("p", "s") == 2
        # two geodesics exist; sorted neighbor order picks the q route
        assert g.geodesic("p", "s") == ["p", "q", "s"]

    def test_unreachable(self):
        g = LabeledGraph()
        g.add_vertex("x")
        g.add_vertex("y")
        with pytest.raises(ValueError):
            g.distance("x", "y")


class TestBuildExample23:
    def test_f_values(self, ex6):
        assert ex6.f_values == {1: 2, 2: 5, 3: 10, 4: 17, 5: 26, 6: 37}

    def test_count_formulas(self, ex6):
        g = ex6.graph
        branch = sum(12 * v + 20 for v in ex6.f_values.values())
        assert g.vertex_count == 1 + 20 + 6 + branch
        assert g.edge_count == 20 + 6 + branch + 6

    def test_miscount_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(LabeledGraph, "edge_count", property(lambda g: 0))
        with pytest.raises(CertificateViolation, match=MISCOUNT):
            build_example23(SQUARES, i_max=2, tail=4)

    def test_miscount_is_a_violation_under_python_O(self):
        # explicit check, not an assert
        script = textwrap.dedent(
            """
            from cubemorse import example23
            from cubemorse.raag import CertificateViolation
            example23.LabeledGraph.vertex_count = property(lambda g: 0)
            try:
                example23.build_example23("poly 1 0 1", i_max=2, tail=4)
            except CertificateViolation as e:
                print("raised:", e)
            """
        )
        proc = run_python("-O", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"raised: {MISCOUNT}\n", proc.stdout

    def test_first_betti_number_counts_glued_loops(self, ex6):
        g = ex6.graph
        assert g.edge_count - g.vertex_count + 1 == 6

    def test_basepoints_adjacent(self, ex6):
        assert ex6.graph.distance(ex6.o, ex6.o_prime) == 1
        assert ex6.graph.label(ex6.o, ex6.o_prime) == "c"

    def test_route_lengths_tie_but_routes_differ(self, ex6):
        g = ex6.graph
        for i in (1, 4, 6):
            end = ex6.ray_end(i)
            d_o = g.distance(ex6.o, end)
            assert d_o == i + 6 * ex6.f_values[i] + 20
            assert g.distance(ex6.o_prime, end) == d_o
        geo_o = g.geodesic(ex6.o, ex6.ray_end(3))
        geo_op = g.geodesic(ex6.o_prime, ex6.ray_end(3))
        assert "a3" in geo_o and "s3.1" not in geo_o
        assert "s3.1" in geo_op and "a3" not in geo_op

    def test_branch_ray_labels(self, ex6):
        g = ex6.graph
        ray = ("a2",) + tuple(f"r2.{k}" for k in range(1, 7))
        labels = [g.label(ray[k], ray[k + 1]) for k in range(6)]
        # f(2) = 5, so the first block of five is b1
        assert labels == ["b1"] * 5 + ["b2"]

    def test_shortcut_labels_descend(self, ex6):
        g = ex6.graph
        assert g.label("c2", "s2.1") == "b1"
        assert g.label("s2.1", "s2.2") == "d6"
        assert g.label("s2.29", "s2.30") == "d1"
        assert g.label("s2.30", "r2.30") == "d1"

    def test_callable_f(self):
        ex = build_example23(lambda i: i * i + 1, i_max=3, tail=5)
        assert ex.f_values == {1: 2, 2: 5, 3: 10}

    def test_rejects_non_superlinear(self):
        with pytest.raises(PreconditionFailed):
            build_example23("poly 0 1", i_max=4, tail=10)  # f(i) = i
        with pytest.raises(PreconditionFailed):
            build_example23("poly 5", i_max=4, tail=10)  # constant
        with pytest.raises(PreconditionFailed):
            build_example23("poly 0 2", i_max=4, tail=10)  # f/i flat

    def test_rejects_fractional_f(self):
        with pytest.raises(PreconditionFailed):
            build_example23("poly 1/2 0 1", i_max=3, tail=8)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigError):
            build_example23(SQUARES, i_max=6, tail=3)
        with pytest.raises(ConfigError):
            build_example23(SQUARES, i_max=0, tail=5)

    def test_bad_poly_spec(self):
        with pytest.raises(ConfigError):
            build_example23("poly", i_max=2, tail=4)
        with pytest.raises(ConfigError):
            build_example23("poly x y", i_max=2, tail=4)


class TestBasepointExperiment:
    def test_rows_with_kappa_two(self, ex6):
        rows = basepoint_experiment(ex6, 2)
        assert [r.i for r in rows] == [1, 2, 3, 4, 5, 6]
        for r in rows:
            assert r.radius_o == r.i + 2
            assert r.radius_o >= r.i
            assert r.radius_oprime == 1
            assert r.radius_oprime <= 4
            assert r.d_o == r.d_oprime

    def test_growth_vs_constant(self, ex6):
        rows = basepoint_experiment(ex6, 2)
        o_radii = [r.radius_o for r in rows]
        assert o_radii == sorted(o_radii) and o_radii[-1] > o_radii[0]
        assert len({r.radius_oprime for r in rows}) == 1

    def test_i_range_subset(self, ex6):
        rows = basepoint_experiment(ex6, 2, i_range=(3, 5))
        assert [r.i for r in rows] == [3, 5]

    @given(
        f=st.sampled_from(["poly 1 0 1", "poly 1 1 1", "poly 3 1 2", "poly 2 0 0 1"]),
        i_max=st.integers(1, 8),
        extra=st.integers(0, 10),
        kappa_val=st.integers(0, 5),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_all_pairs_reference(self, f, i_max, extra, kappa_val, data):
        # three BFS passes against a table per spine vertex and the
        # all-pairs fellow-travel radius
        ex = build_example23(f, i_max=i_max, tail=i_max + extra)
        subset = st.lists(st.integers(1, i_max), unique=True, max_size=i_max)
        i_range = data.draw(st.none() | subset)
        want = basepoint_experiment_all_pairs(ex, kappa_val, i_range)
        assert basepoint_experiment(ex, kappa_val, i_range) == want

    def test_geodesics_match_early_stopping_bfs(self, ex6):
        g = ex6.graph
        for u in (ex6.o, ex6.o_prime, "a4", "s3.7", "r5.40"):
            for v in g.vertices()[::97]:
                assert g.geodesic(u, v) == geodesic_by_early_stop(g, u, v)


class TestFellowTravel:
    # the all-pairs radius the experiment is checked against
    def test_parallel_lines(self, z3z):
        o = GroupElement.identity(z3z)
        alpha = [GroupElement.from_text(z3z, f"a^{i}") for i in range(1, 9)]
        beta = [GroupElement.from_text(z3z, f"a^{i} b") for i in range(1, 9)]
        assert fellow_travel_radius(alpha, beta, 1, o) == 8
        assert fellow_travel_radius(alpha, beta, 0, o) == 0

    def test_self(self, z3z):
        o = GroupElement.identity(z3z)
        alpha = [o] + [GroupElement.from_text(z3z, f"a^{i}") for i in range(1, 7)]
        assert fellow_travel_radius(alpha, alpha, 0, o) == 6

    def test_custom_distance(self):
        # plain integer line with |x-y| metric
        dist = lambda p, q: abs(p - q)
        alpha = list(range(10))
        beta = [3, 4]
        assert fellow_travel_radius(alpha, beta, 1, 0, dist=dist) == 5


class TestRelators:
    def test_alphabet(self):
        g = free_alphabet_graph()
        assert tuple(g.generators) == ALPHABET14
        assert not g.adjacent(0, 7)

    def test_lengths(self, relators6):
        assert [len(w) for w in relators6] == [27, 65, 127, 213, 323, 457]

    def test_first_relator_text(self, relators6):
        assert relators6[0].text() == (
            "a b1^2 b2^2 b3^2 b4^2 b5^2 b6^2 "
            "d1^-2 d2^-2 d3^-2 d4^-2 d5^-2 d6^-2 b1^-1 c^-1"
        )

    def test_rejects_unusable_f(self):
        with pytest.raises(PreconditionFailed):
            example23_relators("poly 0 1", 2)


class TestSmallCancellation:
    def test_frozen_sixth_bound(self, relators6):
        rep = small_cancellation_check(relators6)
        assert rep.max_ratio == Fraction(52, 323)
        assert rep.piece_length == 52
        assert rep.relator_pair == (4, 5)
        assert rep.piece == "b1^26 b2^26"
        assert rep.relator_lengths == (27, 65, 127, 213, 323, 457)
        assert rep.passes_sixth

    def test_bound_is_tight(self, relators6):
        # 52/323 < 1/6 by exactly eleven letters of slack
        rep = small_cancellation_check(relators6)
        assert rep.max_ratio * 6 == Fraction(312, 323)

    def test_same_relator_piece(self, relators6):
        rep = small_cancellation_check([relators6[5]])
        # a maximal run minus one letter repeats inside one relator
        assert rep.piece_length == 36
        assert rep.max_ratio == Fraction(36, 457)
        assert rep.passes_sixth

    def test_first_relator_alone(self, relators6):
        rep = small_cancellation_check([relators6[0]])
        assert rep.max_ratio == Fraction(1, 27)

    def test_no_repeats_relator(self):
        g = free_alphabet_graph()
        w = parse_word("a b1 c d1", g)
        rep = small_cancellation_check([w])
        assert rep.max_ratio == 0
        assert rep.passes_sixth

    def test_rejects_equal_relators(self, relators6):
        with pytest.raises(ValueError):
            small_cancellation_check([relators6[0], relators6[0]])

    def test_rejects_unreduced(self):
        g = free_alphabet_graph()
        with pytest.raises(ValueError):
            small_cancellation_check([parse_word("a b1 b1^-1 a", g)])
        # reduced but not cyclically: conjugate ends cancel around the seam
        with pytest.raises(ValueError):
            small_cancellation_check([parse_word("a b1 c a^-1", g)])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            small_cancellation_check([])

    def test_equal_graphs_give_the_same_report(self):
        texts = ["a b1^3 c", "d1 b1^-3 d2"]
        one = free_alphabet_graph()
        shared = small_cancellation_check([parse_word(t, one) for t in texts])
        apart = small_cancellation_check([parse_word(t, free_alphabet_graph()) for t in texts])
        assert apart == shared

    def test_different_graphs_raise(self, z3z):
        w1 = parse_word("a b", z3z)
        w2 = parse_word("a b1^3 c", free_alphabet_graph())
        with pytest.raises(MixedGraphs, match="relators must share one alphabet"):
            small_cancellation_check([w1, w2])

    def test_inverse_pair_detected(self):
        g = free_alphabet_graph()
        w1 = parse_word("a b1^3 c", g)
        w2 = parse_word("d1 b1^-3 d2", g)
        rep = small_cancellation_check([w1, w2])
        # w2 inverse contains b1^3, overlapping w1 in three letters
        assert rep.piece_length == 3
        assert rep.max_ratio == Fraction(3, 5)
        assert not rep.passes_sixth
