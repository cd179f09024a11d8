"""Boundary rays, wall-counting products, cross ratios, chains."""

import math
import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from cubemorse.raag import (
    DefiningGraph,
    GroupElement,
    Letter,
    MixedGraphs,
    Word,
    distance,
    normal_form,
)
from cubemorse.walls import Wall, wall_of_edge, walls_separating_point_from_wall
from cubemorse.boundary import (
    BoundaryRay,
    ChainExhausted,
    InfiniteTerm,
    InvalidRay,
    MismatchedBase,
    ProductValue,
    SeparatedChain,
    UncertifiedDepth,
    bracket_product,
    cross_ratio_bfm,
    cross_ratio_cr,
    find_separated_chain,
    gromov_product,
    hyp_member,
    ray_walls,
    refine_to_single_wall,
    validate_ray,
)
from oracles import draw_ray, random_graphs, refine_by_separating_walls

DEPTH = 40


def ray(graph, text, base=None):
    return BoundaryRay.from_text(graph, text, base)


def quadruple(graph, n, base=None):
    # the four-point family exercising both cross ratios
    return (
        ray(graph, f"a^{n}|d", base),
        ray(graph, f"a^{n} b|d", base),
        ray(graph, "a^-1 b^-1|d", base),
        ray(graph, "a^-1 b^-1 c|d", base),
    )


class TestRayBasics:
    def test_parse_roundtrip(self, z3z):
        r = ray(z3z, "a^3 b^-1|c d")
        assert r.text() == "a^3 b^-1|c d"
        assert r.base == GroupElement.identity(z3z)

    def test_parse_needs_separator(self, z3z):
        with pytest.raises(InvalidRay):
            ray(z3z, "a b c")

    def test_empty_period_rejected(self, z3z):
        with pytest.raises(InvalidRay):
            ray(z3z, "a|")

    def test_validate_examples(self, z3z):
        assert validate_ray(ray(z3z, "a^3|d"), DEPTH)
        assert not validate_ray(ray(z3z, "a|a^-1 a^-1"), DEPTH)
        assert validate_ray(ray(z3z, "a^-1 b^-1|d"), DEPTH)
        assert validate_ray(ray(z3z, "|d"), DEPTH)

    def test_validate_flat_ray(self, z3z):
        # geodesic but not Morse; validity only checks geodesy + clean tail
        assert validate_ray(ray(z3z, "|a"), DEPTH)

    def test_validate_reordering_period(self, z3z):
        # period commutes backwards past the prefix: never two clean copies
        assert not validate_ray(ray(z3z, "b|a"), DEPTH)

    def test_period_reducing_to_identity(self, z3z):
        assert not validate_ray(ray(z3z, "a|b b^-1"), DEPTH)

    def test_ray_walls_pure_period(self, z3z):
        walls = ray_walls(ray(z3z, "|d"), 3)
        d = z3z.gen_index("d")
        v = GroupElement.identity(z3z)
        expected = []
        for _ in range(3):
            expected.append(wall_of_edge(v, Letter(d, 1)))
            v = v.append_run(d, 1)
        assert list(walls) == expected

    def test_ray_walls_prefix(self, z3z):
        walls = ray_walls(ray(z3z, "a|d"), 1)
        a = z3z.gen_index("a")
        assert walls == (wall_of_edge(GroupElement.identity(z3z), Letter(a, 1)),)

    def test_ray_walls_no_duplicates(self, z3z, ck):
        for graph, text in ((z3z, "a^2 c^-1|b d"), (ck, "b c|a d")):
            walls = ray_walls(ray(graph, text), 30)
            assert len(set(walls)) == len(walls) == 30

    def test_ray_walls_depth_zero(self, z3z):
        assert ray_walls(ray(z3z, "|d"), 0) == ()
        with pytest.raises(ValueError):
            ray_walls(ray(z3z, "|d"), -1)

    def test_rebased_ray_reanchors(self, z3z):
        # from base c^-2 the representative of a^-1 b^-1 d^inf climbs back
        # through two c-walls; the wall sets must reflect that
        base = GroupElement.from_text(z3z, "c^-2")
        walls = ray_walls(ray(z3z, "a^-1 b^-1|d", base), 10)
        c = z3z.gen_index("c")
        assert sum(1 for w in walls if w.gen == c) == 2


class TestBracketProduct:
    def test_table_base_identity(self, z3z):
        for n in (1, 4, 8):
            w, x, y, z = quadruple(z3z, n)
            for p, q in ((w, x), (w, y), (w, z), (x, z), (y, z)):
                pv = bracket_product(p, q, DEPTH)
                assert pv.value == 0
                assert pv.certified

    def test_rebased_y_z(self, z3z):
        for m in (1, 3):
            base = GroupElement.from_text(z3z, f"c^-{m}")
            y = ray(z3z, "a^-1 b^-1|d", base)
            z = ray(z3z, "a^-1 b^-1 c|d", base)
            pv = bracket_product(y, z, DEPTH)
            assert pv.value == m
            assert pv.certified

    def test_same_ray_infinite(self, z3z):
        w = ray(z3z, "a^4|d")
        pv = bracket_product(w, w, DEPTH)
        assert pv.value == math.inf
        assert pv.certified

    def test_same_point_different_presentation(self, z3z):
        # equal boundary point, shifted presentation: empty difference at
        # depth but structurally distinct, so the infinity is uncertified
        pv = bracket_product(ray(z3z, "|d"), ray(z3z, "d|d"), DEPTH)
        assert pv.value == math.inf
        assert not pv.certified

    def test_mismatched_base(self, z3z):
        w = ray(z3z, "a^4|d")
        other = ray(z3z, "a^4|d", GroupElement.from_text(z3z, "c"))
        with pytest.raises(MismatchedBase):
            bracket_product(w, other, DEPTH)

    def test_different_graphs_are_named(self, z3z, ck):
        with pytest.raises(MismatchedBase, match="different defining graphs"):
            bracket_product(ray(z3z, "a|d"), ray(ck, "a|d"), DEPTH)

    def test_equal_graphs_mix(self, z3z):
        twin = DefiningGraph.from_data(
            {"generators": ["a", "b", "c", "d"], "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}
        )
        assert twin is not z3z and twin == z3z
        pv = bracket_product(ray(z3z, "a^4|d"), ray(twin, "a^4 b|d"), DEPTH)
        assert (pv.value, pv.certified) == (0, True)

    def test_symmetry(self, z3z, ck):
        random.seed(3)
        pairs = 0
        for graph, names in ((z3z, "abc"), (ck, "abcd")):
            while pairs < 30:
                p = _random_ray(graph, names, ["d", "a d", "d^2"])
                q = _random_ray(graph, names, ["d", "a d", "d^2"])
                if not (validate_ray(p, 30) and validate_ray(q, 30)):
                    continue
                a = bracket_product(p, q, 30)
                b = bracket_product(q, p, 30)
                assert (a.value, a.certified) == (b.value, b.certified)
                pairs += 1

    def test_depth_monotone_certified(self, z3z):
        y = ray(z3z, "a^-1 b^-1|d", GroupElement.from_text(z3z, "c^-3"))
        z = ray(z3z, "a^-1 b^-1 c|d", GroupElement.from_text(z3z, "c^-3"))
        vals = []
        for depth in (20, 30, 40):
            pv = bracket_product(y, z, depth)
            if pv.certified:
                vals.append(pv.value)
        assert vals and all(v == vals[0] for v in vals)


class TestGromovProduct:
    def test_common_a_walls(self, z3z):
        for n in (1, 4, 8):
            w, x, _, _ = quadruple(z3z, n)
            pv = gromov_product(w, x, DEPTH)
            assert pv.value == n
            assert pv.certified

    def test_disjoint_pairs_zero(self, z3z):
        w, x, y, z = quadruple(z3z, 4)
        for p, q in ((w, y), (w, z), (x, z)):
            pv = gromov_product(p, q, DEPTH)
            assert pv.value == 0
            assert pv.certified

    def test_shared_prefix_counts(self, z3z):
        # y and z run along the same two edges before splitting
        _, _, y, z = quadruple(z3z, 4)
        pv = gromov_product(y, z, DEPTH)
        assert pv.value == 2
        assert pv.certified

    def test_self_product_uncertified(self, z3z):
        w = ray(z3z, "a^4|d")
        pv = gromov_product(w, w, DEPTH)
        assert pv.value == DEPTH
        assert not pv.certified


@seed(2404)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_certified_products_hold_at_four_times_the_depth(z3z, ck, data):
    # a certified value is final: reading both rays four times as deep,
    # past walls the shallow index never saw, gives the same value
    graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
    n = len(graph.generators)
    syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
    base = normal_form(Word(graph, data.draw(st.lists(syllable, max_size=3))))
    p, q = (draw_ray(data, graph, base) for _ in range(2))
    if data.draw(st.booleans()):
        # p's period runs, permuted, behind q's prefix: where runs commute,
        # the two rays cross shared walls in different orders, so the
        # shallow depth cuts them off at different places
        runs = data.draw(st.permutations(p.period.runs))
        q = BoundaryRay(base, q.prefix, Word(graph, runs))
    depth = data.draw(st.sampled_from((3, 5, 8)))
    assume(validate_ray(p, 4 * depth) and validate_ray(q, 4 * depth))
    for product in (bracket_product, gromov_product):
        shallow = product(p, q, depth)
        if shallow.certified:
            assert product(p, q, 4 * depth).value == shallow.value, product.__name__


class TestCrossRatios:
    def test_cr_base_identity_zero(self, z3z):
        for n in (1, 4, 8):
            value, certified = cross_ratio_cr(*quadruple(z3z, n), DEPTH)
            assert value == 0
            assert certified

    def test_cr_rebased(self, z3z):
        for m in (1, 2, 5):
            base = GroupElement.from_text(z3z, f"c^-{m}")
            value, certified = cross_ratio_cr(*quadruple(z3z, 4, base), DEPTH)
            assert value == m
            assert certified

    def test_bfm_base_identity(self, z3z):
        # (w|x)=n and (y|z)=2 through the shared initial edges
        for n in (1, 4, 8):
            value, certified = cross_ratio_bfm(*quadruple(z3z, n), DEPTH)
            assert value == n + 2
            assert certified

    def test_cr_symmetry(self, z3z):
        w, x, y, z = quadruple(z3z, 3)
        assert cross_ratio_cr(w, x, y, z, DEPTH) == cross_ratio_cr(x, w, z, y, DEPTH)
        assert cross_ratio_bfm(w, x, y, z, DEPTH) == cross_ratio_bfm(x, w, z, y, DEPTH)

    def test_infinite_term(self, z3z):
        w, x, y, _ = quadruple(z3z, 3)
        with pytest.raises(InfiniteTerm):
            cross_ratio_cr(w, x, y, y, DEPTH)

    def test_metric_exponent(self, z3z):
        w, x, _, _ = quadruple(z3z, 4)
        pv = bracket_product(w, x, DEPTH)
        assert pv.value == 0  # distance e^0 = 1
        pv = bracket_product(w, w, DEPTH)
        assert pv.value == math.inf  # distance 0


def _random_ray(graph, names, periods):
    toks = []
    for _ in range(random.randrange(0, 3)):
        toks.append(f"{random.choice(names)}^{random.choice([-2, -1, 1, 2])}")
    return BoundaryRay.from_text(graph, " ".join(toks) + "|" + random.choice(periods))


class TestUltrametric:
    def test_certified_triples(self, z3z, ck):
        random.seed(11)
        # periods must cross strongly separated pairs for certification:
        # any d-run works in the tripod-of-flats group, while the path
        # graph needs both end generators a and d in the period
        cases = (
            (z3z, "abc", ["d", "d^2", "a d", "c d"]),
            (ck, "abcd", ["a d", "a d^2", "a^2 d", "a^-1 d"]),
        )
        for graph, names, periods in cases:
            done = 0
            tries = 0
            while done < 40 and tries < 600:
                tries += 1
                rays = [_random_ray(graph, names, periods) for _ in range(3)]
                if not all(validate_ray(r, 30) for r in rays):
                    continue
                ps = [
                    bracket_product(rays[i], rays[j], 30)
                    for i, j in ((0, 1), (1, 2), (0, 2))
                ]
                if not all(p.certified for p in ps):
                    continue
                xy, yz, xz = (p.value for p in ps)
                assert xz >= min(xy, yz)
                done += 1
            assert done == 40


class TestChains:
    def test_periodic_ray_chain(self, z3z):
        ch = find_separated_chain(ray(z3z, "a^4|d"), 0, 5, DEPTH)
        assert len(ch) >= 8
        assert all(g < 5 for g in ch.gaps)

    def test_flat_ray_empty(self, z3z):
        ch = find_separated_chain(ray(z3z, "|a"), 0, 5, DEPTH)
        assert len(ch) == 0

    def test_depth_zero_empty(self, z3z):
        assert len(find_separated_chain(ray(z3z, "|d"), 0, 5, 0)) == 0

    def test_gap_bound_respected(self, z3z):
        # d-walls sit one apart; with r=2 every consecutive gap must be 1
        ch = find_separated_chain(ray(z3z, "|d"), 0, 2, 20)
        assert len(ch) == 20
        assert set(ch.gaps) == {1}


class TestHypAndRefine:
    def test_member_true(self, z3z):
        a0 = wall_of_edge(GroupElement.identity(z3z), Letter(z3z.gen_index("a"), 1))
        assert hyp_member(ray(z3z, "a^4|d"), {a0}, DEPTH)

    def test_member_false(self, z3z):
        a0 = wall_of_edge(GroupElement.identity(z3z), Letter(z3z.gen_index("a"), 1))
        assert not hyp_member(ray(z3z, "a^-1 b^-1|d"), {a0}, DEPTH)

    def test_member_empty_set(self, z3z):
        assert hyp_member(ray(z3z, "|d"), set(), DEPTH)

    def test_member_uncertified(self, z3z):
        # flat ray has no strongly separated pair, so absence of a remote
        # wall cannot be certified
        far = wall_of_edge(GroupElement.from_text(z3z, "d"), Letter(z3z.gen_index("d"), 1))
        with pytest.raises(UncertifiedDepth):
            hyp_member(ray(z3z, "|a"), {far}, 10)

    def test_refine_containment(self, z3z):
        o = GroupElement.identity(z3z)
        r = ray(z3z, "a^4|d")
        a0 = wall_of_edge(o, Letter(z3z.gen_index("a"), 1))
        chain = find_separated_chain(r, 0, 5, DEPTH)
        k = refine_to_single_wall(r, {a0}, chain, DEPTH)
        assert a0 in set(walls_separating_point_from_wall(o, k))

    def test_refine_empty_walls(self, z3z):
        r = ray(z3z, "|d")
        chain = find_separated_chain(r, 0, 5, DEPTH)
        assert refine_to_single_wall(r, set(), chain, DEPTH) == chain.walls[0]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_refine_matches_separating_walls(self, z3z, ck, data):
        # a chain wall past the inputs is behind all of them exactly when
        # none crosses it; the "chain" may be every wall of the ray, so
        # walls that cross an input are offered too
        graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
        n = len(graph.generators)
        syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
        base = normal_form(Word(graph, data.draw(st.lists(syllable, max_size=3))))
        r = draw_ray(data, graph, base)
        assume(not normal_form(r.period).is_identity)
        depth = data.draw(st.sampled_from((6, 10, 16)))
        walls = ray_walls(r, depth)
        if data.draw(st.booleans()):
            chain = find_separated_chain(r, 0, 5, depth)
        else:
            chain = SeparatedChain(walls, (1,) * (len(walls) - 1), 0, 2)
        inputs = data.draw(st.sets(st.sampled_from(walls), max_size=3))
        want = refine_by_separating_walls(r, inputs, chain.walls, depth)
        if want is None:
            with pytest.raises(ChainExhausted):
                refine_to_single_wall(r, inputs, chain, depth)
        else:
            assert refine_to_single_wall(r, inputs, chain, depth) == want

    def test_refine_exhausted(self, z3z):
        r = ray(z3z, "a^4|d")
        chain = find_separated_chain(r, 0, 5, DEPTH)
        last = chain.walls[-1]
        with pytest.raises(ChainExhausted):
            refine_to_single_wall(r, {last}, chain, DEPTH)

    def test_walls_over_another_graph_are_not_ray_walls(self, z3z, ck):
        # d^3@d over ck has the generator and base syllables of the fourth
        # wall of |d over z3z, but it is a wall of another complex: the ray
        # does not cross it, and a chain made of such walls offers none
        r = ray(z3z, "|d")
        d = ck.gen_index("d")
        assert d == z3z.gen_index("d")
        foreign = [Wall(GroupElement.from_text(ck, f"d^{k}"), d) for k in (3, 4)]
        here = ray_walls(r, DEPTH)[3]
        assert (foreign[0].gen, foreign[0].base.syllables) == (here.gen, here.base.syllables)
        with pytest.raises(MixedGraphs):
            hyp_member(r, [foreign[0]], DEPTH)
        chain = find_separated_chain(r, 0, 5, DEPTH)
        with pytest.raises(ValueError, match="not crossed"):
            refine_to_single_wall(r, [foreign[0]], chain, DEPTH)
        with pytest.raises(ChainExhausted):
            refine_to_single_wall(r, [here], SeparatedChain(tuple(foreign), (1,), 0, 5), DEPTH)
