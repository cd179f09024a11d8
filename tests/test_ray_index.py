"""The per-ray wall index behind the boundary products, checked against
brute force over walls.crosses / walls.strongly_separated."""

import contextlib
import random
import textwrap
from unittest import mock

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from childproc import run_python
from cubemorse import boundary
from cubemorse import raag as raag_module
from cubemorse import walls as walls_module
from cubemorse.boundary import (
    BoundaryRay,
    InvalidRay,
    ProductValue,
    _ray_index,
    bracket_product,
    cross_ratio_cr,
    find_separated_chain,
    gromov_product,
    ray_walls,
    validate_ray,
)
from cubemorse.raag import GroupElement, Word, normal_form
from cubemorse.walls import Wall, crossing_count, wall_distance
from oracles import (
    bracket_product_by_lower_bound,
    common_transversal_directions_by_strip,
    draw_ray,
    oracle_chain,
    oracle_lower,
    random_graphs,
    ray_index_by_steps,
)

GAMMA_PERIOD = "b c c d c b b a".split()
ROTATIONS = [" ".join(GAMMA_PERIOD[i:] + GAMMA_PERIOD[:i]) for i in range(8)]
Z3Z_PERIODS = ["d", "a d", "b d", "a^2 d", "d^2"]
HAND_PICKED = {
    "z3z": ["a^4|d", "|d", "|a", "a^2 c^-1|b d", "c^-1 a|d^2"],
    "ck": ["|b c c d c b b a", "b c|a d", "|a d^2", "a^-1|a^-1 d", "|a^6 d"],
}
# rays based off the identity whose representatives have negative letters
BASED = {
    "z3z": ("c^-3", ["a^-1 b^-1|d", "c^2 a^-2|d", "a^4|d"]),
    "ck": ("c^-3", ["a^-1|a^-1 d", "c^3 b^-1|a^-1 d", "|b c c d c b b a"]),
}


def morse_pool(graph, periods, rng, want):
    """Random valid rays with a separated chain of at least three walls,
    drawn as the acceptance gate's AC2 draws them."""
    pool = []
    while len(pool) < want:
        prefix = " ".join(
            f"{rng.choice(graph.generators)}^{rng.choice((-2, -1, 1, 2))}"
            for _ in range(rng.randrange(0, 4))
        )
        try:
            r = BoundaryRay.from_text(graph, f"{prefix}|{rng.choice(periods)}")
        except ValueError:
            continue
        if validate_ray(r, 40) and len(find_separated_chain(r, 0, 5, 40)) >= 3:
            pool.append(r)
    return pool


@pytest.fixture(scope="module")
def rays(z3z, ck):
    rng = random.Random(4242)
    out = {
        "z3z": morse_pool(z3z, Z3Z_PERIODS, rng, 5),
        "ck": morse_pool(ck, ROTATIONS, rng, 5),
    }
    for name, graph in (("z3z", z3z), ("ck", ck)):
        out[name] += [BoundaryRay.from_text(graph, t) for t in HAND_PICKED[name]]
    return out


@pytest.mark.parametrize("depth", [16, 40])
def test_index_matches_brute_force(rays, z3z, ck, depth):
    rng = random.Random(depth)
    based = [
        BoundaryRay.from_text(graph, t, GroupElement.from_text(graph, BASED[name][0]))
        for name, graph in (("z3z", z3z), ("ck", ck))
        for t in BASED[name][1]
    ]
    for pool in list(rays.values()) + [based]:
        for ray in pool:
            index = _ray_index(ray, depth)
            walls, dists = ray_index_by_steps(ray, depth)
            assert index.walls == walls
            # positions are keyed by the names Wall gives its walls
            assert index.pos == {(w.gen, w.base.syllables): t for t, w in enumerate(walls)}
            # the memo must not depend on which question filled it first
            queries = [("dist", t) for t in range(len(walls))]
            queries += [("chain", r) for r in (None, 2, 5)] + [("tail", None)]
            rng.shuffle(queries)
            for kind, arg in queries:
                if kind == "dist":
                    # the earlier walls not crossing wall t are exactly
                    # the walls separating the base from its carrier
                    want = wall_distance(ray.base, walls[arg])
                    assert index.dist(arg) == dists[arg] == oracle_lower(walls, arg) == want
                elif kind == "chain":
                    assert index.chain(arg) == oracle_chain(walls, arg)
                else:
                    want = max(0, len(oracle_chain(walls, None)) - 1)
                    assert index.tail_exceeds(want - 1) and not index.tail_exceeds(want)


def test_products_cold_equal_warm(rays):
    pairs = [
        (pool[i], pool[j])
        for pool in rays.values()
        for i in range(len(pool))
        for j in range(len(pool))
        if i != j
    ][::3]

    def products(p, q):
        b, g = bracket_product(p, q, 40), gromov_product(p, q, 40)
        return (b.value, b.certified, g.value, g.certified)

    cold = []
    for p, q in pairs:
        _ray_index.cache_clear()
        cold.append(products(p, q))
    for pool in rays.values():
        for ray in pool:
            _ray_index(ray, 40).tail_exceeds(40)
    warm = [products(p, q) for p, q in reversed(pairs)][::-1]
    assert cold == warm


def test_chain_same_for_every_n(rays):
    # a RAAG crossing count is 0 or infinite, and only 0 is certified, so
    # n-separated for n >= 0 means strongly separated
    for pool in rays.values():
        for ray in pool:
            chains = [find_separated_chain(ray, n, 5, 40) for n in (0, 1, 2)]
            assert len({(c.walls, c.gaps) for c in chains}) == 1
            for h1, h2 in zip(chains[0].walls, chains[0].walls[1:]):
                assert crossing_count(h1, h2) == (0, True)


BRACKET_DEPTH = 24


@seed(2301)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_bracket_matches_pruned_oracle(z3z, ck, data):
    # two valid rays anchored at one base off the identity, on a fixture
    # or a random graph; the product must not depend on the memo's state
    graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
    n = len(graph.generators)
    syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
    base = normal_form(Word(graph, data.draw(st.lists(syllable, min_size=1, max_size=3))))
    assume(not base.is_identity)
    p, q = (draw_ray(data, graph, base) for _ in range(2))
    assume(validate_ray(p, BRACKET_DEPTH) and validate_ray(q, BRACKET_DEPTH))
    want = bracket_product_by_lower_bound(p, q, BRACKET_DEPTH)
    _ray_index.cache_clear()
    assert bracket_product(p, q, BRACKET_DEPTH) == want
    for ray in (q, p):
        index = _ray_index(ray, BRACKET_DEPTH)
        for t in reversed(range(len(index.walls))):
            index.dist(t)
        index.tail_exceeds(BRACKET_DEPTH)
    assert bracket_product(p, q, BRACKET_DEPTH) == want


@seed(2302)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_tail_exceeds_matches_oracle(z3z, ck, data):
    # every threshold from -1 to the depth, asked in a drawn order among
    # chain and distance queries, against the greedy scan from every start;
    # the early-stopping scan must resume correctly whatever came before
    graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
    n = len(graph.generators)
    syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
    base = normal_form(Word(graph, data.draw(st.lists(syllable, max_size=3))))
    ray = draw_ray(data, graph, base)
    assume(validate_ray(ray, BRACKET_DEPTH))
    _ray_index.cache_clear()
    index = _ray_index(ray, BRACKET_DEPTH)
    walls = index.walls
    dists = tuple(index.dist(t) for t in range(len(walls)))
    assert (walls, dists) == ray_index_by_steps(ray, BRACKET_DEPTH)
    tail = max(0, len(oracle_chain(walls, None)) - 1)
    queries = [("tail", x) for x in range(-1, BRACKET_DEPTH + 1)]
    queries += [("chain", r) for r in (None, 2, 5)]
    queries += [("dist", t) for t in range(len(walls))]
    for kind, arg in data.draw(st.permutations(queries)):
        if kind == "tail":
            assert index.tail_exceeds(arg) == (tail > arg)
        elif kind == "chain":
            assert index.chain(arg) == oracle_chain(walls, arg)
        else:
            assert index.dist(arg) == oracle_lower(walls, arg)
    assert index.tail_exceeds(tail - 1) and not index.tail_exceeds(tail)


@seed(2303)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_separated_matches_double_strip_of_walls(z3z, ck, data):
    # the index separates two of its walls by the letters between their
    # crossings; that must agree with the double strip of the two walls'
    # own bases, on the literal representative and on the shortlex one
    graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
    n = len(graph.generators)
    syllable = st.tuples(st.integers(0, n - 1), st.sampled_from((-2, -1, 1, 2)))
    base = normal_form(Word(graph, data.draw(st.lists(syllable, max_size=3))))
    ray = draw_ray(data, graph, base)
    shortlex = data.draw(st.booleans())
    _ray_index.cache_clear()
    # no literal letters: the index falls back to the shortlex representative
    patch = mock.patch.object(boundary, "_literal_letters", lambda ray, depth: None)
    with patch if shortlex else contextlib.nullcontext():
        try:
            index = _ray_index(ray, BRACKET_DEPTH)
        except InvalidRay:
            assume(False)
    walls = index.walls
    for j in range(len(walls)):
        for i in range(j):
            want = common_transversal_directions_by_strip(walls[i], walls[j]) == frozenset()
            assert index.separated(i, j) == want, (ray, shortlex, i, j)


def test_fresh_cross_ratio_separation_tests(z3z, monkeypatch):
    # a cold AC1 cross ratio stops each tail scan at the first chain long
    # enough to certify, so a deeper base costs no more separation tests;
    # and a pair of d walls, or of an a wall and a d wall, is separated by
    # the defining graph alone, so most tests make no double strip, whose
    # first half is the left strip
    calls = {"separated": 0, "strip": 0}
    real_mask, real_strip = boundary._separation_mask, walls_module._strip_left

    def mask(graph, g1, between, g2):
        calls["separated"] += 1
        return real_mask(graph, g1, between, g2)

    def strip(graph, syllables, gens_mask):
        calls["strip"] += 1
        return real_strip(graph, syllables, gens_mask)

    monkeypatch.setattr(boundary, "_separation_mask", mask)
    monkeypatch.setattr(walls_module, "_strip_left", strip)
    counts = []
    for m in (2, 12):
        base = GroupElement.from_text(z3z, f"c^-{m}")
        rays = [
            BoundaryRay.from_text(z3z, t, base)
            for t in ("a^4|d", "a^4 b|d", "a^-1 b^-1|d", "a^-1 b^-1 c|d")
        ]
        _ray_index.cache_clear()
        calls.update(separated=0, strip=0)
        assert cross_ratio_cr(*rays, 40) == (m, True)
        counts.append((calls["separated"], calls["strip"]))
    assert counts[1][0] <= 160
    assert counts[0][0] == counts[1][0]
    assert counts[0][1] <= 64 and counts[1][1] <= 64


def test_fresh_cross_ratio_builds_no_wall(z3z, monkeypatch):
    # a cold AC1 query, the cross ratio and (w|x) as the benchmark asks
    # them, compares walls by key and separates them by the letters between
    # their crossings: no Wall is made and no quotient taken
    calls = {"wall": 0, "quotient": 0}
    real_wall = Wall.__post_init__

    def wall(self):
        calls["wall"] += 1
        real_wall(self)

    def counted_quotient(real):
        def quotient(a, b):
            calls["quotient"] += 1
            return real(a, b)
        return quotient

    monkeypatch.setattr(Wall, "__post_init__", wall)
    for module in (raag_module, walls_module):
        monkeypatch.setattr(module, "quotient", counted_quotient(module.quotient))
    base = GroupElement.from_text(z3z, "c^-5")
    rays = [
        BoundaryRay.from_text(z3z, t, base)
        for t in ("a^3|d", "a^3 b|d", "a^-1 b^-1|d", "a^-1 b^-1 c|d")
    ]
    _ray_index.cache_clear()
    assert cross_ratio_cr(*rays, 40) == (5, True)
    assert gromov_product(rays[0], rays[1], 40) == ProductValue(8, True, 40)
    assert calls == {"wall": 0, "quotient": 0}
    # reading the walls builds each one once
    assert len(ray_walls(rays[0], 40)) == 40 and calls["wall"] == 40
    ray_walls(rays[0], 40)
    assert calls["wall"] == 40


def test_fresh_cross_ratio_reads_distances_from_prefixes(z3z, monkeypatch):
    # a cold AC1 cross ratio reads every ray wall's distance from its ray's
    # prefix: no carrier strip, the only path to wall_distance, side and the
    # gates; and one inverse per ray, the base's in _representative_letters
    calls = {"strip": 0, "inverse": 0}
    real_strip, real_inverse = walls_module._carrier_strip, GroupElement.inverse

    def strip(x, h):
        calls["strip"] += 1
        return real_strip(x, h)

    def inverse(x):
        calls["inverse"] += 1
        return real_inverse(x)

    base = GroupElement.from_text(z3z, "c^-12")
    rays = [
        BoundaryRay.from_text(z3z, t, base)
        for t in ("a^4|d", "a^4 b|d", "a^-1 b^-1|d", "a^-1 b^-1 c|d")
    ]
    monkeypatch.setattr(walls_module, "_carrier_strip", strip)
    monkeypatch.setattr(GroupElement, "inverse", inverse)
    _ray_index.cache_clear()
    assert cross_ratio_cr(*rays, 40) == (12, True)
    assert calls["strip"] == 0
    assert calls["inverse"] <= 4


def test_wall_crossed_twice_is_a_violation_under_python_O():
    # the walls of a ray index must be distinct: its distances rest on a
    # geodesic crossing each wall once, an explicit check, not an assert
    script = textwrap.dedent(
        """
        from cubemorse import boundary
        from cubemorse.raag import CertificateViolation, DefiningGraph, Letter
        graph = DefiningGraph.from_json("tests/data/z3z.json")
        ray = boundary.BoundaryRay.from_text(graph, "|a")
        # a step and its inverse cross the same wall
        boundary._representative_letters = lambda ray, depth: [Letter(0, 1), Letter(0, -1)]
        try:
            boundary.ray_walls(ray, 2)
        except CertificateViolation as e:
            print("raised:", e)
        """
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: geodesic crossed a wall twice\n", proc.stdout
