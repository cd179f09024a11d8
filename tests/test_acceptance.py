"""Acceptance gate: eight end-to-end criteria, one status line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the AC lines.
Criterion 1 contains two equalities that contradict the product
definitions themselves (y and z share their first two edges, so their
product at the identity cannot be 0); those are split into a strict
xfail companion so the failure stays visible without masking the rest.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from cubemorse.boundary import (
    BoundaryRay,
    ChainExhausted,
    bracket_product,
    cross_ratio_bfm,
    cross_ratio_cr,
    find_separated_chain,
    gromov_product,
    ray_walls,
    refine_to_single_wall,
    validate_ray,
)
from cubemorse.constructions import (
    build_beta,
    build_croke_kleiner,
    build_gamma,
    certify_quasigeodesic,
    verify_separation,
)
from cubemorse.example23 import (
    basepoint_experiment,
    build_example23,
    example23_relators,
    small_cancellation_check,
)
from cubemorse.gauges import kappa, kappa_prime
from cubemorse.raag import GroupElement, Letter, distance
from cubemorse.walls import (
    Wall,
    ball,
    crossing_count,
    side,
    wall_of_edge,
    walls_between,
    walls_separating_point_from_wall,
)
from oracles import gamma_by_global_words, gamma_ray

DEPTH = 40


def status(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def ray(graph, text, base=None):
    return BoundaryRay.from_text(graph, text, base)


def quadruple(graph, n, base=None):
    return (
        ray(graph, f"a^{n}|d", base),
        ray(graph, f"a^{n} b|d", base),
        ray(graph, "a^-1 b^-1|d", base),
        ray(graph, "a^-1 b^-1 c|d", base),
    )


# --- criterion 1: the four-point product table, exact at depth 40 ----------------


def test_ac1_product_table(z3z):
    t0 = time.monotonic()
    checks = 0
    for n in range(1, 9):
        w, x, y, z = quadruple(z3z, n)
        for p, q in ((w, x), (w, y), (w, z), (x, z), (y, z)):
            pv = bracket_product(p, q, DEPTH)
            assert (pv.value, pv.certified) == (0, True)
            checks += 1
        pv = gromov_product(w, x, DEPTH)
        assert (pv.value, pv.certified) == (n, True)
        checks += 1
        for p, q in ((w, y), (w, z), (x, z)):
            pv = gromov_product(p, q, DEPTH)
            assert (pv.value, pv.certified) == (0, True)
            checks += 1
        assert cross_ratio_cr(w, x, y, z, DEPTH) == (0, True)
        checks += 1
    for m in range(1, 6):
        base = GroupElement.from_text(z3z, f"c^-{m}")
        for n in range(1, 9):
            assert cross_ratio_cr(*quadruple(z3z, n, base), DEPTH) == (m, True)
            checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"table took {elapsed:.1f}s"
    status(
        "AC1",
        True,
        f"{checks} exact certified table entries, n=1..8, base shifts m=1..5, "
        f"{elapsed:.1f}s; two inconsistent entries tracked separately",
    )


@pytest.mark.xfail(
    strict=True,
    reason="y and z share their first two edges, so their identity-based "
    "product is 2, not 0, and the four-point difference is n + 2, not n; "
    "measured values are pinned in the unit suite",
)
def test_ac1_inconsistent_entries(z3z):
    for n in range(1, 9):
        w, x, y, z = quadruple(z3z, n)
        yz = gromov_product(y, z, DEPTH)
        bfm = cross_ratio_bfm(w, x, y, z, DEPTH)
        if yz.value != 0 or bfm != (n, True):
            print(
                f"\nAC1 (two table entries): FAIL as documented "
                f"(measured (y|z)={yz.value}, four-point={bfm[0]} at n={n}; "
                f"stated 0 and {n})"
            )
        assert (yz.value, yz.certified) == (0, True)
        assert bfm == (n, True)


# --- criterion 2: ultrametric inequality for the boundary products ---------------


def _morse_ray_pool(graph, periods, rng, want):
    """Random eventually periodic rays, each with a certified chain witness."""
    names = graph.generators
    pool = []
    while len(pool) < want:
        k = rng.randrange(0, 4)
        prefix = " ".join(
            f"{rng.choice(names)}^{rng.choice((-2, -1, 1, 2))}" for _ in range(k)
        )
        text = f"{prefix}|{rng.choice(periods)}"
        try:
            r = BoundaryRay.from_text(graph, text)
        except ValueError:
            continue
        if not validate_ray(r, DEPTH):
            continue
        if len(find_separated_chain(r, 0, 5, DEPTH)) < 3:
            continue
        pool.append(r)
    return pool


def test_ac2_ultrametric(z3z, ck):
    t0 = time.monotonic()
    rng = random.Random(20240)
    gamma_period = "b c c d c b b a"
    rotations = [
        " ".join(gamma_period.split()[i:] + gamma_period.split()[:i]) for i in range(8)
    ]
    plans = (
        (z3z, ["d", "a d", "b d", "a^2 d", "d^2"]),
        (ck, rotations),
    )
    triples = 0
    for graph, periods in plans:
        pool = _morse_ray_pool(graph, periods, rng, 24)
        cache = {}

        def bp(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = bracket_product(pool[key[0]], pool[key[1]], DEPTH)
            return cache[key]

        done = 0
        while done < 100:
            i, j, k = rng.sample(range(len(pool)), 3)
            pij, pik, pkj = bp(i, j), bp(i, k), bp(k, j)
            if not (pij.certified and pik.certified and pkj.certified):
                continue
            assert pij.value >= min(pik.value, pkj.value)
            a = bracket_product(pool[i], pool[j], DEPTH)
            b = bracket_product(pool[j], pool[i], DEPTH)
            assert (a.value, a.certified) == (b.value, b.certified)
            done += 1
        for r in pool:
            pv = bracket_product(r, r, DEPTH)
            assert pv.value == math.inf and pv.certified  # exponent inf = distance 0
        triples += done
    status(
        "AC2",
        True,
        f"{triples} certified triples ultrametric, symmetry and self-distance "
        f"exact in both groups, {time.monotonic() - t0:.1f}s",
    )


# --- criterion 3: coset arithmetic vs brute-force oracles -------------------------


def _bfs_levels(graph, radius):
    one = GroupElement.identity(graph)
    gens = range(len(graph.generators))
    seen = {one: 0}
    frontier = [one]
    for level in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for g in gens:
                for s in (1, -1):
                    u = v.append_run(g, s)
                    if u not in seen:
                        seen[u] = level
                        nxt.append(u)
        frontier = nxt
    return seen


def test_ac3_oracle_equivalence(ck):
    t0 = time.monotonic()
    levels = _bfs_levels(ck, 6)
    for v, lvl in levels.items():
        assert v.length == lvl
    verts = list(levels)

    rng = random.Random(30303)
    for _ in range(500):
        x, y = rng.choice(verts), rng.choice(verts)
        assert len(walls_between(x, y)) == distance(x, y)

    wall_pool = sorted(
        {wall_of_edge(v, Letter(g, 1)) for v in verts[:400] for g in range(4)},
        key=lambda h: (h.base.length, h.base.syllables, h.gen),
    )
    for _ in range(500):
        h = rng.choice(wall_pool)
        x, y = rng.choice(verts), rng.choice(verts)
        assert (h in walls_between(x, y)) == (side(h, x) != side(h, y))

    # transitive closure of square parallelism over ball(6) edges; complete
    # for ball(5) edges because the median path between two carrier points
    # stays inside the larger ball
    ball6 = set(levels)
    edges = [
        (v, g)
        for v in verts
        for g in range(4)
        if v.append_run(g, 1) in ball6
    ]
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

    ball5 = {v for v, lvl in levels.items() if lvl <= 5}
    inner = [(v, g) for (v, g) in edges if v in ball5 and v.append_run(g, 1) in ball5]
    root_of_wall = {}
    wall_of_root = {}
    for e in inner:
        w = wall_of_edge(e[0], Letter(e[1], 1))
        r = find(idx[e])
        assert root_of_wall.setdefault(w, r) == r, f"wall {w.text()} split"
        assert wall_of_root.setdefault(r, w) == w, f"class merged into {w.text()}"

    status(
        "AC3",
        True,
        f"lengths = BFS levels on {len(verts)} elements, 500 wall counts, "
        f"500 separation biconditionals, {len(inner)} edges vs parallelism "
        f"closure, {time.monotonic() - t0:.1f}s",
    )


# --- criterion 4: the escape path suite -------------------------------------------


def test_ac4_escape_path_suite():
    t0 = time.monotonic()
    rep = build_beta(4, 12)

    for s in rep.segments:
        lhs = Fraction(s.N, 2) - s.M
        rhs = Fraction(s.N, 4) + Fraction(s.M, 8)
        assert lhs >= rhs, f"growth inequality fails at segment {s.index}"

    qg = certify_quasigeodesic(rep.path, 8, 1)
    assert qg.certified and qg.min_margin >= 0

    sep = verify_separation(rep)
    assert sep.ok
    assert len(sep.segments) == 11 and all(c.index >= 2 for c in sep.segments)
    assert all(c.separation >= 4 for c in sep.segments)

    assert rep.family_sequence == "CBCDBCBA" * 3

    # brute-force corroboration: sampled vertices against a long window of
    # the other path, with every minimum attained strictly inside it
    gverts = gamma_by_global_words(274).vertices
    rng = random.Random(44)
    offsets = [0]
    for s in rep.segments:
        offsets.append(offsets[-1] + s.length)
    sampled = 0
    for l in range(2, 13):
        times = {offsets[l - 1], offsets[l] - 1, offsets[l]}
        times.update(rng.randrange(offsets[l - 1], offsets[l]) for _ in range(3))
        for t in times:
            v = rep.path.vertex_at(t)
            dists = [distance(v, u) for u in gverts]
            dmin = min(dists)
            assert dmin >= 4, f"sampled vertex at t={t} is {dmin} from the window"
            assert dists.index(dmin) < len(gverts) - 16, "minimum at window edge"
            sampled += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    status(
        "AC4",
        True,
        f"growth inequality exact on 12 segments, (8,1) lower bound certified "
        f"(margin {qg.min_margin}), separation >= 4 certified and corroborated "
        f"on {sampled} sampled vertices, family period matches, {elapsed:.1f}s",
    )


# --- criterion 5: separated chains detect the contracting direction ---------------


def test_ac5_separated_chain():
    t0 = time.monotonic()
    gp = build_gamma(12)
    chain = find_separated_chain(gamma_ray(gp), 0, 5, DEPTH)
    assert len(chain) >= 8
    for h1, h2 in zip(chain.walls, chain.walls[1:]):
        assert crossing_count(h1, h2) == (0, True)

    # the a-axis lies inside the single flat spanned by a and b; all its
    # walls admit transversals through the commuting direction
    flat_ray = BoundaryRay.from_text(gp.graph, "|a")
    assert validate_ray(flat_ray, DEPTH)
    empty = find_separated_chain(flat_ray, 0, 5, DEPTH)
    assert len(empty) == 0

    status(
        "AC5",
        True,
        f"chain of {len(chain)} walls, consecutive crossing counts certified 0; "
        f"flat ray yields the empty chain, {time.monotonic() - t0:.1f}s",
    )


# --- criterion 6: trapping radius formulas ----------------------------------------


def test_ac6_kappa_formulas():
    t0 = time.monotonic()
    assert kappa(0, 1, 0) == 3
    assert kappa_prime(0, 1, 0) == 18
    assert kappa(0, 2, 1) == 12
    assert kappa_prime(0, 2, 1) == 150

    grid_k = [Fraction(1) + Fraction(i, 3) for i in range(10)]
    grid_c = [Fraction(j, 2) for j in range(10)]
    for fn in (kappa, kappa_prime):
        vals = {(K, C): fn(0, K, C) for K in grid_k for C in grid_c}
        for ki in range(9):
            for ci in range(10):
                assert vals[(grid_k[ki], grid_c[ci])] <= vals[(grid_k[ki + 1], grid_c[ci])]
        for ki in range(10):
            for ci in range(9):
                assert vals[(grid_k[ki], grid_c[ci])] <= vals[(grid_k[ki], grid_c[ci + 1])]

    status(
        "AC6",
        True,
        f"four pinned values exact, both formulas monotone on the 10x10 grid, "
        f"{time.monotonic() - t0:.1f}s",
    )


# --- criterion 7: basepoint experiment and piece ratios ----------------------------


def test_ac7_glued_graph():
    t0 = time.monotonic()
    kappa_val = 2
    ex = build_example23("poly 1 0 1", 8, 75)
    assert ex.f_values[8] == 65 and ex.tail == 65 + 10
    rows = basepoint_experiment(ex, kappa_val)
    assert [r.i for r in rows] == list(range(1, 9))
    for r in rows:
        assert r.radius_o >= r.i, f"near-basepoint radius {r.radius_o} < {r.i}"
        assert r.radius_oprime <= kappa_val + 2

    rel = example23_relators("poly 1 0 1", 6)
    sc = small_cancellation_check(rel)
    assert sc.max_ratio < Fraction(1, 6)
    assert sc.passes_sixth

    status(
        "AC7",
        True,
        f"radius from o grows (>= i for i=1..8), radius from o' stays <= "
        f"{kappa_val + 2}; max piece ratio {sc.max_ratio} < 1/6 "
        f"(classical check on the relator set, proxy for the labeled graph), "
        f"{time.monotonic() - t0:.1f}s",
    )


# --- criterion 8: two crossed walls refine to a single chain wall ------------------


def test_ac8_refinement(z3z, ck):
    t0 = time.monotonic()
    rng = random.Random(808)
    ckg = build_croke_kleiner()
    gamma_period = "b c c d c b b a"
    plans = (
        (z3z, ["d", "a d", "b d"], 60),
        (ck, [gamma_period], 40),
    )
    through_checks = 0
    instances = 0
    for graph, periods, want in plans:
        pool = _morse_ray_pool(graph, periods, rng, 12)
        done = 0
        while done < want:
            xi = rng.choice(pool)
            ws = ray_walls(xi, DEPTH)
            i, j = sorted(rng.sample(range(25), 2))
            picked = [ws[i], ws[j]]
            chain = find_separated_chain(xi, 0, 5, DEPTH)
            try:
                k = refine_to_single_wall(xi, picked, chain, DEPTH)
            except ChainExhausted:
                continue
            o = xi.base
            behind = set(walls_separating_point_from_wall(o, k))
            assert set(picked) <= behind
            done += 1
            instances += 1

            if through_checks < 20:
                # a fresh geodesic ray through k must cross both picked
                # walls; its prefix ends at the dual-edge endpoint on the
                # far side of k, so the prefix itself crosses k
                if side(k, o) == -1:
                    pfx = k.base.append_run(k.gen, 1)
                else:
                    pfx = k.base
                assert pfx.length > 0 and side(k, pfx) != side(k, o)
                for period in periods:
                    r2 = BoundaryRay.from_text(graph, f"{pfx.text()}|{period}")
                    if not validate_ray(r2, DEPTH):
                        continue
                    ws2 = set(ray_walls(r2, pfx.length + 16))
                    if k not in ws2:
                        continue
                    assert picked[0] in ws2 and picked[1] in ws2
                    through_checks += 1
                    break
    assert through_checks >= 20
    status(
        "AC8",
        True,
        f"{instances} refinements contained behind the returned wall, "
        f"{through_checks} through-rays crossed both inputs, "
        f"{time.monotonic() - t0:.1f}s",
    )
