"""Seeded inputs, timed queries and independent answer checks.

Each in-process workload is a class whose constructor is the set-up
(graph loading, ray pools, golden files) and whose `plan` is the fixed
query set for the seed. `run` answers one query through the library's
public API; `answer` turns the result into a canonical string and a
certified flag; `check` compares it with a reference computed another way
and returns the problems it finds. Checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

DEPTH = 40

# --- boundary_sweep -------------------------------------------------------------

POOL_SIZE = 24
# pooled queries per (kind, graph). Cross ratios of gamma-rotation rays on
# ck cost about twice a fresh query and would set the tail in place of
# the fresh queries, so pooled cross ratios use z3z only.
POOLED_MIX = (("pair", "z3z", 8), ("pair", "ck", 12), ("quad", "z3z", 12),
              ("chain", "z3z", 8), ("chain", "ck", 8))
# At depth 40 the AC1 quadruple based at c^-m certifies cross ratio m for
# m <= 18; every fresh query takes its own m, so no ray is shared.
FRESH_BASES = tuple(range(1, 17))
Z3Z_PERIODS = ("d", "a d", "b d", "a^2 d", "d^2")
# the rotations of gamma's period that give valid rays; AC2 also draws
# rotations 4, 6 and 7, which never validate and are redrawn
_GAMMA_PERIOD = "b c c d c b b a".split()
CK_PERIODS = tuple(" ".join(_GAMMA_PERIOD[i:] + _GAMMA_PERIOD[:i]) for i in (0, 1, 2, 3, 5))


def _product(p) -> list:
    return ["inf" if p.value == math.inf else p.value, p.certified]


def morse_ray_pool(graph, periods, rng, want):
    """Random eventually periodic rays with a certified separated chain of
    at least three walls, built as the acceptance gate's AC2 builds them,
    except that slot s takes period s mod len(periods) and a prefix of
    1 + (s div len(periods)) mod 3 random syllables, so every seed gets the
    same mix of periods and prefix lengths. A ray whose first DEPTH walls equal
    an earlier ray's is redrawn, so every product between pool rays is
    finite."""
    from cubemorse.boundary import BoundaryRay, find_separated_chain, ray_walls, validate_ray

    names = graph.generators
    pool, seen = [], set()
    while len(pool) < want:
        slot = len(pool)
        k = 1 + (slot // len(periods)) % 3
        prefix = " ".join(
            f"{rng.choice(names)}^{rng.choice((-2, -1, 1, 2))}" for _ in range(k)
        )
        text = f"{prefix}|{periods[slot % len(periods)]}"
        try:
            r = BoundaryRay.from_text(graph, text)
        except ValueError:
            continue
        if not validate_ray(r, DEPTH):
            continue
        if len(find_separated_chain(r, 0, 5, DEPTH)) < 3:
            continue
        key = frozenset(ray_walls(r, DEPTH))
        if key in seen:
            continue
        seen.add(key)
        pool.append(r)
    return pool


class BoundarySweep:
    """Boundary products over certified Morse ray pools, three quarters
    pooled (rays repeat) and one quarter fresh (new rays every query)."""

    def __init__(self, root: Path, seed: int):
        from cubemorse.raag import DefiningGraph

        self.seed = seed
        rng = random.Random(seed)
        self.graphs = {
            "z3z": DefiningGraph.from_json(str(root / "tests/data/z3z.json")),
            "ck": DefiningGraph.from_json(str(root / "tests/data/ck.json")),
        }
        self.pools = {
            "z3z": morse_ray_pool(self.graphs["z3z"], Z3Z_PERIODS, rng, POOL_SIZE),
            "ck": morse_ray_pool(self.graphs["ck"], CK_PERIODS, rng, POOL_SIZE),
        }
        plan = []
        for kind, g, count in POOLED_MIX:
            for _ in range(count):
                if kind == "pair":
                    plan.append((kind, g, rng.sample(range(POOL_SIZE), 2)))
                elif kind == "quad":
                    plan.append((kind, g, rng.sample(range(POOL_SIZE), 4)))
                else:
                    plan.append((kind, g, rng.randrange(POOL_SIZE), sorted(rng.sample(range(25), 2))))
        for m in FRESH_BASES:
            plan.append(("fresh", "z3z", m, rng.randint(1, 8)))
        rng.shuffle(plan)
        self.plan = plan

    def run(self, q):
        from cubemorse.boundary import (
            BoundaryRay,
            ChainExhausted,
            bracket_product,
            cross_ratio_cr,
            find_separated_chain,
            gromov_product,
            ray_walls,
            refine_to_single_wall,
        )
        from cubemorse.raag import GroupElement

        kind, g = q[0], q[1]
        if kind == "fresh":
            graph = self.graphs[g]
            m, n = q[2], q[3]
            base = GroupElement.from_text(graph, f"c^-{m}")
            w, x, y, z = (
                BoundaryRay.from_text(graph, t, base)
                for t in (f"a^{n}|d", f"a^{n} b|d", "a^-1 b^-1|d", "a^-1 b^-1 c|d")
            )
            return cross_ratio_cr(w, x, y, z, DEPTH), gromov_product(w, x, DEPTH)
        pool = self.pools[g]
        if kind == "pair":
            p, r = (pool[i] for i in q[2])
            return bracket_product(p, r, DEPTH), gromov_product(p, r, DEPTH)
        if kind == "quad":
            return cross_ratio_cr(*(pool[i] for i in q[2]), DEPTH)
        ray = pool[q[2]]
        chain = find_separated_chain(ray, 0, 5, DEPTH)
        walls = ray_walls(ray, DEPTH)
        picked = [walls[i] for i in q[3]]
        try:
            wall = refine_to_single_wall(ray, picked, chain, DEPTH)
        except ChainExhausted:
            wall = None
        return chain, picked, wall

    def answer(self, q, res) -> tuple[str, bool]:
        kind = q[0]
        if kind in ("pair", "fresh"):
            first = _product(res[0]) if kind == "pair" else list(res[0])
            out, cert = [first, _product(res[1])], first[1] and res[1].certified
        elif kind == "quad":
            out, cert = list(res), res[1]
        else:
            chain, _, wall = res
            out = [[w.text() for w in chain.walls], list(chain.gaps), wall and wall.text()]
            cert = wall is not None
        return json.dumps(out), bool(cert)

    def check(self, qid: int, q, res) -> list[str]:
        from cubemorse.boundary import bracket_product, gromov_product, ray_walls
        from cubemorse.walls import crosses, side

        kind, g = q[0], q[1]
        probs = []
        if kind == "fresh":
            m, n = q[2], q[3]
            cr, gp = res
            if cr != (m, True):
                probs.append(f"cross ratio at base c^-{m} is {cr}, expected ({m}, True)")
            if (gp.value, gp.certified) != (n + m, True):
                probs.append(f"(w|x) at base c^-{m} is {gp}, expected {n + m} certified")
            return probs
        pool = self.pools[g]
        if kind == "pair":
            i, j = q[2]
            p, r = pool[i], pool[j]
            bp, gp = res
            for got, back, what in (
                (bp, bracket_product(r, p, DEPTH), "bracket"),
                (gp, gromov_product(r, p, DEPTH), "gromov"),
            ):
                if (got.value, got.certified) != (back.value, back.certified):
                    probs.append(f"{what} product not symmetric: {got} vs {back}")
            for s in (p, r):
                self_p = bracket_product(s, s, DEPTH)
                if (self_p.value, self_p.certified) != (math.inf, True):
                    probs.append(f"self exponent of {s.text()} is {self_p}")
            if bp.certified:
                rng = random.Random(f"{self.seed}:{qid}")
                k = rng.choice([t for t in range(POOL_SIZE) if t not in (i, j)])
                pk = bracket_product(p, pool[k], DEPTH)
                kr = bracket_product(pool[k], r, DEPTH)
                if pk.certified and kr.certified and bp.value < min(pk.value, kr.value):
                    probs.append(f"ultrametric fails on pool triple {i},{j},{k}")
            return probs
        if kind == "quad":
            w, x, y, z = (pool[i] for i in q[2])
            terms = [bracket_product(a, b, DEPTH) for a, b in ((x, w), (z, y), (y, w), (z, x))]
            value = terms[0].value + terms[1].value - terms[2].value - terms[3].value
            if res != (value, all(t.certified for t in terms)):
                probs.append(f"cross ratio {res} differs from its swapped terms ({value})")
            return probs
        ray = pool[q[2]]
        chain, picked, wall = res
        pos = {w: t for t, w in enumerate(ray_walls(ray, DEPTH))}
        idx = [pos.get(w, -1) for w in chain.walls]
        if len(idx) < 3 or min(idx) < 0:
            probs.append("chain is shorter than the pool guarantees or leaves the ray")
        elif any(b - a != gap or not 0 < gap < 5 for a, b, gap in zip(idx, idx[1:], chain.gaps)):
            probs.append("chain gaps disagree with the ray's crossing order")
        o = ray.base

        def behind(k) -> bool:
            # each input wall separates the base from the whole carrier of k
            return all(
                w != k and not crosses(w, k) and side(w, o) != side(w, k.base) for w in picked
            )

        after = max(q[3])
        first = next((k for k in chain.walls if pos.get(k, -1) > after and behind(k)), None)
        if wall != first:
            probs.append(f"refinement gave {wall}, the first qualifying chain wall is {first}")
        return probs


# --- escape_ladder ----------------------------------------------------------------

LADDER_BANDS = (40, 118)  # each seeded instance takes 0..2 flats above its band
# prefix lengths spread geometrically from 100 to 2000 steps of beta:4,12
DICHOTOMY_PREFIXES = 30
K_DICH, C_DICH = 8, 1  # the README dichotomy constants
FAMILY_PERIOD = "CBCDBCBA"


class EscapeLadder:
    """Escape-path construction and certification from 12 to 120 flats,
    the divergence dichotomy on beta prefixes, and the README contraction
    check."""

    def __init__(self, root: Path, seed: int):
        from cubemorse.constructions import build_beta, build_gamma

        self.seed = seed
        rng = random.Random(seed)
        self.golden_beta = json.loads((root / "tests/golden/beta.json").read_text())
        self.Z = build_gamma(160).runpath()
        self.beta = build_beta(4, 12).path
        self.gamma4 = build_gamma(4).runpath()
        self._zinv = None
        plan = [("ladder", 4, 12)]
        plan += [("ladder", rng.randint(4, 8), lo + rng.randrange(3)) for lo in LADDER_BANDS]
        plan += [
            ("dichotomy", round(100 * 20 ** ((i + rng.random()) / DICHOTOMY_PREFIXES)))
            for i in range(DICHOTOMY_PREFIXES)
        ]
        plan.append(("contracting",))
        rng.shuffle(plan)
        self.plan = plan

    def run(self, q):
        from cubemorse.constructions import (
            build_beta,
            certify_quasigeodesic,
            check_contracting,
            check_divergence_dichotomy,
            runpath_prefix,
            verify_separation,
        )

        if q[0] == "ladder":
            rep = build_beta(q[1], q[2])
            return rep, certify_quasigeodesic(rep.path, 8, 1), verify_separation(rep)
        if q[0] == "dichotomy":
            prefix = runpath_prefix(self.beta, q[1])
            return prefix, check_divergence_dichotomy(self.Z, prefix, 0, K_DICH, C_DICH)
        return check_contracting(self.gamma4, "const 3", 3)

    def answer(self, q, res) -> tuple[str, bool]:
        if q[0] == "ladder":
            rep, qg, sep = res
            out = [
                [s.N for s in rep.segments], [s.M for s in rep.segments], rep.total_length,
                rep.family_sequence, rep.path.endpoint().text(), str(qg.min_margin),
                qg.certified, sep.min_separation, sep.ok,
            ]
            cert = qg.certified and sep.ok
        elif q[0] == "dichotomy":
            d = res[1]
            out = [d.case, d.T0, d.max_distance, str(d.residual_min), d.bound_ok]
            cert = d.bound_ok
        else:
            out = [res.passed, res.pairs_tested, res.exhaustive, list(res.annulus_diam)]
            cert = res.exhaustive or not res.passed
        return json.dumps(out), bool(cert)

    def check(self, qid: int, q, res) -> list[str]:
        if q[0] == "ladder":
            return self._check_ladder(q[1], q[2], *res)
        if q[0] == "dichotomy":
            return self._check_dichotomy(qid, *res)
        probs = []
        if not (res.passed and res.exhaustive and res.witness is None and res.radius == 3):
            probs.append(f"gamma:4 contraction check did not pass exhaustively: {res}")
        return probs

    def _check_ladder(self, delta, L, rep, qg, sep) -> list[str]:
        probs = []
        if not (sep.ok and sep.min_separation >= delta):
            probs.append(f"separation {sep.min_separation} below delta {delta}")
        if not (qg.certified and qg.min_margin >= 0):
            probs.append(f"(8, 1) lower bound not certified, margin {qg.min_margin}")
        want = (FAMILY_PERIOD * (L // 4 + 1))[: 2 * L]
        if rep.family_sequence != want:
            probs.append(f"family sequence {rep.family_sequence} is not period {FAMILY_PERIOD}")
        for s in rep.segments:
            if Fraction(s.N, 2) - s.M < Fraction(s.N, 4) + Fraction(s.M, 8):
                probs.append(f"growth inequality fails at segment {s.index}")
        if rep.path.length != sum(s.N + s.M for s in rep.segments):
            probs.append("path length differs from the segment lengths")
        if (delta, L) == (4, 12):
            gold = self.golden_beta["outputs"]
            got = {
                "run_lengths": [s.N for s in rep.segments],
                "connector_lengths": [s.M for s in rep.segments],
                "total_length": rep.total_length,
                "family_sequence": rep.family_sequence,
                "endpoint": rep.path.endpoint().text(),
                "min_margin": str(qg.min_margin),
                "min_separation": sep.min_separation,
            }
            ref = {
                "run_lengths": gold["run_lengths"]["value"],
                "connector_lengths": gold["connector_lengths"]["value"],
                "total_length": gold["total_length"]["value"],
                "family_sequence": gold["family_sequence"],
                "endpoint": gold["endpoint"],
                "min_margin": str(gold["quasi_geodesic"]["min_margin"]["value"]),
                "min_separation": gold["separation"]["min_separation"]["value"],
            }
            probs += [f"12-flat {k} is {got[k]}, golden {ref[k]}" for k in ref if got[k] != ref[k]]
        return probs

    def _check_dichotomy(self, qid, prefix, rep) -> list[str]:
        """Brute-force distances to every vertex of Z at sampled times must
        agree with the reported last return, maximum and residual."""
        if self._zinv is None:
            self._zinv = [self.Z.vertex_at(T).inverse() for T in range(self.Z.length + 1)]
        end = prefix.length
        rng = random.Random(f"{self.seed}:{qid}")
        times = sorted({0, rep.T0, min(rep.T0 + 1, end), end, rng.randrange(end + 1)})
        # d(b, z) = |z^-1 b|, minimised over every vertex z of Z
        d = {t: min((zi * prefix.vertex_at(t)).length for zi in self._zinv) for t in times}
        kap, kap2 = rep.kappa_value, rep.kappa_prime_value
        probs = []
        if d[rep.T0] > kap or d[0] > kap:
            probs.append(f"distance {d[rep.T0]} at last return {rep.T0} exceeds kappa {kap}")
        if rep.T0 < end and d[rep.T0 + 1] <= kap:
            probs.append(f"path returns to the kappa neighbourhood after T0 = {rep.T0}")
        if max(d.values()) > rep.max_distance:
            probs.append(f"sampled distance {max(d.values())} above max {rep.max_distance}")
        if rep.case == 1:
            if not (rep.T0 == end and rep.max_distance <= kap2):
                probs.append("case 1 reported for a path that is not trapped")
        else:
            for t, dt in d.items():
                if t > rep.T0 and dt - (Fraction(t - rep.T0, 2 * K_DICH) - 2 * (C_DICH + kap)) < rep.residual_min:
                    probs.append(f"residual at t={t} below the reported minimum")
        return probs


INPROCESS = {"boundary_sweep": BoundarySweep, "escape_ladder": EscapeLadder}


# --- cli_cold -----------------------------------------------------------------------

Z3Z = "tests/data/z3z.json"
CK = "tests/data/ck.json"

# the CLI golden cases, argument for argument
GOLDEN_CASES = {
    "nf": ["nf", "--graph", Z3Z, "c b a"],
    "crossratio": [
        "crossratio", "--graph", Z3Z, "--base", "c^-2", "--depth", "40",
        "w:a^4|d", "x:a^4 b|d", "y:a^-1 b^-1|d", "z:a^-1 b^-1 c|d",
    ],
    "beta": ["beta", "--delta", "4", "--flats", "12", "--certify"],
    "separated": ["separated", "--graph", Z3Z, "1@d", "a@d"],
    "chain": ["chain", "--graph", CK, "--ray", "|b c c d c b b a", "--n", "0", "--r", "5"],
    "kappa": ["kappa", "--rho", "const 36", "--K", "1", "--C", "0"],
    "gamma": ["gamma", "--flats", "4"],
    "contracting": ["contracting", "word:c c c c c c c c", "--rho", "0", "--radius", "3"],
    "dichotomy": ["dichotomy", "--z", "gamma:20", "--path", "gamma:20",
                  "--rho", "0", "--K", "1", "--C", "0"],
    "example23": ["example23", "--tail", "20"],
    "smallcancel": ["smallcancel"],
    "metric_shallow": ["metric", "--graph", Z3Z, "--depth", "3", "a^50|d", "a^50 b|d"],
    "hyp_shallow": ["hyp", "--graph", Z3Z, "--ray", "|d", "--wall", "d^100@d",
                    "--depth", "3"],
}
EXPECTED_EXIT = {"metric_shallow": 2, "hyp_shallow": 2}

# README commands that differ from every golden case
README_CASES = {
    "readme_crossratio": [
        "crossratio", "--graph", Z3Z, "--base", "c^-2",
        "w:a^4|d", "x:a^4 b|d", "y:a^-1 b^-1|d", "z:a^-1 b^-1 c|d",
    ],
    "readme_contracting": ["contracting", "gamma:4", "--rho", "const 3", "--radius", "3"],
    "readme_dichotomy": ["dichotomy", "--z", "gamma:160", "--path", "beta:4,12,600",
                         "--rho", "0", "--K", "8", "--C", "1"],
}
SEEDED_CROSSRATIOS = 8
SEEDED_BETAS = 4


def cli_plan(seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) of every command of one repetition, in seeded order:
    the golden and README commands, AC1 cross ratios at seeded base shifts
    and escape paths with seeded (delta, flats)."""
    rng = random.Random(seed)
    plan = list(GOLDEN_CASES.items()) + list(README_CASES.items())
    for m in rng.sample(FRESH_BASES, SEEDED_CROSSRATIOS):
        n = rng.randint(1, 8)
        plan.append((f"crossratio_m{m}_n{n}", [
            "crossratio", "--graph", Z3Z, "--base", f"c^-{m}", "--depth", str(DEPTH),
            f"w:a^{n}|d", f"x:a^{n} b|d", "y:a^-1 b^-1|d", "z:a^-1 b^-1 c|d",
        ]))
    for _ in range(SEEDED_BETAS):
        delta, flats = rng.randint(4, 8), rng.randint(12, 30)
        plan.append((f"beta_d{delta}_L{flats}",
                     ["beta", "--delta", str(delta), "--flats", str(flats), "--certify"]))
    rng.shuffle(plan)
    return [(name, ["--json"] + args) for name, args in plan]


def without_timing(out: str) -> str:
    """A report with its timing zeroed, as the CLI golden tests compare it."""
    return re.sub(r'"timing_s": [0-9.e+-]+', '"timing_s": 0.0', out)


def check_cli(name: str, argv: list[str], code: int, out: str, golden: str | None) -> list[str]:
    """Golden cases: byte equality with the golden text after the timing
    normalisation the CLI tests use, and the expected exit code. Other
    commands: exit 0, certified, and the value the README states or the
    AC1 and escape-path closed forms predict."""
    out = without_timing(out)
    if golden is not None:
        probs = []
        if code != EXPECTED_EXIT.get(name, 0):
            probs.append(f"{name}: exit code {code}")
        if out != golden:
            probs.append(f"{name}: report differs from tests/golden/{name}.json")
        return probs
    try:
        rep = json.loads(out)
        outputs = rep["outputs"]
        command = argv[1]
        if command == "crossratio":
            m = int(argv[argv.index("--base") + 1].removeprefix("c^-"))
            ok = outputs["cross_ratio"] == {"value": m, "certified": True}
        elif command == "beta":
            delta, flats = int(argv[3]), int(argv[5])
            ok = (
                outputs["separation"]["min_separation"]["value"] >= delta
                and outputs["quasi_geodesic"]["passed"] is True
                and outputs["family_sequence"] == (FAMILY_PERIOD * (flats // 4 + 1))[: 2 * flats]
                and outputs["total_length"]["value"]
                == sum(outputs["run_lengths"]["value"]) + sum(outputs["connector_lengths"]["value"])
            )
        elif command == "contracting":
            ok = outputs["passed"] is True and outputs["exhaustive"] is True
        else:
            ok = outputs["bound_ok"] is True
    except (ValueError, KeyError, TypeError):
        return [f"{name}: output is not the expected JSON report"]
    if code != 0 or rep["certified"] is not True or not ok:
        return [f"{name}: exit {code}, report does not show the expected result"]
    return []
