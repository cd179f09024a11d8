"""The run-scale divergence dichotomy against the per-step scan it replaced,
and the distance knots it is read from."""

import random
import textwrap
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from childproc import run_python
from cubemorse.constructions import (
    PreconditionFailed,
    build_beta,
    build_gamma,
    check_divergence_dichotomy,
    runpath_prefix,
)
from cubemorse.raag import GroupElement, Letter, distance
from cubemorse.runpaths import CertificateViolation, RunPath, set_distance_knots
from cubemorse.walls import side, wall_of_edge
from oracles import (
    dichotomy_by_steps,
    random_graphs,
    set_distance_knots_by_tables,
    walk_between,
)


def outcome(fn, *args):
    """The report, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (PreconditionFailed, CertificateViolation) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def escape():
    return build_gamma(160).runpath(), build_beta(4, 12).path


@pytest.mark.parametrize("delta,flats", [(4, 12), (5, 16)])
def test_beta_prefixes_match_the_scan(escape, delta, flats):
    Z = escape[0]
    beta = escape[1] if (delta, flats) == (4, 12) else build_beta(delta, flats).path
    rng = random.Random(2019 + flats)
    for steps in [1, 2, 243, 244] + [rng.randint(3, 900) for _ in range(4)]:
        pre = runpath_prefix(beta, steps)
        for K, C in ((8, 1), (1, 0), (2, 3)):
            want = outcome(dichotomy_by_steps, Z, pre, 0, K, C)
            assert outcome(check_divergence_dichotomy, Z, pre, 0, K, C) == want


def test_full_escape_path(escape):
    Z, beta = escape
    rep = check_divergence_dichotomy(Z, beta, 0, 8, 1)
    assert rep.case == 2
    assert rep.T0 == 243
    assert rep.max_distance == 67484149
    assert rep.residual_min == Fraction(9263, 16)
    assert rep.bound_ok
    assert (rep.beta_steps, rep.z_steps) == (74892028, 320)


def brute_knot_check(path, Z):
    zverts = [Z.vertex_at(T) for T in range(Z.length + 1)]
    want = [min(distance(path.vertex_at(t), z) for z in zverts) for t in range(path.length + 1)]
    knots = set_distance_knots(path, Z)
    assert knots[0][0] == 0 and knots[-1][0] == path.length
    for (t1, d1), (t2, d2) in zip(knots, knots[1:]):
        assert t1 < t2
        assert abs(d2 - d1) in (0, t2 - t1)
        for t in range(t1, t2 + 1):
            assert want[t] == d1 + (d2 - d1) * (t - t1) // (t2 - t1)


def runpaths_on(graph, data, origin, max_runs, min_runs=0):
    runs = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(graph.generators) - 1),
            st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
        ),
        min_size=min_runs,
        max_size=max_runs,
    ))
    return RunPath(origin, tuple(runs))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_random_paths_match_the_scan(ck, z3z, data):
    graph = data.draw(st.sampled_from([ck, z3z]))
    one = GroupElement.identity(graph)
    # a one-vertex Z when the draw gives no runs
    Z = runpaths_on(graph, data, one, 5)
    # start near Z, so the kappa precondition often holds
    T = data.draw(st.integers(0, Z.length))
    hop = runpaths_on(graph, data, one, 2)
    start = Z.vertex_at(T) * hop.endpoint()
    if data.draw(st.booleans()):
        # retrace Z backwards and forwards, so vertices are revisited
        back = walk_between(Z, T, 0)
        runs = tuple((g, e) for _, g, e in back) + tuple((g, -e) for _, g, e in reversed(back))
        beta = RunPath(Z.vertex_at(T), runs + runpaths_on(graph, data, one, 3).runs)
    else:
        beta = runpaths_on(graph, data, start, 6)  # may be empty
    brute_knot_check(beta, Z)
    for K, C in ((1, 0), (2, 1)):
        want = outcome(dichotomy_by_steps, Z, beta, 0, K, C)
        assert outcome(check_divergence_dichotomy, Z, beta, 0, K, C) == want


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_knots_match_the_table_walk(ck, z3z, data):
    graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
    one = GroupElement.identity(graph)
    # Z starts off the identity, and its runs take up to 4 steps
    z_origin = runpaths_on(graph, data, one, 3, min_runs=1).endpoint()
    assume(z_origin != one)
    Z = runpaths_on(graph, data, z_origin, 5)
    start = runpaths_on(graph, data, one, 3).endpoint()
    path = runpaths_on(graph, data, start, 6)
    want = outcome(set_distance_knots_by_tables, path, Z)
    assert outcome(set_distance_knots, path, Z) == want


def test_knots_add_no_table_run_per_step_of_Z(escape, monkeypatch):
    # an operation count: the rows read Z's walls without adding Z's steps
    # to a cluster table, so the table work is the connector and the path
    from cubemorse import runpaths

    real, calls = runpaths._ClusterTable.add, [0]

    def counted(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(runpaths._ClusterTable, "add", counted)
    Z, beta = escape
    set_distance_knots(beta, Z)
    connector = beta.origin.inverse() * Z.origin
    assert calls[0] <= len(Z.runs) + len(beta.runs) + len(connector.syllables)


class CountedRuns(tuple):
    """Runs that count the steps every walk over them visits."""

    visits = 0

    def __iter__(self):
        for g, e in tuple.__iter__(self):
            self.visits += abs(e)
            yield g, e


def test_z_steps_are_walked_once_for_all_queries(escape):
    # an operation count: 30 dichotomy queries on one Z walk Z's steps no
    # more often than the first query does, so row 0 is not rebuilt over
    # all of Z's steps per call
    Z, beta = escape
    runs = CountedRuns(Z.runs)
    Z = RunPath(Z.origin, runs)
    prefixes = [runpath_prefix(beta, round(100 * 20 ** (i / 29))) for i in range(30)]
    reports = [check_divergence_dichotomy(Z, prefixes[0], 0, 8, 1)]
    first = runs.visits
    reports += [check_divergence_dichotomy(Z, pre, 0, 8, 1) for pre in prefixes[1:]]
    assert runs.visits == first, (first, runs.visits)
    assert {rep.case for rep in reports} == {1, 2}


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_one_z_serves_paths_from_any_origin(ck, z3z, data):
    # Z keeps its step signs across calls. A path from Z_0 has an empty
    # connector; one from Z_T != Z_0 has a connector that crosses the walls
    # between Z_0 and Z_T oddly, all of them in Z's clusters, and negates
    # their signs for its own call only
    graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
    one = GroupElement.identity(graph)
    # Z's origin is the identity or a short walk from it
    Z = runpaths_on(graph, data, runpaths_on(graph, data, one, 2).endpoint(), 5, min_runs=1)
    far = [T for T in range(1, Z.length + 1) if Z.vertex_at(T) != Z.origin]
    assume(far)
    origins = [Z.origin]
    for _ in range(3):
        T = data.draw(st.sampled_from(far))
        hop = runpaths_on(graph, data, one, 1).endpoint()  # may be the identity
        origins += [Z.vertex_at(T) * hop, Z.origin]
    for origin in origins:
        path = runpaths_on(graph, data, origin, 4)
        want = outcome(set_distance_knots_by_tables, path, Z)
        assert outcome(set_distance_knots, path, Z) == want


def test_far_start_message_matches(ck):
    Z = RunPath(GroupElement.identity(ck), ((1, 30),))
    far = RunPath(GroupElement.identity(ck).append_run(2, 10), ((2, 3),))
    want = outcome(dichotomy_by_steps, Z, far, 0, 1, 0)
    assert want[0] is PreconditionFailed
    assert outcome(check_divergence_dichotomy, Z, far, 0, 1, 0) == want


def test_long_z_runs_split_into_unit_steps(ck):
    one = GroupElement.identity(ck)
    Z = RunPath(one, ((1, 7), (0, -5), (1, -3)))
    beta = RunPath(one.append_run(2, 1), ((0, 6), (2, 2), (1, -9), (3, 4)))
    brute_knot_check(beta, Z)
    for K, C in ((1, 0), (2, 1)):
        assert check_divergence_dichotomy(Z, beta, 0, K, C) == dichotomy_by_steps(Z, beta, 0, K, C)


def test_parallel_path_breaks_the_bound(ck):
    # beta runs beside Z at distance 4 > kappa = 3, too slowly for the bound
    one = GroupElement.identity(ck)
    Z = RunPath(one, ((1, 30),))
    beta = RunPath(one, ((2, 3), (2, 1), (1, 30)))
    rep = check_divergence_dichotomy(Z, beta, 0, 1, 0)
    assert rep == dichotomy_by_steps(Z, beta, 0, 1, 0)
    assert (rep.case, rep.T0, rep.max_distance, rep.bound_ok) == (2, 3, 4, False)
    assert rep.residual_min == 4 - (Fraction(34 - 3, 2) - 6)


# every run added to the cluster table of the walk from the path's origin
# counts one wall too many. Both origins below are the identity, so the
# first add is the path's first run, and its delta at Z's origin is off
# by one: 3 for a run of length 2
BREAK_FIRST_DELTA = """
from cubemorse import runpaths
real = runpaths._ClusterTable.add
def off_by_one(self, *args):
    real(self, *args)
    self.total += 1
runpaths._ClusterTable.add = off_by_one
"""
DELTA_VIOLATION = "run 0 of length 2 is not geodesic against vertex 0 of Z: end distances 0 and 3"


def test_broken_distance_row_is_a_violation(ck, monkeypatch):
    # a piece whose end distances no geodesic run can have must be refused,
    # not folded into a certified envelope
    from cubemorse import runpaths

    # the script replaces _ClusterTable.add; monkeypatch puts it back
    monkeypatch.setattr(runpaths._ClusterTable, "add", runpaths._ClusterTable.add)
    exec(BREAK_FIRST_DELTA, {})
    Z = RunPath(GroupElement.identity(ck), ((1, 3),))
    beta = RunPath(GroupElement.identity(ck), ((2, 2), (0, 1)))
    with pytest.raises(CertificateViolation) as exc:
        check_divergence_dichotomy(Z, beta, 0, 1, 0)
    assert str(exc.value) == DELTA_VIOLATION


def test_broken_distance_row_is_a_violation_under_python_O():
    script = BREAK_FIRST_DELTA + textwrap.dedent(
        """
        from cubemorse.constructions import check_divergence_dichotomy
        from cubemorse.raag import CertificateViolation, DefiningGraph, GroupElement
        from cubemorse.runpaths import RunPath
        one = GroupElement.identity(DefiningGraph.from_json("tests/data/ck.json"))
        Z, beta = RunPath(one, ((1, 3),)), RunPath(one, ((2, 2), (0, 1)))
        try:
            check_divergence_dichotomy(Z, beta, 0, 1, 0)
        except CertificateViolation as e:
            print("raised:", e)
        """
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"raised: {DELTA_VIOLATION}\n", proc.stdout


def envelope_sizes(monkeypatch):
    """The number of V shapes each _envelope_knots call gets, in order."""
    from cubemorse import runpaths

    real, sizes = runpaths._envelope_knots, []

    def counted(vees, A):
        sizes.append(len(vees))
        return real(vees, A)

    monkeypatch.setattr(runpaths, "_envelope_knots", counted)
    return sizes


def test_one_vee_per_piece(escape, monkeypatch):
    # an operation count: run i gets one V shape per stretch of Z between
    # the steps of Z that cross run i's walls, not one per vertex of Z
    Z, beta = escape
    sizes = envelope_sizes(monkeypatch)
    set_distance_knots(beta, Z)
    units = [(g, 1 if e > 0 else -1) for g, e in Z.runs for _ in range(abs(e))]
    zwalls = [wall_of_edge(Z.vertex_at(T), Letter(g, s)) for T, (g, s) in enumerate(units)]
    ends = [beta.vertex_at(t) for t in accumulate((abs(e) for _, e in beta.runs), initial=0)]
    crossed = [sum(side(h, x) != side(h, y) for h in zwalls) for x, y in zip(ends, ends[1:])]
    assert len(sizes) == len(beta.runs)
    assert all(n <= 1 + c for n, c in zip(sizes, crossed)), (sizes, crossed)
    assert max(sizes) <= 4 < Z.length + 1
    assert sum(crossed) > 0


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_knots_match_the_table_walk_on_zigzags(ck, z3z, data):
    # Z zigzags through the cluster of one run of the path: 3 to 5 runs of
    # g of 2 steps or more, at the run's levels, with moves in lk(g) between
    # them that keep Z in the run's <star g> coset. Every such step crosses
    # one of the run's walls, so the run's row splits into 7 pieces or more
    graph = data.draw(st.sampled_from((z3z, ck)) | random_graphs())
    n = len(graph.generators)
    one = GroupElement.identity(graph)
    g = data.draw(st.integers(0, n - 1))
    link = [h for h in range(n) if graph.adj_mask[g] >> h & 1]
    in_link = st.lists(
        st.tuples(st.sampled_from(link), st.sampled_from((-2, -1, 1, 2))), max_size=2
    ) if link else st.just([])
    A = data.draw(st.integers(4, 8))
    s = data.draw(st.sampled_from((1, -1)))
    before = runpaths_on(graph, data, runpaths_on(graph, data, one, 3).endpoint(), 2)
    after = runpaths_on(graph, data, one, 2)
    path = RunPath(before.origin, before.runs + ((g, s * A),) + after.runs)
    # x·c·g^(s·t), c in <lk g>, lies over level t of the run from x
    t = data.draw(st.integers(0, A))
    c = RunPath(one, tuple(data.draw(in_link))).endpoint()
    z_origin = before.endpoint() * c.append_run(g, s * t)
    zruns: list = []
    for k in range(data.draw(st.integers(3, 5))):
        if k:
            zruns.extend(data.draw(in_link))
        u = data.draw(st.sampled_from([u for u in range(A + 1) if abs(u - t) >= 2]))
        zruns.append((g, s * (u - t)))
        t = u
    Z = RunPath(z_origin, tuple(zruns) + runpaths_on(graph, data, one, 2).runs)
    with pytest.MonkeyPatch.context() as mp:
        sizes = envelope_sizes(mp)
        got = outcome(set_distance_knots, path, Z)
    assert got == outcome(set_distance_knots_by_tables, path, Z)
    assert sizes[len(before.runs)] >= 7
