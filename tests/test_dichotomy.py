"""The run-scale divergence dichotomy against the per-step scan it replaced,
and the distance knots it is read from."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubemorse.constructions import (
    PreconditionFailed,
    build_beta,
    build_gamma,
    check_divergence_dichotomy,
    runpath_prefix,
)
from cubemorse.raag import GroupElement, distance
from cubemorse.runpaths import CertificateViolation, RunPath, set_distance_knots
from oracles import dichotomy_by_steps, random_graphs, set_distance_knots_by_tables


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
        back = Z.segments_between(T, 0)
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


def test_broken_distance_row_is_a_violation(ck, monkeypatch):
    # a row whose end distances no geodesic run can have must be refused,
    # not folded into a certified envelope
    from cubemorse import runpaths

    rows = runpaths._distance_rows

    def corrupted(path, Z):
        out = rows(path, Z)
        out[1][0] += 1  # the first run's end, against Z's origin
        return out

    monkeypatch.setattr(runpaths, "_distance_rows", corrupted)
    Z = RunPath(GroupElement.identity(ck), ((1, 3),))
    beta = RunPath(GroupElement.identity(ck), ((2, 2), (0, 1)))
    with pytest.raises(CertificateViolation):
        check_divergence_dichotomy(Z, beta, 0, 1, 0)
