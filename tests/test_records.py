"""Record semantics of the library's value classes: their fields cannot
change, records with equal fields are equal and hash equal, no tuple or
other class equals one, and each prints as it always has, which for all
but GroupElement, Wall, Flat and Line is the frozen dataclass form."""

import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cubemorse.boundary import BoundaryRay, ProductValue, SeparatedChain
from cubemorse.constructions import (
    BetaReport,
    BetaSegment,
    ContractionReport,
    DichotomyReport,
    Flat,
    GammaPath,
    Line,
    SegmentCertificate,
    SeparationReport,
)
from cubemorse.example23 import (
    BasepointRow,
    Example23,
    LabeledGraph,
    PolySpec,
    SmallCancellationReport,
)
from cubemorse.gauges import SublinearFn
from cubemorse.raag import ConfigError, DefiningGraph, GroupElement, Word
from cubemorse.runpaths import QuasiGeodesicReport, RunPath
from cubemorse.walls import Wall


def graph() -> DefiningGraph:
    # a fresh graph per call, so two records built from two calls share no field
    return DefiningGraph.from_data({"generators": ["a", "b"], "edges": [["a", "b"]]})


G = "DefiningGraph(generators=('a', 'b'), edges=frozenset({(0, 1)}))"
# LabeledGraph compares by identity, so the records that hold one share it
LABELED = LabeledGraph()


def gamma_path(g: DefiningGraph) -> GammaPath:
    # records check nothing of their fields, so an empty period will do
    return GammaPath(g, 1, (), (), (), (), ())


GAMMA = (
    f"GammaPath(graph={G}, L=1, period_vertices=(), period_letters=(), period_walls=(), "
    "period_flats=(), period_lines=())"
)
SEGMENT = "BetaSegment(index=2, case=3, M=1, N=7, p_gen=0, p_sign=-1, q_gen=1, q_sign=1)"

# class -> (build it over a graph, its fields in order, its repr)
RECORDS = {
    DefiningGraph: (lambda g: g, ("generators", "edges"), G),
    Word: (lambda g: Word(g, [(0, 1), (0, 2)]), ("graph", "runs"), f"Word(graph={G}, runs=((0, 3),))"),
    GroupElement: (lambda g: GroupElement(g, ((0, 3),)), ("graph", "syllables"), "<a^3>"),
    Wall: (lambda g: Wall(GroupElement(g, ((1, 2),)), 0), ("base", "gen"), "Wall(1@a)"),
    BoundaryRay: (
        lambda g: BoundaryRay(GroupElement(g, ()), Word(g, ()), Word(g, [(1, 1)])),
        ("base", "prefix", "period"),
        f"BoundaryRay(base=<1>, prefix=Word(graph={G}, runs=()), "
        f"period=Word(graph={G}, runs=((1, 1),)))",
    ),
    ProductValue: (
        lambda g: ProductValue(math.inf, True, 40),
        ("value", "certified", "depth_used"),
        "ProductValue(value=inf, certified=True, depth_used=40)",
    ),
    SeparatedChain: (
        lambda g: SeparatedChain((Wall(GroupElement(g, ()), 0),), (), 0, 5),
        ("walls", "gaps", "n", "r"),
        "SeparatedChain(walls=(Wall(1@a),), gaps=(), n=0, r=5)",
    ),
    RunPath: (
        lambda g: RunPath(GroupElement(g, ()), ((0, 2), (1, -1))),
        ("origin", "runs"),
        "RunPath(origin=<1>, runs=((0, 2), (1, -1)))",
    ),
    QuasiGeodesicReport: (
        lambda g: QuasiGeodesicReport(True, Fraction(8), Fraction(1, 2), Fraction(3, 4), (0, 5), 12),
        ("certified", "K", "C", "min_margin", "witness", "evaluations"),
        "QuasiGeodesicReport(certified=True, K=Fraction(8, 1), C=Fraction(1, 2), "
        "min_margin=Fraction(3, 4), witness=(0, 5), evaluations=12)",
    ),
    SublinearFn: (
        lambda g: SublinearFn("power", 2, Fraction(1, 2)),
        ("kind", "a", "alpha"),
        "SublinearFn(kind='power', a=Fraction(2, 1), alpha=Fraction(1, 2))",
    ),
    # _Coset, their base, has no generators of its own and is never built
    Flat: (lambda g: Flat(GroupElement(g, ((0, 1),)), (1, 0)), ("base", "gens"), "Flat('', ab)"),
    Line: (lambda g: Line(GroupElement(g, ((0, 1), (1, 3))), 1), ("base", "gen"), "Line('a', b)"),
    GammaPath: (
        gamma_path,
        ("graph", "L", "period_vertices", "period_letters", "period_walls", "period_flats",
         "period_lines"),
        GAMMA,
    ),
    BetaSegment: (
        lambda g: BetaSegment(2, 3, 1, 7, 0, -1, 1, 1),
        ("index", "case", "M", "N", "p_gen", "p_sign", "q_gen", "q_sign"),
        SEGMENT,
    ),
    BetaReport: (
        lambda g: BetaReport(4, 1, gamma_path(g), (BetaSegment(2, 3, 1, 7, 0, -1, 1, 1),)),
        ("delta", "L", "gamma", "segments"),
        f"BetaReport(delta=4, L=1, gamma={GAMMA}, segments=({SEGMENT},))",
    ),
    SegmentCertificate: (
        lambda g: SegmentCertificate(2, 7, 5),
        ("index", "p_wall_count", "q_wall_count"),
        "SegmentCertificate(index=2, p_wall_count=7, q_wall_count=5)",
    ),
    SeparationReport: (
        lambda g: SeparationReport(4, (SegmentCertificate(2, 7, 5),), True),
        ("delta", "segments", "ok"),
        "SeparationReport(delta=4, segments=(SegmentCertificate(index=2, p_wall_count=7, "
        "q_wall_count=5),), ok=True)",
    ),
    ContractionReport: (
        lambda g: ContractionReport(False, 1, "const 0", 3, True, ((1, 2),), ("a", "b", 2, 1)),
        ("passed", "radius", "rho_text", "pairs_tested", "exhaustive", "annulus_diam", "witness"),
        "ContractionReport(passed=False, radius=1, rho_text='const 0', pairs_tested=3, "
        "exhaustive=True, annulus_diam=((1, 2),), witness=('a', 'b', 2, 1))",
    ),
    DichotomyReport: (
        lambda g: DichotomyReport(2, Fraction(3), Fraction(18), 4, 9, True, Fraction(1, 2), 40, 8),
        ("case", "kappa_value", "kappa_prime_value", "T0", "max_distance", "bound_ok",
         "residual_min", "beta_steps", "z_steps"),
        "DichotomyReport(case=2, kappa_value=Fraction(3, 1), kappa_prime_value=Fraction(18, 1), "
        "T0=4, max_distance=9, bound_ok=True, residual_min=Fraction(1, 2), beta_steps=40, "
        "z_steps=8)",
    ),
    PolySpec: (
        lambda g: PolySpec((Fraction(1), Fraction(0), Fraction(1))),
        ("coeffs",),
        "PolySpec(coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)))",
    ),
    Example23: (
        lambda g: Example23(LABELED, ((1, 2),), 1, 3),
        ("graph", "f_items", "i_max", "tail"),
        f"Example23(graph={LABELED!r}, f_items=((1, 2),), i_max=1, tail=3)",
    ),
    BasepointRow: (
        lambda g: BasepointRow(1, 5, 4, 3, 0),
        ("i", "d_o", "d_oprime", "radius_o", "radius_oprime"),
        "BasepointRow(i=1, d_o=5, d_oprime=4, radius_o=3, radius_oprime=0)",
    ),
    SmallCancellationReport: (
        lambda g: SmallCancellationReport(Fraction(1, 7), 2, (0, 1), "a b", (14, 16), True),
        ("max_ratio", "piece_length", "relator_pair", "piece", "relator_lengths", "passes_sixth"),
        "SmallCancellationReport(max_ratio=Fraction(1, 7), piece_length=2, relator_pair=(0, 1), "
        "piece='a b', relator_lengths=(14, 16), passes_sixth=True)",
    ),
}
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    build, fields, _ = RECORDS[cls]
    x = build(graph())
    before = [getattr(x, f) for f in fields]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert [getattr(x, f) for f in fields] == before


@CLASSES
def test_equal_fields_make_equal_records(cls):
    build, _, _ = RECORDS[cls]
    x, y = build(graph()), build(graph())
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@CLASSES
def test_no_tuple_or_other_class_equals_a_record(cls):
    build, fields, _ = RECORDS[cls]
    x = build(graph())
    values = tuple(getattr(x, f) for f in fields)
    assert x != values and values != x
    lookalike = SimpleNamespace(**dict(zip(fields, values)))
    assert x != lookalike and lookalike != x


@CLASSES
def test_records_list_their_fields_in_order(cls):
    # a _Record's fields are its annotated names, after its base record's
    _, fields, _ = RECORDS[cls]
    assert getattr(cls, "_fields", fields) == fields


@CLASSES
def test_repr_text(cls):
    build, _, text = RECORDS[cls]
    assert repr(build(graph())) == text


def test_constructors_canonicalise():
    g = graph()
    assert Word(g, [(0, 1), (0, 2), (1, -1), (1, -1)]).runs == ((0, 3), (1, -2))
    # b commutes with a, so b^2 and 1 lie on one carrier of the a walls
    wall = Wall(GroupElement(g, ((1, 2),)), 0)
    assert wall.base == GroupElement.identity(g)
    assert wall == Wall(GroupElement.identity(g), 0)


def test_records_take_fields_by_position_or_keyword():
    g = graph()
    one = GroupElement(g, ())
    assert RunPath(origin=one, runs=((0, 1),)) == RunPath(one, runs=((0, 1),)) == RunPath(one, ((0, 1),))
    for bad in ((), (one,), (one, (), ()), (one, (), "extra")):
        with pytest.raises(TypeError):
            RunPath(*bad)
    with pytest.raises(TypeError):
        RunPath(one, (), runs=())
    with pytest.raises(TypeError):
        RunPath(one, (), rungs=())
    with pytest.raises(TypeError):
        RunPath(one, rungs=())


def test_gauge_canonicalises_its_numbers():
    # a and alpha are Fractions whatever rational was given, so equal gauges
    # given in different types are one record
    fn = SublinearFn("power", 2, "1/2")
    assert type(fn.a) is Fraction and type(fn.alpha) is Fraction
    assert fn == SublinearFn("power", Fraction(2), Fraction(1, 2)) == SublinearFn.power(2, 0.5)
    assert SublinearFn(kind="constant", a=3).alpha == Fraction(0)
    assert type(SublinearFn("log", 1).alpha) is Fraction
    assert hash(SublinearFn("constant", 3)) == hash(SublinearFn("constant", Fraction(3)))


@pytest.mark.parametrize(
    "args, message",
    [
        (("linear", 1), "unknown gauge kind: 'linear'"),
        (("constant", -1), "gauge scale must be nonnegative"),
        (("power", 1, 1), "power exponent must satisfy 0 <= alpha < 1"),
        (("power", 1, -1), "power exponent must satisfy 0 <= alpha < 1"),
        (("log", 1, Fraction(1, 2)), "alpha only applies to the power kind"),
    ],
)
def test_gauge_checks_its_domain(args, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SublinearFn(*args)
