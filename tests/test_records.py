"""Record semantics of the value classes of the word, wall and ray layers:
their fields cannot change, records with equal fields are equal and hash
equal, no tuple or other class equals one, and each prints as it always
has."""

import math
from types import SimpleNamespace

import pytest

from cubemorse.boundary import BoundaryRay, ProductValue, SeparatedChain
from cubemorse.raag import DefiningGraph, GroupElement, Word
from cubemorse.walls import Wall


def graph() -> DefiningGraph:
    # a fresh graph per call, so two records built from two calls share no field
    return DefiningGraph.from_data({"generators": ["a", "b"], "edges": [["a", "b"]]})


G = "DefiningGraph(generators=('a', 'b'), edges=frozenset({(0, 1)}))"

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
