"""Every record is an immutable value: fixed fields, equality and hash by value, a readable repr."""

import pytest

from wheelfan.bijection import FanTree, fiber_report
from wheelfan.enumeration import WheelForest
from wheelfan.graphs import LabeledGraph
from wheelfan.report import Check
from wheelfan.verify import ClosedForm

# each builds a fresh record, never one shared from a cache, so equal records are distinct objects
BUILDERS = {
    "LabeledGraph": lambda: LabeledGraph(3, ((0, 1), (1, 2))),
    "WheelForest": lambda: WheelForest.from_edges(4, [(1, 2), (2, 3), (0, 4)]),
    "FanTree": lambda: FanTree.from_edges(3, [(1, 2), (2, 3), (0, 3)]),
    "FiberReport": lambda: fiber_report(3),
    "Check": lambda: Check("trees", "n=3", "16", "16"),
    "ClosedForm": lambda: ClosedForm("fan", "trees", None, 1, "trees_fan"),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_records_are_immutable_values(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b
    shown = ", ".join(f"{field}={getattr(a, field)!r}" for field in a._fields)
    assert repr(a) == f"{name}({shown})"


def test_repr_spells_every_field_by_name():
    assert repr(Check("trees", "n=3", "16", "16")) == "Check(name='trees', params='n=3', expected='16', actual='16', ok=True)"
    assert repr(LabeledGraph(2, ((0, 1),))) == "LabeledGraph(vertex_count=2, edges=((0, 1),))"
    assert repr(FanTree.from_edges(1, [(1, 0)])) == "FanTree(m=1, edges=((0, 1),))"
