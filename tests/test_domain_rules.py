"""graphs states each domain rule once: the smallest wheel and fan, a vertex
in range and two distinct vertices; every other module calls its helper."""

import ast
from pathlib import Path

import pytest

from wheelfan.bijection import FanTree, WheelForest, conditioned_inverse, inverse

SRC = Path(__file__).resolve().parent.parent / "src" / "wheelfan"

MESSAGES = (
    "wheel requires at least 3 rim vertices",
    "fan requires at least 1 path vertex",
    "the two vertices must be distinct",
    "vertex {w} out of range",
)


def test_each_domain_refusal_is_written_once_in_graphs():
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    for message in MESSAGES:
        assert {name: text.count(message) for name, text in texts.items() if message in text} == {"graphs.py": 1}


def _restated_minimums(path: Path) -> list[str]:
    # a size compared with 3 or 1, a range from 3, a closed form whose first
    # index is 3 or 1, or a literal index beside a wheel or fan constructor
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {op.id for op in operands if isinstance(op, ast.Name)}
            numbers = {op.value for op in operands if isinstance(op, ast.Constant)}
            if names & {"n", "m"} and numbers & {1, 3}:
                found.append(f"{path.name}:{node.lineno} compares a size with a minimum")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            # range(1, ...) is the identity sweep's own start, not a fan's minimum
            at, minimums = {"range": (0, {3}), "ClosedForm": (3, {1, 3})}.get(node.func.id, (None, set()))
            low = node.args[at] if at is not None and len(node.args) > at else None
            if isinstance(low, ast.Constant) and low.value in minimums:
                found.append(f"{path.name}:{node.lineno} {node.func.id} starts at a literal minimum")
        elif isinstance(node, ast.Tuple):
            names = {e.id for e in node.elts if isinstance(e, ast.Name)}
            numbers = [e for e in node.elts if isinstance(e, ast.Constant) and type(e.value) is int]
            if names & {"make_wheel", "make_fan"} and numbers:
                found.append(f"{path.name}:{node.lineno} pairs a constructor with a literal minimum")
    return found


def test_no_wheel_or_fan_minimum_is_restated_outside_graphs():
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "graphs.py"]
    assert any(path.name == "verify.py" for path in sources)
    assert [line for path in sources for line in _restated_minimums(path)] == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WheelForest.from_edges(2, [(0, 1)]), "wheel requires at least 3 rim vertices"),
        (lambda: inverse(FanTree(1, ((0, 1),)), 2), "wheel requires at least 3 rim vertices"),
        (lambda: conditioned_inverse(FanTree(2, ((0, 1), (1, 2)))), "wheel requires at least 3 rim vertices"),
        (lambda: FanTree(0, ()), "fan requires at least 1 path vertex"),
    ],
    ids=["WheelForest.from_edges", "inverse", "conditioned_inverse", "FanTree"],
)
def test_the_bijection_entries_refuse_below_the_smallest_wheel_or_fan(call, message):
    # make_wheel, make_fan, the formulas and the arc-forest enumerators are
    # held to the same messages in their own modules' tests
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
