"""graphs states each domain rule once: the smallest wheel and fan, a vertex
in range and two distinct vertices; every other module calls its helper.
Every refusal is a graphs.Refusal, and only the intake catches a ValueError."""

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


# what an except clause names when it would also catch a plain ValueError; None is a bare except
CATCH_VALUE_ERROR = {"ValueError", "Exception", "BaseException", None}


def _exception_names(node) -> set:
    # the classes a raise or an except clause names: X, X(...) or (X, Y)
    if node is None:
        return {None}
    if isinstance(node, ast.Call):
        node = node.func
    return {ast.unparse(part) for part in (node.elts if isinstance(node, ast.Tuple) else [node])}


def _raises_and_catches(path: Path) -> tuple[dict[str, set], dict[str, set]]:
    # the classes raised at each line, and the classes each function catches
    raised, caught = {}, {}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                raised[f"{path.name}:{child.lineno}"] = _exception_names(child.exc)
            elif isinstance(child, ast.ExceptHandler):
                caught.setdefault(f"{path.name}:{function}", set()).update(_exception_names(child.type))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return raised, caught


def test_every_refusal_is_a_refusal_and_only_the_intake_catches_value_error():
    raised, caught = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for into, found in zip((raised, caught), _raises_and_catches(path)):
            into.update(found)
    assert [line for line, names in raised.items() if "ValueError" in names] == []
    assert any("Refusal" in names for names in raised.values())
    # the three places that turn Python's own int(), unpacking or decoding error into a Refusal
    assert sorted(where for where, names in caught.items() if names & CATCH_VALUE_ERROR) == [
        "cli.py:_read_edge_list", "graphs.py:_parse_int", "graphs.py:parse_edge_list",
    ]
    assert caught["cli.py:main"] == {"SystemExit", "Refusal", "OSError", "MemoryError"}
    assert caught["bijection.py:_built"] == {"Refusal"}


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


def _targets(node):
    # the names and attributes an assignment binds, through tuple, list and starred unpacking
    if isinstance(node, (ast.Tuple, ast.List)):
        return [leaf for elt in node.elts for leaf in _targets(elt)]
    if isinstance(node, ast.Starred):
        return _targets(node.value)
    return [node]


def _attributes_written_onto_parameters(path: Path) -> list[str]:
    # param.attr = ... in a function whose own parameter param is; self in
    # __init__ is the object being built, and a subscript such as
    # maps[f.arc_start, k] writes into the container, not onto f
    found = []
    for function in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a}
        if function.name == "__init__":
            params.discard("self")
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
                targets = [node.target]
            else:
                continue
            for target in (leaf for t in targets for leaf in _targets(t)):
                owner = target.value if isinstance(target, ast.Attribute) else None
                if isinstance(owner, ast.Name) and owner.id in params:
                    found.append(f"{path.name}:{target.lineno} {function.name} writes {ast.unparse(target)}")
    return found


def test_no_function_writes_an_attribute_onto_its_own_parameter():
    # a function hands its results back by returning them, never by storing
    # them on what it was given
    assert [line for path in sorted(SRC.glob("*.py")) for line in _attributes_written_onto_parameters(path)] == []


def test_the_enumerators_import_no_minor_route():
    # the brute-force oracle must not lean on the route it checks: callers
    # hand the enumerators the count that sizes a walk
    names = []
    for node in ast.walk(ast.parse((SRC / "enumeration.py").read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
    assert [name for name in names if "kirchhoff" in name] == []
