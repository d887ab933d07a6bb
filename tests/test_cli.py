import hashlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import wheelfan.formulas
from wheelfan import bijection, cli, enumeration, kirchhoff, verify
from wheelfan.cli import main
from wheelfan.enumeration import enum_arc_forests, enum_spanning_trees, enum_two_forests
from wheelfan.graphs import Refusal, components, format_edge_list, make_fan, make_graph, make_wheel
from wheelfan.sequences import fib
from strategies import graphs
from test_kirchhoff import _labeled_graphs
from test_report import full_decimal


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_trees_wheel(capsys):
    assert run_cli(capsys, "count", "trees", "--graph", "wheel:3") == (0, "16\n", "")


def test_count_forests(capsys):
    code, out, _ = run_cli(capsys, "count", "forests", "--graph", "wheel:4", "--separate", "1,2")
    assert (code, out) == (0, "24\n")


def test_a_pair_across_the_rim_seam_is_at_cycle_distance_one(capsys):
    # rim vertices 1 and 8 of wheel:8 are joined by the edge that closes the
    # rim, so every route answers as for 1,2; their index gap of 7 would not
    for query, seam, formula in (
        (("count", "forests", "--separate"), "1,8", "formula: 1218\n"),
        (("resist", "--pair"), "8,1", "formula: 58/105\n"),
    ):
        args = ("--graph", "wheel:8", "--method", "all")
        code, out, err = run_cli(capsys, *query, seam, *args)
        assert (code, out, err) == run_cli(capsys, *query, "1,2", *args)
        assert (code, err) == (0, "") and out.startswith(formula)


def test_count_method_all(capsys):
    code, out, _ = run_cli(capsys, "count", "trees", "--graph", "fan:3", "--method", "all")
    assert code == 0
    assert out == "formula: 8\nminor: 8\nenum: 8\n"
    assert "pass" not in out


def test_count_method_all_skips_enum_over_cap(capsys):
    code, out, _ = run_cli(
        capsys, "count", "trees", "--graph", "wheel:12", "--method", "all"
    )
    assert code == 0
    assert out == f"formula: {wheelfan.formulas.trees_wheel(12)}\nminor: {wheelfan.formulas.trees_wheel(12)}\n"


_QUERIES_ON_WHEEL_6 = [
    ("count", "trees", "--graph", "wheel:6"),
    ("count", "forests", "--graph", "wheel:6", "--separate", "1,3"),
    ("resist", "--graph", "wheel:6", "--pair", "1,3"),
]


def test_a_single_method_runs_no_other_route(capsys, monkeypatch):
    # count trees --graph wheel:10300 --method formula answers at once only if
    # asking for one route leaves the minor, and the walk, unrun
    def refuse(*args, **kwargs):
        raise AssertionError("ran a route that was not asked for")

    minors = [run_cli(capsys, *query, "--method", "minor") for query in _QUERIES_ON_WHEEL_6]
    with monkeypatch.context() as patch:
        for name in ("count_spanning_trees", "count_two_forests", "effective_resistance"):
            patch.setattr(kirchhoff, name, refuse)
        assert [run_cli(capsys, *query, "--method", "formula") for query in _QUERIES_ON_WHEEL_6] == minors
    for name in ("enum_spanning_trees", "enum_two_forests", "enum_arc_forests"):
        monkeypatch.setattr(enumeration, name, refuse)
    assert [run_cli(capsys, *query, "--method", "minor") for query in _QUERIES_ON_WHEEL_6] == minors


@pytest.mark.parametrize(
    "query, suite, row",
    [
        (("count", "trees"), "trees", "wheel trees: enumeration vs minor [n=9]"),
        (("count", "forests", "--separate", "1,3"), "forests", "separating forests: enumeration vs minor [n=9 k=2]"),
    ],
)
def test_count_and_verify_share_one_enumeration_cap(capsys, query, suite, row):
    # wheel:9 has 10 vertices: enum runs at --enum-cap 10 and not at 9, alike
    # for --method enum, --method all and the verify suite that checks the query
    def runs(cap):
        count = [*query, "--graph", "wheel:9", "--enum-cap", str(cap), "--method"]
        verify = ("verify", "--suite", suite, "--max-n", "9", "--enum-cap", str(cap))
        return run_cli(capsys, *count, "enum"), run_cli(capsys, *count, "all"), run_cli(capsys, *verify)

    enum, every, checked = runs(9)
    assert enum == (2, "", "error: graph has 10 vertices, enumeration cap is 9\n")
    assert every[0] == checked[0] == 0 and "enum:" not in every[1] and row not in checked[1]
    enum, every, checked = runs(10)
    assert every[0] == checked[0] == enum[0] == 0 and f"enum: {enum[1]}" in every[1] and row in checked[1]


def test_count_method_all_on_a_cycle_wider_than_a_machine_word(tmp_path, capsys):
    path = tmp_path / "c80.txt"
    path.write_text(format_edge_list(80, make_graph(80, [(i, (i + 1) % 80) for i in range(80)]).edges))
    code, out, _ = run_cli(capsys, "count", "trees", "--graph", f"file:{path}", "--method", "all", "--enum-cap", "100")
    assert (code, out) == (0, "minor: 80\nenum: 80\n")


def test_count_forests_requires_separate(capsys):
    code, _, err = run_cli(capsys, "count", "forests", "--graph", "wheel:4")
    assert code == 2
    assert "--separate" in err


def test_count_from_file(tmp_path, capsys):
    g = make_wheel(3)
    path = tmp_path / "k4.txt"
    path.write_text(format_edge_list(g.vertex_count, g.edges))
    code, out, _ = run_cli(capsys, "count", "trees", "--graph", f"file:{path}")
    assert (code, out) == (0, "16\n")
    # no closed form for arbitrary graphs
    code, _, err = run_cli(capsys, "count", "trees", "--graph", f"file:{path}", "--method", "formula")
    assert code == 2 and "closed form" in err


@pytest.mark.parametrize("method", ["enum", "minor", "formula"])
@pytest.mark.parametrize("pair, bad", [("1,99", 99), ("-1,2", -1), ("0,99", 99)])
def test_count_forests_vertex_out_of_range(capsys, method, pair, bad):
    code, out, err = run_cli(
        capsys, "count", "forests", "--graph", "wheel:4", f"--separate={pair}", "--method", method
    )
    assert (code, out) == (2, "")
    assert err == f"error: vertex {bad} out of range\n"


def run_quiet(*args):
    # like run_cli, without capsys, which hypothesis tests cannot share
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


GRID_GRAPHS = (
    "wheel:4", "wheel:5", "fan:3", "file:g.txt", "file:split.txt",
    "wheel:2", "fan:0", "file:missing.txt", "wheel4", "cube:3", "wheel:x",
)
GRID_PAIRS = ("0,1", "1,2", "1,3", "2,4", "0,0", "1,99", "-1,2", "a,b", "1")
# sha256 over (argv, exit code, stdout, stderr) of every grid run, recorded at
# the commit before the route table replaced the per-command dispatch, then
# re-pinned when resist answered within a component (split.txt pair 0,1 with
# --method minor and all, which had exited 2, print 1/1; no other run changed)
GRID_DIGEST = "cca2ea36361f26dacb5d41d8a4ee3ee376dc31a7aa612926c4b1b235128e6c6a"


def test_count_and_resist_grid_matches_pinned_digest(tmp_path, monkeypatch, capsys):
    # graph x method x pair, error cases included, so the digest also pins
    # which error wins when several apply; relative paths keep it host-free
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(format_edge_list(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]))
    (tmp_path / "split.txt").write_text(format_edge_list(4, [(0, 1), (2, 3)]))
    argvs = []
    for graph in GRID_GRAPHS:
        for method in ("formula", "minor", "enum", "all"):
            argvs.append(("count", "trees", f"--graph={graph}", f"--method={method}"))
            argvs.append(("count", "forests", f"--graph={graph}", f"--method={method}"))
            argvs.extend(
                ("count", "forests", f"--graph={graph}", f"--separate={p}", f"--method={method}")
                for p in GRID_PAIRS
            )
        for method in ("formula", "minor", "all"):
            argvs.extend(
                ("resist", f"--graph={graph}", f"--pair={p}", f"--method={method}") for p in GRID_PAIRS
            )
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(repr((argv, *run_cli(capsys, *argv))).encode())
    assert digest.hexdigest() == GRID_DIGEST


# the canonical sweep, verify --suite all --max-n 12 --enum-cap 9: stdout
# sha256 and last line; a change to any suite must print the same bytes
SWEEP_DIGEST = "127d41acf8feb135bf981d3bead1f9f194dd4cf3706709a5e8546b73da1d8bec"


def test_canonical_sweep_matches_pinned_digest(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-n", "12", "--enum-cap", "9")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "passed=237 failed=0 info=12"
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGEST


@settings(deadline=None)
@given(data=st.data())
def test_every_route_treats_a_vertex_pair_alike(data):
    # fans are left out: they have no closed form for forests or resistance
    n = data.draw(st.integers(3, 6), label="n")
    u = data.draw(st.integers(-2, n + 2), label="u")
    v = data.draw(st.integers(-2, n + 2), label="v")
    graph = f"--graph=wheel:{n}"
    for command, methods in [
        (("count", "forests", graph, f"--separate={u},{v}"), ("formula", "minor", "enum")),
        (("resist", graph, f"--pair={u},{v}"), ("formula", "minor")),
    ]:
        results = {run_quiet(*command, "--method", m) for m in methods}
        assert len(results) == 1, results
        code, out, err = results.pop()
        valid = u != v and 0 <= u <= n and 0 <= v <= n
        assert (code, out == "", err == "") == ((0, False, True) if valid else (2, True, False))


def test_every_query_on_every_graph_of_at_most_four_vertices(tmp_path, capsys):
    # bounded-exhaustive through the CLI: the 75 labeled graphs on 1..4
    # vertices as file: specs, every pair, every route.  The tree count of
    # one vertex and the forest counts of two are the empty minor.  A pair
    # split over two parts has infinite resistance; on a connected graph the
    # resistance is the printed forest count over the printed tree count
    def value(*args):
        code, out, err = run_cli(capsys, *args, "--method", "all")
        assert (code, err) == (0, ""), args
        found = dict(line.split(": ") for line in out.splitlines())
        assert "minor" in found and len(set(found.values())) == 1, (args, out)
        return Fraction(found["minor"])

    for i, g in enumerate(_labeled_graphs(4)):
        path = tmp_path / f"g{i}.txt"
        path.write_text(format_edge_list(g.vertex_count, g.edges))
        spec = f"--graph=file:{path}"
        trees = value("count", "trees", spec)
        part = {w: p for p, vertices in enumerate(components(g, g.edges)) for w in vertices}
        for u, v in combinations(range(g.vertex_count), 2):
            pair = f"{u},{v}"
            forests = value("count", "forests", spec, "--separate", pair)
            if part[u] != part[v]:
                args = ("resist", spec, "--pair", pair, "--method", "all")
                assert run_cli(capsys, *args) == (2, "", "error: infinite resistance: graph is disconnected\n")
                continue
            resistance = value("resist", spec, "--pair", pair)
            if trees:
                assert resistance == forests / trees, (g, u, v)
    assert i == 74


@pytest.mark.parametrize(
    "args, predicted",
    [
        (("count", "trees", "--method", "all"), "100000000 spanning trees"),
        (("enumerate", "trees"), "100000000 spanning trees"),
        (("enumerate", "forests", "--separate", "0,9"), "20000000 separating two-forests"),
    ],
)
def test_k10_is_refused_by_the_work_budget(tmp_path, args, predicted):
    # 10 vertices pass the vertex cap, but K10 has 10^8 spanning trees; a
    # subprocess with a timeout turns a regression into a failure, not a hang
    path = tmp_path / "k10.txt"
    path.write_text(format_edge_list(10, combinations(range(10), 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", *args[:2], "--graph", f"file:{path}", *args[2:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: graph has {predicted}, enumeration budget is 1000000\n"


@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "tau", "--graph", "wheel:30", "--enum-cap", "40"),
        ("bijection", "audit", "--n", "30", "--enum-cap", "40"),
    ],
)
def test_arc_forests_are_refused_by_the_work_budget(args):
    # 31 vertices pass a cap of 40, but wheel:30 has 30*f(59) two-component forests
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", *args], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: graph has 28701660781230 two-component forests, enumeration budget is 1000000\n"
    )


def _limit_address_space():
    limit = 256 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "args, message",
    [
        (("audit",), "graph has 2000001 vertices, enumeration cap is 10"),
        (("forward", "--edges", "1-2"), "forest on the wheel with 2000000 rim vertices needs 1999999 edges, got 1"),
        (("inverse", "--edges", "0-1"), "not a spanning tree of the fan with 1999999 path vertices"),
    ],
)
def test_huge_bijection_inputs_are_refused_before_the_graph_is_built(args, message):
    # a wheel or fan on two million vertices does not fit in 256 MiB of address space
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "bijection", args[0], "--n", "2000000", *args[1:]],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_integers_over_4300_digits_print_in_full(capsys):
    # str() refuses ints over 4300 digits by default; the CLI prints them whole
    trees = full_decimal(wheelfan.formulas.trees_wheel(10300))
    assert len(trees) == 4306
    args = ("count", "trees", "--graph", "wheel:10300", "--method", "formula")
    assert run_cli(capsys, *args) == (0, trees + "\n", "")
    code, out, err = run_cli(capsys, "oeis", "--sequence", "fan-trees", "--max-n", "10300", "--bfile")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"10300 {full_decimal(wheelfan.formulas.trees_fan(10300))}"
    r = wheelfan.formulas.resistance_center(20600)
    assert len(full_decimal(r.numerator)) > 4300
    assert run_cli(capsys, "resist", "--graph", "wheel:20600", "--pair", "0,1", "--method", "formula") == (
        0,
        f"{full_decimal(r.numerator)}/{full_decimal(r.denominator)}\n",
        "",
    )
    # the count a budget refusal names: wheel:10300 has 10300*f(20599) arc forests
    count = full_decimal(10300 * fib(20599))
    assert run_cli(capsys, "enumerate", "tau", "--graph", "wheel:10300", "--enum-cap", "10301") == (
        2,
        "",
        f"error: graph has {count} two-component forests, enumeration budget is 1000000\n",
    )


@pytest.mark.parametrize("where", ["spec", "file"])
def test_sizes_over_4300_digits_are_refused_before_a_graph_is_built(tmp_path, where):
    # int() keeps its digit limit, so a huge typed size is a usage error at once
    digits = "9" * 5000
    if where == "spec":
        graph, message = f"wheel:{digits}", f"bad rim size {digits!r}"
    else:
        path = tmp_path / "huge.txt"
        path.write_text(f"V {digits}\n0 1\n")
        graph, message = f"file:{path}", f"bad vertex count line: 'V {digits}'"
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "count", "trees", "--graph", graph],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_bad_graph_spec(capsys):
    assert run_cli(capsys, "count", "trees", "--graph", "wheel4")[0] == 2
    assert run_cli(capsys, "count", "trees", "--graph", "cube:3")[0] == 2
    assert run_cli(capsys, "count", "trees", "--graph", "wheel:x")[0] == 2


def test_a_file_spec_without_a_path_is_refused_as_a_spec(capsys):
    # Path("") is the working directory, which would be read as a file
    code, out, err = run_cli(capsys, "count", "trees", "--graph", "file:")
    assert (code, out) == (2, "")
    assert err == "error: bad graph spec 'file:'; expected wheel:N, fan:M or file:PATH\n"


@pytest.mark.parametrize(
    "args",
    [("count", "trees", "--graph", "file:BIN"), ("bijection", "forward", "--n", "3", "--file", "BIN")],
    ids=["count", "bijection"],
)
def test_a_file_that_is_not_utf8_is_refused_with_the_decoders_message(tmp_path, args):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    args = [arg.replace("BIN", str(path)) for arg in args]
    proc = subprocess.run([sys.executable, "-m", "wheelfan", *args], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


# the C locale, with neither UTF-8 mode nor locale coercion: the locale's encoding is ASCII
_C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _run_in_c_locale(*args):
    env = {**os.environ, **_C_LOCALE}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_an_edge_list_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # an edge-list file is UTF-8 whatever the locale, and its byte-order mark is skipped
    assert _run_in_c_locale("-c", "import locale; print(locale.getencoding())").stdout == "ANSI_X3.4-1968\n"
    tree = tmp_path / "path.txt"
    tree.write_bytes("\ufeffV 3\n0 1\n1 2\n".encode())
    forest = tmp_path / "forest.txt"
    forest.write_bytes("\ufeffV 5\n0 4\n1 2\n2 3\n".encode())
    proc = _run_in_c_locale("-m", "wheelfan", "count", "trees", "--graph", f"file:{tree}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
    inline = _run_in_c_locale("-m", "wheelfan", "bijection", "forward", "--n", "4", "--edges", "0-4,1-2,2-3")
    proc = _run_in_c_locale("-m", "wheelfan", "bijection", "forward", "--file", str(forest))
    assert inline.returncode == 0 and inline.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, inline.stdout, "")
    # and a byte that is not UTF-8 is still refused with the decoder's one line
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"V 3\n0 1\n1 2 # caf\xe9\n")
    proc = _run_in_c_locale("-m", "wheelfan", "count", "trees", "--graph", f"file:{latin1}")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: 'utf-8' codec can't decode byte 0xe9") and proc.stderr.count("\n") == 1


def test_a_path_with_a_nul_byte_is_refused(capsys):
    # argv cannot carry a NUL byte, so only an in-process call can pass one
    assert run_cli(capsys, "count", "trees", "--graph", "file:a\x00b") == (2, "", "error: embedded null byte\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (("count", "trees", "--graph", "wheel:5_0"), "bad rim size '5_0'"),
        (("count", "trees", "--graph", "wheel: 5"), "bad rim size ' 5'"),
        (("count", "trees", "--graph", "wheel:\u0665"), "bad rim size '\u0665'"),
        (("resist", "--graph", "wheel:5", "--pair", "1,+2"), "bad vertex '+2'"),
        (("bijection", "forward", "--n", "4", "--edges", "1-2_0"), "bad vertex '2_0'"),
    ],
    ids=["underscore", "space", "arabic-indic-digit", "plus-sign", "edge-underscore"],
)
def test_integer_fields_take_ascii_digits_only(capsys, args, message):
    # int() takes each of these; wheel:N, A,B and A-B mean ASCII digits
    assert run_cli(capsys, *args) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args, file_text, message",
    [
        (("verify", "--suite", "identities", "--max-n", "1_2"), None, "argument --max-n: invalid int value: '1_2'"),
        (("bijection", "audit", "--n", "\u0665"), None, "argument --n: invalid int value: '\u0665'"),
        (
            ("count", "trees", "--graph", "wheel:6", "--method", "all", "--enum-cap", " +1_0"),
            None,
            "argument --enum-cap: invalid int value: ' +1_0'",
        ),
        (("oeis", "--sequence", "fan-trees", "--max-n", "+3"), None, "argument --max-n: invalid int value: '+3'"),
        (("count", "trees"), "V \u0663\n0 +1\n1 2\n", "bad vertex count line: 'V \u0663'"),
        (("count", "trees"), "V 1_0\n0 1\n", "bad vertex count line: 'V 1_0'"),
        (("count", "trees"), "V 3\n0 +1\n1 2\n", "bad edge line: '0 +1'"),
    ],
    ids=["option-underscore", "option-arabic-indic-digit", "option-space-plus", "option-plus", "file-count-digit",
         "file-count-underscore", "file-edge-plus"],
)
def test_options_and_edge_list_fields_take_ascii_digits_only(tmp_path, capsys, args, file_text, message):
    # int() takes each of these; they follow the rule of wheel:N, A,B and A-B
    if file_text is not None:
        path = tmp_path / "g.txt"
        path.write_text(file_text, encoding="utf-8")
        args += ("--graph", f"file:{path}")
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def test_a_refused_integer_option_keeps_argparses_int_message(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, "verify", "--max-n", "x") == (
        2,
        "",
        "usage: wheelfan verify [-h] [--suite SUITE] [--max-n MAX_N]\n"
        "                       [--enum-cap ENUM_CAP]\n"
        "wheelfan verify: error: argument --max-n: invalid int value: 'x'\n",
    )


def test_a_zero_the_graph_confirms_is_answered_without_a_walk(tmp_path, capsys, monkeypatch):
    # K9 and an isolated vertex: the walk would take seconds to find nothing
    def walk(*args):
        raise AssertionError("walked a graph with no spanning tree")

    monkeypatch.setattr(enumeration, "_acyclic_subsets", walk)
    path = tmp_path / "k9-and-one.txt"
    path.write_text(format_edge_list(10, combinations(range(9), 2)))
    code, out, _ = run_cli(capsys, "count", "trees", "--graph", f"file:{path}", "--method", "all")
    assert (code, out) == (0, "minor: 0\nenum: 0\n")


def test_a_zero_minor_on_a_connected_graph_is_caught_by_the_walk(tmp_path, capsys, monkeypatch):
    # fault injection: the minor reads 0, and so does the enumerator's sizing,
    # which takes the same count; the walk still runs, so the two routes disagree
    monkeypatch.setattr(kirchhoff, "count_spanning_trees", lambda g: 0)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))
    code, out, _ = run_cli(capsys, "count", "trees", "--graph", f"file:{path}", "--method", "all")
    assert (code, out) == (1, "minor: 0\nenum: 3\nMISMATCH: methods disagree\n")


def test_count_mismatch_flips_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(wheelfan.formulas, "trees_fan", lambda m: 9999)
    code, out, _ = run_cli(capsys, "count", "trees", "--graph", "fan:3", "--method", "all")
    assert code == 1
    assert "MISMATCH" in out
    assert "pass" not in out.lower()


def test_resist_values(capsys):
    assert run_cli(capsys, "resist", "--graph", "wheel:3", "--pair", "1,2") == (0, "1/2\n", "")
    assert run_cli(capsys, "resist", "--graph", "wheel:4", "--pair", "1,0") == (0, "7/15\n", "")


def test_resist_method_all(capsys):
    code, out, _ = run_cli(
        capsys, "resist", "--graph", "wheel:4", "--pair", "1,3", "--method", "all"
    )
    assert code == 0
    assert out == "formula: 2/3\nminor: 2/3\n"


def test_resist_within_a_component_of_a_disconnected_graph(tmp_path, capsys):
    # vertex 2 is isolated; 0 and 1 share an edge, so their resistance is 1
    path = tmp_path / "v3.txt"
    path.write_text("V 3\n0 1\n")
    for method, out in (("minor", "1/1\n"), ("all", "minor: 1/1\n")):
        args = ("resist", "--graph", f"file:{path}", "--pair", "0,1", "--method", method)
        assert run_cli(capsys, *args) == (0, out, "")
    assert run_cli(capsys, "resist", "--graph", f"file:{path}", "--pair", "0,2") == (
        2,
        "",
        "error: infinite resistance: graph is disconnected\n",
    )


@pytest.mark.parametrize(
    "args, code, out, err",
    [
        (("count", "trees"), 0, "0\n", ""),
        (("count", "forests", "--separate", "0,1"), 0, "0\n", ""),
        (("resist", "--pair", "0,1"), 0, "1/1\n", ""),
        (("resist", "--pair", "0,2"), 2, "", "error: infinite resistance: graph is disconnected\n"),
    ],
    ids=["trees", "forests", "resist", "resist-apart"],
)
def test_a_huge_vertex_count_with_one_edge_answers_in_small_memory(tmp_path, args, code, out, err):
    # 10^8 vertices and one edge: too few edges for a tree or a two-forest,
    # and u's component is found from the edges, so nothing is sized by V
    path = tmp_path / "huge.txt"
    path.write_text("V 100000000\n0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", *args, "--graph", f"file:{path}"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize(
    "args",
    [
        ("count", "trees", "--method", "enum"),
        ("enumerate", "trees"),
        ("count", "forests", "--separate", "0,5", "--method", "enum"),
    ],
    ids=["count-trees", "enumerate-trees", "count-forests"],
)
def test_an_enumeration_deeper_than_the_recursion_limit_is_refused(tmp_path, args):
    # the walk recurses once per chosen edge; a 990-vertex path would go 989
    # deep against Python's default limit of 1000, so it is refused with exit 2
    path = tmp_path / "path990.txt"
    path.write_text(format_edge_list(990, ((i, i + 1) for i in range(989))))
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", *args, "--graph", f"file:{path}", "--enum-cap", "5000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: graph has 990 vertices, enumeration depth limit is 500\n"


def _limit_address_space_to_128_mib():
    resource.setrlimit(resource.RLIMIT_AS, (128 * 2**20, 128 * 2**20))


def test_minor_route_on_a_large_wheel_runs_in_small_memory():
    # a dense 5000 x 5000 minor peaks near 400 MiB; the wheel's minor without
    # its center is a cycle, held as a list of degrees, so 128 MiB of address
    # space fails only the former
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "count", "trees", "--graph", "wheel:5000"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space_to_128_mib,
    )
    trees = full_decimal(wheelfan.formulas.trees_wheel(5000))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, trees + "\n", "")


def test_minor_route_on_a_large_sparse_graph_runs_in_small_memory(tmp_path):
    # the 2 x 2500 ladder has vertices of degree 3 on both rails, so its
    # minor takes the min-degree sparse rows; dense it would peak near 400
    # MiB, as a wheel:5000 minor would
    rungs = 2500
    rails = [(i, i + 1) for i in range(rungs - 1)] + [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    path = tmp_path / "ladder.txt"
    path.write_text(format_edge_list(2 * rungs, rails + [(i, rungs + i) for i in range(rungs)]))
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "count", "trees", "--graph", f"file:{path}"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space_to_128_mib,
    )
    # the ladder's tree counts: 1, 4, then t(r) = 4 t(r-1) - t(r-2)
    before, trees = 1, 4
    for _ in range(rungs - 2):
        before, trees = trees, 4 * trees - before
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, full_decimal(trees) + "\n", "")


def test_count_trees_on_wheel_20000_takes_the_shape_route():
    # 20,001 vertices: Bareiss over the sparse rows took 20-30 s, the
    # continuants of the rim's cycle take well under one
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "count", "trees", "--graph", "wheel:20000"],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_address_space_to_128_mib,
    )
    trees = full_decimal(wheelfan.formulas.trees_wheel(20000))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, trees + "\n", "")


def test_a_corrupt_apex_term_of_the_shape_route_is_caught(capsys, monkeypatch):
    # fault injection in the style of criterion 10: one too many on each
    # path's apex term w leaves every wheel minor that keeps the center wrong;
    # a bare path's w is never read, and neither command meets a cycle, so
    # only the paths beside the center see it
    def corrupt(degrees, flags, _original=kirchhoff._apex_state):
        det, det_before, w, w_before, s = _original(degrees, flags)
        return det, det_before, w + 1, w_before, s

    monkeypatch.setattr(kirchhoff, "_apex_state", corrupt)
    code, out, _ = run_cli(capsys, "count", "forests", "--graph", "wheel:9", "--separate", "1,4", "--method", "all")
    assert code == 1
    assert out.endswith("MISMATCH: methods disagree\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "forests", "--max-n", "12")
    assert code == 1


def test_a_cycle_whose_first_vertex_meets_one_end_of_its_path_is_caught(capsys, monkeypatch):
    # a cycle is the path R after its first vertex, beside that vertex as R's
    # apex; with R's last end unflagged, w(R) loses D(R without its last) + 2,
    # so every tree count of a wheel is wrong, while the opened path that a
    # resistance reads as its forest count is not
    def corrupt(nbrs, drop, last, _original=kirchhoff._shape):
        shape = _original(nbrs, drop, last)
        for _, flags, cycle in shape.blocks if shape else ():
            if cycle:
                flags[-1] = 0
        return shape

    monkeypatch.setattr(kirchhoff, "_shape", corrupt)
    code, out, _ = run_cli(capsys, "count", "trees", "--graph", "wheel:9", "--method", "all")
    assert code == 1
    assert out.endswith("MISMATCH: methods disagree\n")
    # vertex 3 goes last, on the rim cycle left without the center
    code, out, _ = run_cli(capsys, "resist", "--graph", "wheel:9", "--pair", "0,3", "--method", "all")
    assert code == 1
    assert out.endswith("MISMATCH: methods disagree\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "trees", "--max-n", "12")
    assert code == 1


def test_a_join_without_its_cross_term_is_caught(capsys, monkeypatch):
    # a resistance walks the path holding its last vertex forward to it and
    # back from the far end, then joins the two; without the apex term of
    # the pairs across that vertex, 2 s_P s_S, a wheel's rim pair whose last
    # vertex lies inside the path gets a wrong tree count
    def corrupt(d, a, prefix, suffix, _original=kirchhoff._join):
        det, w = _original(d, a, prefix, suffix)
        return det, w - 2 * prefix[4] * suffix[4]

    monkeypatch.setattr(kirchhoff, "_join", corrupt)
    code, out, _ = run_cli(capsys, "resist", "--graph", "wheel:9", "--pair", "1,4", "--method", "all")
    assert code == 1
    assert out.endswith("MISMATCH: methods disagree\n")


def test_a_long_bfile_streams_in_small_memory():
    # fan-trees up to 8000 is 13 MB of text; built whole (rows, lines, one
    # joined string) it needs over 64 MiB of address space, row by row under 32
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "oeis", "--sequence", "fan-trees", "--max-n", "8000", "--bfile"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (64 * 2**20, 64 * 2**20)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [int(line.split()[0]) for line in lines] == list(range(1, 8001))
    assert lines[-1] == f"8000 {full_decimal(wheelfan.formulas.trees_fan(8000))}"


def test_running_out_of_memory_is_a_refusal_not_a_mismatch():
    # exit 1 means the routes disagree; a graph too big to build under the
    # ceiling is refused with exit 2 and one line, not a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "count", "trees", "--graph", "wheel:30000000"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space_to_128_mib,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_a_plain_value_error_in_a_route_escapes_as_a_bug(monkeypatch):
    # only a Refusal is a usage error: a ValueError from a bug must not exit 2
    def broken(g):
        raise ValueError("max() arg is an empty sequence")

    monkeypatch.setattr(kirchhoff, "count_spanning_trees", broken)
    with pytest.raises(ValueError, match="empty sequence") as caught:
        main(["count", "trees", "--graph", "wheel:4"])
    assert type(caught.value) is ValueError


def test_a_bug_exits_1_with_a_traceback_and_no_mismatch_line():
    # exit 1 is a mismatch only when stdout holds a MISMATCH or FAIL line: a
    # bug that escapes main exits 1 too, with its traceback on stderr
    script = (
        "import sys\n"
        "from wheelfan import cli, kirchhoff\n"
        "kirchhoff.count_spanning_trees = lambda g: max([])\n"
        "sys.argv = ['wheelfan', 'count', 'trees', '--graph', 'wheel:4']\n"
        "cli.entry()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert "MISMATCH" not in proc.stdout and "FAIL" not in proc.stdout


# the CLI grammar the contract fuzz draws from, each as (usual, unusual),
# half the draws from each, so that the routes run about as often as the
# refusals: sizes (at most 40, for the minor route) small, at the edge of a
# family's minimum, negative, malformed and over int()'s 4300 digits; pairs
# in and out of range; inline edges of a wheel:4 forest and a fan:4 tree, or
# broken ones
FUZZ_SIZES = ("4", "6", "40"), ("0", "1", "2", "3", "-1", "-5", "5_0", "+3", "", "x", "9" * 4301)
FUZZ_PAIRS = ("0,1", "1,3", "2,0"), ("0,0", "1,99", "-1,2", "a,b", "1", "", "1," + "9" * 4301)
FUZZ_EDGES = ("1-2,2-3,0-4", "1-2,0-2,0-3"), ("0-1,1-0", "1-2,3", "", "a-b")
# verify's suites, bounds and caps, and the --enum-cap of count and enumerate:
# small enough that every run under them is within the enumeration budget
FUZZ_SUITES = (*verify.SUITES, "all", "bogus")
FUZZ_MAX_N = ("-1", "0", "1", "3", "6")
FUZZ_CAPS = ("-1", "0", "3", "5", "8")
# oeis's sequences, and one it does not have
FUZZ_SEQUENCES = (*(form.sequence for form in verify.CLOSED_FORMS if form.sequence), "bogus")
# file: graphs by name; missing.txt is never written.  Past empty.txt, each
# is one edit of the path 0-1-2, malformed or unusual; huge.txt's 10^11
# vertices with one edge hold every route to allocating nothing per vertex
_PATH = format_edge_list(3, [(0, 1), (1, 2)])
FUZZ_FILES = {
    "k4.txt": format_edge_list(4, combinations(range(4), 2)),
    "split.txt": format_edge_list(4, [(0, 1), (2, 3)]),
    "forest.txt": "V 5\n0 4\n1 2\n2 3\n",
    "bad.txt": "V 3\n0 x\n",
    "empty.txt": "",
    "duplicate.txt": _PATH + "0 1\n",
    "reversed.txt": _PATH + "1 0\n",
    "loop.txt": _PATH + "1 1\n",
    "out-of-range.txt": _PATH + "0 3\n",
    "three-fields.txt": _PATH + "0 1 2\n",
    "bare-v.txt": _PATH.replace("V 3", "V"),
    "v0.txt": "V 0\n",
    "v-2.txt": "V -2\n",
    "full-width.txt": _PATH.replace("2\n", "\uff12\n"),
    "bom.txt": "\ufeff" + _PATH,
    "crlf.txt": _PATH.replace("\n", "\r\n"),
    "tabs.txt": _PATH.replace("0 1", "0\t1").replace("1 2", "1\t2"),
    "comment.txt": _PATH + "0 2 # comment\n",
    "huge.txt": "V 100000000000\n0 1\n",
}


def _halves(usual, unusual):
    return st.one_of(st.sampled_from(usual), st.sampled_from(unusual))


@st.composite
def cli_argvs(draw, folder):
    files = [str(folder / name) for name in [*FUZZ_FILES, "missing.txt"]]
    sizes = _halves(*FUZZ_SIZES)
    specs = st.sampled_from(["wheel:", "fan:"]).flatmap(lambda family: sizes.map(family.__add__))
    graph = draw(st.one_of(specs, specs, st.sampled_from(files).map("file:".__add__)))
    pair = draw(_halves(*FUZZ_PAIRS))
    commands = ["count trees", "count forests", "resist", "enumerate", "bijection", "verify", "oeis"]
    command = draw(st.sampled_from(commands))
    cap = ["--enum-cap", draw(st.sampled_from(FUZZ_CAPS))]
    if command == "oeis":
        argv = ["oeis", "--sequence", draw(st.sampled_from(FUZZ_SEQUENCES))]
        argv += ["--max-n", str(draw(st.integers(-1, 40)))]
        return argv + (["--bfile"] if draw(st.booleans()) else [])
    if command == "verify":
        suite, max_n = draw(st.sampled_from(FUZZ_SUITES)), draw(st.sampled_from(FUZZ_MAX_N))
        return ["verify", "--suite", suite, "--max-n", max_n, *cap]
    if command == "bijection":
        argv = ["bijection", draw(st.sampled_from(["forward", "inverse", "audit"]))]
        if argv[1] == "audit":
            return argv + ["--n", draw(sizes)]
        if draw(st.booleans()):
            # the file gives the rim size, and an --n beside it must agree
            argv += ["--file", draw(st.sampled_from(files))]
            return argv + (["--n", draw(sizes)] if draw(st.booleans()) else [])
        return argv + ["--n", draw(sizes), "--edges", draw(_halves(*FUZZ_EDGES))]
    if command == "enumerate":
        argv = ["enumerate", draw(st.sampled_from(["trees", "forests", "tau"])), "--graph", graph]
        argv += cap if draw(st.booleans()) else []
        return argv + (["--separate", pair] if draw(st.booleans()) else [])
    argv = command.split() + ["--graph", graph]
    if command != "resist" and draw(st.booleans()):
        argv += cap
    if command == "count forests":
        argv += ["--separate", pair]
    elif command == "resist":
        argv += ["--pair", pair]
    methods = ["formula", "minor", "all"] + (["enum"] if command != "resist" else [])
    return argv + (["--method", draw(st.sampled_from(methods))] if draw(st.booleans()) else [])


@pytest.fixture(scope="module")
def fuzz_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (folder / name).write_text(text, encoding="utf-8")
    return folder


def _keeps_the_cli_contract(*argv):
    # 0; or 2 with one error line on stderr; or 1 only beside a MISMATCH or
    # FAIL line on stdout; and main never raises
    code, out, err = run_quiet(*argv)
    if code == 0:
        assert err == ""
    elif code == 2:
        # argparse writes its usage first, then "wheelfan <command>: error: ..."
        lines = err.splitlines()
        assert lines and [line for line in lines if "error: " in line] == lines[-1:]
    else:
        assert code == 1 and re.search("^(MISMATCH|FAIL)", out, re.MULTILINE)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_exit_code_keeps_the_cli_contract(fuzz_folder, data):
    _keeps_the_cli_contract(*data.draw(cli_argvs(fuzz_folder)))


@pytest.mark.parametrize("name", [*FUZZ_FILES, "missing.txt"])
def test_every_fuzz_file_keeps_the_cli_contract_on_every_command_that_reads_it(fuzz_folder, name):
    # the fuzz draws its files at random, and 200 draws miss some of them
    graph, path = f"file:{fuzz_folder / name}", str(fuzz_folder / name)
    for argv in [
        ["count", "trees", "--graph", graph, "--method", "all"],
        ["count", "forests", "--graph", graph, "--separate", "0,2", "--method", "all"],
        ["resist", "--graph", graph, "--pair", "0,2", "--method", "all"],
        ["enumerate", "trees", "--graph", graph],
        ["enumerate", "forests", "--graph", graph, "--separate", "0,2"],
        ["bijection", "forward", "--file", path],
        ["bijection", "inverse", "--file", path],
    ]:
        _keeps_the_cli_contract(*argv)


# sha256 of `enumerate trees --graph wheel:12`, recorded before the blocks were streamed
WHEEL_12_TREES_DIGEST = "91e14df59f53450f92ecdc1c6b50735dcd0aa0aff09591e6d9a040247a1f466a"


def test_enumerate_streams_its_blocks_in_small_memory():
    # wheel:12's 103,680 trees are 6 MB of text; formatted and joined into one
    # string they need over 50 MiB of address space, block by block under 36
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "enumerate", "trees", "--graph", "wheel:12", "--enum-cap", "13"],
        capture_output=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (44 * 2**20, 44 * 2**20)),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.count(b"V 13\n") == wheelfan.formulas.trees_wheel(12)
    assert hashlib.sha256(proc.stdout).hexdigest() == WHEEL_12_TREES_DIGEST


def test_resist_same_vertex_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "resist", "--graph", "wheel:4", "--pair", "2,2")
    assert code == 2
    assert "distinct" in err


def test_bijection_forward(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "forward", "--n", "4", "--edges", "1-2,2-3,0-4"
    )
    assert (code, out) == (0, "0-3 1-2 2-3\n")


def test_bijection_forward_normalizes_first(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "forward", "--n", "4", "--edges", "2-3,0-1,0-4"
    )
    assert (code, out) == (0, "0-2 0-3 1-2\n")


def test_bijection_inverse(capsys):
    code, out, _ = run_cli(
        capsys, "bijection", "inverse", "--n", "4", "--edges", "1-2,0-2,0-3"
    )
    assert (code, out) == (0, "0-3 0-4 1-2\n")


def test_bijection_file_input(tmp_path, capsys):
    path = tmp_path / "forest.txt"
    path.write_text("V 5\n0 4\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "bijection", "forward", "--file", str(path))
    assert (code, out) == (0, "0-3 1-2 2-3\n")
    # --n must agree with the file when both are given
    code, _, err = run_cli(capsys, "bijection", "forward", "--file", str(path), "--n", "5")
    assert code == 2 and "disagrees" in err


def test_bijection_input_errors(capsys):
    code, _, err = run_cli(capsys, "bijection", "forward", "--edges", "1-2")
    assert code == 2 and "--n" in err
    code, _, err = run_cli(capsys, "bijection", "forward", "--n", "4", "--edges", "1-2")
    assert code == 2 and "needs 3 edges" in err
    code, _, err = run_cli(
        capsys, "bijection", "inverse", "--n", "4", "--edges", "0-1,2-3,0-3"
    )
    assert code == 2 and "not in the image convention" in err


@pytest.mark.parametrize(
    "args, message",
    [
        (("bijection", "inverse", "--n", "1", "--edges", "0-1"), "fan requires at least 1 path vertex"),
        (("bijection", "forward", "--n", "4", "--edges", "1-2,3"), "bad edge '3'; expected A-B"),
        (("bijection", "forward", "--n", "4"), "supply exactly one of --edges or --file"),
        (
            ("bijection", "forward", "--n", "4", "--edges", "1-2", "--file", "FILE"),
            "supply exactly one of --edges or --file",
        ),
        (("bijection", "forward", "--n", "3", "--edges", "0-1,1-0"), "duplicate edge in forest"),
        (("count", "trees", "--graph", "file:FILE"), "graph needs at least one vertex"),
        (("resist", "--graph", "file:FILE", "--pair", "0,1"), "graph needs at least one vertex"),
    ],
    ids=["fan-below-one", "edge-without-dash", "no-input", "two-inputs", "duplicate-edge", "count-no-vertex",
         "resist-no-vertex"],
)
def test_refusals_print_one_error_line(tmp_path, capsys, args, message):
    # FILE is an edge list with no vertices
    path = tmp_path / "empty.txt"
    path.write_text("V 0\n")
    args = [arg.replace("FILE", str(path)) for arg in args]
    assert run_cli(capsys, *args) == (2, "", f"error: {message}\n")


def test_bijection_audit(capsys):
    code, out, _ = run_cli(capsys, "bijection", "audit", "--n", "4")
    assert code == 0
    assert out.splitlines()[-1] == "n=4 images=8 fibers_max=3 roundtrip=fail"
    assert "rotation classes: 13" in out


@pytest.mark.parametrize("n", ["0", "-5", "2"])
def test_audit_below_three_rim_vertices_is_a_usage_error(capsys, n):
    assert run_cli(capsys, "bijection", "audit", "--n", n) == (
        2,
        "",
        "error: wheel requires at least 3 rim vertices\n",
    )


def test_audit_is_deterministic(capsys):
    first = run_cli(capsys, "bijection", "audit", "--n", "5")
    second = run_cli(capsys, "bijection", "audit", "--n", "5")
    assert first == second


# stdout digests of the bijection suite and the largest audit in the sweep;
# a speed-up in the bijection layer must print the same bytes
PINNED_DIGESTS = [
    (
        ("verify", "--suite", "bijection", "--max-n", "12", "--enum-cap", "9"),
        "04a8f5c3a7d0ed12358278c8ecae6b45473b0b7738edbb15fbefbab902016c70",
        "passed=29 failed=0 info=6",
    ),
    (
        ("bijection", "audit", "--n", "8"),
        "fb320ac0acbd67b58cd4743adfde238aaacb854f4bf73b9853cf364c640c9062",
        "n=8 images=377 fibers_max=7 roundtrip=fail",
    ),
]


@pytest.mark.parametrize("args, digest, last_line", PINNED_DIGESTS, ids=["verify-bijection", "audit-n8"])
def test_bijection_outputs_match_pinned_digests(capsys, args, digest, last_line):
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last_line
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout digests of the brute-force enumerators, recorded before the walk
# learned to keep the separated pair apart; the output must not move
ENUMERATE_DIGESTS = [
    (
        ("forests", "--graph", "wheel:7", "--separate", "2,5"),
        "9bace3335c5158bd9821d9898c332c895dd1ceb4b50da7d45956ce4146c1c80e",
        696,
    ),
    (
        ("trees", "--graph", "wheel:6"),
        "b0d8c0118e74175f6da76149784488d69fab40b52934f7783f5b32a39736eebb",
        320,
    ),
    (
        ("forests", "--graph", "file:{k7}", "--separate", "2,5"),
        "98eb9de89f6de7a2bafc5460a5a24ff32d1a5a7ee70d093cf83f005bab13db75",
        4802,
    ),
    (
        ("tau", "--graph", "wheel:7"),
        "1b4e1ff4510a85728ac5fc1856927ada9fd8781450dcd12f5ef9fabf0232c63c",
        1631,
    ),
]


@pytest.mark.parametrize("args, digest, blocks", ENUMERATE_DIGESTS, ids=["wheel7-forests", "wheel6-trees", "k7-forests", "wheel7-tau"])
def test_enumerate_outputs_match_pinned_digests(tmp_path, capsys, args, digest, blocks):
    k7 = tmp_path / "k7.txt"
    k7.write_text(format_edge_list(7, combinations(range(7), 2)))
    code, out, err = run_cli(capsys, "enumerate", *(a.format(k7=k7) for a in args))
    assert (code, err) == (0, "")
    assert out.count("V ") == blocks
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_trees_bytes(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "trees", "--graph", "fan:2")
    assert code == 0
    assert out == "V 3\n0 1\n0 2\n\nV 3\n0 1\n1 2\n\nV 3\n0 2\n1 2\n"


def test_enumerate_forests_block_count(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "forests", "--graph", "wheel:3", "--separate", "1,2"
    )
    assert code == 0
    assert out.count("V 4\n") == 8


def test_enumerate_tau(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "tau", "--graph", "wheel:4")
    assert code == 0
    assert out.count("V 5\n") == 52
    code, _, err = run_cli(capsys, "enumerate", "tau", "--graph", "fan:4")
    assert code == 2 and "wheel" in err


def _formatted_block_by_block(vertex_count, blocks):
    # the output of formatting each block on its own, as enumerate once did
    return "\n".join(format_edge_list(vertex_count, b) for b in blocks)


@settings(deadline=None)
@given(g=graphs(max_vertices=7), data=st.data())
def test_enumerate_writes_the_blocks_as_formatted_one_by_one(tmp_path_factory, g, data):
    path = tmp_path_factory.getbasetemp() / "drawn.txt"
    path.write_text(format_edge_list(g.vertex_count, g.edges))
    graph = f"--graph=file:{path}"
    trees = enum_spanning_trees(g, lambda: kirchhoff.count_spanning_trees(g))
    expected = _formatted_block_by_block(g.vertex_count, trees)
    assert run_quiet("enumerate", "trees", graph) == (0, expected, "")
    if g.vertex_count >= 2:
        u, v = data.draw(st.lists(st.integers(0, g.vertex_count - 1), min_size=2, max_size=2, unique=True))
        forests = enum_two_forests(g, u, v, lambda: kirchhoff.count_two_forests(g, u, v))
        expected = _formatted_block_by_block(g.vertex_count, forests)
        assert run_quiet("enumerate", "forests", graph, f"--separate={u},{v}") == (0, expected, "")


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1025])
def test_enumerate_writes_every_block_across_chunk_boundaries(tmp_path, capsys, monkeypatch, n):
    # enumerate writes its blocks 512 to a write; the first n trees of K7
    # fill no chunk, part of one, exactly one, or whole chunks and one block more
    path = tmp_path / "k7.txt"
    path.write_text(format_edge_list(7, combinations(range(7), 2)))
    k7 = make_graph(7, combinations(range(7), 2))
    blocks = enum_spanning_trees(k7, lambda: kirchhoff.count_spanning_trees(k7))[:n]
    monkeypatch.setattr(enumeration, "enum_spanning_trees", lambda g, count, cap: blocks)
    expected = "\n".join(format_edge_list(7, b) for b in blocks)
    assert run_cli(capsys, "enumerate", "trees", "--graph", f"file:{path}") == (0, expected, "")


@pytest.mark.parametrize("n", range(3, 7))
def test_enumerate_tau_writes_the_blocks_as_formatted_one_by_one(capsys, n):
    expected = _formatted_block_by_block(n + 1, (rec.edges for rec in enum_arc_forests(n)))
    assert run_cli(capsys, "enumerate", "tau", "--graph", f"wheel:{n}") == (0, expected, "")


def test_enumerate_tau_locates_no_arc(capsys, monkeypatch):
    # enumerate prints only each forest's edges, so it never asks for its arc
    expected = run_cli(capsys, "enumerate", "tau", "--graph", "wheel:5")
    assert expected[0] == 0 and expected[1].count("V 6\n") == 5 * fib(9)

    def refuse(n, edges):
        raise AssertionError("enumerate tau located a rim arc")

    monkeypatch.setattr(enumeration, "rim_arc_of", refuse)
    assert run_cli(capsys, "enumerate", "tau", "--graph", "wheel:5") == expected


@pytest.mark.parametrize(
    "file_text, args, out",
    [
        ("V 1\n", ("trees",), "V 1\n"),
        ("V 2\n", ("forests", "--separate", "0,1"), "V 2\n"),
        ("V 4\n0 1\n2 3\n", ("trees",), ""),
    ],
    ids=["one-vertex", "two-isolated-vertices", "disconnected"],
)
def test_enumerate_edge_cases(tmp_path, capsys, file_text, args, out):
    path = tmp_path / "g.txt"
    path.write_text(file_text)
    assert run_cli(capsys, "enumerate", args[0], "--graph", f"file:{path}", *args[1:]) == (0, out, "")


def test_enumerate_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "enumerate", "trees", "--graph", "wheel:11")
    assert code == 2
    assert "cap is 10" in err
    code, _, _ = run_cli(
        capsys, "enumerate", "trees", "--graph", "wheel:3", "--enum-cap", "4"
    )
    assert code == 0


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "50")
    assert code == 0
    assert out.splitlines()[-1] == "passed=200 failed=0 info=0"


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("suite", ["trees", "forests", "resistance", "bijection", "tau"])
def test_verify_refuses_max_n_below_one(capsys, suite):
    assert run_cli(capsys, "verify", "--suite", suite, "--max-n", "0") == (
        2,
        "",
        "error: max_n must be at least 1\n",
    )


@pytest.mark.parametrize(
    "suite, max_n, enum_cap, predicted",
    [
        ("trees", 30, 40, "1860496 spanning trees"),
        ("forests", 30, 40, "1028456 separating two-forests"),
        ("tau", 30, 40, "2749852 two-component forests"),
        # the first over the budget is the bijection suite's wheel:14, after
        # trees, forests and resistance up to max_n, which a plan of every
        # check or of every index would reach late, or not in 64 MiB
        ("all", 3000, 15, "2749852 two-component forests"),
        ("all", 100000, 15, "2749852 two-component forests"),
    ],
)
def test_verify_over_the_budget_is_refused_at_once(suite, max_n, enum_cap, predicted):
    # the first enumeration over the budget (wheel:15, wheel:15 at k=1,
    # wheel:14) follows smaller ones, which used to be walked first for
    # 13.5 s, 138.5 s and 58.8 s; the timeout turns that back into a failure
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "verify", "--suite", suite, "--max-n", str(max_n), "--enum-cap", str(enum_cap)],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (64 * 2**20, 64 * 2**20)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: graph has {predicted}, enumeration budget is 1000000\n"


@pytest.mark.parametrize("suite", ["trees", "forests", "bijection", "tau", "all"])
def test_verify_walks_nothing_before_the_budget_refuses(capsys, monkeypatch, suite):
    def walk(*args):
        raise AssertionError("an enumeration walked before the run was sized")

    monkeypatch.setattr(enumeration, "_acyclic_subsets", walk)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "30", "--enum-cap", "40")
    assert (code, out) == (2, "")
    assert err.startswith("error: graph has ") and err.endswith(", enumeration budget is 1000000\n")


@pytest.mark.parametrize("max_n, enum_cap", [(12, 9), (6, 12), (9, 3)])
def test_verify_sizes_exactly_the_enumerations_its_suites_run(monkeypatch, max_n, enum_cap):
    # the plan sizes exactly the enumerations it runs: every size_* call is
    # recorded with the walks made before it; the plan sizes every
    # enumeration before any walk, then the enumerators size their own runs
    # again, call for call, with the counts the plan took
    calls, walks = [], []
    for name in ("size_spanning_trees", "size_two_forests", "size_arc_forests"):
        def record(*args, _name=name, _size=getattr(enumeration, name)):
            calls.append((len(walks), _name, args))
            return _size(*args)

        monkeypatch.setattr(enumeration, name, record)

    def walk(*args, _walk=enumeration._acyclic_subsets):
        walks.append(args)
        return _walk(*args)

    monkeypatch.setattr(enumeration, "_acyclic_subsets", walk)
    verify.run_suites(list(verify.SUITES), max_n, enum_cap)
    half = len(calls) // 2
    assert [call[0] for call in calls[:half]] == [0] * half
    assert [call[1:] for call in calls[:half]] == [call[1:] for call in calls[half:]]
    assert len(calls) == 2 * half == 2 * len(walks)


def test_a_long_verify_run_keeps_a_bounded_number_of_graphs():
    # the graph constructors keep their last few graphs, not one per index:
    # with every graph kept, wheels and fans up to 200 peak over 5 MiB
    for constructor in (make_wheel, make_fan):
        constructor.cache_clear()
    tracemalloc.start()
    try:
        verify.run_suites(["trees"], 200, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_verify_tau_is_informational(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tau", "--max-n", "5")
    assert code == 0
    assert "INFO arc-forest census" in out
    assert "FAIL" not in out


def test_verify_detects_corrupted_formula(capsys, monkeypatch):
    monkeypatch.setattr(wheelfan.formulas, "trees_wheel", lambda n: 7)
    code, out, _ = run_cli(capsys, "verify", "--suite", "trees", "--max-n", "6")
    assert code == 1
    assert "FAIL" in out


def _fail_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("FAIL")]


def test_one_route_table_reaches_both_front_ends(capsys, monkeypatch):
    # one corrupt row of verify.CLOSED_FORMS fails the verify checks of that
    # row alone, and the CLI query answered from it
    rim = verify.closed_form("wheel", "resist", (1, 2))
    monkeypatch.setattr(wheelfan.formulas, "resistance_seven", lambda n, k: Fraction(7), raising=False)
    corrupt = tuple(rim._replace(function="resistance_seven") if form is rim else form for form in verify.CLOSED_FORMS)
    monkeypatch.setattr(verify, "CLOSED_FORMS", corrupt)
    code, out, _ = run_cli(capsys, "verify", "--suite", "resistance", "--max-n", "6")
    assert code == 1
    # n = 3..6 has 1 + 2 + 2 + 3 rim pairs, and no other check may fail
    failed = _fail_lines(out)
    assert len(failed) == 8
    assert all(line.startswith("FAIL rim resistance: closed form vs minor ratio [") for line in failed)
    code, out, _ = run_cli(capsys, "resist", "--graph", "wheel:6", "--pair", "1,3", "--method", "all")
    assert code == 1
    assert out == "formula: 7/1\nminor: 3/4\nMISMATCH: methods disagree\n"


def test_each_function_of_formulas_has_one_row():
    functions = [
        name
        for name, obj in vars(wheelfan.formulas).items()
        if callable(obj) and getattr(obj, "__module__", None) == wheelfan.formulas.__name__
    ]
    assert sorted(form.function for form in verify.CLOSED_FORMS) == sorted(functions)


@pytest.mark.parametrize("form", verify.CLOSED_FORMS, ids=lambda form: form.function)
def test_verify_fails_on_any_corrupt_row(capsys, monkeypatch, form):
    # off by one at every index, so whichever suite reads the row must fail
    real = getattr(wheelfan.formulas, form.function)
    monkeypatch.setattr(wheelfan.formulas, form.function, lambda *args: real(*args) + 1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "6", "--enum-cap", "7")
    assert code == 1
    assert _fail_lines(out)


def test_verify_bijection_detects_a_forward_that_is_not_rotation_invariant(capsys, monkeypatch):
    # one labeled forest off its class representative is sent to another
    # class's image; the audit relabels forests through _image_edges
    real = bijection._image_edges
    records = enumeration.enum_arc_forests(6)
    moved = next(f for f in records if f.arc_start != 1)
    home = real(moved, {})
    wrong = next(image for f in records if (image := real(f, {})) != home)
    monkeypatch.setattr(bijection, "_image_edges", lambda f, maps: wrong if f == moved else real(f, maps))
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijection", "--max-n", "6")
    assert code == 1
    assert _fail_lines(out) == ["FAIL forward map is rotation invariant [n=6] expected=534 actual=533"]


def test_verify_bijection_detects_images_that_miss_a_fan_tree(capsys, monkeypatch):
    # every member of one class whose image has a fiber of 1 is sent onto
    # another class's image: each image is still a fan spanning tree and each
    # class keeps one image, but one fan tree is reached no more.  The class
    # did not round-trip before, so no round-trip row moves either.  The
    # audit relabels forests through _image_edges
    real = bijection._image_edges
    reps = [f for f in enumeration.enum_arc_forests(6) if f.arc_start == 1]
    fiber = Counter(real(f, {}) for f in reps)

    def round_trips(f):
        try:
            return bijection.inverse(bijection.forward(f), 6) == f
        except ValueError:
            return False

    lost = next(real(f, {}) for f in reps if fiber[real(f, {})] == 1 and not round_trips(f))
    other = next(image for image in fiber if image != lost)
    monkeypatch.setattr(bijection, "_image_edges", lambda f, maps: other if (image := real(f, maps)) == lost else image)
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijection", "--max-n", "6")
    assert code == 1
    assert _fail_lines(out) == ["FAIL images cover the target fan [n=6] expected=True actual=False"]


def test_verify_bijection_detects_an_inverse_refusing_a_spoke_only_forest(capsys, monkeypatch):
    # the spoke-only representative with arc 1..2 at n=5 no longer inverts
    real = bijection.inverse
    refused = bijection.forward(bijection.WheelForest.from_edges(5, [(1, 2), (0, 3), (0, 4), (0, 5)])).edges

    def inverse(tree, n):
        if tree.edges == refused and n == 5:
            raise Refusal("refused")
        return real(tree, n)

    monkeypatch.setattr(bijection, "inverse", inverse)
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijection", "--max-n", "6")
    assert code == 1
    assert _fail_lines(out) == [
        "FAIL round trip on spoke-only normalized forests [n=5] expected=5/5 actual=4/5"
    ]


@pytest.mark.parametrize(
    "args",
    [("bijection", "audit", "--n", "4"), ("verify", "--suite", "bijection", "--max-n", "5")],
    ids=["audit", "verify"],
)
def test_a_crashing_inverse_escapes_instead_of_reading_as_a_refused_image(monkeypatch, args):
    # an inverse that fails on its own unpacking is a bug, not a tree outside the image
    def inverse(tree, n):
        (j,) = []

    monkeypatch.setattr(bijection, "inverse", inverse)
    with pytest.raises(ValueError, match="not enough values to unpack"):
        main(list(args))


def test_audit_reports_when_every_image_is_refused(capsys, monkeypatch):
    # no image is a fan spanning tree, so both fiber histograms are empty
    monkeypatch.setattr(bijection, "is_spanning_tree", lambda g, sub: False)
    code, out, err = run_cli(capsys, "bijection", "audit", "--n", "4")
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert "all images are fan spanning trees: no" in lines
    assert "round trips on normalized representatives: 0/13" in lines
    assert lines[-1] == "n=4 images=0 fibers_max=0 roundtrip=fail"


def test_verify_bijection_fails_refused_pinned_vectors(capsys, monkeypatch):
    # a refused pinned vector is a FAIL row, not a usage error
    monkeypatch.setattr(bijection, "is_spanning_tree", lambda g, sub: False)
    code, out, err = run_cli(capsys, "verify", "--suite", "bijection", "--max-n", "4")
    assert (code, err) == (1, "")
    pinned = [line for line in _fail_lines(out) if line.startswith("FAIL pinned")]
    assert len(pinned) == len(verify._PINNED)
    assert all(line.endswith(" actual=refused") for line in pinned)
    assert out.splitlines()[-1] == "passed=0 failed=13 info=2"


def test_verify_bijection_calls_forward_only_on_the_pinned_vectors(capsys, monkeypatch):
    # the audit relabels arc forests through bijection._image_edges, so forward
    # runs once per pinned forward vector and never per forest
    calls = 0
    real = bijection.forward

    def counting(f):
        nonlocal calls
        calls += 1
        return real(f)

    monkeypatch.setattr(bijection, "forward", counting)
    code, out, _ = run_cli(capsys, "verify", "--suite", "bijection", "--max-n", "6")
    assert (code, out.splitlines()[-1]) == (0, "passed=21 failed=0 info=4")
    pinned = sum(direction == "forward" for direction, _, _ in verify._PINNED)
    assert calls == pinned


def test_oeis_bfile_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "oeis", "--sequence", "sep-center", "--max-n", "5", "--bfile"
    )
    assert (code, out) == (0, "3 8\n4 21\n5 55\n")
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "wheel-trees", "--max-n", "4", "--bfile")
    assert (code, out) == (0, "3 16\n4 45\n")
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "sep-adjacent", "--max-n", "3", "--bfile")
    assert (code, out) == (0, "3 8\n")


def test_oeis_offsets(capsys):
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "sep-dist2", "--max-n", "5", "--bfile")
    assert (code, out) == (0, "4 30\n5 88\n")
    code, _, _ = run_cli(capsys, "oeis", "--sequence", "sep-dist2", "--max-n", "3")
    assert code == 2


@pytest.mark.parametrize(
    "form", [form for form in verify.CLOSED_FORMS if form.sequence], ids=lambda form: form.sequence
)
def test_oeis_offset_is_the_smallest_index_its_formula_accepts(capsys, form):
    formula = getattr(wheelfan.formulas, form.function)
    formula(form.low)
    with pytest.raises(ValueError):
        formula(form.low - 1)
    code, out, err = run_cli(capsys, "oeis", "--sequence", form.sequence, "--max-n", str(form.low - 1))
    assert (code, out) == (2, "")
    assert f"at least the offset {form.low} for {form.sequence}" in err


def test_oeis_header_comment(capsys):
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "fan-trees", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# fan-trees:")
    assert lines[1:] == ["1 1", "2 3", "3 8"]


def test_oeis_reaches_the_formulas_when_it_runs(capsys, monkeypatch):
    # a corrupt formula reaches oeis as it reaches verify
    monkeypatch.setattr(wheelfan.formulas, "forests_sep_center", lambda n: 7)
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "sep-center", "--max-n", "3", "--bfile")
    assert (code, out) == (0, "3 7\n")


def test_oeis_unknown_sequence(capsys):
    assert run_cli(capsys, "oeis", "--sequence", "mystery", "--max-n", "5")[0] == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_a_reused_parser_leaks_no_state(tmp_path, monkeypatch):
    # one mixed list of argvs, failures included, through one process in two
    # orders; each must print and exit exactly as on a freshly built parser
    monkeypatch.setattr(wheelfan.formulas, "trees_fan", lambda m: 9999)
    path = tmp_path / "k4.txt"
    path.write_text(format_edge_list(4, combinations(range(4), 2)))
    argvs = [
        ("count", "trees", "--graph", "wheel:5"),
        ("count", "forests", "--graph", f"file:{path}", "--separate", "0,1", "--method", "all"),
        ("resist", "--graph", "wheel:4", "--pair", "1,3", "--method", "all"),
        ("bijection", "forward", "--n", "4", "--edges", "2-3,0-1,0-4"),
        ("bijection", "inverse", "--n", "4", "--edges", "1-2,0-2,0-3"),
        ("bijection", "audit", "--n", "3"),
        ("enumerate", "forests", "--graph", "wheel:3", "--separate", "1,2"),
        ("verify", "--suite", "identities", "--max-n", "5"),
        ("oeis", "--sequence", "sep-center", "--max-n", "6"),
        ("count", "trees"),
        ("count", "bogus", "--graph", "wheel:5"),
        (),
        ("count", "trees", "--graph", "wheel:2"),
        ("count", "trees", "--graph", f"file:{tmp_path / 'missing.txt'}"),
        ("count", "trees", "--graph", "fan:3", "--method", "all"),
        ("--help",),
        ("bijection", "audit", "--help"),
    ]

    def fresh(argv):
        cli._shared_parser.cache_clear()
        return run_quiet(*argv)

    expected = {argv: fresh(argv) for argv in argvs}
    assert sorted({code for code, _, _ in expected.values()}) == [0, 1, 2]
    for order in (argvs, argvs[::-1]):
        assert {argv: run_quiet(*argv) for argv in order} == expected


def test_a_command_rebound_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    args = ("resist", "--graph", "wheel:3", "--pair", "1,2")
    assert run_cli(capsys, *args) == (0, "1/2\n", "")
    monkeypatch.setattr(cli, "cmd_resist", lambda parsed: 7)
    assert run_cli(capsys, *args) == (7, "", "")


def test_importing_the_cli_builds_no_parser():
    # perfbench's setup_s times this import plus one build_parser() call
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import wheelfan.cli\n"
        "print(len(built))\n"
        "wheelfan.cli.build_parser()\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    # the count after build_parser() shows the hook sees every parser built
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n10\n", "")
    assert cli.build_parser() is not cli.build_parser()


HELP_COMMANDS = (
    (),
    ("count",),
    ("resist",),
    ("bijection",),
    ("bijection", "forward"),
    ("bijection", "inverse"),
    ("bijection", "audit"),
    ("enumerate",),
    ("verify",),
    ("oeis",),
)
USAGE_ERRORS = (("count", "trees"), ("count", "bogus", "--graph", "wheel:5"))
# sha256 over the --help of every command and two usage errors at 80 columns,
# recorded before main reused one parser; argparse's layout is Python 3.11's
HELP_DIGEST = "308d77d95697794ee2e9a0a8e2683de1755be1cba871495cfacaa19ea9457c93"


def test_help_and_usage_text_match_pinned_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for command in HELP_COMMANDS:
        code, out, err = run_cli(capsys, *command, "--help")
        assert (code, err) == (0, ""), command
        digest.update(out.encode())
    for args in USAGE_ERRORS:
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, ""), args
        digest.update(err.encode())
    assert digest.hexdigest() == HELP_DIGEST


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wheelfan", "count", "trees", "--graph", "wheel:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "45\n"


def test_cli_module_runs_as_a_script():
    def run(spec):
        return subprocess.run(
            [sys.executable, "-m", "wheelfan.cli", "count", "trees", "--graph", spec],
            capture_output=True,
            text=True,
        )

    ok = run("wheel:4")
    assert (ok.returncode, ok.stdout) == (0, "45\n")
    bad = run("wheel:-5")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "error: wheel requires at least 3 rim vertices\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr_closed", [False, True], ids=["stdout-closed", "both-closed"])
@pytest.mark.parametrize(
    "args",
    [
        ("count", "trees", "--graph", "wheel:5"),
        ("verify", "--suite", "identities", "--max-n", "40"),
        ("--help",),
        ("resist", "--help"),
    ],
    ids=["count", "verify", "help", "resist-help"],
)
def test_output_that_cannot_be_written_exits_2(args, stderr_closed, unbuffered):
    # a pipe whose reader is gone before the run: a small output fails only
    # at the final flush, a long one mid-run, and with stderr gone too even
    # the error line cannot be written
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wheelfan", *args],
            stdout=write,
            stderr=write if stderr_closed else subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    if not stderr_closed:
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "args",
    [
        ("count", "trees", "--graph", "wheel:5", "--method", "all"),
        ("verify", "--suite", "forests", "--max-n", "6"),
        ("oeis", "--sequence", "sep-center", "--max-n", "8"),
    ],
)
def test_outputs_are_byte_deterministic(capsys, args):
    assert run_cli(capsys, *args) == run_cli(capsys, *args)


def _readme_examples() -> list[tuple[str, str]]:
    # (command, shown output) for each "$ wheelfan" line of README.md's code
    # blocks; the output runs to the next command or the end of the block
    examples, current, in_block = [], None, False
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ wheelfan "):
            current = (line[2:], [])
            examples.append(current)
        elif current is not None:
            current[1].append(line)
    return [(command, "\n".join(shown).strip("\n")) for command, shown in examples]


def _shown_matches(shown: str, printed: str) -> bool:
    # a "..." line stands for any run of lines, none included
    pattern = "".join(
        r"(?:[^\n]*\n)*?" if line == "..." else re.escape(line) + "\n" for line in shown.splitlines()
    )
    return re.fullmatch(pattern, printed) is not None


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES])
def test_readme_examples_reproduce(capsys, command, shown):
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    if shown:
        assert _shown_matches(shown, out + err), out + err
    else:
        assert code == 0, err


# runs the block on stdin statement by statement; prints, per statement, its
# source, the repr of its value (None for a statement that is no expression)
# and the comment that ends its last line
_LIBRARY_RUNNER = """
import ast, json, sys
block = sys.stdin.read()
lines, namespace, rows = block.splitlines(), {}, []
for node in ast.parse(block).body:
    code = ast.get_source_segment(block, node)
    comment = lines[node.end_lineno - 1][node.end_col_offset :].strip().removeprefix("# ")
    if isinstance(node, ast.Expr):
        rows.append([code, repr(eval(code, namespace)), comment])
    else:
        exec(code, namespace)
        rows.append([code, None, comment])
print(json.dumps(rows))
"""


def test_readme_library_block_reproduces():
    # the python block under "## Library use": each expression line ends in
    # "# repr" of its value; other statements run and carry no such comment.
    # It runs in a fresh interpreter, where its imports load the math layers
    # on first use, as they do for a reader
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_RUNNER], input=block, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    for code, value, comment in rows:
        assert value == (comment or None), code
    assert sum(value is not None for _, value, _ in rows) >= 8
