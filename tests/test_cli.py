import hashlib
import io
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import wheelfan.formulas
from wheelfan.cli import main
from wheelfan.graphs import format_edge_list, make_wheel


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_trees_wheel(capsys):
    assert run_cli(capsys, "count", "trees", "--graph", "wheel:3") == (0, "16\n", "")


def test_count_forests(capsys):
    code, out, _ = run_cli(capsys, "count", "forests", "--graph", "wheel:4", "--separate", "1,2")
    assert (code, out) == (0, "24\n")


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


def test_bad_graph_spec(capsys):
    assert run_cli(capsys, "count", "trees", "--graph", "wheel4")[0] == 2
    assert run_cli(capsys, "count", "trees", "--graph", "cube:3")[0] == 2
    assert run_cli(capsys, "count", "trees", "--graph", "wheel:x")[0] == 2


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


def test_bijection_audit(capsys):
    code, out, _ = run_cli(capsys, "bijection", "audit", "--n", "4")
    assert code == 0
    assert out.splitlines()[-1] == "n=4 images=8 fibers_max=3 roundtrip=fail"
    assert "rotation classes: 13" in out


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
]


@pytest.mark.parametrize("args, digest, blocks", ENUMERATE_DIGESTS, ids=["wheel7-forests", "wheel6-trees", "k7-forests"])
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


def test_oeis_header_comment(capsys):
    code, out, _ = run_cli(capsys, "oeis", "--sequence", "fan-trees", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# fan-trees:")
    assert lines[1:] == ["1 1", "2 3", "3 8"]


def test_oeis_unknown_sequence(capsys):
    assert run_cli(capsys, "oeis", "--sequence", "mystery", "--max-n", "5")[0] == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


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
