import subprocess
import sys
from pathlib import Path

from wheelfan.cli import SEQUENCES, main

EMIT_BFILES = Path(__file__).resolve().parent.parent / "scripts" / "emit_bfiles.py"


def emit_bfiles(out_dir: Path, max_n: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EMIT_BFILES), "--out-dir", str(out_dir), "--max-n", str(max_n)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_emit_bfiles_writes_the_oeis_output_of_every_sequence(tmp_path, capsys):
    out_dir = tmp_path / "bfiles"
    proc = emit_bfiles(out_dir, 12)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(path.name for path in out_dir.iterdir()) == [f"{name}.txt" for name in sorted(SEQUENCES)]
    shown = []
    for name in sorted(SEQUENCES):
        assert main(["oeis", "--sequence", name, "--max-n", "12"]) == 0
        expected = capsys.readouterr().out
        path = out_dir / f"{name}.txt"
        assert path.read_text() == expected
        shown.append(f"wrote {path} ({13 - SEQUENCES[name][0]} rows)")
    assert proc.stdout.splitlines() == shown


def test_emit_bfiles_refuses_a_range_below_an_offset_before_writing(tmp_path):
    out_dir = tmp_path / "bfiles"
    proc = emit_bfiles(out_dir, 3)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--max-n must be at least 4" in proc.stderr
    assert not out_dir.exists()
