#!/usr/bin/env python3
"""Write b-files for all five counting sequences into a directory.

Usage: python scripts/emit_bfiles.py --out-dir bfiles [--max-n 100]

Each file is the stdout of ``wheelfan oeis --sequence NAME --max-n N``,
comment header included.
"""

import argparse
import contextlib
import io
from pathlib import Path

from wheelfan.cli import SEQUENCES, main as wheelfan_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("bfiles"))
    ap.add_argument("--max-n", type=int, default=100)
    args = ap.parse_args()
    # the CLI refuses a range that ends before a sequence's offset; refuse it
    # here before any file is written
    first = max(offset for offset, _, _ in SEQUENCES.values())
    if args.max_n < first:
        ap.error(f"--max-n must be at least {first}, the largest sequence offset")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(SEQUENCES):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = wheelfan_main(["oeis", "--sequence", name, "--max-n", str(args.max_n)])
        if code != 0:
            raise SystemExit(code)
        text = out.getvalue()
        path = args.out_dir / f"{name}.txt"
        path.write_text(text)
        rows = sum(1 for line in text.splitlines() if not line.startswith("#"))
        print(f"wrote {path} ({rows} rows)")


if __name__ == "__main__":
    main()
