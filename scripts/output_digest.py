#!/usr/bin/env python3
"""One sha256 per CLI call over a fixed argv list, to compare two checkouts.

    python3 scripts/output_digest.py > this.txt
    python3 scripts/output_digest.py --src ../other/src > other.txt
    diff this.txt other.txt

Each line is ``<sha256>  <argv>``.  The digest covers the call's exit code,
stdout and stderr, so two checkouts print the same line exactly when the call
behaves byte for byte alike.  The calls run in this process through
``toricext.cli.main``.  ``--dump DIR`` also writes each call's exit code,
stdout and stderr to ``DIR/<index>.txt``, to diff the calls whose digests
differ.

The list covers every command; n in {1, 2, 3, 5, 8, 9, 12, 16}; a/b from
1e-3 to 0.999 at b = 1, and b in {1e-3, 1e3}; verify in the thin shell
a/b = 0.9999; failing tolerances and invalid input; profile's edge cases (one
and two rows, a zero grid step, a margin that rounds away, 20 000 rows at
n = 16, a/b = 1 - 1e-9); bridge-check at 5 000 samples and at n = 0;
input whose floats overflow; and flags that only another command reads.  A
call that ends in an uncaught exception is recorded as exit 1 with the
exception's type and message on stderr, as a process would end (less the
traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIMENSIONS = (1, 2, 3, 5, 8, 9, 12, 16)
RATIOS = (1e-3, 0.1, 0.5, 0.9, 0.99, 0.995, 0.999)


def _geometry(n: int, ratio: float, b: float = 1.0) -> list[str]:
    return ["--n", str(n), "--a", repr(ratio * b), "--b", repr(b)]


def argv_list() -> list[list[str]]:
    calls = [["example", "--a", a] for a in ("0.001", "0.5", "0.999")]
    for n in DIMENSIONS:
        calls += [["derive", *_geometry(n, r)] for r in (1e-3, 0.5, 0.999)]
        calls += [["profile", *_geometry(n, 0.5), "--samples", "7"],
                  ["profile", *_geometry(n, 0.25), "--samples", "5",
                   "--format", "csv"]]
        calls += [["bridge-check", "--n", str(n), "--samples", "6",
                   "--preset", preset] for preset in ("flat", "fubini-study")]
        calls += [["verify", *_geometry(n, r), "--points", "40"] for r in RATIOS]
    for b in (1e-3, 1e3):
        for n in (1, 4, 8):
            calls += [["verify", *_geometry(n, r, b), "--points", "40"]
                      for r in (0.5, 0.999)]
        calls.append(["derive", *_geometry(3, 0.25, b)])
        calls.append(["profile", *_geometry(3, 0.25, b), "--samples", "5"])
    calls += [
        ["verify", "--n", "3", "--points", "40", "--tolerance-soft", "1e-12"],
        ["verify", "--n", "2", "--points", "40", "--seed", "7"],
        ["verify", "--n", "17"],
        ["verify", "--n", "4", "--points", "5"],
        ["verify", "--n", "2", "--a", "1.0", "--b", "0.5"],
        *(["verify", *_geometry(n, 0.9999), "--points", "40"] for n in (1, 2, 8, 16)),
        ["derive", "--n", "0"],
        ["example", "--n", "3"],
    ]
    # a margin just under (b - a)/2 puts both grid ends on 0.75: a zero step
    calls += [
        ["profile", "--n", "3", "--samples", "1"],
        ["profile", "--n", "3", "--samples", "2", "--format", "json"],
        ["profile", "--step", repr(math.nextafter(0.25, 0.0)), "--samples", "5"],
        ["profile", "--step", "1e-20"],
        ["profile", *_geometry(16, 0.5), "--samples", "20000"],
        ["profile", *_geometry(16, 0.5), "--samples", "20000", "--format", "json"],
        ["profile", *_geometry(4, 1 - 1e-9), "--samples", "9"],
    ]
    calls += [["bridge-check", "--n", str(n), "--samples", "5000"] for n in (1, 6, 16)]
    calls.append(["bridge-check", "--n", "0"])
    # coefficient A ~ 1/b^2 overflows; t^400 overflows inside the grid
    overflow = ["--n", "2", "--a", "1e-200", "--b", "2e-200"]
    calls += [[command, *overflow] for command in ("derive", "profile", "verify")]
    calls.append(["profile", "--n", "400", "--a", "1", "--b", "10", "--samples", "5"])
    # every t lies in (1e150, 1e151); (p*t^n - alpha)^2 overflows in F'''
    calls.append(["verify", "--n", "2", "--a", "1e150", "--b", "1e151",
                  "--points", "10"])
    # a flag that only another command reads is refused
    calls += [
        ["derive", "--seed", "-5"],
        ["bridge-check", "--tolerance-hard", "nan"],
        ["verify", "--format", "json"],
        ["example", "--b", "2"],
        ["profile", "--points", "3"],
    ]
    return calls


def run(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process call, as one record."""
    from toricext import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
        except Exception as exc:  # a process would print a traceback, exit 1
            code = 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src directory of the checkout to run")
    ap.add_argument("--dump", type=Path, default=None,
                    help="also write each call's record to DIR/<index>.txt")
    args = ap.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    for index, argv in enumerate(argv_list()):
        record = run(argv)
        if args.dump is not None:
            (args.dump / f"{index:03d}.txt").write_bytes(record)
        print(f"{hashlib.sha256(record).hexdigest()}  {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
