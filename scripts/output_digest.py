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

The list of 204 calls covers every command; n in {1, 2, 3, 5, 8, 9, 12,
16}; a/b from 1e-3 to 0.999 at b = 1, and b in {1e-3, 1e3}; verify in the
thin shells a/b = 0.9999, 1 - 1e-10, 1 - 1e-12, 1 - 1e-14 and 1 - 1e-15;
failing tolerances and invalid input; profile's edge cases (one and two
rows, a margin that rounds away next to a and b or next to b only, 20 000
rows at n = 16, a/b = 1 - 1e-9, a c whose grid step would underflow at
20 000 rows); bridge-check at 5 000
samples, at n = 400, at n = 0 and at n = 10^160; derive and profile past
the exact layer's cap on n; input whose floats overflow or underflow, in
the coefficients or in a power of t; profile at b = 1e-200, whose F''
stays finite because the table divides one factor at a time; flags that
only another command reads, or that no command reads any more; each
command's help, a bad choice and a flag with no value; and every other
exit path of the parser and of ``cli.main``.  A call that ends in an
uncaught exception is recorded as exit 1 with the exception's type and
message on stderr, as a process would end (less the traceback).
"""

import argparse
import contextlib
import hashlib
import io
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
        # shells where Abreu's stencil fails its tolerance: the report
        # names the failing soft checks (curvature_agreement, extremality)
        *(["verify", *_geometry(n, 1 - eps), "--points", "40"]
          for n, eps in ((2, 1e-10), (16, 1e-12))),
        # a shell of about 45 ulps, where the report names the same two
        # failing checks
        *(["verify", *_geometry(n, 1 - 1e-14), "--points", "40"] for n in (2, 8)),
        ["derive", "--n", "0"],
        ["example", "--n", "3"],
    ]
    # the margin c*1e-4 rounds away next to a and b; --step, a flag no
    # command reads any more
    calls += [
        ["profile", "--n", "3", "--samples", "1"],
        ["profile", "--n", "3", "--samples", "2", "--format", "json"],
        ["profile", "--a", "0.9999999999999", "--b", "1", "--samples", "3"],
        ["profile", "--step", "1e-20"],
        ["profile", *_geometry(16, 0.5), "--samples", "20000"],
        ["profile", *_geometry(16, 0.5), "--samples", "20000", "--format", "json"],
        ["profile", *_geometry(4, 1 - 1e-9), "--samples", "9"],
    ]
    calls += [["bridge-check", "--n", str(n), "--samples", "5000"] for n in (1, 6, 16)]
    calls += [["bridge-check", "--n", "400", "--samples", "3"],
              ["bridge-check", "--n", "0"],
              # n(n + 1) past the float range
              ["bridge-check", "--n", str(10**160), "--samples", "2"]]
    # past the exact layer's MAX_DIMENSION, refused before any exact work
    calls += [[command, "--n", "513", "--a", "0.3", "--b", "1.7"]
              for command in ("derive", "profile")]
    # coefficient A ~ 1/b^2 overflows; t^400 overflows inside the grid
    overflow = ["--n", "2", "--a", "1e-200", "--b", "2e-200"]
    calls += [[command, *overflow] for command in ("derive", "profile", "verify")]
    calls.append(["profile", "--n", "400", "--a", "1", "--b", "10", "--samples", "5"])
    # F'' ~ 1e204 is a float, though p/((t - a)(t - b)) is not: the table
    # divides one factor at a time, by Q first, so the call exits 0
    calls.append(["profile", "--n", "1", "--a", "5e-201", "--b", "1e-200",
                  "--samples", "3"])
    # every t lies in (1e150, 1e151); t^3 overflows in radial, and the call
    # is refused
    calls.append(["verify", "--n", "2", "--a", "1e150", "--b", "1e151",
                  "--points", "10"])
    # a flag that only another command reads, or that no command reads any
    # more, is refused
    calls += [
        ["derive", "--seed", "-5"],
        ["bridge-check", "--tolerance-hard", "nan"],
        ["verify", "--tolerance-hard", "1e-9"],
        ["verify", "--format", "json"],
        ["example", "--b", "2"],
        ["profile", "--points", "3"],
    ]
    # past the float range of the deflated Q, Abreu's h^2 and the jet's
    # (t - a)(t - b)*Q, each refused with one line; these ended in a
    # traceback, a false verdict or a degenerate phi of 0 or inf
    calls += [
        ["profile", "--n", "6", "--a", "1e-163", "--b", "1e-160", "--samples", "5"],
        *(["verify", "--n", n, "--a", a, "--b", b, "--points", "20"]
          for n, a, b in (("6", "1e-163", "1e-160"), ("1", "5e-161", "1e-160"),
                          ("16", "5e-21", "1e-20"), ("4", "5e-101", "1e-100"),
                          ("14", "5e21", "1e22"))),
    ]
    # each command's help, and the parser's refusals of a bad choice and of
    # a flag with no value, whose text must not depend on the terminal
    calls += [[command, "--help"] for command in
              ("derive", "profile", "verify", "bridge-check", "example")]
    calls += [["profile", "--format", "xml"],
              ["bridge-check", "--preset", "burns"],
              ["derive", "--n"]]
    # every other exit path of cli.main and its parser: no command, the
    # top-level help, an unknown command and a value that is no int; a
    # non-finite a; each flag-only refusal, and the one-point floor; a
    # tolerance that fails bridge-check (exit 1); a negative seed; a margin
    # that rounds away next to b only
    calls += [
        [],
        ["--help"],
        ["frobnicate"],
        ["verify", "--n", "x"],
        ["derive", "--a", "nan"],
        ["profile", "--samples", "0"],
        ["verify", "--points", "0"],
        ["verify", "--n", "4", "--points", "1"],
        ["verify", "--tolerance-soft", "-1"],
        ["bridge-check", "--tolerance-soft", "inf"],
        ["bridge-check", "--tolerance-soft", "0"],
        ["verify", "--seed", "-1"],
        ["profile", "--a", "0.9999999999996", "--b", "1.0000000000004",
         "--samples", "3"],
        # a shell of about 4 ulps, where a sampled point is not interior:
        # cli.main's one GeometryError exit (1)
        ["verify", *_geometry(2, 1 - 1e-15), "--points", "40"],
        # t^k below the normal floats, in verify's radial S and profile's
        # table
        ["verify", "--n", "2", "--a", "5e-111", "--b", "1e-110", "--points", "10"],
        ["profile", "--n", "16", "--a", "5e-23", "--b", "1e-22", "--samples", "5"],
        # a c so small that 20 000 rows would take a grid step that
        # underflows, next to an a whose margin does not round away: the
        # exact solve refuses it first (coefficient B overflows)
        ["profile", "--n", "1", "--a", "1e-308", "--b", repr(1e-308 + 2.5e-320),
         "--samples", "20000"],
    ]
    return calls


def run(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process call, as one record."""
    from toricext import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # the parser refusing argv, or printing help
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
