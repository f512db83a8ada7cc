#!/usr/bin/env python3
"""Sweep the exceptional-divisor size a and tabulate extremal coefficients.

As a -> 0 the blow-up degenerates back to projective space and (A, B)
must approach (0, n(n+1)); the sweep makes that limit visible, along
with the sign change of C, D near the opposite end.
"""
import argparse
import csv
import sys

from toricext.exact import solve_coefficients
from toricext.numdiff import grid


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=19)
    ap.add_argument("--a-min", type=float, default=0.05)
    ap.add_argument("--a-max", type=float, default=0.95)
    ap.add_argument("--csv", metavar="PATH", help="also write rows to a file")
    args = ap.parse_args()

    rows = []
    for a in grid(args.a_min * args.b, args.a_max * args.b, args.steps):
        E = solve_coefficients(args.n, a, args.b)
        rows.append((a, E.A, E.B, E.C, E.D))

    print(f"# n={args.n} b={args.b}  (S = A t + B on a < t < b)")
    print(f"{'a':>8} {'A':>14} {'B':>14} {'C':>14} {'D':>14}")
    for a, A, B, C, D in rows:
        print(f"{a:8.4f} {A:14.8f} {B:14.8f} {C:14.8f} {D:14.8f}")

    limit = args.n * (args.n + 1)
    print(f"# blow-down check: B({rows[0][0]:.4f}) = {rows[0][2]:.6f}, "
          f"projective-space value {limit}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a", "A", "B", "C", "D"])
            w.writerows(rows)
        print(f"# wrote {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
