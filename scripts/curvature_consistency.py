#!/usr/bin/env python3
"""Compare the three scalar-curvature routes on one extremal metric.

Routes: the affine target A t + B, the radial profile formula, and the
full finite-difference evaluation of Abreu's formula.  Prints worst-case
deviations, relative to the affine target, over a seeded interior sample,
optionally across a range of finite-difference steps (multiples of b) to
expose the noise/truncation trade-off.
"""
import argparse
import math
import sys

from toricext.abreu import abreu_scalar_curvature
from toricext.calabi import build_extremal_metric
from toricext.errors import StencilExitsDomain
from toricext.polytope import sample_interior
from toricext.radial import radial_scalar_curvature


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--a", type=float, default=0.5)
    ap.add_argument("--b", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--step-scan", action="store_true",
                    help="rerun the Abreu route over steps from b*1e-5 to b*1e-2")
    args = ap.parse_args()

    T, E = build_extremal_metric(args.n, args.a, args.b)
    pts = sample_interior(T, args.points, margin=0.05 * (args.b - args.a),
                          seed=args.seed)

    # verify's t: a plain sum() rounds differently from 3.12 on
    ts = [math.fsum(x) for x in pts]
    want = [E.A * t + E.B for t in ts]

    def worst(got: list) -> float:
        return max(abs(g - w) / abs(w) for g, w in zip(got, want))

    print(f"# n={args.n} a={args.a} b={args.b}  S = {E.A:.8f} t + {E.B:.8f}")
    print(f"points={args.points} seed={args.seed}")
    radial = radial_scalar_curvature(T.n, ts, T.jet(ts))
    print(f"radial vs affine : {worst(radial):.3e}")
    print(f"abreu  vs affine : {worst(abreu_scalar_curvature(T, pts)):.3e}"
          "   (default step)")

    if args.step_scan:
        print(f"{'h':>10} {'worst rel deviation':>22}")
        # seven steps, two per decade
        for h in [args.b * 10.0 ** (0.5 * k - 5.0) for k in range(7)]:
            try:
                got = abreu_scalar_curvature(T, pts, h=h)
            except StencilExitsDomain:
                print(f"{h:10.2e} {'(stencil exits domain)':>22}")
                continue
            print(f"{h:10.2e} {worst(got):22.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
