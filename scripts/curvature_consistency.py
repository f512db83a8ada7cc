#!/usr/bin/env python3
"""Compare the three scalar-curvature routes on one extremal metric.

Routes: the affine target A t + B, the radial profile formula, and the
full finite-difference evaluation of Abreu's formula.  Prints worst-case
deviations, relative to the affine target, over a seeded interior sample,
optionally across a range of finite-difference steps (multiples of b) to
expose the noise/truncation trade-off.
"""
import argparse
import sys

import numpy as np

from toricext import (
    StencilExitsDomain,
    SymplecticPotential,
    abreu_scalar_curvature,
    build_extremal_metric,
    radial_scalar_curvature,
    sample_interior,
)


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

    P, T, E = build_extremal_metric(args.n, args.a, args.b)
    S = SymplecticPotential.from_radial(P, T)
    pts = sample_interior(P, args.points, margin=0.05 * (args.b - args.a),
                          seed=args.seed)

    ts = np.sum(pts, axis=1)
    want = E.A * ts + E.B

    def worst(got: np.ndarray) -> float:
        return float(np.max(np.abs(got - want) / np.abs(want)))

    print(f"# n={args.n} a={args.a} b={args.b}  S = {E.A:.8f} t + {E.B:.8f}")
    print(f"points={args.points} seed={args.seed}")
    print(f"radial vs affine : {worst(radial_scalar_curvature(T, ts)):.3e}")
    print(f"abreu  vs affine : {worst(abreu_scalar_curvature(S, pts)):.3e}"
          "   (default step)")

    if args.step_scan:
        print(f"{'h':>10} {'worst rel deviation':>22}")
        for h in args.b * np.geomspace(1e-5, 1e-2, 7):
            try:
                got = abreu_scalar_curvature(S, pts, h=float(h))
            except StencilExitsDomain:
                print(f"{h:10.2e} {'(stencil exits domain)':>22}")
                continue
            print(f"{h:10.2e} {worst(got):22.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
