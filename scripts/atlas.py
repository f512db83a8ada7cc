#!/usr/bin/env python3
"""Print one of the tables that README and ROADMAP quote, as Markdown.

    python3 scripts/atlas.py coefficients|steps|b-range

Every input is fixed, so a table moves only when the program does.  The
tables run in this process, through the library or ``toricext.cli.main``.
"""

import contextlib
import io
import math
import sys
from collections import Counter

from toricext import cli
from toricext.abreu import abreu_scalar_curvature
from toricext.calabi import build_extremal_metric
from toricext.errors import StencilExitsDomain
from toricext.exact import solve_coefficients
from toricext.numdiff import grid
from toricext.polytope import sample_interior
from toricext.radial import radial_scalar_curvature

STEP_GEOMETRIES = ((2, 0.5, 1.0), (3, 0.25, 2.0), (8, 0.5, 1.0), (3, 2.5e-4, 1e-3))
STEP_SCALES = [10.0 ** (0.5 * k - 5.0) for k in range(7)]
# b = 10^k: every second decade to 1e+-40, every tenth to 1e+-160
B_EXPONENTS = sorted(set(range(-40, 41, 2)) | set(range(-160, 161, 10)))
B_RATIOS = (1e-3, 0.5, 0.999)


def coefficients() -> list[str]:
    n, b = 2, 1.0
    lines = ["| a | A | B | C | D |", "|---|---|---|---|---|"]
    for a in grid(0.05, 0.95, 19):
        E = solve_coefficients(n, a, b)
        lines.append(f"| {a:.4f} | {E.A:.8f} | {E.B:.8f} | {E.C:.8f} | {E.D:.8f} |")
    B = solve_coefficients(n, 0.05, b).B
    return lines + ["", f"Blow-down: B(0.05) = {B:.6f} -> n(n + 1) = {n * (n + 1)}."]


def _worst(S: list[float], want: list[float]) -> str:
    """max |S - want| / |want| over the points."""
    return f"{max(abs(s - w) / abs(w) for s, w in zip(S, want)):.1e}"


def steps() -> list[str]:
    header = ["(n, a, b)", "radial", "Abreu, verify's step"]
    header += [f"h = {scale:.1e}·b" for scale in STEP_SCALES]
    lines = ["| " + " | ".join(header) + " |", "|---" * len(header) + "|"]
    for n, a, b in STEP_GEOMETRIES:
        T, E = build_extremal_metric(n, a, b)
        pts = sample_interior(T, 50, margin=0.05 * (b - a), seed=0)
        ts = [math.fsum(x) for x in pts]
        want = [E.A * t + E.B for t in ts]
        cells = [_worst(radial_scalar_curvature(n, ts, T.jet(ts)), want),
                 _worst(abreu_scalar_curvature(T, pts), want)]
        for scale in STEP_SCALES:
            try:
                cells.append(_worst(abreu_scalar_curvature(T, pts, h=scale * b), want))
            except StencilExitsDomain:
                cells.append("exits")
        lines.append(f"| ({n}, {a:g}, {b:g}) | " + " | ".join(cells) + " |")
    return lines


def _exit_code(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv)


def b_range_row(n: int) -> tuple[str, Counter]:
    """n's row of the table, and the exit codes of its calls."""
    codes, passing, partial = Counter(), [], []
    points = str(max(20, n + 2))
    for k in B_EXPONENTS:
        b = float(f"1e{k}")
        argv = ["verify", "--n", str(n), "--b", repr(b), "--points", points]
        exits = [_exit_code([*argv, "--a", repr(r * b)]) for r in B_RATIOS]
        codes.update(exits)
        if exits == [0, 0, 0]:
            passing.append(k)
        elif 0 in exits:
            partial.append(f"1e{k}")
    if passing != [k for k in B_EXPONENTS if passing[0] <= k <= passing[-1]]:
        raise SystemExit(f"n = {n}: verify fails inside the b range where it passes")
    row = f"| {n} | 1e{min(passing)} | 1e{max(passing)} | "
    return row + (", ".join(partial) or "–") + " |", codes


def b_range() -> list[str]:
    rows, codes = zip(*(b_range_row(n) for n in range(1, 17)))
    codes = sum(codes, Counter())
    return ["| n | b from | b to | some a/b pass at b |", "|---|---|---|---|", *rows,
            "", f"{sum(codes.values())} calls: {codes[0]} exit 0,"
                f" {codes[2]} exit 2, {codes[1]} exit 1."]


TABLES = {"coefficients": coefficients, "steps": steps, "b-range": b_range}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in TABLES:
        print(f"usage: atlas.py {'|'.join(TABLES)}", file=sys.stderr)
        return 2
    print("\n".join(TABLES[argv[0]]()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
