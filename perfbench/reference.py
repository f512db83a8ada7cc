"""Reference answers computed by the benchmark itself, and output checkers.

The coefficient reference is an exact solve of the 4x4 boundary system in
rational arithmetic (``fractions.Fraction``) from the same float (a, b) the
program receives on its command line.  Every checker returns a list of
problems; an empty list means the output agrees with the reference.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

# coefficient agreement, relative to the largest coefficient: A vanishes
# identically for n = 1 and can be many decades below C and D, so a
# per-coefficient relative error is not meaningful
COEFF_RTOL = 1e-9
# t grid reproduced here with Python floats, numpy's linspace rounds differently
GRID_RTOL = 1e-12


class Reference:
    """Exact extremal coefficients for one geometry, rounded to floats."""

    def __init__(self, n: int, a: float, b: float):
        self.n, self.a, self.b = n, a, b
        self.coeffs = tuple(float(c) for c in exact_coefficients(n, a, b))
        self.scale = max(abs(c) for c in self.coeffs)

    def curvature(self, t: float) -> float:
        A, B, _, _ = self.coeffs
        return A * t + B


def exact_coefficients(n: int, a: float, b: float) -> tuple:
    """(A, B, C, D) solving alpha(a), alpha'(a), alpha(b), alpha'(b) exactly."""
    a, b = Fraction(a), Fraction(b)
    p = n * (n + 1) * (n + 2)

    def value_row(e):
        return [n * e ** (n + 2), (n + 2) * e ** (n + 1), p * e, Fraction(p)]

    def slope_row(e):
        return [n * (n + 2) * e ** (n + 1), (n + 1) * (n + 2) * e**n,
                Fraction(p), Fraction(0)]

    rows = [
        value_row(a) + [p * a**n],
        slope_row(a) + [(n - 1) * p * a ** (n - 1)],
        value_row(b) + [p * b**n],
        slope_row(b) + [(n + 1) * p * b ** (n - 1)],
    ]
    for col in range(4):
        pivot = next(r for r in range(col, 4) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(4):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[k][4] / rows[k][k] for k in range(4))


def _coefficient_problems(ref: Reference, got: dict) -> list[str]:
    problems = []
    for name, want in zip("ABCD", ref.coeffs):
        err = abs(got[name] - want)
        if not err <= COEFF_RTOL * ref.scale:
            problems.append(
                f"coefficient {name}={got[name]!r}, exact {want!r} "
                f"(error {err / ref.scale:.2e} of the largest)"
            )
    return problems


def _echo_problems(doc: dict, **want) -> list[str]:
    return [f"{k} echoed as {doc.get(k)!r}, sent {v!r}"
            for k, v in want.items() if doc.get(k) != v]


def check_derive(op, ref: Reference, stdout: str) -> list[str]:
    doc = json.loads(stdout)
    return _echo_problems(doc, n=op.n, a=op.a, b=op.b) + _coefficient_problems(ref, doc)


def check_example(op, ref: Reference, stdout: str) -> list[str]:
    doc = json.loads(stdout)
    return _echo_problems(doc, a=op.a) + _coefficient_problems(ref, doc["coefficients"])


def check_profile(op, ref: Reference, stdout: str) -> list[str]:
    if op.fmt == "json":
        doc = json.loads(stdout)
        problems = _echo_problems(doc, n=op.n, a=op.a, b=op.b)
        rows = doc["rows"]
    else:
        reader = csv.reader(io.StringIO(stdout))
        header = next(reader)
        problems = [] if header == ["t", "F_second", "h_second", "S"] else [
            f"csv header {header!r}"]
        rows = [[float(v) for v in row] for row in reader]
    if len(rows) != op.samples:
        return problems + [f"{len(rows)} rows, asked for {op.samples}"]
    margin = (op.b - op.a) * 1e-4
    lo, hi = op.a + margin, op.b - margin
    last = op.samples - 1
    for k, (t, _, _, s) in enumerate(rows):
        t_want = lo + (hi - lo) * k / last if last else lo
        if not abs(t - t_want) <= GRID_RTOL * op.b:
            problems.append(f"row {k}: t={t!r}, grid point {t_want!r}")
        s_want = ref.curvature(t)
        if not abs(s - s_want) <= COEFF_RTOL * ref.scale * (1.0 + abs(t)):
            problems.append(f"row {k}: S={s!r}, exact A*t+B={s_want!r}")
        if len(problems) >= 3:
            break
    return problems


def _fit_error(ref: Reference, margin: float, gradient, constant) -> float:
    """Largest |fit - (A*t + B)| over the region verify samples from.

    The region {x_i >= m, a + m <= t <= b - m} is y = x - m*1 >= 0 with
    lo <= sum(y) <= hi; the error is affine in x, so its maximum sits at a
    vertex: m*1 + L*e_k for L in {lo, hi}, or m*1 itself when lo = 0.
    """
    n, a, b = ref.n, ref.a, ref.b
    A, B, _, _ = ref.coeffs
    dg = [g - A for g in gradient]
    dc = constant - B
    hi = b - (n + 1) * margin
    lo = max(0.0, a - (n - 1) * margin)
    base = margin * sum(dg) + dc
    levels = [hi, lo] if lo > 0.0 else [hi]
    worst = abs(base) if lo == 0.0 else 0.0
    for level in levels:
        worst = max(worst, max(abs(base + level * d) for d in dg))
    return worst


def check_verify(op, ref: Reference, stdout: str) -> list[str]:
    doc = json.loads(stdout)
    inputs = doc["inputs"]
    tol = inputs["tolerance_soft"]
    problems = _echo_problems(inputs, n=op.n, a=op.a, b=op.b)
    problems += _coefficient_problems(ref, doc["coefficients"])
    disc = doc["curvature"]["max_discrepancy"]
    if not disc <= tol:
        problems.append(f"Abreu vs radial discrepancy {disc:.3e} > {tol:.1e}")
    s_scale = max(1.0, abs(ref.curvature(ref.a)), abs(ref.curvature(ref.b)))
    fit = doc["extremality"]
    err = _fit_error(ref, inputs["margin"], fit["gradient"], fit["constant"]) / s_scale
    if not err <= tol:
        problems.append(f"affine fit off A*t+B by {err:.3e} (scaled) > {tol:.1e}")
    return problems


def check_bridge(op, ref, stdout: str) -> list[str]:
    """Flat rows must give S = 0 at t = s, Fubini-Study S = n(n+1) at s/(1+s)."""
    doc = json.loads(stdout)
    tol = doc["tolerance_soft"]
    problems = _echo_problems(doc, n=op.n, samples=op.samples)
    presets = {blk["preset"]: blk for blk in doc["presets"]}
    if sorted(presets) != ["flat", "fubini-study"]:
        return problems + [f"presets {sorted(presets)!r}"]
    for name, blk in presets.items():
        exact_s = 0.0 if name == "flat" else float(op.n * (op.n + 1))
        if len(blk["rows"]) != op.samples:
            problems.append(f"{name}: {len(blk['rows'])} rows")
            continue
        for row in blk["rows"]:
            s = row["s"]
            t_want = s if name == "flat" else s / (1.0 + s)
            if not abs(row["t"] - t_want) <= GRID_RTOL * t_want:
                problems.append(f"{name} s={s!r}: t={row['t']!r}, exact {t_want!r}")
            for side in ("kahler_side", "polytope_side"):
                if not abs(row[side] - exact_s) <= tol * max(1.0, exact_s):
                    problems.append(
                        f"{name} s={s!r}: {side} S={row[side]!r}, exact {exact_s}")
            if len(problems) >= 3:
                return problems
    return problems


CHECKERS = {
    "derive": check_derive,
    "example": check_example,
    "profile": check_profile,
    "verify": check_verify,
    "bridge-check": check_bridge,
}


def reference_for(op) -> Reference | None:
    """Exact reference for ops that carry a geometry; bridge-check needs none."""
    if op.command == "bridge-check":
        return None
    return Reference(op.n, op.a, op.b)


def has_report(stdout: str) -> bool:
    """A verdict-false exit 1 still prints its full JSON report."""
    try:
        return isinstance(json.loads(stdout), dict)
    except ValueError:
        return False


def check(op, ref, stdout: str) -> list[str]:
    try:
        return CHECKERS[op.command](op, ref, stdout)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
