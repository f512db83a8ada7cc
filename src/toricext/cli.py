"""Command-line front end: coefficient derivation, profiles, verification.

Commands
--------
derive        solve the boundary system, print the coefficient record
profile       CSV/JSON table of t, F'', h'', S over an interior grid
verify        full cross-check battery with pass/fail per check
bridge-check  Kahler-side vs radial curvature on the built-in presets
example       the n=2, b=1 slice: closed forms and the quadratic h'' form

All numeric output is rendered at 17 significant digits through a single
formatter, so identical inputs produce identical bytes: a document becomes
one %-template, in which every run of same-shaped rows shares one rendered
row, and its floats are filled in with one % operation.  Exit codes: 0 pass,
1 tolerance/verification failure (the failing check is named on stderr),
2 invalid input.

Each command imports the modules it runs when it runs, so a call loads only
those: derive and example load ``exact``; profile loads ``exact``,
``numdiff`` and ``table``, which tabulates in plain floats; verify loads
every module but ``bridge``; bridge-check loads ``bridge``, ``radial`` and
``numdiff``.  Every module runs on the standard library, so no command loads
numpy; the renderer takes Python scalars, and the records are plain classes,
since ``dataclasses`` would load ``inspect``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Optional

from .errors import (
    BoundaryIdentityViolation,
    DimensionMismatch,
    GeometryError,
    InvalidParameters,
    PositivityViolation,
)
from .record import Record

PRNG_NAME = "python-mt19937"

# curvature points are sampled this deep into the polytope, in facet-value
# units relative to the interval length
_SAMPLING_MARGIN_FACTOR = 0.05

_BRIDGE_COLUMNS = ("s", "t", "kahler_side", "polytope_side", "difference")
# sorted(bridge.PRESETS), written out so that building the parser does not
# import bridge; a test keeps the two equal
_PRESET_CHOICES = ("flat", "fubini-study")


class RunConfig(Record):
    _fields = (
        "command", "n", "a", "b", "points", "samples", "seed", "step", "fmt",
        "tolerance_hard", "tolerance_soft", "preset",
    )

    def __init__(
        self,
        command: str,
        n: int = 2,
        a: float = 0.5,
        b: float = 1.0,
        points: int = 100,
        samples: Optional[int] = None,
        seed: int = 0,
        step: Optional[float] = None,
        fmt: Optional[str] = None,
        tolerance_hard: float = 1e-9,
        tolerance_soft: float = 1e-5,
        preset: Optional[str] = None,
    ) -> None:
        for flag, value in (
            ("--tolerance-hard", tolerance_hard),
            ("--tolerance-soft", tolerance_soft),
        ):
            if not (math.isfinite(value) and value >= 0.0):
                raise InvalidParameters(f"{flag} must be finite and >= 0, got {value}")
        super().__init__(
            command, n, a, b, points, samples, seed, step, fmt,
            tolerance_hard, tolerance_soft, preset,
        )


# every float is printed at 17 significant digits through this one conversion
_FLOAT = "%.16e"


def _fill(template: str, values: list) -> str:
    """Put values into template's %.16e fields; refuse non-finite values.

    Literal text in the template has its % doubled.  Finiteness is checked
    once for the whole document, and the first offending value is named.
    """
    if not all(map(math.isfinite, values)):
        bad = next(float(v) for v in values if not math.isfinite(v))
        raise InvalidParameters(f"non-finite value {bad} in output")
    return template % tuple(values)


def _literal(text: str) -> str:
    return text.replace("%", "%%")


def _row_shape(obj):
    """Length (list, tuple) or keys (dict) of a flat, non-empty row of floats.

    None for anything else: such a value is rendered on its own.
    """
    if isinstance(obj, dict):
        values, shape = obj.values(), tuple(map(str, obj))
    elif isinstance(obj, (list, tuple)):
        values, shape = obj, len(obj)
    else:
        return None
    if values and all(map(isinstance, values, itertools.repeat(float))):
        return shape
    return None


def _template(obj, indent: int, values: list) -> str:
    """obj as a JSON template, its floats appended to values in order.

    Consecutive list items of one row shape share one rendered row template,
    so a table of any length costs one template and one fill.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        values.append(obj)
        return _FLOAT
    if isinstance(obj, str):
        return _literal(json.dumps(obj))
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{_literal(json.dumps(str(k)))}: {_template(v, indent + 1, values)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = []
        for shape, run in itertools.groupby(obj, _row_shape):
            if shape is None:
                items += [inner + _template(v, indent + 1, values) for v in run]
                continue
            first, *rest = run
            items += [inner + _template(first, indent + 1, values)] * (1 + len(rest))
            for row in rest:
                values.extend(row.values() if isinstance(row, dict) else row)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise InvalidParameters(f"unserializable value of type {type(obj)!r}")


def _render_json(obj) -> str:
    """Deterministic JSON: floats at 17 significant digits, insertion order."""
    values: list = []
    return _fill(_template(obj, 0, values), values)


def _require_json(cfg: RunConfig) -> None:
    if cfg.fmt not in (None, "json"):
        raise InvalidParameters(f"command {cfg.command!r} only emits json")


def run_derive(cfg: RunConfig) -> str:
    from .exact import solve_coefficients

    _require_json(cfg)
    E = solve_coefficients(cfg.n, cfg.a, cfg.b)
    doc = {
        "n": E.n,
        "a": E.a,
        "b": E.b,
        "p": E.p,
        "A": E.A,
        "B": E.B,
        "C": E.C,
        "D": E.D,
        "S": "A*t+B",
    }
    return _render_json(doc)


def run_profile(cfg: RunConfig) -> str:
    from .exact import solve_coefficients
    from .numdiff import grid
    from .table import F_second, h_second

    E = solve_coefficients(cfg.n, cfg.a, cfg.b)
    rows_n = cfg.samples if cfg.samples is not None else 50
    if rows_n < 1:
        raise InvalidParameters("samples must be >= 1")
    margin = cfg.step if cfg.step is not None else (cfg.b - cfg.a) * 1e-4
    if not 0.0 < margin < 0.5 * (cfg.b - cfg.a):
        raise InvalidParameters(f"margin {margin} leaves no interior grid")
    lo, hi = cfg.a + margin, cfg.b - margin
    if lo == cfg.a or hi == cfg.b:
        raise InvalidParameters(
            f"margin {margin} rounds away next to a = {cfg.a} or b = {cfg.b}"
        )
    ts = grid(lo, hi, rows_n)
    columns = (ts, F_second(E, ts), h_second(E, ts), [E.A * t + E.B for t in ts])
    table = list(zip(*columns))
    if cfg.fmt in (None, "csv"):
        row = ",".join([_FLOAT] * len(columns))
        template = "\n".join(["t,F_second,h_second,S"] + [row] * rows_n)
        return _fill(template, list(itertools.chain.from_iterable(table)))
    if cfg.fmt == "json":
        doc = {
            "schema": 1,
            "command": "profile",
            "n": E.n,
            "a": E.a,
            "b": E.b,
            "columns": ["t", "F_second", "h_second", "S"],
            "rows": table,
        }
        return _render_json(doc)
    raise InvalidParameters(f"unknown format {cfg.fmt!r}")


# the report key of each proof that raises instead of failing
_PROOF_CHECKS = {
    BoundaryIdentityViolation: "boundary_identities",
    PositivityViolation: "validity",
}


def _verify_battery(cfg: RunConfig) -> dict:
    from .abreu import SymplecticPotential, _check_dimension, extremality_residual
    from .calabi import _endpoint_limits, build_extremal_metric
    from .exact import coefficient_cross_check, positivity_certificate
    from .polytope import sample_interior
    from .radial import radial_scalar_curvature

    n, a, b = cfg.n, cfg.a, cfg.b
    if cfg.points < n + 2:
        raise InvalidParameters(f"need points >= {n + 2}, got {cfg.points}")
    # before the solve and the sampler, which can fail first at large n
    _check_dimension(n)

    try:
        P, T, E = build_extremal_metric(n, a, b)
    except (BoundaryIdentityViolation, PositivityViolation) as exc:
        # a failed proof prints no report; name the check it would have failed
        key = _PROOF_CHECKS[type(exc)]
        raise type(exc)(f"{key}: {exc}") from exc
    margin = _SAMPLING_MARGIN_FACTOR * (b - a)
    pts = sample_interior(P, cfg.points, margin=margin, seed=cfg.seed)
    fit = extremality_residual(SymplecticPotential(P, T), pts)
    rad = [radial_scalar_curvature(T, sum(x)) for x in pts]
    # both soft checks are relative to the curvature itself (|S| >= 2/b > 0)
    curvature_disc = max(abs(s - r) / abs(r) for s, r in zip(fit.S, rad))
    scaled_residual = fit.max_residual / max(map(abs, rad))

    endpoints_ok, endpoints = _endpoint_limits(E, cfg.tolerance_hard)

    # the exact deflation and the certificate raise instead of failing, so
    # these two are true in every report printed
    checks = {
        "boundary_identities": True,
        "closed_form": coefficient_cross_check(E),
        "validity": True,
        "curvature_agreement": curvature_disc <= cfg.tolerance_soft,
        "extremality": scaled_residual <= cfg.tolerance_soft,
        "endpoint_limits": endpoints_ok,
    }

    return {
        "schema": 2,
        "command": "verify",
        "inputs": {
            "n": n,
            "a": a,
            "b": b,
            "points": cfg.points,
            "seed": cfg.seed,
            "margin": margin,
            "tolerance_hard": cfg.tolerance_hard,
            "tolerance_soft": cfg.tolerance_soft,
        },
        "prng": PRNG_NAME,
        "coefficients": {"p": E.p, "A": E.A, "B": E.B, "C": E.C, "D": E.D},
        "curvature": {"max_discrepancy": curvature_disc},
        "extremality": {
            "gradient": list(fit.gradient),
            "constant": fit.constant,
            "max_residual": fit.max_residual,
            "scaled_residual": scaled_residual,
        },
        "validity": {"bernstein_margin": positivity_certificate(E)},
        "endpoint_limits": endpoints,
        "checks": checks,
        "passed": all(checks.values()),
    }


def run_verify(cfg: RunConfig) -> tuple[str, int, str]:
    _require_json(cfg)
    report = _verify_battery(cfg)
    out = _render_json(report)
    failing = [k for k, ok in report["checks"].items() if not ok]
    if not failing:
        return out, 0, ""
    return out, 1, "verification failed: " + ", ".join(failing)


def run_bridge_check(cfg: RunConfig) -> tuple[str, int, str]:
    from .bridge import PRESETS, bridge_cross_check
    from .numdiff import grid

    _require_json(cfg)
    names = [cfg.preset] if cfg.preset else _PRESET_CHOICES
    count = cfg.samples if cfg.samples is not None else 10
    if count < 1:
        raise InvalidParameters("samples must be >= 1")
    s_grid = grid(0.25, 4.0, count)

    blocks = []
    failing = []
    for name in names:
        K = PRESETS[name](cfg.n)
        rep = bridge_cross_check(K, s_grid)
        columns = [getattr(rep, column) for column in _BRIDGE_COLUMNS]
        ok = rep.max_discrepancy <= cfg.tolerance_soft
        if not ok:
            failing.append(name)
        blocks.append(
            {
                "preset": name,
                "max_discrepancy": rep.max_discrepancy,
                "passed": ok,
                "rows": [dict(zip(_BRIDGE_COLUMNS, row)) for row in zip(*columns)],
            }
        )
    doc = {
        "schema": 1,
        "command": "bridge-check",
        "n": cfg.n,
        "samples": count,
        "tolerance_soft": cfg.tolerance_soft,
        "presets": blocks,
        "passed": not failing,
    }
    err = "" if not failing else "bridge-check failed: " + ", ".join(failing)
    return _render_json(doc), 0 if not failing else 1, err


def run_example(cfg: RunConfig) -> tuple[str, int, str]:
    from fractions import Fraction

    from .exact import (
        _h_second_exact,
        _quadratic_form_identity,
        coefficient_cross_check,
        solve_coefficients,
    )

    _require_json(cfg)
    if cfg.n != 2 or cfg.b != 1.0:
        raise InvalidParameters("the worked example is the n=2, b=1 family")
    a = cfg.a
    E = solve_coefficients(2, a, 1.0)
    midpoint = 0.5 * (a + 1.0)
    checks = {
        "closed_form": coefficient_cross_check(E),
        "quadratic_form": _quadratic_form_identity(E),
    }
    doc = {
        "schema": 3,
        "command": "example",
        "a": a,
        "coefficients": {"A": E.A, "B": E.B, "C": E.C, "D": E.D},
        "h_second_midpoint": float(_h_second_exact(E, Fraction(midpoint))),
        "checks": checks,
        "passed": all(checks.values()),
    }
    failing = [k for k, ok in checks.items() if not ok]
    err = "" if not failing else "example check failed: " + ", ".join(failing)
    return _render_json(doc), 0 if not failing else 1, err


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=2, help="complex dimension n")
    common.add_argument("--a", type=float, default=0.5, help="inner endpoint a")
    common.add_argument("--b", type=float, default=1.0, help="outer endpoint b")
    common.add_argument(
        "--points", type=int, default=100, help="interior sample count (verify)"
    )
    common.add_argument(
        "--samples",
        type=int,
        default=None,
        help="grid size: profile rows / bridge samples",
    )
    common.add_argument("--seed", type=int, default=0, help="sampling seed")
    common.add_argument(
        "--step", type=float, default=None, help="profile grid margin override"
    )
    common.add_argument("--format", choices=("json", "csv"), default=None)
    common.add_argument("--tolerance-hard", type=float, default=1e-9)
    common.add_argument("--tolerance-soft", type=float, default=1e-5)
    common.add_argument("--preset", choices=_PRESET_CHOICES, default=None)

    parser = argparse.ArgumentParser(
        prog="toricext",
        description="extremal toric metrics on blow-ups of CP^n: "
        "derivation and numerical verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("derive", "solve the boundary system for (A, B, C, D)"),
        ("profile", "tabulate t, F'', h'', S over an interior grid"),
        ("verify", "run the full cross-check battery"),
        ("bridge-check", "compare Kahler-side and radial curvature"),
        ("example", "reproduce the n=2, b=1 closed forms"),
    ):
        sub.add_parser(name, parents=[common], help=blurb)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        n=args.n,
        a=args.a,
        b=args.b,
        points=args.points,
        samples=args.samples,
        seed=args.seed,
        step=args.step,
        fmt=args.format,
        tolerance_hard=args.tolerance_hard,
        tolerance_soft=args.tolerance_soft,
        preset=args.preset,
    )


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "derive":
            out, code, err = run_derive(cfg), 0, ""
        elif cfg.command == "profile":
            out, code, err = run_profile(cfg), 0, ""
        elif cfg.command == "verify":
            out, code, err = run_verify(cfg)
        elif cfg.command == "bridge-check":
            out, code, err = run_bridge_check(cfg)
        elif cfg.command == "example":
            out, code, err = run_example(cfg)
        else:  # pragma: no cover - argparse enforces the choices
            raise InvalidParameters(f"unknown command {cfg.command!r}")
    except (InvalidParameters, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    if err:
        print(err, file=sys.stderr)
    return code
