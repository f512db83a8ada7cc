"""Command-line front end: coefficient derivation, profiles, verification.

Commands
--------
derive        solve the boundary system, print the coefficient record
profile       CSV/JSON table of t, F'', h'', S over an interior grid
verify        full cross-check battery with pass/fail per check
bridge-check  Kahler-side vs radial curvature on the built-in presets
example       the n=2, b=1 slice: closed forms and the quadratic h'' form

``_COMMANDS`` is the one table of them: name -> (help, run function, the
flags it reads with their defaults).  Each subparser declares only its
command's flags, so any other flag is refused by argparse (exit 2).  ``main``
calls the run function the subparser selected with the parsed namespace, and
it returns (stdout, exit code, stderr).

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

PRNG_NAME = "python-mt19937"

# curvature points are sampled this deep into the polytope, in facet-value
# units relative to the interval length
_SAMPLING_MARGIN_FACTOR = 0.05

_BRIDGE_COLUMNS = ("s", "t", "kahler_side", "polytope_side", "difference")
# sorted(bridge.PRESETS), written out so that building the parser does not
# import bridge; a test keeps the two equal
_PRESET_CHOICES = ("flat", "fubini-study")


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


def _tolerance(flag: str, value: float) -> float:
    # a negative or non-finite tolerance would read as a failed verdict
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidParameters(f"{flag} must be finite and >= 0, got {value}")
    return value


def run_derive(args: argparse.Namespace) -> tuple[str, int, str]:
    from .exact import solve_coefficients

    E = solve_coefficients(args.n, args.a, args.b)
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
    return _render_json(doc), 0, ""


def run_profile(args: argparse.Namespace) -> tuple[str, int, str]:
    from .exact import solve_coefficients
    from .numdiff import grid
    from .table import F_second, h_second

    E = solve_coefficients(args.n, args.a, args.b)
    if args.samples < 1:
        raise InvalidParameters("samples must be >= 1")
    margin = args.step if args.step is not None else (args.b - args.a) * 1e-4
    if not 0.0 < margin < 0.5 * (args.b - args.a):
        raise InvalidParameters(f"margin {margin} leaves no interior grid")
    lo, hi = args.a + margin, args.b - margin
    if lo == args.a or hi == args.b:
        raise InvalidParameters(
            f"margin {margin} rounds away next to a = {args.a} or b = {args.b}"
        )
    ts = grid(lo, hi, args.samples)
    columns = (ts, F_second(E, ts), h_second(E, ts), [E.A * t + E.B for t in ts])
    table = list(zip(*columns))
    if args.format == "csv":
        row = ",".join([_FLOAT] * len(columns))
        template = "\n".join(["t,F_second,h_second,S"] + [row] * args.samples)
        return _fill(template, list(itertools.chain.from_iterable(table))), 0, ""
    doc = {
        "schema": 1,
        "command": "profile",
        "n": E.n,
        "a": E.a,
        "b": E.b,
        "columns": ["t", "F_second", "h_second", "S"],
        "rows": table,
    }
    return _render_json(doc), 0, ""


# the report key of each proof that raises instead of failing
_PROOF_CHECKS = {
    BoundaryIdentityViolation: "boundary_identities",
    PositivityViolation: "validity",
}


def _verify_battery(args: argparse.Namespace) -> dict:
    from .abreu import SymplecticPotential, _check_dimension, extremality_residual
    from .calabi import _endpoint_limits, build_extremal_metric
    from .exact import coefficient_cross_check, positivity_certificate
    from .polytope import sample_interior
    from .radial import radial_scalar_curvature

    tolerance_hard = _tolerance("--tolerance-hard", args.tolerance_hard)
    tolerance_soft = _tolerance("--tolerance-soft", args.tolerance_soft)
    n, a, b = args.n, args.a, args.b
    if args.points < n + 2:
        raise InvalidParameters(f"need points >= {n + 2}, got {args.points}")
    # before the solve and the sampler, which can fail first at large n
    _check_dimension(n)

    try:
        P, T, E = build_extremal_metric(n, a, b)
    except (BoundaryIdentityViolation, PositivityViolation) as exc:
        # a failed proof prints no report; name the check it would have failed
        key = _PROOF_CHECKS[type(exc)]
        raise type(exc)(f"{key}: {exc}") from exc
    margin = _SAMPLING_MARGIN_FACTOR * (b - a)
    pts = sample_interior(P, args.points, margin=margin, seed=args.seed)
    fit = extremality_residual(SymplecticPotential(P, T), pts)
    rad = [radial_scalar_curvature(T, sum(x)) for x in pts]
    # both soft checks are relative to the curvature itself (|S| >= 2/b > 0)
    curvature_disc = max(abs(s - r) / abs(r) for s, r in zip(fit.S, rad))
    scaled_residual = fit.max_residual / max(map(abs, rad))

    endpoints_ok, endpoints = _endpoint_limits(E, tolerance_hard)

    # the exact deflation and the certificate raise instead of failing, so
    # these two are true in every report printed
    checks = {
        "boundary_identities": True,
        "closed_form": coefficient_cross_check(E),
        "validity": True,
        "curvature_agreement": curvature_disc <= tolerance_soft,
        "extremality": scaled_residual <= tolerance_soft,
        "endpoint_limits": endpoints_ok,
    }

    return {
        "schema": 2,
        "command": "verify",
        "inputs": {
            "n": n,
            "a": a,
            "b": b,
            "points": args.points,
            "seed": args.seed,
            "margin": margin,
            "tolerance_hard": tolerance_hard,
            "tolerance_soft": tolerance_soft,
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


def run_verify(args: argparse.Namespace) -> tuple[str, int, str]:
    report = _verify_battery(args)
    out = _render_json(report)
    failing = [k for k, ok in report["checks"].items() if not ok]
    if not failing:
        return out, 0, ""
    return out, 1, "verification failed: " + ", ".join(failing)


def run_bridge_check(args: argparse.Namespace) -> tuple[str, int, str]:
    from .bridge import PRESETS, bridge_cross_check
    from .numdiff import grid

    tolerance_soft = _tolerance("--tolerance-soft", args.tolerance_soft)
    names = [args.preset] if args.preset else _PRESET_CHOICES
    if args.samples < 1:
        raise InvalidParameters("samples must be >= 1")
    s_grid = grid(0.25, 4.0, args.samples)

    blocks = []
    failing = []
    for name in names:
        K = PRESETS[name](args.n)
        rep = bridge_cross_check(K, s_grid)
        columns = [getattr(rep, column) for column in _BRIDGE_COLUMNS]
        ok = rep.max_discrepancy <= tolerance_soft
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
        "n": args.n,
        "samples": args.samples,
        "tolerance_soft": tolerance_soft,
        "presets": blocks,
        "passed": not failing,
    }
    err = "" if not failing else "bridge-check failed: " + ", ".join(failing)
    return _render_json(doc), 0 if not failing else 1, err


def run_example(args: argparse.Namespace) -> tuple[str, int, str]:
    from fractions import Fraction

    from .exact import (
        _h_second_exact,
        _quadratic_form_identity,
        coefficient_cross_check,
        solve_coefficients,
    )

    a = args.a
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


# each flag's add_argument keywords; its default is the command's
_FLAGS = {
    "n": {"type": int, "help": "complex dimension n"},
    "a": {"type": float, "help": "inner endpoint a"},
    "b": {"type": float, "help": "outer endpoint b"},
    "points": {"type": int, "help": "interior sample count"},
    "samples": {"type": int, "help": "grid size"},
    "seed": {"type": int, "help": "sampling seed"},
    "step": {"type": float, "help": "grid margin override"},
    "format": {"choices": ("csv", "json")},
    "tolerance-hard": {"type": float},
    "tolerance-soft": {"type": float},
    "preset": {"choices": _PRESET_CHOICES},
}

_GEOMETRY = {"n": 2, "a": 0.5, "b": 1.0}

# command -> (help, run function, {flag: default} of the flags it reads)
_COMMANDS = {
    "derive": ("solve the boundary system for (A, B, C, D)", run_derive, _GEOMETRY),
    "profile": (
        "tabulate t, F'', h'', S over an interior grid",
        run_profile,
        {**_GEOMETRY, "samples": 50, "step": None, "format": "csv"},
    ),
    "verify": (
        "run the full cross-check battery",
        run_verify,
        {**_GEOMETRY, "points": 100, "seed": 0,
         "tolerance-hard": 1e-9, "tolerance-soft": 1e-5},
    ),
    "bridge-check": (
        "compare Kahler-side and radial curvature",
        run_bridge_check,
        {"n": 2, "samples": 10, "tolerance-soft": 1e-5, "preset": None},
    ),
    "example": ("reproduce the n=2, b=1 closed forms", run_example, {"a": 0.5}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricext",
        description="extremal toric metrics on blow-ups of CP^n: "
        "derivation and numerical verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, run, defaults) in _COMMANDS.items():
        # no prefix spellings: a command takes its flags as written
        command = sub.add_parser(name, help=blurb, allow_abbrev=False)
        command.set_defaults(run=run)
        for flag, default in defaults.items():
            command.add_argument(f"--{flag}", default=default, **_FLAGS[flag])
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out, code, err = args.run(args)
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
