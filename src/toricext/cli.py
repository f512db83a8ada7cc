"""Command-line front end: coefficient derivation, profiles, verification.

Commands
--------
derive        solve the boundary system, print the coefficient record
profile       CSV/JSON table of t, F'', h'', S over an interior grid
verify        full cross-check battery with pass/fail per check
bridge-check  Kahler-side vs radial curvature on the built-in presets
example       the n=2, b=1 slice: closed forms and the quadratic h'' form

``_COMMANDS`` is the one table of them: name -> (help, run function, the
flags it reads with their defaults).  ``_parse`` reads argv off it as argparse
did, without loading argparse: any other flag is refused (exit 2) with its
message under that command's usage line, a word before the command under the
top-level one, and never wrapped.  ``main`` calls the command's run function
with the parsed namespace, and it returns (stdout, exit code, stderr).

All numeric output is rendered at 17 significant digits through a single
formatter, so identical inputs produce identical bytes: a document becomes
one %-template, in which a table given as its columns (``_Table``) repeats
one rendered row, and its floats are filled in with one % operation.  Exit
codes: 0 pass, 1 tolerance/verification failure (the failing check is named
on stderr), 2 invalid input.

Each command imports the modules it runs when it runs, so a call loads only
those: derive and example load ``exact``; profile loads ``exact``,
``numdiff`` and ``table``, which tabulates in plain floats; verify loads
every module but ``bridge``; bridge-check loads ``bridge``, ``radial`` and
``numdiff``.  Every module runs on the standard library, so no command loads
numpy; the renderer takes Python scalars, and the records are
``collections.namedtuple`` classes, which load nothing new (``functools``
has imported ``collections`` already), where ``dataclasses`` would load
``inspect``.
"""

from __future__ import annotations

import itertools
import math
import sys
import types
from _json import encode_basestring_ascii as _quote  # json.dumps's own quoter
from collections import namedtuple

from .errors import (
    BoundaryIdentityViolation,
    GeometryError,
    InvalidParameters,
    PositivityViolation,
)

PRNG_NAME = "python-mt19937"

# curvature points are sampled this deep into the polytope, in facet-value
# units relative to the interval length
_SAMPLING_MARGIN_FACTOR = 0.05

_PROFILE_KEYS = ("t", "F_second", "h_second", "S")
# sorted(bridge.PRESETS), written out so that parsing does not import bridge;
# a test keeps the two equal
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


# rows given as columns of floats: dicts of the keys, or lists if keys is None
_Table = namedtuple("_Table", "keys columns")


def _block(items: list, pad: str, brackets: str) -> str:
    """Rendered items one per line between brackets, closing at pad."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + pad + brackets[1]


def _template(obj, indent: int, values: list) -> str:
    """obj as a JSON template, its floats appended to values in order.

    A _Table's rows share one rendered row template, so a table of any
    length costs one template, one type check per column and one zip.
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
        return _literal(_quote(obj))
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, _Table):
        keys, columns = obj.keys, obj.columns
        rows = len(columns[0]) if columns else 0
        labels = [""] * len(columns) if keys is None else [
            _literal(_quote(str(k))) + ": " for k in keys]
        if len(labels) != len(columns) or any(
            len(c) != rows or not all(map(isinstance, c, itertools.repeat(float)))
            for c in columns
        ):
            raise InvalidParameters("a table needs one key per column and "
                                    "columns of floats of one length")
        cell = "  " * (indent + 2)
        row = inner + _block([cell + label + _FLOAT for label in labels], inner,
                             "[]" if keys is None else "{}")
        values.extend(itertools.chain.from_iterable(zip(*columns)))
        return _block([row] * rows, pad, "[]")
    if isinstance(obj, dict):
        return _block([
            f"{inner}{_literal(_quote(str(k)))}: {_template(v, indent + 1, values)}"
            for k, v in obj.items()
        ], pad, "{}")
    if isinstance(obj, (list, tuple)):
        return _block([inner + _template(v, indent + 1, values) for v in obj], pad, "[]")
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


def run_derive(args: types.SimpleNamespace) -> tuple[str, int, str]:
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


def run_profile(args: types.SimpleNamespace) -> tuple[str, int, str]:
    from .exact import solve_coefficients
    from .numdiff import grid
    from .table import profile_columns

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
    columns = (ts, *profile_columns(E, ts), [E.A * t + E.B for t in ts])
    # the grid's t are finite; name the first other value that is not, by
    # its column and its t, where the renderer would name the value alone
    if not all(map(math.isfinite, itertools.chain(*columns[1:]))):
        bad = next(row for row in zip(*columns) if not all(map(math.isfinite, row)))
        key, value = next(c for c in zip(_PROFILE_KEYS, bad) if not math.isfinite(c[1]))
        raise InvalidParameters(f"non-finite {key} {value} at t = {bad[0]}")
    if args.format == "csv":
        row = ",".join([_FLOAT] * len(columns))
        template = "\n".join([",".join(_PROFILE_KEYS)] + [row] * args.samples)
        return _fill(template, list(itertools.chain.from_iterable(zip(*columns)))), 0, ""
    doc = {
        "schema": 1,
        "command": "profile",
        "n": E.n,
        "a": E.a,
        "b": E.b,
        "columns": _PROFILE_KEYS,
        "rows": _Table(None, columns),
    }
    return _render_json(doc), 0, ""


# the report key of each proof that raises instead of failing
_PROOF_CHECKS = {
    BoundaryIdentityViolation: "boundary_identities",
    PositivityViolation: "validity",
}


def _verify_battery(args: types.SimpleNamespace) -> dict:
    from .abreu import _check_dimension, abreu_scalar_curvature
    from .calabi import build_extremal_metric
    from .exact import coefficient_cross_check, positivity_certificate
    from .polytope import sample_interior
    from .radial import radial_scalar_curvature

    tolerance_soft = _tolerance("--tolerance-soft", args.tolerance_soft)
    n, a, b = args.n, args.a, args.b
    if args.points < n + 2:
        raise InvalidParameters(f"need points >= {n + 2}, got {args.points}")
    # before the solve and the sampler, which can fail first at large n
    _check_dimension(n)

    try:
        T, E = build_extremal_metric(n, a, b)
    except (BoundaryIdentityViolation, PositivityViolation) as exc:
        # a failed proof prints no report; name the check it would have failed
        key = _PROOF_CHECKS[type(exc)]
        raise type(exc)(f"{key}: {exc}") from exc
    margin = _SAMPLING_MARGIN_FACTOR * (b - a)
    pts = sample_interior(T, args.points, margin=margin, seed=args.seed)
    S = abreu_scalar_curvature(T, pts)
    ts = [math.fsum(x) for x in pts]
    rad = radial_scalar_curvature(T.n, ts, T.jet(ts))
    # both soft checks are relative to the curvature itself (|S| >= 2/b > 0)
    curvature_disc = max(abs(s - r) / abs(r) for s, r in zip(S, rad))
    # extremal means S is the one affine function of Donaldson's projection,
    # A*t + B, not merely some affine function of x
    max_residual = max(abs(s - (E.A * t + E.B)) for s, t in zip(S, ts))
    scaled_residual = max_residual / max(map(abs, rad))

    # the exact deflation and the certificate raise instead of failing, so
    # these two are true in every report printed
    checks = {
        "boundary_identities": True,
        "closed_form": coefficient_cross_check(E),
        "validity": True,
        "curvature_agreement": curvature_disc <= tolerance_soft,
        "extremality": scaled_residual <= tolerance_soft,
    }

    return {
        "schema": 4,
        "command": "verify",
        "inputs": {
            "n": n,
            "a": a,
            "b": b,
            "points": args.points,
            "seed": args.seed,
            "margin": margin,
            "tolerance_soft": tolerance_soft,
        },
        "prng": PRNG_NAME,
        "coefficients": {"p": E.p, "A": E.A, "B": E.B, "C": E.C, "D": E.D},
        "curvature": {
            "max_discrepancy": curvature_disc,
            # where the points lie in the shell, tau = (t - a)/(b - a)
            "tau_range": [(min(ts) - a) / (b - a), (max(ts) - a) / (b - a)],
        },
        # A*t + B written in x; gradient and constant repeat coefficients
        "extremality": {
            "gradient": [E.A] * n,
            "constant": E.B,
            "max_residual": max_residual,
            "scaled_residual": scaled_residual,
        },
        "validity": {"bernstein_margin": positivity_certificate(E)},
        "checks": checks,
        "passed": all(checks.values()),
    }


def run_verify(args: types.SimpleNamespace) -> tuple[str, int, str]:
    report = _verify_battery(args)
    out = _render_json(report)
    failing = [k for k, ok in report["checks"].items() if not ok]
    if not failing:
        return out, 0, ""
    return out, 1, "verification failed: " + ", ".join(failing)


def run_bridge_check(args: types.SimpleNamespace) -> tuple[str, int, str]:
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
        rep = bridge_cross_check(args.n, PRESETS[name], s_grid)
        ok = rep.max_discrepancy <= tolerance_soft
        if not ok:
            failing.append(name)
        blocks.append(
            {
                "preset": name,
                "max_discrepancy": rep.max_discrepancy,
                "passed": ok,
                # every field of the report but max_discrepancy is a column
                "rows": _Table(rep._fields[:-1], rep[:-1]),
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


def run_example(args: types.SimpleNamespace) -> tuple[str, int, str]:
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
    "step": {"type": float, "help": "grid margin, (b - a)*1e-4 if not given"},
    "format": {"choices": ("csv", "json"), "help": "output format"},
    "tolerance-soft": {"type": float, "help": "relative tolerance of the soft checks"},
    "preset": {"choices": _PRESET_CHOICES, "help": "one preset, both if not given"},
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
        {**_GEOMETRY, "points": 100, "seed": 0, "tolerance-soft": 1e-5},
    ),
    "bridge-check": (
        "compare Kahler-side and radial curvature",
        run_bridge_check,
        {"n": 2, "samples": 10, "tolerance-soft": 1e-5, "preset": None},
    ),
    "example": ("reproduce the n=2, b=1 closed forms", run_example, {"a": 0.5}),
}


_METAVAR = {flag: "{%s}" % ",".join(spec["choices"]) if "choices" in spec
            else flag.upper().replace("-", "_") for flag, spec in _FLAGS.items()}


def _usage(command: str | None) -> str:
    """argparse's usage line of a command (None: the top level), unwrapped."""
    if command is None:
        return "usage: toricext [-h] {%s} ..." % ",".join(_COMMANDS)
    return f"usage: toricext {command} [-h]" + "".join(
        f" [--{flag} {_METAVAR[flag]}]" for flag in _COMMANDS[command][2])


def _refuse(command: str | None, message: str, choices=()):
    if choices:
        message += f" (choose from {', '.join(map(repr, choices))})"
    prog = "toricext" if command is None else f"toricext {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(command: str | None):
    if command is None:
        heading = "extremal toric metrics on blow-ups of CP^n\n\ncommands:"
        rows = [(name, text) for name, (text, _, _) in _COMMANDS.items()]
    else:
        heading = _COMMANDS[command][0] + "\n\noptions:"
        rows = [("-h, --help", "show this help message and exit")] + [
            (f"--{flag} {_METAVAR[flag]}", _FLAGS[flag]["help"]
             + ("" if default is None else f" (default: {default})"))
            for flag, default in _COMMANDS[command][2].items()]
    width = max(len(left) for left, _ in rows)
    print(_usage(command), "", heading,
          *(f"  {left:<{width}}  {text}" for left, text in rows), sep="\n")
    raise SystemExit(0)


def _parse(argv: list) -> types.SimpleNamespace:
    """argv's run function and flag values, or argparse's refusal (exit 2)."""
    k = next((k for k, word in enumerate(argv) if not word.startswith("-")), None)
    unknown = argv[:k]
    if {"-h", "--help"} & set(unknown):
        _help(None)
    if k is None:
        _refuse(None, "the following arguments are required: command")
    command, words = argv[k], iter(argv[k + 1:])
    if command not in _COMMANDS:
        _refuse(None, f"argument command: invalid choice: {command!r}", _COMMANDS)
    run, values = _COMMANDS[command][1], dict(_COMMANDS[command][2])
    for word in words:
        if word in ("-h", "--help"):
            _help(command)
        flag, eq, value = word[2:].partition("=")
        if word[:2] != "--" or flag not in values:
            unknown += [word, *words] if word == "--" else [word]  # "--" ends flags
            continue
        if not eq:  # a word starting with "--" is never a value, but "-5" is
            value = next(words, "--")
            if value[:2] == "--" or value == "-h":
                _refuse(command, f"argument --{flag}: expected one argument")
        kind, choices = _FLAGS[flag].get("type", str), _FLAGS[flag].get("choices")
        try:
            values[flag] = kind(value)
        except ValueError:
            _refuse(command,
                    f"argument --{flag}: invalid {kind.__name__} value: {value!r}")
        if choices and value not in choices:
            _refuse(command, f"argument --{flag}: invalid choice: {value!r}", choices)
    if unknown:  # under the top-level usage if one came before the command
        _refuse(None if k else command, "unrecognized arguments: " + " ".join(unknown))
    return types.SimpleNamespace(
        run=run, **{flag.replace("-", "_"): v for flag, v in values.items()})


def main(argv: list | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        out, code, err = args.run(args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    if err:
        print(err, file=sys.stderr)
    return code
