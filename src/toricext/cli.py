"""Command-line front end: the parser, the usage, help and refusal text,
and the renderer.

Commands
--------
derive        solve the boundary system, print the coefficient record
profile       CSV/JSON table of t, F'', h'', S over an interior grid
verify        full cross-check battery with pass/fail per check
bridge-check  Kahler-side vs radial curvature on the built-in presets
example       the n=2, b=1 slice: closed forms and the quadratic h'' form

``_COMMANDS`` is the one table of them: name -> (help, the module that runs
it, the flags it reads with their defaults).  ``_parse`` reads argv off it
as argparse did, without loading argparse: any other flag is refused (exit
2) with its message under that command's usage line, a word before the
command under the top-level one, and never wrapped.  ``main`` imports the
command's module when the command runs, refuses the flag values that are
wrong whatever the other flags say (a ``--tolerance-soft`` that is negative
or not finite, a ``--samples`` or ``--points`` below 1), and calls its
``run_<command>`` (``run_bridge_check`` for bridge-check) with the parsed
namespace.  That returns (document, failure): a dict, rendered as JSON, or a
``_Table``, rendered as CSV, and "" or the stderr line naming what failed.
``main`` alone renders and prints the document and turns the failure into
the exit code.

Each command's run code lives in the module the command loads anyway:
derive and example in ``exact``; profile in ``table``, which also loads
``exact`` and ``numdiff``; verify in ``calabi``, which loads every module
but ``bridge``; bridge-check in ``bridge``, which loads ``radial`` and
``numdiff``.  So a call loads no module that only another command needs,
but it compiles the whole of each module it loads: ``verify`` compiles
``table``'s profile code and ``exact``'s derive and example code, and
``profile`` compiles ``table.jet`` and ``exact``'s example, derive and
closed-form code, none of which they run.  Every module runs on the
standard library, so no command loads numpy; the renderer takes Python
scalars, and the records are ``collections.namedtuple`` classes, which load
nothing new (``functools`` has imported ``collections`` already), where
``dataclasses`` would load ``inspect``.

All numeric output is rendered at 17 significant digits through a single
formatter, so identical inputs produce identical bytes: a document becomes
one %-template, in which a table given as its columns (``_Table``) repeats
one rendered row, and its floats are filled in with one % operation.  Exit
codes: 0 pass, 1 tolerance/verification failure (the failing check is named
on stderr), 2 invalid input.
"""

import itertools
import math
import sys
import types
from _json import encode_basestring_ascii as _quote  # json.dumps's own quoter
from collections import namedtuple

from .errors import GeometryError, InvalidParameters

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


def _render_csv(table: _Table) -> str:
    """CSV: a header of the table's keys, then its rows at 17 significant
    digits."""
    row = ",".join([_FLOAT] * len(table.columns))
    template = "\n".join([_literal(",".join(table.keys))]
                         + [row] * len(table.columns[0]))
    return _fill(template, list(itertools.chain.from_iterable(zip(*table.columns))))


# each flag's add_argument keywords; its default is the command's
_FLAGS = {
    "n": {"type": int, "help": "complex dimension n"},
    "a": {"type": float, "help": "inner endpoint a"},
    "b": {"type": float, "help": "outer endpoint b"},
    "points": {"type": int, "help": "interior sample count"},
    "samples": {"type": int, "help": "grid size"},
    "seed": {"type": int, "help": "sampling seed"},
    "format": {"choices": ("csv", "json"), "help": "output format"},
    "tolerance-soft": {"type": float, "help": "relative tolerance of the soft checks"},
    "preset": {"choices": _PRESET_CHOICES, "help": "one preset, both if not given"},
}

_GEOMETRY = {"n": 2, "a": 0.5, "b": 1.0}

# command -> (help, the module whose run_<command> runs it, {flag: default}
# of the flags it reads)
_COMMANDS = {
    "derive": ("solve the boundary system for (A, B, C, D)", "exact", _GEOMETRY),
    "profile": (
        "tabulate t, F'', h'', S over an interior grid",
        "table",
        {**_GEOMETRY, "samples": 50, "format": "csv"},
    ),
    "verify": (
        "run the full cross-check battery",
        "calabi",
        {**_GEOMETRY, "points": 100, "seed": 0, "tolerance-soft": 1e-5},
    ),
    "bridge-check": (
        "compare Kahler-side and radial curvature",
        "bridge",
        {"n": 2, "samples": 10, "tolerance-soft": 1e-5, "preset": None},
    ),
    "example": ("reproduce the n=2, b=1 closed forms", "exact", {"a": 0.5}),
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
    """argv's command and flag values, or argparse's refusal (exit 2)."""
    k = next((k for k, word in enumerate(argv) if not word.startswith("-")), None)
    unknown = argv[:k]
    if {"-h", "--help"} & set(unknown):
        _help(None)
    if k is None:
        _refuse(None, "the following arguments are required: command")
    command, words = argv[k], iter(argv[k + 1:])
    if command not in _COMMANDS:
        _refuse(None, f"argument command: invalid choice: {command!r}", _COMMANDS)
    values = dict(_COMMANDS[command][2])
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
        command=command, **{flag.replace("-", "_"): v for flag, v in values.items()})


def main(argv: list | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # the command's module, loaded now; __import__ returns the submodule
    # itself when fromlist names something in it
    run = "run_" + args.command.replace("-", "_")
    module = __import__(f"{__package__}.{_COMMANDS[args.command][1]}", fromlist=[run])
    flags = _COMMANDS[args.command][2]
    try:
        # the flag values that are wrong whatever the other flags say; a
        # negative or non-finite tolerance would read as a failed verdict
        if "tolerance-soft" in flags:
            tolerance = args.tolerance_soft
            if not (math.isfinite(tolerance) and tolerance >= 0.0):
                raise InvalidParameters(
                    f"--tolerance-soft must be finite and >= 0, got {tolerance}")
        for count in ("samples", "points"):
            if count in flags and getattr(args, count) < 1:
                raise InvalidParameters(f"{count} must be >= 1")
        doc, failure = getattr(module, run)(args)
        out = _render_csv(doc) if isinstance(doc, _Table) else _render_json(doc)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    if failure:
        print(failure, file=sys.stderr)
    return 1 if failure else 0
