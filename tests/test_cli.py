import json
import math
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricext import GeometryError, InvalidParameters
from toricext import calabi as calabi_mod
from toricext import cli
from toricext import exact as exact_mod
from toricext import table as table_mod
from util import array_F_second, array_h_second

CMD = [sys.executable, "-m", "toricext"]


def run_cli(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=240
    )


def _args(*argv):
    """The namespace the CLI parses from argv, for calling a run_* directly."""
    return cli._build_parser().parse_args(argv)


def test_derive_reference_case():
    r = run_cli("derive", "--n", "2", "--a", "0.5", "--b", "1")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert set(doc) == {"n", "a", "b", "p", "A", "B", "C", "D", "S"}
    assert doc["n"] == 2 and doc["p"] == 24
    assert doc["A"] == pytest.approx(96 / 13, rel=1e-14)
    assert doc["B"] == pytest.approx(12 / 13, rel=1e-14)
    assert doc["C"] == pytest.approx(1 / 13, rel=1e-14)
    assert doc["D"] == pytest.approx(2 / 13, rel=1e-14)
    assert doc["S"] == "A*t+B"


def test_derive_is_byte_deterministic():
    first = run_cli("derive", "--n", "3", "--a", "0.25", "--b", "2")
    second = run_cli("derive", "--n", "3", "--a", "0.25", "--b", "2")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["derive", "--n", "0", "--a", "0.5", "--b", "1"],
        ["derive", "--n", "2", "--a", "1.5", "--b", "1"],
        ["derive", "--n", "2", "--a", "-0.5", "--b", "1"],
    ],
)
def test_derive_invalid_parameters(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip()


_COEFFICIENT_OVERFLOW = ["--n", "2", "--a", "1e-200", "--b", "2e-200"]


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            ([command, *_COEFFICIENT_OVERFLOW],
             "coefficient A overflows a float for (n=2, a=1e-200, b=2e-200)")
            for command in ("derive", "profile", "verify")
        ),
        (["profile", "--n", "400", "--a", "1", "--b", "10", "--samples", "5"],
         "t^400 overflows a float at t = 7.74955"),
        # every t is in (1e150, 1e151): the square of beta overflows, not t^2
        (["verify", "--n", "2", "--a", "1e150", "--b", "1e151", "--points", "10"],
         "(p*t^n - alpha)^2 overflows a float at t = 6.5252550345308405e+150"),
    ],
    ids=["derive", "profile", "verify", "profile t^n", "verify beta^2"],
)
def test_overflow_is_one_error_line(argv, message):
    # a process, so that a traceback or a numpy warning on stderr would show
    r = run_cli(*argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


def test_profile_csv():
    r = run_cli("profile", "--n", "2", "--a", "0.5", "--b", "1", "--samples", "20")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "t,F_second,h_second,S"
    assert len(lines) == 21
    ts = [float(row.split(",")[0]) for row in lines[1:]]
    assert all(x < y for x, y in zip(ts, ts[1:]))
    assert 0.5 < ts[0] < ts[-1] < 1.0
    # S column is affine: A t + B
    for row in lines[1:]:
        t, _, _, s = map(float, row.split(","))
        assert s == pytest.approx(96 / 13 * t + 12 / 13, rel=1e-12)


@pytest.mark.parametrize("step", ["1e-20", "5e-17"])
def test_profile_margin_that_rounds_away_is_invalid_input(step):
    # 0.5 + 1e-20 == 0.5: the first grid point would sit on a itself, and
    # 1.0 - 5e-17 == 1.0 puts the last one on b
    r = run_cli("profile", "--step", step)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (
        f"error: margin {float(step)} rounds away next to a = 0.5 or b = 1.0\n"
    )


def test_profile_json():
    r = run_cli(
        "profile", "--n", "2", "--a", "0.5", "--b", "1",
        "--samples", "5", "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["schema"] == 1
    assert doc["columns"] == ["t", "F_second", "h_second", "S"]
    assert len(doc["rows"]) == 5
    assert all(len(row) == 4 for row in doc["rows"])


def test_verify_reference_case():
    r = run_cli("verify", "--n", "2", "--a", "0.5", "--b", "1", "--points", "40")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["schema"] == 2
    assert list(doc) == [
        "schema", "command", "inputs", "prng", "coefficients", "curvature",
        "extremality", "validity", "endpoint_limits", "checks", "passed",
    ]
    assert "validity_samples" not in doc["inputs"]
    assert doc["prng"] == "python-mt19937"
    assert doc["passed"] is True
    assert doc["checks"]["boundary_identities"] is True
    assert doc["checks"]["closed_form"] is True
    assert doc["checks"]["validity"] is True
    assert doc["checks"]["curvature_agreement"] is True
    assert doc["checks"]["extremality"] is True
    assert doc["checks"]["endpoint_limits"] is True
    assert list(doc["validity"]) == ["bernstein_margin"]
    assert -1.0 <= doc["validity"]["bernstein_margin"] < 0.0
    assert "warnings" not in doc


def test_verify_is_byte_deterministic():
    args = ["verify", "--n", "2", "--a", "0.5", "--b", "1",
            "--points", "25", "--seed", "3"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_higher_dimension_closed_form_is_hard():
    r = run_cli("verify", "--n", "3", "--a", "0.5", "--b", "1", "--points", "20")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["checks"]["closed_form"] is True


def test_verify_second_geometry():
    r = run_cli("verify", "--n", "3", "--a", "0.25", "--b", "2", "--points", "20")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["passed"] is True


@pytest.mark.parametrize(
    "n,a,b",
    [(5, 0.25, 2.0), (6, 0.25, 2.0)]
    + [(n, a, 1.0) for a in (1e-3, 1e-6) for n in range(1, 6)],
)
def test_verify_passes_where_h_second_is_right_at_the_ends(n, a, b, capsys):
    # h'' next to the ends moves like its slope times the offset; only its
    # error against the exact value counts
    code = cli.main(["verify", "--n", str(n), "--a", str(a), "--b", str(b)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    limits = doc["endpoint_limits"]
    assert limits["max_error"] <= 1e-13
    # Q(a) = -p*a^(n-1)/c and Q(b) = -p*b^(n-1)/c, nonzero
    p = n * (n + 1) * (n + 2)
    want = [-p * a ** (n - 1) / (b - a), -p * b ** (n - 1) / (b - a)]
    assert limits["denominator_at_ends"] == pytest.approx(want, rel=1e-14)


# the four (a, b) cover a/b -> 0, a/b -> 1 and b != 1; every dimension up to
# MAX_DIMENSION runs, all four geometries only where verify is cheap or the
# dimension is the largest
_SPREAD = [(1e-3, 1.0), (0.5, 1.0), (0.999, 1.0), (0.25, 2.0)]


@pytest.mark.parametrize(
    "n,a,b",
    [(n, a, b) for n in range(1, 9) for a, b in _SPREAD]
    + [(n, *_SPREAD[n % 4]) for n in range(9, 16)]
    + [(16, a, b) for a, b in _SPREAD],
)
def test_verify_passes_across_the_dimension_range(n, a, b, capsys):
    code = cli.main(["verify", "--n", str(n), "--a", str(a), "--b", str(b),
                     "--points", "40"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True


def test_verify_is_byte_deterministic_at_the_largest_dimension(capsys):
    argv = ["verify", "--n", "16", "--a", "0.999", "--b", "1", "--points", "40"]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_impossible_tolerance_names_the_check():
    r = run_cli(
        "verify", "--n", "2", "--a", "0.5", "--b", "1",
        "--points", "20", "--tolerance-soft", "1e-18",
    )
    assert r.returncode == 1
    assert "curvature_agreement" in r.stderr or "extremality" in r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is False


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("bridge-check", "--tolerance-hard"),
        ("bridge-check", "--tolerance-soft"),
        ("verify", "--tolerance-hard"),
        ("verify", "--tolerance-soft"),
    ],
)
def test_bad_tolerance_is_invalid_input(command, flag, value, capsys):
    # a negative tolerance would read as a failed verdict (exit 1)
    if flag in _FLAGS_OF[command]:
        assert cli.main([command, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag} must be finite and >= 0, got {float(value)}\n"
        )
        return
    # bridge-check never reads --tolerance-hard, so the flag itself is refused
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


def _perturbed_D(real):
    # D moves by far less than half an ulp, so the record rounds as before
    def perturbed(n, a, b):
        A, B, C, D = real(n, a, b)
        return A, B, C, D + Fraction(1e-40)

    return perturbed


def _positive_Q(real):
    def deflation(E):
        V, Q = real(E)
        return V, [-q for q in Q]

    return deflation


@pytest.mark.parametrize(
    "name, patch, key",
    [
        ("_exact_solution", _perturbed_D, "boundary_identities"),
        ("_deflation", _positive_Q, "validity"),
    ],
)
def test_failed_proof_names_its_report_key(monkeypatch, capsys, name, patch, key):
    # a failed proof ends the call before any report is printed
    monkeypatch.setattr(exact_mod, name, patch(getattr(exact_mod, name)))
    assert cli.main(["verify", "--n", "2", "--points", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "n, a", [(17, "0.5"), (60, "0.5"), (19, "1e-6"), (20, "1e-6")]
)
def test_verify_refuses_a_dimension_past_the_cap(n, a, capsys):
    # from n = 39 at a = 0.5, and from n = 20 as a -> 0, the sampler's region
    # is empty, so checking later would read as a failed verdict (exit 1)
    assert cli.main(["verify", "--n", str(n), "--a", a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dense inversion limited to n <= 16, got {n}\n"


def test_verify_rejects_a_negative_seed():
    # random.Random(-1) would silently draw seed 1's points
    r = run_cli("verify", "--points", "10", "--seed", "-1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: seed must be >= 0\n"


def test_bridge_check_both_presets():
    r = run_cli("bridge-check", "--n", "2", "--samples", "6")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    names = [p["preset"] for p in doc["presets"]]
    assert names == ["flat", "fubini-study"]
    for p in doc["presets"]:
        assert p["passed"] is True
        assert len(p["rows"]) == 6


def test_preset_choices_are_the_bridge_presets():
    from toricext import bridge as bridge_mod

    assert list(cli._PRESET_CHOICES) == sorted(bridge_mod.PRESETS)


@pytest.mark.parametrize("preset", ["flat", "fubini-study"])
def test_bridge_check_one_preset(preset):
    r = run_cli("bridge-check", "--n", "3", "--samples", "4", "--preset", preset)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert [p["preset"] for p in doc["presets"]] == [preset]
    assert doc["presets"][0]["passed"] is True
    assert len(doc["presets"][0]["rows"]) == 4


# max_discrepancy per preset, bit for bit as the numpy array implementation of
# the bridge printed it; every verdict is a pass
_BRIDGE_VERDICTS = {
    (1, 5000): {"flat": 3.056978671884477e-09, "fubini-study": 1.8159571624210002e-09},
    (6, 5000): {"flat": 1.5288382114158396e-08, "fubini-study": 6.236327010356035e-09},
    (16, 10): {"flat": 5.1995760272047475e-08, "fubini-study": 2.6658426577341743e-08},
}


@pytest.mark.parametrize("n, samples", list(_BRIDGE_VERDICTS))
def test_bridge_check_verdicts_are_pinned(n, samples):
    args = _args("bridge-check", "--n", str(n), "--samples", str(samples))
    out, code, err = cli.run_bridge_check(args)
    doc = json.loads(out)
    assert (code, err, doc["passed"]) == (0, "", True)
    got = {p["preset"]: (p["max_discrepancy"], p["passed"]) for p in doc["presets"]}
    want = _BRIDGE_VERDICTS[(n, samples)]
    assert got == {name: (worst, True) for name, worst in want.items()}


def test_bridge_check_rejects_an_unknown_preset():
    r = run_cli("bridge-check", "--preset", "fubini_study")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "invalid choice" in r.stderr


def test_example_command():
    r = run_cli("example", "--a", "0.5")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["schema"] == 3
    assert list(doc) == [
        "schema", "command", "a", "coefficients", "h_second_midpoint",
        "checks", "passed",
    ]
    # h'' at t = 3/4, exact and rounded once
    assert doc["h_second_midpoint"] == float(Fraction(-64, 57))
    assert doc["checks"] == {"closed_form": True, "quadratic_form": True}


def _example_doc(a):
    out, code, err = cli.run_example(_args("example", "--a", repr(a)))
    return json.loads(out), code, err


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(1e-12)
@example(1 - 1e-12)
@example(0.5)
@settings(max_examples=60, deadline=None)
def test_example_quadratic_form_is_an_identity(a):
    doc, code, err = _example_doc(a)
    assert (code, err) == (0, "")
    assert doc["checks"] == {"closed_form": True, "quadratic_form": True}
    # the closed form itself at the midpoint, exactly, rounded once
    t, q = Fraction(0.5 * (a + 1.0)), Fraction(a)
    form = 2 * q * (1 - q) / (2 * q * t**2 + (1 - q**2 + 2 * q) * t + 2 * q**2) - 1 / t
    assert doc["h_second_midpoint"] == float(form)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_example_refuses_a_form_one_ulp_off(monkeypatch, capsys, slot):
    real = exact_mod._quadratic_form

    def nudged(a):
        num, den = real(a)
        den[slot] = Fraction(math.nextafter(float(den[slot]), math.inf))
        return num, den

    monkeypatch.setattr(exact_mod, "_quadratic_form", nudged)
    assert cli.main(["example", "--a", "0.5"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["checks"] == {"closed_form": True, "quadratic_form": False}
    assert doc["passed"] is False
    assert captured.err == "example check failed: quadratic_form\n"


def test_example_near_degenerate_geometry():
    # a/b -> 1: the boundary system degenerates, the exact solve does not
    r = run_cli("example", "--a", "0.999")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["checks"] == {"closed_form": True, "quadratic_form": True}


def test_example_rejects_unsupported_geometry():
    # example is the n = 2, b = 1 slice: it has no --n or --b to set
    r = run_cli("example", "--n", "3", "--a", "0.5")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments: --n 3" in r.stderr


def test_unknown_command():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_missing_command_shows_usage():
    r = run_cli()
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


# --- each command takes only the flags it reads -----------------------------

# 21 settable values over the five commands, of 11 distinct flags
_FLAGS_OF = {
    "derive": {"--n", "--a", "--b"},
    "profile": {"--n", "--a", "--b", "--samples", "--step", "--format"},
    "verify": {"--n", "--a", "--b", "--points", "--seed",
               "--tolerance-hard", "--tolerance-soft"},
    "bridge-check": {"--n", "--samples", "--tolerance-soft", "--preset"},
    "example": {"--a"},
}
_ALL_FLAGS = set().union(*_FLAGS_OF.values())
# a value each flag's own command accepts, so a refusal is of the flag itself
_VALUE = {"--format": "json", "--preset": "flat"}


@pytest.mark.parametrize("command", list(_FLAGS_OF))
def test_help_lists_exactly_the_flags_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert shown == _FLAGS_OF[command] | {"--help"}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in _FLAGS_OF for f in sorted(_ALL_FLAGS - _FLAGS_OF[c])],
)
def test_a_flag_of_another_command_is_refused(command, flag, capsys):
    value = _VALUE.get(flag, "1")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize(
    "argv", [["verify", "--se", "3"], ["bridge-check", "--tolerance", "1e-3"]]
)
def test_a_prefix_of_a_flag_is_refused(argv, capsys):
    # each prefix is unique within its command, so argparse would expand it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _readme_sessions():
    """(argv, stdout) of each README code block that starts with ``$ toricext``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    session = r"^```text\n\$ toricext ([^\n]*)\n(.*?)^```$"
    return [
        pytest.param(shlex.split(command), output, id=command.split()[0])
        for command, output in re.findall(session, readme, re.M | re.S)
    ]


def test_readme_has_cli_sessions():
    commands = [session.values[0][0] for session in _readme_sessions()]
    assert {"derive", "profile"} <= set(commands)


@pytest.mark.parametrize("argv, output", _readme_sessions())
def test_readme_session_is_what_the_cli_prints(argv, output, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == output


def _reference_render(obj, indent: int = 0) -> str:
    """The per-value recursive renderer the template renderer replaced.

    Python scalars only: numpy's float64 is a float, and every other numpy
    scalar is refused (``test_renderer_refuses_what_the_reference_refuses``)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        x = float(obj)
        if not np.isfinite(x):
            raise InvalidParameters(f"non-finite value {x} in output")
        return f"{x:.16e}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_reference_render(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        rows = [f"{inner}{_reference_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise InvalidParameters(f"unserializable value of type {type(obj)!r}")


def _outcome(render, doc):
    try:
        return render(doc)
    except InvalidParameters:
        return InvalidParameters


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1]
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
)
_text = st.one_of(
    st.text(alphabet='a%"\\\u00e9\u2202 \n{', max_size=6), st.text(max_size=4)
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    _text,
)
# 1, 1.0 and True are one dict key but print as three different ones
_keys = st.sampled_from(["s", "t", "%d", 'q"', "\u00e9", 1, 1.0, True])
# rows of a few fixed shapes, so that runs form and break
_rows = st.one_of(
    st.lists(_floats, min_size=2, max_size=2),
    st.lists(_floats, min_size=4, max_size=4).map(tuple),
    st.fixed_dictionaries({"s": _floats, "t": _floats}),
    st.dictionaries(_keys, _floats, min_size=1, max_size=3),
    st.sampled_from([1, 1.0, True]).map(lambda k: {k: 0.5}),
    st.lists(_scalars, max_size=3),
    st.dictionaries(_keys, _scalars, max_size=2),
    _scalars,
)
_documents = st.recursive(
    st.one_of(_scalars, st.lists(_rows, max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(_text, st.integers()), children, max_size=4),
    ),
    max_leaves=40,
)


@given(_documents)
@example([{1: 0.5}, {1.0: 0.5}, {True: 0.5}])
@example({"rows": [[1.0, 2.0], [3.0, 4.0], [5, 6.0], [7.0, 8.0], (9.0, 1.0), [2.0]]})
@example(
    [-0.0, 5e-324, 1.7e308, -1.7e308, np.float64(0.1), 3, True, "100%",
     {"%s": 1.0}, [], {}, [[]], "\u00e9\"\\"]
)
@settings(max_examples=300, deadline=None)
def test_renderer_matches_reference(doc):
    # every document drawn here renders, so rendered bytes are compared
    want = _outcome(_reference_render, doc)
    assert want is not InvalidParameters
    assert _outcome(cli._render_json, doc) == want


@given(
    _documents,
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
         np.float32("inf"), np.array(1.0), np.array(2, dtype=np.int64),
         np.bool_(True), np.int64(3), np.float32(1.0)]
    ),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_renderer_refuses_what_the_reference_refuses(doc, bad, where):
    # a bad value alone, inside a row of a run, in a dict row, or after doc
    rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    placed = [
        bad,
        {"rows": rows[:1] + [[bad, 2.5]] + rows[1:]},
        [{"s": 1.0, "t": 2.0}, {"s": 3.0, "t": bad}],
        [doc, bad],
    ][where]
    assert _outcome(_reference_render, placed) is InvalidParameters
    assert _outcome(cli._render_json, placed) is InvalidParameters


def _answer(fn, *args):
    """fn(*args) as a list, or the type and message of the error it raised."""
    try:
        return list(fn(*args))
    except GeometryError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@given(
    n=st.integers(min_value=1, max_value=16),
    b=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.sampled_from([1e-3, 0.999]), st.floats(min_value=1e-3, max_value=0.999)
    ),
    samples=st.sampled_from([1, 2, 3, 300]),
)
@example(n=3, b=2.0, ratio=0.125, samples=300)
@settings(max_examples=100, deadline=None)
def test_profile_matches_per_value_rendering(fmt, n, b, ratio, samples):
    """profile's plain-float table is the numpy array evaluation, bit for
    bit, rendered one value at a time; off the extremal solution both paths
    raise alike."""
    a = ratio * b
    E = calabi_mod.solve_coefficients(n, a, b)
    margin = (b - a) * 1e-4
    ts = np.linspace(a + margin, b - margin, samples)
    rows = [
        [t, f2, h2, E.A * t + E.B]
        for t, f2, h2 in zip(
            ts.tolist(),
            array_F_second(E, ts).tolist(),
            array_h_second(E, ts).tolist(),
        )
    ]
    if fmt == "csv":
        want = "\n".join(
            ["t,F_second,h_second,S"]
            + [",".join(_reference_render(v) for v in row) for row in rows]
        )
    else:
        want = _reference_render(
            {"schema": 1, "command": "profile", "n": n, "a": a, "b": b,
             "columns": ["t", "F_second", "h_second", "S"], "rows": rows}
        )
    args = _args("profile", "--n", str(n), "--a", repr(a), "--b", repr(b),
                 "--samples", str(samples), "--format", fmt)
    assert cli.run_profile(args) == (want, 0, "")

    off = calabi_mod.ExtremalCoefficients(
        E.n, E.a, E.b, E.A, E.B, E.C, math.nextafter(E.D, math.inf)
    )
    for arrays, plain in (
        (array_F_second, table_mod.F_second),
        (array_h_second, table_mod.h_second),
    ):
        assert _answer(plain, off, ts.tolist()) == _answer(arrays, off, ts)
    assert _answer(table_mod.h_second, off, ts.tolist())[0] is InvalidParameters


def test_renderer_names_the_first_non_finite_value():
    with pytest.raises(InvalidParameters, match="non-finite value -inf"):
        cli._render_json({"a": [[1.0, -float("inf")], [float("nan"), 2.0]]})


def test_verify_computes_the_certificate_once(monkeypatch, capsys):
    real = exact_mod._bernstein_certificate
    certificates = []

    def counting(Q, a, b):
        certificates.append((a, b))
        return real(Q, a, b)

    monkeypatch.setattr(exact_mod, "_bernstein_certificate", counting)
    code = cli.main(["verify", "--n", "2", "--points", "20"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    assert certificates == [(Fraction(1, 2), Fraction(1))]
    assert doc["validity"]["bernstein_margin"] < 0.0


@pytest.mark.parametrize(
    "argv", [["verify", "--n", "3", "--points", "20"], ["example"]]
)
def test_output_does_not_depend_on_assert_statements(argv):
    # python -O strips assert statements: no check may live in one
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "toricext", *argv],
                       capture_output=True, timeout=240)
        for flags in ([], ["-O"])
    ]
    plain, optimized = ((r.stdout, r.stderr, r.returncode) for r in runs)
    assert plain == optimized
    assert plain[2] == 0



def test_verify_solves_the_exact_system_once(monkeypatch, capsys):
    real = exact_mod._boundary_rows
    eliminations = []

    def counting(n, a, b):
        if isinstance(a, Fraction):
            eliminations.append((n, a, b))
        return real(n, a, b)

    monkeypatch.setattr(exact_mod, "_boundary_rows", counting)
    exact_mod._exact_solution.cache_clear()
    code = cli.main(["verify", "--n", "2", "--points", "20"])
    assert code == 0 and json.loads(capsys.readouterr().out)["passed"] is True
    assert len(eliminations) == 1


# --- verdicts do not depend on the overall scale of (a, b) ------------------
# (lam*a, lam*b) is (a, b) rescaled, with S -> S/lam


def _verify_doc(n, a, b, *extra):
    """The verify report for the given geometry and extra CLI options."""
    return cli._verify_battery(
        _args("verify", "--n", str(n), "--a", repr(a), "--b", repr(b), *extra)
    )


@pytest.mark.parametrize("tolerance", ["1e-5", "1e-7"])
@pytest.mark.parametrize(
    "n,ratio", [(1, 1e-3), (2, 0.5), (3, 0.9), (4, 0.05), (6, 0.25), (8, 0.999)]
)
def test_verify_is_covariant_under_power_of_two_rescaling(n, ratio, tolerance):
    # scaling by 2^k is exact in floating point, so every step and sample
    # point scales exactly and the relative discrepancy must not move a bit
    extra = ("--points", "40", "--tolerance-soft", tolerance)
    base = _verify_doc(n, ratio, 1.0, *extra)
    if (n, ratio, tolerance) == (2, 0.5, "1e-7"):
        # the reference geometry fails here, so it must fail at every scale;
        # an absolute floor left in the check would let some scale pass
        assert base["checks"]["curvature_agreement"] is False
    for k in (-10, -3, 4, 10):
        lam = 2.0**k
        doc = _verify_doc(n, ratio * lam, lam, *extra)
        assert doc["curvature"] == base["curvature"]
        assert doc["checks"] == base["checks"]


@given(
    n=st.integers(1, 8),
    ratio=st.floats(1e-3, 0.999),
    log_lam=st.floats(math.log(1e-3), math.log(1e3)),
)
@settings(max_examples=12, deadline=None)
def test_verify_verdict_is_scale_free(n, ratio, log_lam):
    lam = math.exp(log_lam)
    base = _verify_doc(n, ratio, 1.0, "--points", "40")
    scaled = _verify_doc(n, ratio * lam, lam, "--points", "40")
    assert scaled["checks"] == base["checks"]
    assert base["passed"] is True


@pytest.mark.parametrize(
    "n,a,b", [(2, 0.0706, 0.1396), (6, 0.0639, 0.1111), (2, 0.0447, 0.2392)]
)
def test_small_b_geometries_pass_on_every_seed(n, a, b):
    # these failed curvature_agreement on 10-26 of the 30 seeds while a
    # floor of 1 measured their small-b discrepancy in absolute terms
    for seed in range(30):
        doc = _verify_doc(n, a, b, "--points", "100", "--seed", str(seed))
        assert doc["passed"] is True, (seed, doc["checks"])
