import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricext import InvalidParameters
from toricext import calabi as calabi_mod
from toricext import cli
from toricext import radial as radial_mod

CMD = [sys.executable, "-m", "toricext"]


def run_cli(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=240
    )


def test_import_loads_no_scipy():
    code = (
        "import sys, toricext; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=240
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


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
    assert doc["schema"] == 1
    assert doc["prng"] == "numpy-pcg64"
    assert doc["passed"] is True
    assert doc["checks"]["boundary_identities"] is True
    assert doc["checks"]["closed_form"] is True
    assert doc["checks"]["validity"] is True
    assert doc["checks"]["curvature_agreement"] is True
    assert doc["checks"]["extremality"] is True
    assert doc["checks"]["endpoint_limits"] is True
    assert doc["validity"]["minimum"] > 0.0
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
    assert doc["closed_form"]["status"] == "ok"


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


def test_example_command():
    r = run_cli("example", "--a", "0.5")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["h_second_midpoint"] == pytest.approx(-64 / 57, rel=1e-12)
    assert doc["closed_form_max_delta"] <= 1e-12
    assert doc["quadratic_form_max_delta"] <= 1e-12


def test_example_near_degenerate_geometry():
    # a/b -> 1: the boundary system degenerates, the exact solve does not
    r = run_cli("example", "--a", "0.999")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["checks"] == {"closed_form": True, "quadratic_form": True}


def test_example_rejects_unsupported_geometry():
    r = run_cli("example", "--n", "3", "--a", "0.5")
    assert r.returncode == 2
    assert r.stderr.strip()


def test_unknown_command():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_missing_command_shows_usage():
    r = run_cli()
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()


def _reference_render(obj, indent: int = 0) -> str:
    """The per-value recursive renderer the template renderer replaced."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
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
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
_text = st.one_of(
    st.text(alphabet='a%"\\\u00e9\u2202 \n{', max_size=6), st.text(max_size=4)
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
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
    [-0.0, 5e-324, 1.7e308, -1.7e308, np.float64(0.1), np.int64(3),
     np.bool_(True), "100%", {"%s": 1.0}, [], {}, [[]], "\u00e9\"\\"]
)
@settings(max_examples=300, deadline=None)
def test_renderer_matches_reference(doc):
    assert _outcome(cli._render_json, doc) == _outcome(_reference_render, doc)


@given(
    _documents,
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
         np.float32("inf"), np.array(1.0), np.array(2, dtype=np.int64)]
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_matches_per_value_rendering(fmt):
    cfg = cli.RunConfig(
        command="profile", n=3, a=0.25, b=2.0, samples=300, fmt=fmt
    )
    E = calabi_mod.solve_coefficients(3, 0.25, 2.0)
    ts = np.linspace(0.25 + 1.75e-4, 2.0 - 1.75e-4, 300)
    rows = [
        [t, f2, h2, E.A * t + E.B]
        for t, f2, h2 in zip(
            ts.tolist(),
            calabi_mod.extremal_F_second(E, ts).tolist(),
            calabi_mod.h_second(E, ts).tolist(),
        )
    ]
    if fmt == "csv":
        want = "\n".join(
            ["t,F_second,h_second,S"]
            + [",".join(_reference_render(v) for v in row) for row in rows]
        )
    else:
        want = _reference_render(
            {"schema": 1, "command": "profile", "n": 3, "a": 0.25, "b": 2.0,
             "columns": ["t", "F_second", "h_second", "S"], "rows": rows}
        )
    assert cli.run_profile(cfg) == want


def test_renderer_names_the_first_non_finite_value():
    with pytest.raises(InvalidParameters, match="non-finite value -inf"):
        cli._render_json({"a": [[1.0, -float("inf")], [float("nan"), 2.0]]})


def test_verify_evaluates_the_validity_grid_once(monkeypatch, capsys):
    real = calabi_mod.validity_check
    grids = []

    def counting(T, samples):
        grids.append(samples)
        return real(T, samples)

    for mod in (calabi_mod, cli, radial_mod):
        monkeypatch.setattr(mod, "validity_check", counting, raising=False)
    code = cli.main(["verify", "--n", "2", "--points", "20", "--samples", "300"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    assert grids == [300]
    assert doc["validity"]["minimum"] > 0.0


def test_verify_solves_the_exact_system_once(monkeypatch, capsys):
    real = calabi_mod._boundary_rows
    eliminations = []

    def counting(n, a, b):
        if isinstance(a, Fraction):
            eliminations.append((n, a, b))
        return real(n, a, b)

    monkeypatch.setattr(calabi_mod, "_boundary_rows", counting)
    calabi_mod._exact_solution.cache_clear()
    code = cli.main(["verify", "--n", "2", "--points", "20"])
    assert code == 0 and json.loads(capsys.readouterr().out)["passed"] is True
    assert len(eliminations) == 1


# --- verdicts do not depend on the overall scale of (a, b) ------------------
# (lam*a, lam*b) is (a, b) rescaled, with S -> S/lam


def _verify_doc(n, a, b, *extra):
    """The verify report for the given geometry and extra CLI options."""
    argv = ["verify", "--n", str(n), "--a", repr(a), "--b", repr(b), *extra]
    args = cli._build_parser().parse_args(argv)
    return cli._verify_battery(cli._config_from_args(args))


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
