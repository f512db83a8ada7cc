import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricext import abreu as abreu_mod
from toricext import bridge as bridge_mod
from toricext import calabi as calabi_mod
from toricext import cli
from toricext import errors as errors_mod
from toricext import exact as exact_mod
from toricext import numdiff
from toricext import polytope as polytope_mod
from toricext import radial as radial_mod
from toricext import table as table_mod
from toricext.calabi import build_extremal_metric
from toricext.errors import GeometryError, InvalidParameters
from toricext.polytope import sample_interior
from util import as_fractions, as_integers, exact_F_second, fraction_h_second, profile

CMD = [sys.executable, "-m", "toricext"]


def run_cli(*args):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=240
    )


def _args(*argv):
    """The namespace the CLI parses from argv, for calling a command's run_*
    directly."""
    return cli._parse(list(argv))


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
        # p*t^(n-1) of the F'' column
        (["profile", "--n", "400", "--a", "1", "--b", "10", "--samples", "5"],
         "t^399 overflows a float at t = 7.74955"),
        # every t is in (1e150, 1e151): the radial curvature's t^3 overflows,
        # not t^2
        (["verify", "--n", "2", "--a", "1e150", "--b", "1e151", "--points", "10"],
         "t^3 overflows a float at t = 6.5252550345308405e+150"),
        # below the normal floats a power has lost its digits: t^3 of the
        # radial curvature was 0 here, a ZeroDivisionError, and t^(n-1) of
        # the F'' column read as an interior pole
        (["verify", "--n", "2", "--a", "5e-111", "--b", "1e-110", "--points", "10"],
         "t^3 underflows a float at t = 7.504178009755551e-111"),
        (["profile", "--n", "16", "--a", "5e-23", "--b", "1e-22", "--samples", "5"],
         "t^15 underflows a float at t = 5.0005e-23"),
        # a coefficient of the deflated Q was rounded by a bare float(): an
        # OverflowError (verify refuses Abreu's step here first)
        (["profile", "--n", "6", "--a", "1e-163", "--b", "1e-160", "--samples", "5"],
         "a coefficient of V or Q overflows a float for (n=6, a=1e-163, b=1e-160)"),
        # Abreu's h = eps^(1/4)*b squared to 0: a ZeroDivisionError
        (["verify", "--n", "1", "--a", "5e-161", "--b", "1e-160", "--points", "20"],
         "outer stencil step 1.221e-164 underflows a float when squared at"
         " [8.66079481323136e-161]"),
        # N = (t - a)(t - b)*Q of the jet left the normal floats: verify failed
        # curvature_agreement at 0.424 on a valid geometry, and phi read inf
        (["verify", "--n", "16", "--a", "5e-21", "--b", "1e-20", "--points", "20"],
         "(t - a)(t - b)*Q underflows a float at t = 9.713665754721092e-21"),
        (["verify", "--n", "14", "--a", "5e21", "--b", "1e22", "--points", "20"],
         "(t - a)(t - b)*Q overflows a float at t = 9.536615745150951e+21"),
    ],
    ids=["derive", "profile", "verify", "profile t^n",
         "verify t^3", "verify t^3 underflow", "profile t^n underflow",
         "profile float Q", "verify h^2 underflow", "verify N underflow",
         "verify N overflow"],
)
def test_overflow_is_one_error_line(argv, message):
    # a process, so that a traceback or a warning on stderr would show
    r = run_cli(*argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("format", ["csv", "json"])
def test_profile_names_the_first_non_finite_value_by_column_and_t(
    format, monkeypatch, capsys
):
    # row by row: h'' is inf at the second t, before F'' turns nan at the
    # third
    real = table_mod.profile_columns

    def broken(E, ts):
        f2, h2 = real(E, ts)
        return f2[:2] + [math.nan], h2[:1] + [math.inf, 0.0]

    monkeypatch.setattr(table_mod, "profile_columns", broken)
    ts = [0.5 + 0.5e-4, 0.75, 1.0 - 0.5e-4]
    assert cli.main(["profile", "--samples", "3", "--format", format]) == 2
    message = f"error: non-finite h_second inf at t = {ts[1]}\n"
    assert capsys.readouterr() == ("", message)


def test_profile_refuses_a_vanishing_Q_as_a_degenerate_metric(monkeypatch, capsys):
    # a valid record has Q < 0 on [a, b]; round it to a (V, Q) with Q = 0 at
    # the grid's middle t = 0.75, where phi = 0, a GeometryError (exit 1)
    monkeypatch.setattr(table_mod, "_float_deflation", lambda E: ((1.0,), (1.0, -0.75)))
    assert cli.main(["profile", "--samples", "3"]) == 1
    message = "error: deflated denominator vanishes at t = 0.75\n"
    assert capsys.readouterr() == ("", message)


def test_each_error_class_is_one_condition_with_its_builtin_base():
    # cli.main exits 2 for InvalidParameters and 1 for any other GeometryError
    bases = {
        "InvalidParameters": ValueError,
        "DomainViolation": ValueError,
        "EmptyRegion": RuntimeError,
        "DegenerateMetric": ArithmeticError,
        "BoundaryIdentityViolation": ArithmeticError,
        "PositivityViolation": ArithmeticError,
    }
    defined = {
        name: cls for name, cls in vars(errors_mod).items()
        if isinstance(cls, type) and cls.__module__ == errors_mod.__name__
    }
    assert set(defined) == {"GeometryError", *bases}
    assert GeometryError.__bases__ == (Exception,)
    for name, base in bases.items():
        assert defined[name].__bases__ == (GeometryError, base)


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


@pytest.mark.parametrize(
    "a, b, margin",
    [
        ("0.9999999999999", "1.0", "1.000310945187266e-17"),
        ("0.9999999999996", "1.0000000000004", "7.999156892424253e-17"),
    ],
    ids=["next-to-a-and-b", "next-to-b-only"],
)
def test_profile_margin_that_rounds_away_is_invalid_input(a, b, margin):
    # the margin c*1e-4 is under half an ulp of a and of b in the first
    # case, so the first grid point would sit on a and the last on b; in the
    # second a + margin moves off a (a < 1 has the finer ulp) but
    # b - margin == b
    r = run_cli("profile", "--a", a, "--b", b, "--samples", "3")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == (
        f"error: margin {margin} rounds away next to a = {a} or b = {b}\n"
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
    assert doc["schema"] == 4
    assert list(doc) == [
        "schema", "command", "inputs", "prng", "coefficients", "curvature",
        "extremality", "validity", "checks", "passed",
    ]
    assert list(doc["inputs"]) == [
        "n", "a", "b", "points", "seed", "margin", "tolerance_soft"]
    assert list(doc["curvature"]) == ["max_discrepancy", "tau_range"]
    assert list(doc["extremality"]) == [
        "gradient", "constant", "max_residual", "scaled_residual"]
    assert list(doc["checks"]) == [
        "boundary_identities", "closed_form", "validity",
        "curvature_agreement", "extremality",
    ]
    assert "validity_samples" not in doc["inputs"]
    assert doc["prng"] == "python-mt19937"
    assert doc["passed"] is True
    assert doc["checks"]["boundary_identities"] is True
    assert doc["checks"]["closed_form"] is True
    assert doc["checks"]["validity"] is True
    assert doc["checks"]["curvature_agreement"] is True
    assert doc["checks"]["extremality"] is True
    assert list(doc["validity"]) == ["bernstein_margin"]
    assert -1.0 <= doc["validity"]["bernstein_margin"] < 0.0
    assert "warnings" not in doc


@pytest.mark.parametrize(
    "n,a,b,seed",
    [(1, 0.5, 1.0, 0), (2, 0.5, 1.0, 0), (16, 1e-3, 1.0, 0), (3, 0.25, 2.0, 7),
     (8, 0.999, 1.0, 3), (4, 1e-3, 1e3, 1)],
)
def test_verify_reports_the_tau_range_it_sampled(n, a, b, seed, capsys):
    # tau = (t - a)/(b - a) over the sample points, recomputed from the
    # sampler on the same seed; the t-facet margin keeps it in [0.05, 0.95]
    code = cli.main(["verify", "--n", str(n), "--a", repr(a), "--b", repr(b),
                     "--seed", str(seed)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    T, _ = build_extremal_metric(n, a, b)
    pts = sample_interior(T, 100, margin=doc["inputs"]["margin"], seed=seed)
    taus = [(math.fsum(x) - a) / (b - a) for x in pts]
    assert doc["curvature"]["tau_range"] == [min(taus), max(taus)]
    assert 0.05 <= min(taus) <= max(taus) <= 0.95


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
    code = cli.main(["verify", "--n", str(n), "--a", str(a), "--b", str(b)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    # h'' next to the ends moves like its slope times the offset; only its
    # error against the exact value counts, relative to each |h''|
    E = exact_mod.solve_coefficients(n, a, b)
    c = b - a
    ts = [a + c * d for d in (1e-6, 5e-7, 2.5e-7)]
    ts += [b - c * d for d in (1e-6, 5e-7, 2.5e-7)]
    got = table_mod.profile_columns(E, ts)[1]
    for t, h2 in zip(ts, got):
        want = fraction_h_second(n, a, b, t)
        assert abs(Fraction(h2) - want) <= Fraction(1e-13) * abs(want)
    # h'' has finite limits at both ends: Q(a) = -p*a^(n-1)/c and
    # Q(b) = -p*b^(n-1)/c, nonzero, are the certificate's end coefficients,
    # which it keeps times n! and the deflation's scale K
    p = n * (n + 1) * (n + 2)
    A, B, C = Fraction(E.a), Fraction(E.b), Fraction(E.b) - Fraction(E.a)
    _, Q, K = exact_mod._deflation(E)
    bern = calabi_mod._bernstein_certificate(Q, E.a, E.b)
    scale = math.factorial(n) * K
    assert Fraction(bern[0], scale) == -p * A ** (n - 1) / C
    assert Fraction(bern[-1], scale) == -p * B ** (n - 1) / C


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


# thin shells: the momentum profile is (t-a)(t-b)*Q/(p*t^(n-1)) with no
# cancellation as a/b -> 1; 27 of these 36 calls failed while F'' was formed
# from p*t^n - alpha
@pytest.mark.parametrize("n", [1, 2, 8, 16])
@pytest.mark.parametrize("ratio", [0.9999, 0.99999, 0.999999])
@pytest.mark.parametrize("b", [1e-3, 1.0, 1e3])
def test_verify_passes_in_thin_shells(n, ratio, b, capsys):
    code = cli.main(["verify", "--n", str(n), "--a", repr(ratio * b), "--b", repr(b),
                     "--points", "40"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("ratio", [1 - 1e-10, 1 - 1e-12])
def test_verify_reports_in_shells_thinner_than_its_endpoint_probes(n, ratio, capsys):
    # c*delta rounds away next to both ends here; the report still prints,
    # and it names the failing soft checks
    code = cli.main(["verify", "--n", str(n), "--a", repr(ratio), "--b", "1.0",
                     "--points", "40"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1 and doc["passed"] is False
    assert captured.err == "verification failed: curvature_agreement, extremality\n"


@pytest.mark.parametrize("n", [1, 2, 8, 16])
@pytest.mark.parametrize("ratio", [0.5, 0.999, 0.99999, 0.9999999, 1 - 1e-9])
def test_profile_F_second_is_the_exact_rational_value(n, ratio, capsys):
    # the printed F'' on the default grid against the exact F'' at the same
    # float t (17 digits read back to the float printed); p*t^n - alpha by
    # cancellation was off by up to 200 % at a/b = 1 - 1e-9
    assert cli.main(["profile", "--n", str(n), "--a", repr(ratio), "--b", "1.0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 50
    E = exact_mod.solve_coefficients(n, ratio, 1.0)
    for row in rows:
        t, f2, _, _ = map(float, row.split(","))
        want = exact_F_second(E, t)
        assert abs(Fraction(f2) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("a, b", [(5e-201, 1e-200), (5e174, 1e175)])
def test_profile_F_second_at_n_1_and_extreme_b(a, b, capsys):
    # p*t^(n-1)/(t - a)/(t - b) left the normal floats before the division by
    # q ~ -1/b brought it back: inf, a refused call, at b = 1e-200, and
    # 2.0e-175 for 2.0e-171, with exit 0, at b = 1e175
    argv = ["profile", "--n", "1", "--a", repr(a), "--b", repr(b), "--samples", "3"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    E = exact_mod.solve_coefficients(1, a, b)
    for row in rows:
        t, f2, _, _ = map(float, row.split(","))
        want = exact_F_second(E, t)
        assert abs(Fraction(f2) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("b", [1e-100, 1e-80, 1e80, 1e100])
def test_verify_passes_at_extreme_scales(b, capsys):
    # S scales like 1/b, and the radial curvature's t^2 and t^3 stay inside
    # the normal floats; while F''' and F'''' were formed from p*t^n - alpha,
    # the small b ended in a ZeroDivisionError and the large b overflowed
    code = cli.main(["verify", "--n", "2", "--a", repr(0.5 * b), "--b", repr(b),
                     "--points", "40"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True


@pytest.mark.parametrize("n", range(1, 17))
def test_verify_gives_a_verdict_or_refuses_at_every_scale(n, capsys):
    # a coarse slice of b = 1e-160 .. 1e160 in every dimension: each call
    # passes or refuses its input (exit 2); a traceback or a failed verdict
    # at a valid geometry, whose curvature is right by construction, is a
    # defect of the float evaluation
    for b in (1e-160, 1e-100, 1e-40, 1e-34, 1e-26, 1e-20, 1.0, 1e22, 1e40, 1e100, 1e160):
        for ratio in (1e-3, 0.5, 0.999):
            argv = ["verify", "--n", str(n), "--a", repr(ratio * b), "--b", repr(b),
                    "--points", "20"]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2), (argv, err)
            assert (json.loads(out)["passed"] is True) if code == 0 else out == "", argv


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
    # no command reads --tolerance-hard, so the flag itself is refused
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {flag} {value}\n")


def _perturbed_D(real):
    # D moves by far less than half an ulp, so the record rounds as before
    def perturbed(n, a, b):
        A, B, C, D = as_fractions(real(n, a, b))
        return as_integers((A, B, C, D + Fraction(1e-40)))

    return perturbed


def _positive_Q(real):
    def deflation(E):
        V, Q, K = real(E)
        return V, [-q for q in Q], K

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
    assert captured.err == (
        f"error: n must be at most 16, the range verify is checked for; got {n}\n"
    )


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


def test_bridge_check_rows_are_keyed_by_the_report_columns(capsys):
    # perfbench's reference check reads row["s"], row["t"] and each side;
    # the rows are the report's fields but its max_discrepancy, in order
    assert cli.main(["bridge-check", "--n", "2", "--samples", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [p["preset"] for p in doc["presets"]] == ["flat", "fubini-study"]
    for preset in doc["presets"]:
        assert len(preset["rows"]) == 3
        for row in preset["rows"]:
            assert list(row) == [
                "s", "t", "kahler_side", "polytope_side", "difference"]


def test_preset_choices_are_the_bridge_presets():
    assert list(cli._PRESET_CHOICES) == sorted(bridge_mod.PRESETS)


@pytest.mark.parametrize("preset", ["flat", "fubini-study"])
def test_bridge_check_one_preset(preset):
    r = run_cli("bridge-check", "--n", "3", "--samples", "4", "--preset", preset)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert [p["preset"] for p in doc["presets"]] == [preset]
    assert doc["presets"][0]["passed"] is True
    assert len(doc["presets"][0]["rows"]) == 4


# max_discrepancy per preset, bit for bit as the bridge prints it with the
# presets' closed-form jets on the Kahler side and the momentum profile
# induced from the Taylor jet of t' on the polytope side; every verdict is a
# pass, and flat's two sides are exactly 0
_BRIDGE_VERDICTS = {
    (1, 5000): {"flat": 0.0, "fubini-study": 4.75175454539567e-14},
    (6, 5000): {"flat": 0.0, "fubini-study": 8.526512829121202e-14},
    (16, 10): {"flat": 0.0, "fubini-study": 1.1368683772161603e-13},
}


@pytest.mark.parametrize("n, samples", list(_BRIDGE_VERDICTS))
def test_bridge_check_verdicts_are_pinned(n, samples):
    args = _args("bridge-check", "--n", str(n), "--samples", str(samples))
    doc, failure = bridge_mod.run_bridge_check(args)
    assert (failure, doc["passed"]) == ("", True)
    got = {p["preset"]: (p["max_discrepancy"], p["passed"]) for p in doc["presets"]}
    want = _BRIDGE_VERDICTS[(n, samples)]
    assert got == {name: (worst, True) for name, worst in want.items()}


def test_bridge_check_passes_at_n_400(capsys):
    # Richardson differences of v = n*s~ - ... in s~ lost digits in
    # proportion to n, so this call failed at 3.2e-5; the Kahler side now
    # reads the closed-form jet, the polytope side the Taylor jet of t', and
    # neither differences anything
    assert cli.main(["bridge-check", "--n", "400", "--samples", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_bridge_check_refuses_a_dimension_below_one(capsys):
    # the cross-check itself refuses n < 1, after the flags are read
    assert cli.main(["bridge-check", "--n", "0"]) == 2
    assert capsys.readouterr() == ("", "error: n must be >= 1\n")


@pytest.mark.parametrize("n", [10**160, 10**400], ids=["10^160", "10^400"])
def test_bridge_check_refuses_a_dimension_past_the_float_range(n, capsys):
    # n(n + 1) overflowed a float: a traceback and exit 1, read as a failed check
    assert cli.main(["bridge-check", "--n", str(n), "--samples", "2"]) == 2
    assert capsys.readouterr() == (
        "", "error: n is past the float range: n(n + 1) overflows a float\n")


@pytest.mark.parametrize("command", ["derive", "profile"])
@pytest.mark.parametrize("n", [513, 10**48], ids=["513", "10^48"])
def test_exact_commands_refuse_a_dimension_past_the_cap(command, n, capsys):
    # derive --n 10**48 never returned, and profile at n = 600 spent 36 s in
    # the exact layer before its t^599 underflowed
    assert cli.main([command, "--n", str(n), "--a", "0.3", "--b", "1.7"]) == 2
    assert capsys.readouterr() == ("", (
        f"error: n must be at most 512, the range the exact layer is sized for; got {n}\n"))


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


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@example(1e-12)
@example(1 - 1e-12)
@example(0.5)
@settings(max_examples=60, deadline=None)
def test_example_quadratic_form_is_an_identity(a):
    doc, failure = exact_mod.run_example(_args("example", "--a", repr(a)))
    assert failure == ""
    assert doc["checks"] == {"closed_form": True, "quadratic_form": True}
    # the closed form itself at the midpoint, exactly, rounded once
    t, q = Fraction(0.5 * (a + 1.0)), Fraction(a)
    form = 2 * q * (1 - q) / (2 * q * t**2 + (1 - q**2 + 2 * q) * t + 2 * q**2) - 1 / t
    assert doc["h_second_midpoint"] == float(form)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_example_refuses_a_form_one_ulp_off(monkeypatch, capsys, slot):
    real = exact_mod._quadratic_form

    def nudged(a, s):
        # the form at a/s times s^2: den[slot]/s^2 goes to the next float up,
        # and the whole form is scaled so that it stays in integers
        num, den = real(a, s)
        up = Fraction(math.nextafter(den[slot] / (s * s), math.inf)) * s * s
        den = [d * up.denominator for d in den]
        den[slot] = up.numerator
        return num * up.denominator, den

    monkeypatch.setattr(exact_mod, "_quadratic_form", nudged)
    assert cli.main(["example", "--a", "0.5"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["checks"] == {"closed_form": True, "quadratic_form": False}
    assert doc["passed"] is False
    assert captured.err == "example check failed: quadratic_form\n"


def test_example_near_degenerate_geometry():
    # a/b -> 1: the moment system degenerates, the exact solve does not
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

# 19 settable values over the five commands, of 9 distinct flags
_FLAGS_OF = {
    "derive": {"--n", "--a", "--b"},
    "profile": {"--n", "--a", "--b", "--samples", "--format"},
    "verify": {"--n", "--a", "--b", "--points", "--seed", "--tolerance-soft"},
    "bridge-check": {"--n", "--samples", "--tolerance-soft", "--preset"},
    "example": {"--a"},
}
_ALL_FLAGS = set().union(*_FLAGS_OF.values())
# flags no command reads any more, refused by all of them
_REMOVED_FLAGS = {"--tolerance-hard", "--step"}
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
    [(c, f) for c in _FLAGS_OF
     for f in sorted((_ALL_FLAGS - _FLAGS_OF[c]) | _REMOVED_FLAGS)],
)
def test_a_flag_of_another_command_is_refused(command, flag, capsys):
    value = _VALUE.get(flag, "1")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # under the refusing command's usage line, not the top-level one
    assert captured.err.startswith(f"usage: toricext {command} [-h] ")
    assert captured.err.endswith(
        f"\ntoricext {command}: error: unrecognized arguments: {flag} {value}\n"
    )


def test_every_flag_is_read_by_some_command():
    # a flag in the table that no command reads is refused by every
    # command: an option in name only, left behind when its command let it go
    read = set().union(*(flags for _, _, flags in cli._COMMANDS.values()))
    assert set(cli._FLAGS) == read


def test_a_refused_derive_flag_prints_the_derive_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["derive", "--seed", "-5"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: toricext derive [-h] [--n N] [--a A] [--b B]\n"
        "toricext derive: error: unrecognized arguments: --seed -5\n",
    )


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["--bogus", "derive"],
            "usage: toricext [-h] {derive,profile,verify,bridge-check,example} ...\n"
            "toricext: error: unrecognized arguments: --bogus\n",
        ),
        (
            ["derive", "--bogus"],
            "usage: toricext derive [-h] [--n N] [--a A] [--b B]\n"
            "toricext derive: error: unrecognized arguments: --bogus\n",
        ),
    ],
    ids=["before the command", "after the command"],
)
def test_an_unknown_flag_is_refused_by_the_parser_it_reached(argv, stderr, capsys):
    # a flag before the command is the top-level parser's, one after it the
    # command's
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize(
    "argv", [["verify", "--se", "3"], ["bridge-check", "--tolerance", "1e-3"]]
)
def test_a_prefix_of_a_flag_is_refused(argv, capsys):
    # each prefix is unique within its command, so argparse would expand it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: toricext {argv[0]} [-h] ")


# --- the parser against the argparse parser it replaced ----------------------


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI built before it parsed argv itself."""
    parser = argparse.ArgumentParser(
        prog="toricext",
        description="extremal toric metrics on blow-ups of CP^n: "
        "derivation and numerical verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, _, defaults) in cli._COMMANDS.items():
        # no prefix spellings: a command takes its flags as written
        command = sub.add_parser(name, help=blurb, allow_abbrev=False)
        command.set_defaults(parser=command)
        for flag, default in defaults.items():
            command.add_argument(f"--{flag}", default=default, **cli._FLAGS[flag])
    return parser


def _reference_parse(argv: list) -> dict:
    """The reference's command and flag values, refused as the CLI did."""
    parser = _reference_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        refusing = parser if argv.index(args.command) else args.parser
        refusing.error(f"unrecognized arguments: {' '.join(unknown)}")
    return {k: v for k, v in vars(args).items() if k != "parser"}


def _flag_value(flag: str):
    """Values argparse reads as values: a negative number only in plain
    decimal notation, since it takes "-1e-3" for a flag."""
    spec = cli._FLAGS[flag]
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    ints = st.integers(-10**6, 10**6).map(str)
    if spec["type"] is int:
        return ints
    return st.one_of(
        ints,
        st.floats(-1e6, 1e6).map(lambda x: f"{x:.6f}"),
        st.floats(0.0, exclude_min=True).map(repr),
        st.sampled_from(["nan", "inf", "1e-3", ".5", "-.5"]),
    )


@st.composite
def _valid_argv(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = list(cli._COMMANDS[command][2])
    argv = [command]
    for _ in range(draw(st.integers(0, 8))):
        flag = draw(st.sampled_from(flags))
        value = draw(_flag_value(flag))
        argv += [f"--{flag}={value}"] if draw(st.booleans()) else [f"--{flag}", value]
    return argv


@given(_valid_argv())
@example(["derive", "--n", "-5", "--a=-0.5", "--n=3"])
@example(["verify", "--seed", "-1", "--tolerance-soft", "-.5"])
@settings(max_examples=300, deadline=None)
def test_parse_reads_what_argparse_read(argv):
    got = {k.replace("_", "-"): v for k, v in vars(cli._parse(argv)).items()}
    want = _reference_parse(argv)
    # repr: nan compares unequal to itself
    assert repr(sorted(got.items())) == repr(
        sorted((k.replace("_", "-"), v) for k, v in want.items()))


def _refusal(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--bogus"],
        ["--bogus", "derive", "--n", "3"],
        ["verify", "--points", "40", "--bogus", "7", "--x=1"],
        ["verify", "--format", "json"],
        ["profile", "--points", "3"],
        ["bridge-check", "--tolerance-hard", "nan"],
        ["verify", "--tolerance-hard", "1e-9"],
        ["verify", "--se", "3"],
        ["bridge-check", "--tolerance", "1e-3"],
        ["derive", "--n"],
        ["verify", "--points", "--seed", "1"],
        ["derive", "--n", "x"],
        ["derive", "--n=2.5"],
        ["profile", "--a", "half"],
        ["bridge-check", "--tolerance-soft="],
        ["profile", "--format", "xml"],
        ["bridge-check", "--preset=fubini_study"],
        [],
        ["--bogus"],
        ["frobnicate"],
        ["--bogus", "frobnicate", "--n", "3"],
    ],
    ids=lambda argv: " ".join(argv) or "no command",
)
def test_refusal_is_what_argparse_printed(argv, capsys, monkeypatch):
    # argparse wrapped its usage line to the terminal; at 1000 columns it
    # printed the one unwrapped line the CLI now always prints
    monkeypatch.setenv("COLUMNS", "1000")
    want = _refusal(_reference_parse, argv, capsys)
    assert want[0] == 2 and want[1] == ""
    assert _refusal(cli.main, argv, capsys) == want


@pytest.mark.parametrize(
    "argv", [["verify", "--format", "json"], ["bridge-check", "--help"]]
)
def test_output_does_not_depend_on_the_terminal_width(argv):
    runs = [
        subprocess.run(CMD + argv, capture_output=True, timeout=240,
                       env=dict(os.environ, COLUMNS=columns))
        for columns in ("40", "1000")
    ]
    narrow, wide = ((r.returncode, r.stdout, r.stderr) for r in runs)
    assert narrow == wide
    assert narrow[1] or narrow[2]


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


def test_readme_library_block_runs():
    # its assertions hold the curvature to verify's default tolerance_soft
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_module_map_names_each_module_once():
    # the modules are the API, and the map is their index
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = re.search(
        r"^Module map \(`src/toricext/`\):\n\n((?:(?:- |  ).*\n)+)", readme, re.M
    ).group(1)
    named = re.findall(r"^- `(\w+\.py)` ", block, re.M)
    files = [p.name for p in (root / "src" / "toricext").glob("*.py")]
    assert sorted(named) == sorted(set(files) - {"__init__.py"})


def _reference_render(obj, indent: int = 0) -> str:
    """The per-value recursive renderer the template renderer replaced.

    Python scalars only: a float subclass is a float, and every other number
    type is refused (``test_renderer_refuses_what_the_reference_refuses``)."""
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
        if not math.isfinite(x):
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


class _Float(float):
    """A float subclass, which the renderer takes as a float."""


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1]
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(_Float),
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
    [-0.0, 5e-324, 1.7e308, -1.7e308, _Float(0.1), 3, True, "100%",
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
        [float("nan"), float("inf"), -float("inf"), _Float("nan"), _Float("inf"),
         Fraction(1, 3), Fraction(2), Decimal("1.5"), Decimal("nan"), 1 + 0j,
         complex(2.0, 0.5), b"1.0"]
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


@given(
    lo=st.floats(0.0, 1e300, allow_subnormal=True),
    width=st.floats(0.0, 1e300, allow_subnormal=True),
    num=st.integers(1, 300),
)
@example(lo=0.75, width=0.0, num=5)
# (hi - lo)/(num - 1) underflows to 0: every point but the last is lo
@example(lo=1e-308, width=2.5e-320, num=20000)
def test_grid_is_one_formula(lo, width, num):
    """numdiff.grid: one point is lo, and a grid of zero width repeats it;
    otherwise point i is i*((hi - lo)/(num - 1)) + lo bit for bit, but the
    last, which is hi."""
    hi = lo + width
    got = list(map(float.hex, numdiff.grid(lo, hi, num)))
    if num == 1 or hi == lo:
        assert got == [lo.hex()] * num
    if num > 1:
        step = (hi - lo) / (num - 1)
        assert got == [(i * step + lo).hex() for i in range(num - 1)] + [hi.hex()]


# t_k = fl(fl(k*fl(fl(hi - lo)/(N - 1))) + lo) misses lo + (hi - lo)*k/(N - 1)
# by at most 2u*(t_k - lo) from the step and 1/2 ulp from each of the last
# two roundings, u = 2^-53: under 3 ulp of t_k (2.58 measured at the worst
# of 200 000 geometries of the draws below)
_GRID_ULPS = 3


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
    """profile's plain-float table, rendered one value at a time: its grid is
    k*step + lo with step = (hi - lo)/(N - 1) and the last point hi, bit for
    bit, within 3 ulp of the exact grid lo + (hi - lo)*k/(N - 1) at its float
    ends, and its F'' and h'' columns are ``table``'s, one t at a time; off
    the extremal solution both calls raise alike."""
    a = ratio * b
    E = exact_mod.solve_coefficients(n, a, b)
    margin = (b - a) * 1e-4
    lo, hi = a + margin, b - margin
    if samples == 1:
        ts = [lo]
    else:
        step = (hi - lo) / (samples - 1)
        ts = [k * step + lo for k in range(samples - 1)] + [hi]
    for k, t in enumerate(ts):
        exact = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * k / max(samples - 1, 1)
        assert abs(Fraction(t) - exact) <= _GRID_ULPS * Fraction(math.ulp(float(exact)))
    rows = [
        [t, *(column[0] for column in table_mod.profile_columns(E, [t])), E.A * t + E.B]
        for t in ts
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
    doc, failure = table_mod.run_profile(args)
    render = cli._render_csv if fmt == "csv" else cli._render_json
    assert (render(doc), failure) == (want, "")

    off = exact_mod.ExtremalCoefficients(
        E.n, E.a, E.b, E.A, E.B, E.C, math.nextafter(E.D, math.inf)
    )
    h_second = _answer(lambda E, ts: table_mod.profile_columns(E, ts)[1], off, ts)
    assert h_second == _answer(
        lambda E, ts: [table_mod.profile_columns(E, [t])[1][0] for t in ts], off, ts)
    assert h_second[0] is InvalidParameters


def test_renderer_names_the_first_non_finite_value():
    with pytest.raises(InvalidParameters, match="non-finite value -inf"):
        cli._render_json({"a": [[1.0, -float("inf")], [float("nan"), 2.0]]})


# a table of 1-6 columns of 1-50 floats each, and where it sits in a document
_columns = st.tuples(st.integers(1, 6), st.integers(1, 50)).flatmap(
    lambda shape: st.lists(
        st.lists(_floats, min_size=shape[1], max_size=shape[1]).map(
            lambda column: column if len(column) % 2 else tuple(column)
        ),
        min_size=shape[0],
        max_size=shape[0],
    )
)
_placements = st.sampled_from([
    lambda rows: rows,
    lambda rows: {"schema": 1, "rows": rows, "passed": True},
    lambda rows: [0.5, {"preset": "flat", "rows": rows}, rows],
])


def _table_and_rows(data, columns):
    """A _Table of the columns, keyed or not, and the rows it stands for."""
    keys = data.draw(st.one_of(
        st.none(),
        st.lists(st.one_of(_text, st.integers()), min_size=len(columns),
                 max_size=len(columns), unique_by=str),
    ))
    rows = [list(row) if keys is None else dict(zip(keys, row))
            for row in zip(*columns)]
    return cli._Table(keys, columns), rows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_table_renders_as_its_rows(data):
    columns = data.draw(_columns)
    table, rows = _table_and_rows(data, columns)
    place = data.draw(_placements)
    assert cli._render_json(place(table)) == _reference_render(place(rows))


def _message(render, doc):
    with pytest.raises(InvalidParameters) as raised:
        render(doc)
    return str(raised.value)


@given(
    st.data(),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 49),
                  st.sampled_from([math.nan, math.inf, -math.inf])),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=100, deadline=None)
def test_table_names_the_first_non_finite_value_in_document_order(data, bad):
    columns = [list(column) for column in data.draw(_columns)]
    for column, row, value in bad:
        columns[column % len(columns)][row % len(columns[0])] = value
    table, rows = _table_and_rows(data, columns)
    place = data.draw(_placements)
    want = _message(_reference_render, place(rows))
    assert want.startswith("non-finite value ")
    assert _message(cli._render_json, place(table)) == want


@pytest.mark.parametrize(
    "keys, columns",
    [
        (None, [[1.0, 2.0], [3.0, 4]]),
        (("s", "t"), [[1.0, True], [3.0, 4.0]]),
        (None, [[1.0, 2.0], [3.0]]),
        (("s", "t"), [(1.0,), (2.0, 3.0)]),
        (("s",), [[1.0], [2.0]]),
    ],
    ids=["int", "bool", "short list column", "short keyed column", "one key short"],
)
def test_table_refuses_a_non_float_or_a_ragged_column(keys, columns):
    with pytest.raises(InvalidParameters):
        cli._render_json({"rows": cli._Table(keys, columns)})


def test_verify_computes_the_certificate_once(monkeypatch, capsys):
    real = calabi_mod._bernstein_certificate
    certificates = []

    def counting(Q, a, b):
        certificates.append((a, b))
        return real(Q, a, b)

    monkeypatch.setattr(calabi_mod, "_bernstein_certificate", counting)
    code = cli.main(["verify", "--n", "2", "--points", "20"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    assert certificates == [(0.5, 1.0)]
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



def test_verify_evaluates_abreu_once_for_both_soft_checks(monkeypatch, capsys):
    # extremality and the curvature discrepancy read the same Abreu curvatures
    real = abreu_mod.abreu_scalar_curvature
    calls = []

    def counting(T, points, h=None):
        calls.append(len(points))
        return real(T, points, h)

    monkeypatch.setattr(abreu_mod, "abreu_scalar_curvature", counting)
    code = cli.main(["verify", "--n", "3", "--points", "20"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["checks"]["extremality"] is True
    assert doc["checks"]["curvature_agreement"] is True
    assert calls == [20]


# --- extremality holds Abreu's S to the extremal affine function A*t + B ----


@pytest.mark.parametrize("n,a,b", [(1, 0.5, 1.0), (3, 0.25, 2.0), (16, 0.999, 1.0)])
def test_verify_extremality_is_the_distance_to_a_t_plus_b(n, a, b, capsys):
    # the block writes A*t + B in x, and its residual is Abreu's worst miss
    # of it at the sampled points, relative to the largest radial |S|
    assert cli.main(["verify", "--n", str(n), "--a", repr(a), "--b", repr(b),
                     "--points", "40"]) == 0
    doc = json.loads(capsys.readouterr().out)
    A, B = doc["coefficients"]["A"], doc["coefficients"]["B"]
    assert doc["extremality"]["gradient"] == [A] * n
    assert doc["extremality"]["constant"] == B
    T, E = build_extremal_metric(n, a, b)
    pts = sample_interior(T, 40, margin=doc["inputs"]["margin"], seed=0)
    ts = [math.fsum(x) for x in pts]
    S = abreu_mod.abreu_scalar_curvature(T, pts)
    worst = max(abs(s - (E.A * t + E.B)) for s, t in zip(S, ts))
    assert doc["extremality"]["max_residual"] == worst
    rad = radial_mod.radial_scalar_curvature(n, ts, T.jet(ts))
    assert doc["extremality"]["scaled_residual"] == worst / max(map(abs, rad))


def _guillemin(n, a, b):
    """The metric of Guillemin's canonical potential on the shell, with the
    extremal coefficients of (n, a, b): phi = t*u/(u + t*c), u = (t - a)(b - t)
    and c = b - a, a valid metric whose S is not affine."""
    c = b - a

    def jet_at(t):
        u, du = (t - a) * (b - t), a + b - 2.0 * t
        N, dN, d2N = t * u, u + t * du, 2.0 * du - 2.0 * t
        D, dD = u + t * c, du + c
        phi = N / D
        dphi = (dN - phi * dD) / D
        return phi, dphi, (d2N - 2.0 * dphi * dD + 2.0 * phi) / D

    return profile(n, a, b, jet_at), exact_mod.solve_coefficients(n, a, b)


def _neighbour(n, a, b):
    """The extremal metric of the class (n, a*(1 - 1e-3), b), reported with
    the coefficients of (n, a, b): its S is affine, but not A*t + B."""
    T, _ = build_extremal_metric(n, a * (1.0 - 1e-3), b)
    return T, exact_mod.solve_coefficients(n, a, b)


@pytest.mark.parametrize(
    "metric, n, a, b",
    [(_guillemin, 2, 0.5, 1.0), (_guillemin, 4, 0.3, 1.0), (_guillemin, 8, 0.25, 2.0),
     (_neighbour, 2, 0.5, 1.0), (_neighbour, 4, 0.3, 1.0)],
    ids=["guillemin-2", "guillemin-4", "guillemin-8", "neighbour-2", "neighbour-4"],
)
def test_verify_extremality_fails_a_metric_that_is_not_extremal(
    metric, n, a, b, monkeypatch, capsys
):
    # each metric is consistent, so Abreu's and the radial S agree; only
    # extremality sees that S is not A*t + B.  An affine fit of S passed the
    # neighbouring class (1.6e-7 and 2.2e-8 of max |S|)
    monkeypatch.setattr(calabi_mod, "build_extremal_metric", metric)
    code = cli.main(["verify", "--n", str(n), "--a", repr(a), "--b", repr(b)])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1 and captured.err == "verification failed: extremality\n"
    assert doc["checks"]["curvature_agreement"] is True
    assert doc["extremality"]["scaled_residual"] > 10.0 * doc["inputs"]["tolerance_soft"]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_verify_needs_one_point(n, capsys):
    # every check is pointwise, so one point is enough; no point is invalid
    # input, refused before any work and before the dimension cap
    for m in (n, 17):
        assert cli.main(["verify", "--n", str(m), "--points", "0"]) == 2
        assert capsys.readouterr() == ("", "error: points must be >= 1\n")
    assert cli.main(["verify", "--n", str(n), "--points", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_verify_measures_affinely_dependent_points(n, monkeypatch, capsys):
    # every point moved along its ray to one t: the points span no affine
    # basis of R^n, which an affine fit cannot take, but S is still held
    # to A*t + B there
    real = polytope_mod.sample_interior

    def on_one_level(T, count, margin, seed):
        level = 0.5 * (T.t_min + T.t_max)
        return [[v * (level / math.fsum(x)) for v in x]
                for x in real(T, count, margin=margin, seed=seed)]

    monkeypatch.setattr(polytope_mod, "sample_interior", on_one_level)
    assert cli.main(["verify", "--n", str(n), "--points", str(3 * n + 3)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["curvature"]["tau_range"][0] == pytest.approx(0.5, abs=1e-15)
    assert doc["curvature"]["tau_range"][1] == pytest.approx(0.5, abs=1e-15)


# --- verdicts do not depend on the overall scale of (a, b) ------------------
# (lam*a, lam*b) is (a, b) rescaled, with S -> S/lam


def _verify_doc(n, a, b, *extra):
    """The verify report for the given geometry and extra CLI options."""
    return calabi_mod._verify_battery(
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
