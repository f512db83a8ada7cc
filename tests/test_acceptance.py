"""End-to-end acceptance battery.

Each test covers one advertised guarantee of the package at its stated
tolerance and prints a single [AC##] PASS/FAIL line with the measured
margin.  Run `pytest -v tests/test_acceptance.py` to see the battery as a
checklist.
"""
import json
import math
import subprocess
import sys
from fractions import Fraction

from toricext import table
from toricext.abreu import abreu_scalar_curvature
from toricext.bridge import PRESETS, _Jet, bridge_cross_check, calabi_scalar_curvature
from toricext.calabi import build_extremal_metric, positivity_certificate
from toricext.exact import (
    _closed_form,
    _exact_solution,
    coefficient_cross_check,
    solve_coefficients,
)
from toricext.numdiff import grid
from toricext.polytope import sample_interior
from toricext.radial import radial_scalar_curvature
from util import (
    as_fractions,
    boundary_rows,
    cpn_profile,
    fd_curvature_reference,
    flat_profile,
    geometric_grid,
    legendre_F,
)

CMD = [sys.executable, "-m", "toricext"]


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{tag} {detail}"


def test_criterion_01_surface_example_coefficients_match_closed_forms():
    worst = 0.0
    for a in (0.3, 0.5, 0.7):
        E = solve_coefficients(2, a, 1.0)
        q = a**3 + 3 * a**2 - 3 * a - 1
        want = (
            -24 * a / q,
            6 * (3 * a**2 - 1) / q,
            (3 * a**2 - 1) * a / q,
            -2 * a**3 / q,
        )
        for got, ref in zip((E.A, E.B, E.C, E.D), want):
            worst = max(worst, abs(got - ref) / abs(ref))
    E = solve_coefficients(2, 0.5, 1.0)
    spot = max(
        abs(E.A - 7.3846154), abs(E.B - 0.9230769),
        abs(E.C - 0.0769231), abs(E.D - 0.1538462),
    )
    ok = worst <= 1e-12 and spot <= 1e-7
    _report("AC01", ok, f"max rel delta {worst:.3e} (tol 1e-12)")


def test_criterion_02_h_second_matches_rational_profile_on_grid():
    worst = 0.0
    for a in (0.3, 0.5, 0.7):
        E = solve_coefficients(2, a, 1.0)
        ts = grid(a + 0.01 * (1 - a), 1.0 - 0.01 * (1 - a), 50)
        for t, got in zip(ts, table.profile_columns(E, ts)[1]):
            den = 2 * a * t**2 + t - a**2 * t + 2 * a * t + 2 * a**2
            want = 2 * a * (1 - a) / den - 1.0 / t
            rel = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, rel)
    _report("AC02", worst <= 1e-10, f"max rel delta {worst:.3e} (tol 1e-10)")


def test_criterion_03_boundary_interpolation_identities():
    # exact: the rational solution meets all four endpoint conditions with
    # residual 0, and the record is its rounding
    failures = []
    for n in range(1, 6):
        for a in (0.25, 0.5, 0.75):
            for b in (1.0, 2.0):
                E = solve_coefficients(n, a, b)
                exact = as_fractions(_exact_solution(n, a, b))
                rows = boundary_rows(n, Fraction(a), Fraction(b))
                if any(sum(m * x for m, x in zip(row, exact)) != row[4]
                       for row in rows):
                    failures.append((n, a, b))
                if tuple(map(float, exact)) != (E.A, E.B, E.C, E.D):
                    failures.append((n, a, b, "rounding"))
    _report("AC03", not failures, f"nonzero exact residuals at {failures} (want none)")


def test_criterion_04_three_curvature_routes_agree_at_interior_points():
    worst_fd, worst_radial = 0.0, 0.0
    for n in (2, 3):
        for a, b in ((0.5, 1.0), (0.25, 2.0)):
            T, E = build_extremal_metric(n, a, b)
            pts = sample_interior(T, 100, margin=0.05 * (b - a), seed=0)
            ts = [math.fsum(x) for x in pts]
            abreu = abreu_scalar_curvature(T, pts)
            radial = radial_scalar_curvature(n, ts, T.jet(ts))
            for t, s_abreu, s_radial in zip(ts, abreu, radial):
                want = E.A * t + E.B
                scale = max(1.0, abs(want))
                worst_fd = max(worst_fd, abs(s_abreu - want) / scale)
                worst_radial = max(worst_radial, abs(s_radial - want) / scale)
    ok = worst_fd <= 1e-5 and worst_radial <= 1e-6
    _report(
        "AC04", ok,
        f"abreu rel {worst_fd:.3e} (tol 1e-5), radial rel {worst_radial:.3e} (tol 1e-6)",
    )


def test_criterion_05_projective_profile_gives_constant_curvature():
    worst_radial, worst_fd = 0.0, 0.0
    for n in (1, 2, 3):
        T = cpn_profile(n)
        want = n * (n + 1)
        ts = grid(0.05, 0.95, 25)
        for got in radial_scalar_curvature(n, ts, T.jet(ts)):
            worst_radial = max(worst_radial, abs(got - want) / want)
        pts = sample_interior(T, 10, margin=0.05, seed=1)
        for got in abreu_scalar_curvature(T, pts):
            worst_fd = max(worst_fd, abs(got - want) / want)
    ok = worst_radial <= 1e-9 and worst_fd <= 1e-5
    _report(
        "AC05", ok,
        f"radial rel {worst_radial:.3e} (tol 1e-9), abreu rel {worst_fd:.3e} (tol 1e-5)",
    )


def test_criterion_06_flat_profile_gives_zero_curvature():
    worst = 0.0
    # the flat profile on the polytope (2, 0.5, 1)
    T = flat_profile(2, 0.5, 1.0)
    ts = grid(0.55, 0.95, 9)
    for t, got in zip(ts, radial_scalar_curvature(2, ts, T.jet(ts))):
        worst = max(worst, abs(got), abs(got - fd_curvature_reference(T, t)))
    # h=1e-3: the default step's noise floor sits at ~1.1e-8, just over the
    # line; the coarser step is well inside it without losing truncation
    pts = sample_interior(T, 10, margin=0.025, seed=2)
    worst = max(worst, *map(abs, abreu_scalar_curvature(T, pts, h=1e-3)))
    _report("AC06", worst <= 1e-8, f"max |S| {worst:.3e} (tol 1e-8)")


def test_criterion_07_legendre_bridge_matches_polytope_pipeline():
    worst_F = 0.0
    # the Fubini-Study Kahler potential and the inverse of its moment map
    f = lambda s: 0.5 * math.log1p(s)
    s_of_t = lambda t: t / (1.0 - t)
    for t in grid(0.02, 0.98, 50):
        want = (1.0 - t) * math.log(1.0 - t)
        worst_F = max(worst_F, abs(legendre_F(s_of_t, f, t) - want))
    worst_disc = 0.0
    for n in (1, 2, 3):
        for moment in PRESETS.values():
            r = bridge_cross_check(n, moment, geometric_grid(0.25, 4.0, 10))
            worst_disc = max(worst_disc, r.max_discrepancy)
    worst_flat = 0.0
    ss = geometric_grid(0.25, 4.0, 10)
    jet = [column.v for column in PRESETS["flat"](_Jet(ss, ss, ss))]
    for n in (1, 2, 3):
        worst_flat = max(worst_flat, *map(abs, calabi_scalar_curvature(n, jet)))
    ok = worst_F <= 1e-9 and worst_disc <= 1e-5 and worst_flat <= 1e-8
    _report(
        "AC07", ok,
        f"F delta {worst_F:.3e} (tol 1e-9), route delta {worst_disc:.3e} (tol 1e-5), "
        f"flat |S| {worst_flat:.3e} (tol 1e-8)",
    )


def test_criterion_08_coefficient_scaling_covariance():
    worst = 0.0
    for n in range(1, 6):
        for a, b in ((0.5, 1.0), (0.3, 1.3)):
            E = solve_coefficients(n, a, b)
            for lam in (0.5, 2.0, 10.0):
                E_lam = solve_coefficients(n, lam * a, lam * b)
                worst = max(worst, abs(E_lam.A - E.A / lam**2) / max(1.0, abs(E.A / lam**2)))
                worst = max(worst, abs(E_lam.B - E.B / lam) / max(1.0, abs(E.B / lam)))
    _report("AC08", worst <= 1e-9, f"max rel delta {worst:.3e} (tol 1e-9)")


def test_criterion_09_extremal_profiles_pass_validity_check():
    # the certificate proves 1 + t*F'' > 0 on all of (a, b), here and at
    # a/b = 1 - 1e-9, where a 1000-point float grid of 1 + t*F'' went negative
    geometries = [(n, a, b) for n in range(1, 6)
                  for a in (0.25, 0.5, 0.75) for b in (1.0, 2.0)]
    geometries += [(n, (1 - 1e-9) * b, b) for n in range(1, 6) for b in (1.0, 2.0)]
    worst = -1.0
    for n, a, b in geometries:
        _, E = build_extremal_metric(n, a, b)
        worst = max(worst, positivity_certificate(E))
    _report("AC09", worst < 0.0, f"largest Bernstein margin {worst:.3e} (want < 0)")


def test_criterion_10_closed_form_cross_check_is_hard_in_every_dimension():
    # exact equality of Calabi's closed forms and the solve, as rationals
    unequal = []
    for n in range(1, 17):
        for a, b in ((0.3, 1.0), (0.5, 1.0), (0.7, 1.0), (0.25, 2.0)):
            E = solve_coefficients(n, a, b)
            if not (as_fractions(_closed_form(n, a, b))
                    == as_fractions(_exact_solution(n, a, b))
                    and coefficient_cross_check(E) is True):
                unequal.append((n, a, b))
    _report("AC10", not unequal, f"closed form != exact solve at {unequal} (want none)")



def test_criterion_11_cli_output_byte_determinism():
    def run_twice(*args):
        outs = []
        for _ in range(2):
            r = subprocess.run(CMD + list(args), capture_output=True, timeout=240)
            assert r.returncode == 0, r.stderr.decode()
            outs.append(r.stdout)
        return outs

    d1, d2 = run_twice("derive", "--n", "2", "--a", "0.5", "--b", "1")
    v1, v2 = run_twice(
        "verify", "--n", "2", "--a", "0.5", "--b", "1",
        "--points", "30", "--seed", "0",
    )
    ok = d1 == d2 and v1 == v2
    doc = json.loads(v1)
    ok = ok and doc["passed"] is True
    _report(
        "AC11", ok,
        f"derive bytes {'match' if d1 == d2 else 'DIFFER'}, "
        f"verify bytes {'match' if v1 == v2 else 'DIFFER'}",
    )
