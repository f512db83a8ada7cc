"""End-to-end acceptance battery.

Each test covers one advertised guarantee of the package at its stated
tolerance and prints a single [AC##] PASS/FAIL line with the measured
margin.  Run `pytest -v tests/test_acceptance.py` to see the battery as a
checklist.
"""
import json
import subprocess
import sys

import numpy as np

from toricext import (
    SymplecticPotential,
    abreu_scalar_curvature,
    alpha_eval,
    bridge_cross_check,
    build_blowup_polytope,
    build_extremal_metric,
    calabi_scalar_curvature,
    closed_form_coefficients,
    coefficient_cross_check,
    flat_potential,
    fubini_study_potential,
    F_of_t,
    h_second,
    radial_scalar_curvature,
    sample_interior,
    solve_coefficients,
    validity_check,
)
from util import cpn_profile, flat_profile, simplex_polytope

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
        for t in np.linspace(a + 0.01 * (1 - a), 1.0 - 0.01 * (1 - a), 50):
            t = float(t)
            den = 2 * a * t**2 + t - a**2 * t + 2 * a * t + 2 * a**2
            want = 2 * a * (1 - a) / den - 1.0 / t
            rel = abs(h_second(E, t) - want) / max(1.0, abs(want))
            worst = max(worst, rel)
    _report("AC02", worst <= 1e-10, f"max rel delta {worst:.3e} (tol 1e-10)")


def test_criterion_03_boundary_interpolation_identities():
    worst = 0.0
    for n in range(1, 6):
        for a in (0.25, 0.5, 0.75):
            for b in (1.0, 2.0):
                E = solve_coefficients(n, a, b)
                p = E.p
                targets = [
                    (alpha_eval(E, a)[0], p * a**n),
                    (alpha_eval(E, a)[1], (n - 1) * p * a ** (n - 1)),
                    (alpha_eval(E, b)[0], p * b**n),
                    (alpha_eval(E, b)[1], (n + 1) * p * b ** (n - 1)),
                ]
                for got, want in targets:
                    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report("AC03", worst <= 1e-9, f"max rel residual {worst:.3e} (tol 1e-9)")


def test_criterion_04_three_curvature_routes_agree_at_interior_points():
    worst_fd, worst_radial = 0.0, 0.0
    for n in (2, 3):
        for a, b in ((0.5, 1.0), (0.25, 2.0)):
            P, T, E = build_extremal_metric(n, a, b)
            S = SymplecticPotential.from_radial(P, T)
            pts = sample_interior(P, 100, margin=0.05 * (b - a), seed=0)
            for x in pts:
                t = float(np.sum(x))
                want = E.A * t + E.B
                scale = max(1.0, abs(want))
                worst_fd = max(
                    worst_fd, abs(abreu_scalar_curvature(S, x) - want) / scale
                )
                worst_radial = max(
                    worst_radial,
                    abs(radial_scalar_curvature(T, t) - want) / scale,
                )
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
        for t in np.linspace(0.05, 0.95, 25):
            got = radial_scalar_curvature(T, float(t), method="analytic")
            worst_radial = max(worst_radial, abs(got - want) / want)
        S = SymplecticPotential.from_radial(simplex_polytope(n), T)
        pts = sample_interior(simplex_polytope(n), 10, margin=0.05, seed=1)
        for x in pts:
            got = abreu_scalar_curvature(S, x)
            worst_fd = max(worst_fd, abs(got - want) / want)
    ok = worst_radial <= 1e-9 and worst_fd <= 1e-5
    _report(
        "AC05", ok,
        f"radial rel {worst_radial:.3e} (tol 1e-9), abreu rel {worst_fd:.3e} (tol 1e-5)",
    )


def test_criterion_06_flat_profile_gives_zero_curvature():
    worst = 0.0
    T = flat_profile(2)
    for t in np.linspace(0.55, 0.95, 9):
        worst = max(worst, abs(radial_scalar_curvature(T, float(t))))
        worst = max(worst, abs(radial_scalar_curvature(T, float(t), method="fd")))
    P = build_blowup_polytope(2, 0.5, 1.0)
    S = SymplecticPotential.from_radial(P, T)
    # h=1e-3: the default step's noise floor sits at ~1.1e-8, just over the
    # line; the coarser step is well inside it without losing truncation
    for x in sample_interior(P, 10, margin=0.025, seed=2):
        worst = max(worst, abs(abreu_scalar_curvature(S, x, h=1e-3)))
    _report("AC06", worst <= 1e-8, f"max |S| {worst:.3e} (tol 1e-8)")


def test_criterion_07_legendre_bridge_matches_polytope_pipeline():
    worst_F = 0.0
    for n in (1, 2, 3):
        K = fubini_study_potential(n)
        for t in np.linspace(0.02, 0.98, 50):
            t = float(t)
            want = (1.0 - t) * np.log(1.0 - t)
            worst_F = max(worst_F, abs(F_of_t(K, t) - want))
    worst_disc = 0.0
    for n in (1, 2, 3):
        for make in (flat_potential, fubini_study_potential):
            r = bridge_cross_check(make(n), np.geomspace(0.25, 4.0, 10))
            worst_disc = max(worst_disc, r.max_discrepancy)
    worst_flat = 0.0
    for n in (1, 2, 3):
        K = flat_potential(n)
        for s in np.geomspace(0.25, 4.0, 10):
            worst_flat = max(worst_flat, abs(calabi_scalar_curvature(K, float(s))))
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
    worst_min = np.inf
    for n in range(1, 6):
        for a in (0.25, 0.5, 0.75):
            for b in (1.0, 2.0):
                _, T, _ = build_extremal_metric(n, a, b, validation_samples=1000)
                res = validity_check(T, samples=1000)
                assert res.passed, f"validity failed at n={n}, a={a}, b={b}"
                worst_min = min(worst_min, res.minimum)
    _report("AC09", worst_min > 0.0, f"min over grid of min(1+tF'') = {worst_min:.3e}")


def test_criterion_10_closed_form_cross_check_is_hard_in_every_dimension():
    worst, where = 0.0, None
    for n in range(1, 9):
        for a, b in ((0.3, 1.0), (0.5, 1.0), (0.7, 1.0), (0.25, 2.0)):
            r = coefficient_cross_check(solve_coefficients(n, a, b))
            assert set(r.deltas) == {"A", "B", "C", "D"}
            if r.max_delta >= worst:
                worst, where = r.max_delta, (n, a, b)
    _report(
        "AC10", worst <= 1e-9,
        f"max scaled delta {worst:.3e} at (n, a, b) = {where} (tol 1e-9)",
    )


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
