import json
import subprocess
import sys

import pytest

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
