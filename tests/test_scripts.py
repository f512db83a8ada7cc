"""The experiment scripts run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("curvature_consistency.py", "--n 2 --points 10 --step-scan"),
        ("curvature_consistency.py", "--n 3 --a 0.25 --b 2 --points 10"),
        ("coefficient_sweep.py", "--n 3 --steps 5 --csv {tmp}/sweep.csv"),
    ],
)
def test_script_exits_cleanly(script, args, tmp_path):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + args.format(tmp=tmp_path).split(),
        capture_output=True,
        text=True,
        timeout=240,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("# n=")


def test_bench_pairs_help():
    # the paired benchmark itself takes minutes; only its interface is smoked
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--help"],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert r.returncode == 0, r.stderr
    for flag in ("--base", "--workload", "--seeds"):
        assert flag in r.stdout
