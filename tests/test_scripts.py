"""The experiment scripts run end to end at small sizes."""

import importlib.util
import json
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
        ("curvature_consistency.py", "--n 8 --points 20"),
        ("curvature_consistency.py", "--n 3 --a 2.5e-4 --b 1e-3 --step-scan"),
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


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(p50s, rss, failed):
    return [
        {"metrics": {"call_s.p50": {"value": t}, "peak_rss_mb": {"value": m}},
         "failed": f, "correct": True}
        for t, m, f in zip(p50s, rss, failed)
    ]


def test_bench_pairs_summary():
    summarize = _load_bench_pairs().summarize
    base = _runs([0.30, 0.20, 0.40, 0.50], [40.0, 41.0, 40.0, 40.0], [7, 6, 6, 7])
    change = _runs([0.25, 0.20, 0.30, 0.60], [40.0, 40.5, 40.5, 39.0], [6, 6, 6, 7])
    change[2]["correct"] = False
    better = {"call_s.p50": "lower", "peak_rss_mb": "lower"}
    doc = summarize([1, 2, 3, 4], base, change, better)

    assert doc["pairs"][0] == {
        "seed": 1,
        "base": {"call_s.p50": 0.30, "peak_rss_mb": 40.0, "failed": 7},
        "change": {"call_s.p50": 0.25, "peak_rss_mb": 40.0, "failed": 6},
    }
    assert [pair["seed"] for pair in doc["pairs"]] == [1, 2, 3, 4]
    p50 = doc["metrics"]["call_s.p50"]
    # ties count for neither side
    assert p50["wins"] == 2 and p50["pairs"] == 4 and p50["better"] == "lower"
    assert p50["base"] == pytest.approx({"median": 0.35, "q1": 0.275, "q3": 0.425})
    assert p50["change"] == pytest.approx({"median": 0.275, "q1": 0.2375, "q3": 0.375})
    assert doc["metrics"]["peak_rss_mb"]["wins"] == 2
    assert doc["failed"] == {"base": [7, 6, 6, 7], "change": [6, 6, 6, 7]}
    assert doc["correct"] == {"base": True, "change": False}
    json.dumps(doc)  # written as the BENCH file as it is


def test_bench_pairs_summary_of_one_pair():
    summarize = _load_bench_pairs().summarize
    doc = summarize([5], _runs([0.3], [40.0], [0]), _runs([0.2], [41.0], [0]),
                    {"call_s.p50": "lower", "peak_rss_mb": "lower"})
    assert doc["metrics"]["call_s.p50"]["change"] == {
        "median": 0.2, "q1": 0.2, "q3": 0.2}
    assert doc["metrics"]["call_s.p50"]["wins"] == 1
    assert doc["metrics"]["peak_rss_mb"]["wins"] == 0
