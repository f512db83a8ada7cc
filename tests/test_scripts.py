"""The scripts run end to end at small sizes."""

import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "table, header, inputs",
    [
        ("coefficients", "| a | A | B | C | D |",
         [f"{0.05 * k:.4f}" for k in range(1, 20)]),
        ("steps", "| (n, a, b) | radial | Abreu, verify's step | h = 1.0e-05·b |",
         ["(2, 0.5, 1)", "(3, 0.25, 2)", "(8, 0.5, 1)", "(3, 0.00025, 0.001)"]),
    ],
)
def test_atlas_prints_a_row_per_input(table, header, inputs, capsys):
    assert _load_script("atlas").main([table]) == 0
    lines = capsys.readouterr().out.splitlines()
    columns = lines[0].count("|") - 1
    assert lines[0].startswith(header)
    assert lines[1] == "|---" * columns + "|"
    rows = [line for line in lines[2:] if line.startswith("|")]
    assert [row.split(" | ")[0] for row in rows] == [f"| {x}" for x in inputs]
    assert all(row.count("|") == columns + 1 for row in rows)


def test_atlas_coefficients_approach_the_blow_down():
    lines = _load_script("atlas").coefficients()
    assert "| 0.5000 | 7.38461538 | 0.92307692 | 0.07692308 | 0.15384615 |" in lines
    assert lines[-1] == "Blow-down: B(0.05) = 5.212824 -> n(n + 1) = 6."


@pytest.mark.parametrize("n", [1, 16])
def test_atlas_b_range_rows_are_readme_rows(n):
    # README's Numerical notes quote the whole table, indented under a bullet
    row, codes = _load_script("atlas").b_range_row(n)
    assert "  " + row in (ROOT / "README.md").read_text().splitlines()
    assert sum(codes.values()) == 65 * 3 and set(codes) <= {0, 2}


@pytest.mark.parametrize("argv", [[], ["b_range"], ["steps", "steps"], ["--help"]])
def test_atlas_refuses_anything_but_one_table_name(argv):
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "atlas.py"), *argv],
        capture_output=True, text=True, timeout=240,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "usage: atlas.py coefficients|steps|b-range\n"


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


def _startup_profile(command: str) -> dict:
    """Stage -> median of ``scripts/startup_profile.py`` over two runs."""
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "startup_profile.py"),
         "--command", command, "--runs", "2"],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert r.returncode == 0, r.stderr
    return dict(line.rsplit(None, 1) for line in r.stdout.splitlines()[2:])


def test_startup_profile_reports_every_stage():
    rows = _startup_profile("bridge-check --samples 3")
    stages = list(rows)
    assert stages[:2] == ["interpreter + site", "floor"]
    assert stages[-6:] == [
        "command", "teardown", "total", "program share", "peak RSS (MB)",
        "compile (package sources)",
    ]
    assert {"toricext", "toricext.cli", "toricext.bridge"} <= set(stages)
    assert "toricext.calabi" not in stages
    ms = {stage: float(value) for stage, value in rows.items()}
    assert ms["total"] > ms["interpreter + site"] > 0
    assert ms["floor"] > 0
    # the largest other imports, up to three, indented under the row they
    # split; cli imports _json's string quoter, so that row is always there
    other = stages[stages.index("other imports") + 1:stages.index("command")]
    assert 1 <= len(other) <= 3 and all(stage.startswith("  ") for stage in other)
    assert "  _json" in other
    assert sorted((ms[stage] for stage in other), reverse=True) == [
        ms[stage] for stage in other]
    assert sum(ms[stage] for stage in other) <= ms["other imports"] + 0.02
    # an interpreter holds well over 10 MB; under 1 GB rules out a unit slip
    # (bytes or KiB read as MB)
    assert 10.0 < ms["peak RSS (MB)"] < 1000.0
    # the sources of the package modules the call loaded take time to compile
    assert ms["compile (package sources)"] > 0


def test_startup_profile_of_a_call_without_numpy():
    rows = _startup_profile("derive --n 3 --a 0.3 --b 1.2")
    assert {"toricext", "toricext.cli", "toricext.exact"} <= set(rows)
    assert "toricext.calabi" not in rows
    # no command loads argparse or json, nor numpy, whose row this table
    # once had, nor fractions, since the exact layer runs on integers
    assert not {"  argparse", "  json", "numpy", "  fractions"} & set(rows)


def test_startup_profile_header_names_the_bytecode_state():
    # a call that reads cached bytecode skips compiling the package, so the
    # header says which state a table was taken in
    header = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "startup_profile.py"),
         "--command", "derive", "--runs", "1"],
        capture_output=True, text=True, timeout=240,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    ).stdout.splitlines()[0]
    tag = sys.implementation.cache_tag
    assert re.fullmatch(
        r"# toricext derive: median of 1 runs; PYTHONDONTWRITEBYTECODE set; "
        rf"\d+ of \d+ modules cached as {tag} bytecode in src/toricext/__pycache__",
        header,
    ), header


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(p50s, rss, failed, floors=None):
    return [
        {"metrics": {"call_s.p50": {"value": t}, "peak_rss_mb": {"value": m}},
         "failed": f, "correct": True, "floor_s": floor}
        for t, m, f, floor in zip(p50s, rss, failed, floors or [0.05] * len(p50s))
    ]


def test_bench_pairs_summary():
    summarize = _load_script("bench_pairs").summarize
    base = _runs([0.30, 0.20, 0.40, 0.50], [40.0, 41.0, 40.0, 40.0], [7, 6, 6, 7],
                 [0.10, 0.05, 0.10, 0.20])
    change = _runs([0.25, 0.20, 0.30, 0.60], [40.0, 40.5, 40.5, 39.0], [6, 6, 6, 7],
                   [0.05, 0.10, 0.10, 0.20])
    change[2]["correct"] = False
    better = {"call_s.p50": "lower", "peak_rss_mb": "lower"}
    doc = summarize([1, 2, 3, 4], base, change, better)

    assert doc["pairs"][0] == {
        "seed": 1,
        "base": {"call_s.p50": 0.30, "peak_rss_mb": 40.0, "failed": 7,
                 "floor_s": 0.10, "call_s.p50 - floor_s": pytest.approx(0.20)},
        "change": {"call_s.p50": 0.25, "peak_rss_mb": 40.0, "failed": 6,
                   "floor_s": 0.05, "call_s.p50 - floor_s": pytest.approx(0.20)},
    }
    assert [pair["seed"] for pair in doc["pairs"]] == [1, 2, 3, 4]
    p50 = doc["metrics"]["call_s.p50"]
    # ties count for neither side
    assert p50["wins"] == 2 and p50["pairs"] == 4 and p50["better"] == "lower"
    assert p50["base"] == pytest.approx({"median": 0.35, "q1": 0.275, "q3": 0.425})
    assert p50["change"] == pytest.approx({"median": 0.275, "q1": 0.2375, "q3": 0.375})
    assert doc["metrics"]["peak_rss_mb"]["wins"] == 2
    # the program's share of a call: 0.20, 0.15, 0.30, 0.30 against 0.20,
    # 0.10, 0.20, 0.40; the floor is better neither way, so it is no metric
    assert list(doc["metrics"]) == [*better, "call_s.p50 - floor_s"]
    share = doc["metrics"]["call_s.p50 - floor_s"]
    assert share["better"] == "lower" and share["wins"] == 2 and share["pairs"] == 4
    assert share["base"] == pytest.approx({"median": 0.25, "q1": 0.1875, "q3": 0.3})
    assert share["change"] == pytest.approx({"median": 0.2, "q1": 0.175, "q3": 0.25})
    assert doc["failed"] == {"base": [7, 6, 6, 7], "change": [6, 6, 6, 7]}
    assert doc["correct"] == {"base": True, "change": False}
    json.dumps(doc)  # written as the BENCH file as it is


def test_bench_pairs_summary_of_one_pair():
    summarize = _load_script("bench_pairs").summarize
    doc = summarize([5], _runs([0.3], [40.0], [0]), _runs([0.2], [41.0], [0]),
                    {"call_s.p50": "lower", "peak_rss_mb": "lower"})
    assert doc["metrics"]["call_s.p50"]["change"] == {
        "median": 0.2, "q1": 0.2, "q3": 0.2}
    assert doc["metrics"]["call_s.p50"]["wins"] == 1
    assert doc["metrics"]["peak_rss_mb"]["wins"] == 0


def test_output_digest_covers_every_command_and_dimension():
    calls = _load_script("output_digest").argv_list()
    commands = {"derive", "profile", "verify", "bridge-check", "example"}
    assert commands <= {argv[0] for argv in calls if argv}
    # the parser's own exits: no command, the top-level help, an unknown one
    assert [argv for argv in calls if not argv or argv[0] not in commands] == [
        [], ["--help"], ["frobnicate"]]
    verified = {argv[argv.index("--n") + 1] for argv in calls
                if argv[:1] == ["verify"] and "--n" in argv}
    assert {"1", "2", "3", "5", "8", "9", "12", "16"} <= verified


def test_output_digest_records_what_the_cli_prints(tmp_path):
    digest = _load_script("output_digest")
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"),
         "--dump", str(tmp_path)],
        capture_output=True, text=True, timeout=240,
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    calls = digest.argv_list()
    assert [line[66:] for line in lines] == [" ".join(argv) for argv in calls]
    # each record is the exit code, stdout and stderr of a CLI process
    index = calls.index(["verify", "--n", "17"])
    cli = subprocess.run(
        [sys.executable, "-m", "toricext", *calls[index]],
        capture_output=True, text=True, timeout=240,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    record = (tmp_path / f"{index:03d}.txt").read_text()
    assert record == (
        f"exit {cli.returncode}\n--- stdout\n{cli.stdout}--- stderr\n{cli.stderr}")
    assert hashlib.sha256(record.encode()).hexdigest() == lines[index][:64]


def test_every_traced_benchmark_layer_is_a_module():
    # perfbench's traced run imports toricext.<layer> for each layer of its
    # TRACED table; read the table from the source, since the module itself
    # imports numpy
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]
    )
    assert "calabi" in traced
    for layer in traced:
        importlib.import_module(f"toricext.{layer}")
