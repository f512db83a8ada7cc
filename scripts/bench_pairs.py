#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload tables --seeds 1-6

Extracts the base revision with ``git archive`` into ``.bench_build/<rev>/``
and runs each checkout's own ``perfbench/run.py --trace 0`` once per seed for
``BENCHMARK.json``'s ``run_seconds``, alternating which of the two goes first
from one seed to the next so that a drift in machine load hits both sides
alike.  Prints every seed's pair, the medians and quartiles of both sides,
and per metric the number of seeds on which the working tree did better, as
``BENCHMARK.json`` defines better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """'1-6' or '1,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def _extract(rev: str) -> Path:
    """The base revision's files under .bench_build/<short rev>/."""
    short = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    dest = ROOT / ".bench_build" / short
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(
            ["git", "archive", "--format=tar", short], cwd=ROOT,
            stdout=subprocess.PIPE,
        )
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"git archive {short} failed")
    return dest


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last stdout line is the JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-6", help="e.g. 1-6 or 1,3,5 (default 1-6)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base = _extract(args.base)
    sides = {"base": base, "change": ROOT}

    results: dict[str, list[dict]] = {"base": [], "change": []}
    for i, seed in enumerate(_seeds(args.seeds)):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            results[side].append(_run(sides[side], args.workload, seed, seconds))
        pair = {side: results[side][-1] for side in sides}
        print(f"seed {seed}: " + "  ".join(
            f"{name} {pair['base']['metrics'][name]['value']:.4g} -> "
            f"{pair['change']['metrics'][name]['value']:.4g}"
            for name in better
        ), flush=True)

    print(f"\n{args.workload}: base {args.base} ({base.name}) vs working tree, "
          f"seeds {args.seeds}, {seconds:g} s per run")
    print(f"{'metric':<14} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} change better")
    for name, direction in better.items():
        old = [r["metrics"][name]["value"] for r in results["base"]]
        new = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((n < o) if direction == "lower" else (n > o)
                   for o, n in zip(old, new))
        print(f"{name:<14} {_spread(old):<30} {_spread(new):<30} {wins}/{len(old)}")
    for side in sides:
        runs = results[side]
        print(f"{side}: failed per seed {[r['failed'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
