#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload tables --seeds 1-10

Extracts the base revision with ``git archive`` into ``.bench_build/<rev>/``
and copies the working tree's files (tracked or untracked, not ignored) into
``.bench_build/working-tree/``, so that neither side runs with bytecode
cached by earlier runs.  It then runs each copy's own ``perfbench/run.py
--trace 0`` once per seed for ``BENCHMARK.json``'s ``run_seconds``,
alternating which of the two goes first
from one seed to the next so that a drift in machine load hits both sides
alike.  Before each run it times 15 ``python -c pass`` calls in the
environment perfbench gives the CLI, and records their median as the run's
interpreter floor ``floor_s``, so that ``call_s.p50 - floor_s`` sizes the
program's own share of a call.  Prints every seed's pair, the medians and
quartiles of both sides, and per metric the number of seeds on which the
working tree did better, as ``BENCHMARK.json`` defines better
(``call_s.p50 - floor_s`` is better lower).  The same summary, with
``failed`` per seed, is written to ``BENCH_<base short rev>_<workload>.json``
at the root of the repository.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOOR_CALLS = 15
PROGRAM_SHARE = "call_s.p50 - floor_s"


def _seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) as a list of seeds."""
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


def _snapshot() -> Path:
    """A fresh copy of the working tree's non-ignored files."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.split(b"\0")
    dest = ROOT / ".bench_build" / "working-tree"
    shutil.rmtree(dest, ignore_errors=True)
    for name in map(os.fsdecode, filter(None, names)):
        if (ROOT / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def _floor(checkout: Path) -> float:
    """The median wall time of FLOOR_CALLS bare interpreter starts, in the
    environment perfbench runs the CLI in: this interpreter, with
    PYTHONPATH the checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    times = []
    for _ in range(FLOOR_CALLS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run, after the checkout's interpreter floor; its last
    stdout line is the JSON result, to which the floor is added."""
    floor = _floor(checkout)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench failed in {checkout}:\n{proc.stderr}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "floor_s": floor}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(seeds: list[int], base: list[dict], change: list[dict],
              better: dict[str, str]) -> dict:
    """The paired runs as one record: each seed's pair with both sides'
    floors, and per metric, ``call_s.p50 - floor_s`` last, both sides'
    medians and quartiles and the number of seeds on which the change did
    better (ties count for neither side)."""
    def values(run: dict) -> dict:
        return {name: run["metrics"][name]["value"] for name in better}

    pairs = [
        {"seed": seed,
         "base": {**values(old), "failed": old["failed"], "floor_s": old["floor_s"]},
         "change": {**values(new), "failed": new["failed"], "floor_s": new["floor_s"]}}
        for seed, old, new in zip(seeds, base, change)
    ]
    for pair in pairs:
        for side in ("base", "change"):
            pair[side][PROGRAM_SHARE] = pair[side]["call_s.p50"] - pair[side]["floor_s"]
    metrics = {}
    for name, direction in {**better, PROGRAM_SHARE: "lower"}.items():
        old = [pair["base"][name] for pair in pairs]
        new = [pair["change"][name] for pair in pairs]
        wins = sum((n < o) if direction == "lower" else (n > o)
                   for o, n in zip(old, new))
        metrics[name] = {"better": direction, "base": _spread(old),
                         "change": _spread(new), "wins": wins, "pairs": len(old)}
    return {
        "pairs": pairs,
        "metrics": metrics,
        "failed": {"base": [r["failed"] for r in base],
                   "change": [r["failed"] for r in change]},
        "correct": {"base": all(r["correct"] for r in base),
                    "change": all(r["correct"] for r in change)},
    }


def _text(spread: dict) -> str:
    return f"{spread['median']:.4g} [{spread['q1']:.4g}, {spread['q3']:.4g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5 (default 1-10)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base = _extract(args.base)
    sides = {"base": base, "change": _snapshot()}
    seeds = _seeds(args.seeds)

    results: dict[str, list[dict]] = {"base": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            results[side].append(_run(sides[side], args.workload, seed, seconds))
        pair = {side: results[side][-1] for side in sides}
        print(f"seed {seed}: " + "  ".join(
            f"{name} {pair['base']['metrics'][name]['value']:.4g} -> "
            f"{pair['change']['metrics'][name]['value']:.4g}"
            for name in better
        ) + f"  floor_s {pair['base']['floor_s']:.4g} -> "
            f"{pair['change']['floor_s']:.4g}", flush=True)

    summary = summarize(seeds, results["base"], results["change"], better)
    out = ROOT / f"BENCH_{base.name}_{args.workload}.json"
    out.write_text(json.dumps({"workload": args.workload, "base": base.name,
                               "seeds": seeds, "run_seconds": seconds,
                               **summary}, indent=2) + "\n")

    print(f"\n{args.workload}: base {args.base} ({base.name}) vs working tree, "
          f"seeds {args.seeds}, {seconds:g} s per run; written to {out.name}")
    print(f"{'metric':<21} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} change better")
    for name, m in summary["metrics"].items():
        print(f"{name:<21} {_text(m['base']):<30} {_text(m['change']):<30} "
              f"{m['wins']}/{m['pairs']}")
    for side in sides:
        print(f"{side}: failed per seed {summary['failed'][side]}, "
              f"correct {summary['correct'][side]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
