"""Benchmark of the toricext CLI: end-to-end call latency and per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 25 --trace 0

``--trace 0`` runs every call of the workload as its own ``python -m
toricext`` subprocess, one at a time (a single closed-loop client), and
reports the end-to-end metrics.  ``--trace 1`` replays the same calls
in-process with timing wrappers around each layer and reports the per-layer
metrics.  Every output is checked against references the benchmark computes
itself.  Human-readable lines go first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Metric names and
units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

import calls
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# the tail is the highest percentile with at least this many calls beyond it
TAIL_BEYOND = 10


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _shell(op) -> str:
    return "python -m toricext " + shlex.join(op.argv)


def _setup(program, workload: str, seed: int, seconds: float):
    """Generate inputs, solve references, run and check the first call.

    Repeated SETUP_REPEATS times; the median is setup_s and the first call's
    stdout must repeat byte for byte.
    """
    times, firsts = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.build_calls(workload, seed, seconds)
        refs = [reference.reference_for(op) for op in ops]
        first = calls.classify(program.run(ops[0]), refs[0])
        times.append(time.perf_counter() - start)
        firsts.append(first)
    problems = []
    if any(f.stdout != firsts[0].stdout for f in firsts):
        problems.append("first call's stdout differs between repeats: "
                        + _shell(ops[0]))
    if firsts[0].status == "failed":
        problems.append(f"set-up call failed: {_shell(ops[0])}: "
                        + "; ".join(firsts[0].problems))
    return ops, refs, statistics.median(times), problems


def _report_failures(outcomes) -> None:
    for out in outcomes:
        if out.status == "failed":
            kind = "probe" if out.op.probe else "call"
            print(f"FAILED {kind}: {_shell(out.op)}")
            for p in out.problems:
                print(f"    {p}")


def run_untraced(program, args) -> tuple[bool, int, int, dict]:
    ops, refs, setup_s, problems = _setup(program, args.workload, args.seed,
                                          args.seconds)
    outcomes = [calls.classify(program.run(op), ref) for op, ref in zip(ops, refs)]

    timed = [o.wall_s for o in outcomes if not o.op.probe]
    tail, pct = _tail(timed)
    failed = sum(o.status == "failed" for o in outcomes)
    wrong_exit0 = [o for o in outcomes if o.code == 0 and o.status == "failed"]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "call_s.p50": statistics.median(timed),
        "call_s.tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }

    print(f"workload {args.workload} seed {args.seed}: "
          f"{workloads.passes_for(args.workload, args.seconds)} passes, "
          f"{len(outcomes)} calls ({len(timed)} timed, "
          f"{len(outcomes) - len(timed)} probes), closed loop, 1 client")
    print(f"call_s.p50   {metrics['call_s.p50']:.4f} s   over {len(timed)} calls")
    beyond = min(TAIL_BEYOND, len(timed) - 1)
    print(f"call_s.tail  {tail:.4f} s   p{pct:.1f}, {beyond} calls beyond")
    print(f"setup_s      {setup_s:.4f} s   median of {SETUP_REPEATS} set-ups")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio {failed / len(outcomes):.4f} ratio   "
          f"{failed} of {len(outcomes)} calls")
    verdicts = sum(o.status == "verdict_false" for o in outcomes)
    print(f"verdict_false {verdicts} count   (exit 1 with a full, correct report)")
    groups: dict[str, list[float]] = {}
    for o in outcomes:
        groups.setdefault(o.op.group, []).append(o.wall_s)
    for group, walls in sorted(groups.items()):
        print(f"  {group:<16} median {statistics.median(walls):.4f} s over {len(walls)}")
    _report_failures(outcomes)
    for p in problems:
        print(f"PROBLEM: {p}")
    for o in wrong_exit0:
        print(f"PROBLEM: exit 0 with wrong output: {_shell(o.op)}")
    correct = not problems and not wrong_exit0
    return correct, len(outcomes), failed, metrics


def run_traced(program, args) -> tuple[bool, int, int, dict]:
    import tracing  # numpy and the program are only needed here

    metrics = tracing.startup_metrics(program)
    ops = workloads.build_calls(args.workload, args.seed, args.seconds)
    refs = [reference.reference_for(op) for op in ops]
    outcomes = [calls.classify(program.run(op), ref) for op, ref in zip(ops, refs)]

    cli = tracing.import_program(program)
    rec = tracing.Recorder()
    plain_s = traced_s = 0.0
    mismatches = []
    for op_id, (op, out) in enumerate(zip(ops, outcomes)):
        wall, code, stdout = tracing.call_in_process(cli.main, op.argv)
        plain_s += wall
        rec.op_id = op_id
        rec.install()
        try:
            wall_t, code_t, stdout_t = tracing.call_in_process(cli.main, op.argv)
        finally:
            rec.uninstall()
        traced_s += wall_t
        if not (stdout == stdout_t == out.stdout and code == code_t == out.code):
            mismatches.append(op)
    rec.write(OUT_DIR / f"spans-{args.workload}.tsv.gz")

    counts, self_s = rec.totals()
    for k, name in enumerate(tracing.SPAN_NAMES):
        metrics[f"{name}.calls"] = counts[k]
        metrics[f"{name}.self_s"] = self_s[k]

    def per(num: str, den: float) -> float:
        return metrics[num] / den if den else 0.0

    abreu_calls = metrics["abreu.abreu_scalar_curvature.calls"]
    bridge_samples = sum(2 * op.samples for op in ops if op.command == "bridge-check")
    reports = [json.loads(o.stdout) for o in outcomes
               if o.op.command == "verify" and reference.has_report(o.stdout.decode())]
    margins = [r["curvature"]["max_discrepancy"] / r["inputs"]["tolerance_soft"]
               for r in reports]
    startup_total = metrics["startup.interp_s"] + metrics["startup.import_s"]
    metrics.update({
        "abreu.hessians_per_point": per("radial.radial_hessian.calls", abreu_calls),
        "abreu.evals_per_point": abreu_calls / len(rec.abreu_points)
        if rec.abreu_points else 0.0,
        "polytope.accept_ratio.computed": tracing.accept_ratio(ops),
        "bridge.s_of_t_per_sample": per("bridge.s_of_t.calls", bridge_samples),
        "cli.stdout_bytes": sum(len(o.stdout) for o in outcomes),
        "verify.abreu_margin.max": max(margins, default=0.0),
        "verify.verdict_false": sum(o.op.command == "verify"
                                    and o.status == "verdict_false"
                                    for o in outcomes),
        "trace.overhead_s": traced_s - plain_s,
        "trace.unexplained_s": sum(o.wall_s for o in outcomes)
        - len(outcomes) * startup_total - plain_s,
    })

    print(f"traced workload {args.workload} seed {args.seed}: {len(ops)} calls, "
          f"{len(rec.start)} spans, in-process {plain_s:.3f} s plain, "
          f"{traced_s:.3f} s traced")
    for name in rec.absent:
        print(f"absent: {name} (not defined by this commit; reported as 0)")
    _report_failures(outcomes)
    for op in mismatches:
        print(f"PROBLEM: in-process stdout or exit code differs from the "
              f"subprocess: {_shell(op)}")
    failed = sum(o.status == "failed" for o in outcomes)
    wrong_exit0 = any(o.code == 0 and o.status == "failed" for o in outcomes)
    return not mismatches and not wrong_exit0, len(outcomes), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program = calls.Program(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_untraced
    correct, attempted, failed, values = run(program, args)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    if args.trace:
        for m in declared:
            print(f"{m['name']:<44} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
