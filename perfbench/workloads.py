"""Seeded call lists for the three benchmark workloads.

A workload is a list of passes; each pass is a fixed mix of CLI calls whose
parameters are drawn from a ``random.Random`` seeded by the workload seed, so
the same seed always yields the same argv lists.  The number of passes is
derived from ``--seconds`` and a nominal pass duration measured on the seed
commit, never from elapsed time, so call counts, the tail percentile and
``failed_ratio`` repeat exactly between runs and between commits.

Mixes are stratified (every pass covers every dimension, and every pass draws
one size per log-spaced stratum) so that medians depend on the seed only
through small within-stratum jitter.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("cli-startup", "verify-grid", "tables")

# seconds one pass took on the seed commit (2 cores, Python 3.11); only used
# to turn --seconds into a whole number of passes
NOMINAL_PASS_S = {"cli-startup": 7.5, "verify-grid": 9.5, "tables": 13.0}

_WORKLOAD_SALT = {name: k for k, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Op:
    """One CLI call: argv after the program name plus what the checker needs."""

    command: str
    argv: tuple
    n: int
    a: float = 0.0
    b: float = 0.0
    samples: int = 0
    fmt: str = ""
    probe: bool = False
    group: str = ""


def _geometry(rng: random.Random) -> tuple[float, float]:
    """b log-uniform in [0.1, 10], a/b uniform in [0.05, 0.9]."""
    b = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    return rng.uniform(0.05, 0.9) * b, b


def _log_strata(rng: random.Random, lo: float, hi: float, k: int) -> list[int]:
    """One log-uniform draw from each of k equal log-width strata of [lo, hi]."""
    width = (math.log(hi) - math.log(lo)) / k
    return [
        int(round(math.exp(math.log(lo) + (j + rng.random()) * width)))
        for j in range(k)
    ]


def _geo_args(n: int, a: float, b: float) -> list[str]:
    return ["--n", str(n), "--a", repr(a), "--b", repr(b)]


def _cli_startup_pass(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(2):
        n = rng.randint(1, 4)
        a, b = _geometry(rng)
        ops.append(Op("derive", ("derive", *_geo_args(n, a, b)), n, a, b,
                      group="derive"))
        ea = rng.uniform(0.05, 0.9)
        ops.append(Op("example", ("example", "--a", repr(ea)), 2, ea, 1.0,
                      group="example"))
        n = rng.randint(1, 4)
        a, b = _geometry(rng)
        ops.append(Op("profile", ("profile", *_geo_args(n, a, b), "--samples", "50"),
                      n, a, b, samples=50, fmt="csv", group="profile"))
        n = rng.randint(1, 4)
        ops.append(Op("bridge-check", ("bridge-check", "--n", str(n)), n,
                      samples=10, group="bridge-check"))
    return ops


def _verify_op(rng: random.Random, n: int, probe: bool) -> Op:
    a, b = _geometry(rng)
    argv = ("verify", *_geo_args(n, a, b), "--points", "100",
            "--seed", str(rng.randrange(2**31)))
    return Op("verify", argv, n, a, b, probe=probe, group=f"verify n={n}")


def _verify_grid_pass(rng: random.Random) -> list[Op]:
    ops = [_verify_op(rng, n, probe=False) for n in range(1, 7)]
    ops += [_verify_op(rng, n, probe=True) for n in (7, 8)]
    return ops


def _tables_passes(rng: random.Random, passes: int) -> list[Op]:
    """Each pass: profile and bridge-check once per n = 1..6.

    Sizes are stratified over the whole run (one draw per log-spaced stratum,
    6 * passes strata per command, dealt out at random) so the run's size
    distribution, and with it the median, barely depends on the seed.
    """
    k = 6 * passes
    profile_sizes = _log_strata(rng, 2000, 20000, k)
    bridge_sizes = _log_strata(rng, 500, 5000, k)
    rng.shuffle(profile_sizes)
    rng.shuffle(bridge_sizes)
    ops = []
    for p in range(passes):
        formats = ["csv", "json"] * 3
        rng.shuffle(formats)
        batch = []
        for n, fmt in zip(range(1, 7), formats):
            rows, count = profile_sizes[6 * p + n - 1], bridge_sizes[6 * p + n - 1]
            a, b = _geometry(rng)
            batch.append(Op("profile",
                            ("profile", *_geo_args(n, a, b), "--samples", str(rows),
                             "--format", fmt),
                            n, a, b, samples=rows, fmt=fmt, group=f"profile {fmt}"))
            batch.append(Op("bridge-check",
                            ("bridge-check", "--n", str(n), "--samples", str(count)),
                            n, samples=count, group="bridge-check"))
        # the untimed first call of set-up is the pass's cheapest one
        batch.sort(key=lambda op: (op.command != "bridge-check", op.samples))
        ops.extend(batch)
    return ops


def _repeat(one_pass):
    return lambda rng, passes: [op for _ in range(passes) for op in one_pass(rng)]


_BUILDERS = {
    "cli-startup": _repeat(_cli_startup_pass),
    "verify-grid": _repeat(_verify_grid_pass),
    "tables": _tables_passes,
}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def build_calls(workload: str, seed: int, seconds: float) -> list[Op]:
    """All calls of one run, pass after pass; the first is the set-up call."""
    rng = random.Random(seed * len(WORKLOADS) + _WORKLOAD_SALT[workload])
    return _BUILDERS[workload](rng, passes_for(workload, seconds))
