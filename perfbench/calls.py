"""Running one CLI call as a subprocess and classifying its outcome."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

# a single call of the largest workload takes ~3 s; anything near this is hung
CALL_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one call did: its wall time, exit code, stdout and verdict."""

    op: object
    wall_s: float
    code: int
    stdout: bytes
    stderr: str
    status: str = ""  # "ok" | "verdict_false" | "failed"
    problems: tuple = ()


class Program:
    """The toricext CLI of one checkout, run with its own ``src`` on the path."""

    def __init__(self, root: Path):
        self.src = root / "src"
        if not (self.src / "toricext" / "__init__.py").is_file():
            raise FileNotFoundError(f"no toricext package under {self.src}")
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def run(self, op) -> Outcome:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "toricext", *op.argv],
            capture_output=True, env=self.env, timeout=CALL_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        return Outcome(op, wall, proc.returncode, proc.stdout,
                       proc.stderr.decode(errors="replace"))

    def python(self, *args: str) -> subprocess.CompletedProcess:
        """A bare interpreter run with the same environment as the CLI calls."""
        return subprocess.run([sys.executable, *args], capture_output=True,
                              env=self.env, timeout=CALL_TIMEOUT_S, text=True)


def classify(out: Outcome, ref) -> Outcome:
    """Decide ok / verdict_false / failed against the benchmark's reference.

    Exit 0, or exit 1 with a full report (the program's own verdict is
    negative), is checked against the reference; a mismatch fails the call.
    Exit 2, a traceback, or exit 1 without a report fails it outright.
    """
    text = out.stdout.decode(errors="replace")
    if out.code == 0 or (out.code == 1 and reference.has_report(text)):
        problems = reference.check(out.op, ref, text)
        out.problems = tuple(problems)
        if problems:
            out.status = "failed"
        else:
            out.status = "ok" if out.code == 0 else "verdict_false"
    else:
        last = out.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        out.problems = (f"exit {out.code}: {last[0]}",)
        out.status = "failed"
    return out
