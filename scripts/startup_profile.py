#!/usr/bin/env python3
"""Where one CLI call's wall time goes, stage by stage, as medians over runs.

    python3 scripts/startup_profile.py --command "derive --n 3" --runs 20

Each run starts a fresh ``python -X importtime -c WRAPPER <command>``, where
the wrapper calls the installed script's entry point,
``toricext.__main__.main``, and prints wall-clock timestamps on stderr as it
starts and after ``main`` returns.  With the time taken just before the spawn
and just after the process is reaped, and the ``-X importtime`` lines printed
between the two stamps, one call splits into:

    interpreter + site   spawn to the wrapper's first line
    floor                spawn to reaped of ``python -c pass`` in the same
                         environment, one run before each call
    toricext.*           each package module's own (self) import time
    other imports        the remaining imports: stdlib, and the wrapper's own
      <module>           the largest of them, up to three, each with what
                         it imported in turn
    command              the rest of the time until ``main`` returns
    teardown             ``main`` returning to the process being reaped
    total                spawn to reaped
    program share        total - floor: what the call costs beyond a bare
                         interpreter, ``-X importtime``'s own cost included
    peak RSS (MB)        the child's ``ru_maxrss``, read with ``os.wait4``
                         when it is reaped
    compile (package sources)
                         the summed ``compile()`` time, each the minimum
                         of 20 in this process, of the sources of the
                         package modules the calls loaded, as
                         ``-X importtime`` names them: what a call pays
                         when no bytecode is cached

On Linux a child's maxrss also counts the parent's high-water mark from
before the exec, so the peak RSS row is the larger of the call's own peak
and this script's (small: it loads no numpy).  A module that a run did not
load counts as 0 ms in it.

Nothing in the program is instrumented.  ``-X importtime`` adds its own
small cost to the import rows.  The environment (``PYTHONDONTWRITEBYTECODE``,
say) is the caller's; ``src/`` of this checkout is put first on
``PYTHONPATH``.  The header line says whether ``PYTHONDONTWRITEBYTECODE`` is
set and how many of the package's modules have bytecode for the running
interpreter in ``src/toricext/__pycache__``: a call that reads cached
bytecode skips compiling the package's sources, several ms of a call, so two
tables compare only at the same state.
"""

import argparse
import importlib.util
import os
import shlex
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_MARK = "@@startup_profile"
_WRAPPER = f"""
import sys, time
print("{_MARK} start", time.time(), file=sys.stderr, flush=True)
from toricext.__main__ import main
code = main(sys.argv[1:])
print("{_MARK} main", time.time(), file=sys.stderr, flush=True)
sys.exit(code)
"""


def _imports(lines: list[str]) -> list[tuple[str, float, float]]:
    """(module, self s, outer s) of each ``-X importtime`` line.

    Outer s is the cumulative time of an import from outside the package
    that the package or the wrapper made itself, and 0 for every other
    line: summed, they are the time of every import from outside the
    package.  The lines come children first, two spaces of indent per
    level, so a backward walk meets each parent before its children.
    """
    rows = []
    parents: list[tuple[int, str]] = []  # (indent, module) of enclosing imports
    for line in reversed(lines):
        if not line.startswith("import time:"):
            continue
        self_us, cumulative_us, raw = line[len("import time:"):].split("|")
        try:
            self_s, cumulative_s = float(self_us) * 1e-6, float(cumulative_us) * 1e-6
        except ValueError:  # the header line
            continue
        name, depth = raw.strip(), len(raw) - len(raw.lstrip(" "))
        while parents and parents[-1][0] >= depth:
            parents.pop()
        outer = not _own(name) and (not parents or _own(parents[-1][1]))
        rows.append((name, self_s, cumulative_s if outer else 0.0))
        parents.append((depth, name))
    return rows


def _own(module: str) -> bool:
    return module == "toricext" or module.startswith("toricext.")


def _spawn(argv: list[str], env: dict) -> tuple:
    """(spawned, reaped) wall-clock times, stderr, exit code and rusage of
    one process."""
    spawned = time.time()
    with subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = time.time()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return spawned, reaped, stderr, proc.returncode, usage


def profile_once(argv: list[str], env: dict) -> tuple[dict[str, float], float]:
    """One call's stages in seconds, in the order of the module docstring
    (the largest other imports under their module names), and its peak RSS
    in MB."""
    bare_spawned, bare_reaped, *_ = _spawn([sys.executable, "-c", "pass"], env)
    floor = bare_reaped - bare_spawned
    spawned, reaped, stderr, code, usage = _spawn(
        [sys.executable, "-X", "importtime", "-c", _WRAPPER, *argv], env)
    if code not in (0, 1):
        sys.exit(f"toricext {shlex.join(argv)} exited {code}:\n{stderr[-2000:]}")
    lines = stderr.splitlines()
    stamps = {}
    for k, line in enumerate(lines):
        if line.startswith(_MARK):
            _, stage, when = line.split()
            stamps[stage] = (k, float(when))
    (first, started), (_, returned) = stamps["start"], stamps["main"]
    imports = _imports(lines[first:])
    own, other = {}, {}
    for name, self_s, outer_s in imports:
        if _own(name):
            own[name] = own.get(name, 0.0) + self_s
        elif outer_s:
            other[f"  {name}"] = other.get(f"  {name}", 0.0) + outer_s
    all_imports = sum(self_s for _, self_s, _ in imports)
    return {
        "interpreter + site": started - spawned,
        "floor": floor,
        **dict(sorted(own.items())),
        "other imports": all_imports - sum(own.values()),
        **other,
        "command": returned - started - all_imports,
        "teardown": reaped - returned,
        "total": reaped - spawned,
        "program share": reaped - spawned - floor,
    }, usage.ru_maxrss * 1024 / 1e6  # Linux reports KiB


def _compile_s(modules: list[str]) -> float:
    """The summed ``compile()`` time of the package modules' sources, each
    the minimum of 20."""
    total = 0.0
    for name in modules:
        path = ROOT / "src" / Path(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        source = path.read_text()
        total += min(timeit.repeat(lambda: compile(source, str(path), "exec"),
                                   number=1, repeat=20))
    return total


def _bytecode_state() -> str:
    """Whether calls may write bytecode, and how much is cached already."""
    writes = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    modules = list((ROOT / "src" / "toricext").glob("*.py"))
    cached = sum(Path(importlib.util.cache_from_source(str(path))).is_file()
                 for path in modules)
    return (f"PYTHONDONTWRITEBYTECODE {writes}; {cached} of {len(modules)} modules "
            f"cached as {sys.implementation.cache_tag} bytecode in "
            "src/toricext/__pycache__")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--command", required=True,
                    help='the CLI arguments, e.g. "derive --n 3"')
    ap.add_argument("--runs", type=int, default=20, help="calls to take medians over")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")

    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    command = shlex.split(args.command)
    runs, peaks = zip(*(profile_once(command, env) for _ in range(args.runs)))
    def ms(stage: str) -> float:
        return 1e3 * statistics.median(run.get(stage, 0.0) for run in runs)

    # the other imports' own rows are indented; the largest three at most show
    stages = list(dict.fromkeys(stage for run in runs for stage in run))
    other = [stage for stage in stages if stage.startswith("  ")]
    stages = [stage for stage in stages if stage not in other]
    k = stages.index("other imports") + 1
    stages[k:k] = sorted(other, key=ms, reverse=True)[:3]

    print(f"# toricext {args.command}: median of {args.runs} runs; {_bytecode_state()}")
    print(f"{'stage':<25} {'ms':>8}")
    for stage in stages:
        print(f"{stage:<25} {ms(stage):8.2f}")
    print(f"{'peak RSS (MB)':<25} {statistics.median(peaks):8.2f}")
    compiled = 1e3 * _compile_s([stage for stage in stages if _own(stage)])
    print(f"{'compile (package sources)':<25} {compiled:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
