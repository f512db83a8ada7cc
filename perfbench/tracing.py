"""The traced run: per-layer spans recorded from outside the program.

Each workload call is replayed in-process through ``toricext.cli.main(argv)``
twice: once plain (for the overhead and unexplained-time figures) and once with
timing wrappers around each layer's public functions.  A wrapper replaces
every ``toricext.*`` module attribute bound to the wrapped function object, so
calls made through another module's namespace (``cli.abreu_scalar_curvature``,
the Hessian oracle's ``abreu.radial_hessian``) are traced too.  Nothing in the
program is edited; a function a later commit removes is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import io
import math
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer -> public functions timed in it; the layer names are the package's
# module names
TRACED = {
    "cli": ("main",),
    "calabi": ("solve_coefficients", "coefficient_cross_check",
               "build_extremal_metric", "alpha_eval", "extremal_F_second",
               "h_second"),
    "radial": ("radial_hessian", "radial_scalar_curvature", "validity_check"),
    "abreu": ("abreu_scalar_curvature", "extremality_residual"),
    "polytope": ("sample_interior", "interior_distance"),
    "bridge": ("s_of_t", "calabi_scalar_curvature"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
_ABREU = SPAN_NAMES.index("abreu.abreu_scalar_curvature")

# startup probes per run; medians of these are reported
STARTUP_REPEATS = 5
IMPORTTIME_REPEATS = 3


class Recorder:
    """In-memory spans: name, start, end, parent span and op id, one array each.

    Arrays rather than lists: the garbage collector does not traverse them, so
    half a million spans do not slow the calls being measured.
    """

    def __init__(self):
        self.name = array("i")
        self.parent = array("l")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        # (op, point) pairs Abreu's formula was evaluated at
        self.abreu_points: set = set()
        self._patched: list = []
        self.absent: list[str] = []

    def _wrap(self, name_id: int, fn):
        rec = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(rec.start)
            rec.name.append(name_id)
            rec.parent.append(rec.current)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            parent, rec.current = rec.current, span
            if name_id == _ABREU:
                rec.abreu_points.add((rec.op_id, np.asarray(args[1], float).tobytes()))
            rec.start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[span] = perf()
                rec.current = parent

        return traced

    def install(self) -> None:
        """Replace every toricext module attribute bound to a traced function."""
        self.absent = []
        for name_id, span_name in enumerate(SPAN_NAMES):
            layer, fn_name = span_name.split(".")
            module = importlib.import_module(f"toricext.{layer}")
            original = getattr(module, fn_name, None)
            if original is None:
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(name_id, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "toricext" and not mod_name.startswith("toricext."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def totals(self) -> tuple[list[int], list[float]]:
        """Per span name: call count and self time (span minus its children)."""
        k = len(SPAN_NAMES)
        calls, self_s = [0] * k, [0.0] * k
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
            calls[self.name[i]] += 1
            self_s[self.name[i]] += dur - child[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t"
                        f"{SPAN_NAMES[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\n")


def call_in_process(main, argv) -> tuple[float, int, bytes]:
    """(wall seconds, exit code, stdout bytes) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the subprocess would print a traceback and exit 1
            code = 1
    return time.perf_counter() - start, code, out.getvalue().encode()


def _outermost_cumulative_us(lines: list[str], package: str) -> float:
    """Sum of cumulative import time of the outermost ``package`` modules.

    ``-X importtime`` prints children before parents, two spaces of indent
    per level; walking it backwards visits parents first.
    """
    total = 0.0
    stack: list[tuple[int, bool]] = []  # (depth, inside package)
    for line in reversed(lines):
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = float(fields[1])
        except ValueError:  # the header line
            continue
        raw = fields[2]
        name = raw.strip()
        depth = len(raw) - len(raw.lstrip(" "))
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total += cumulative
        stack.append((depth, inside or mine))
    return total


def startup_metrics(program) -> dict:
    """Interpreter start, import of toricext, and its numpy/scipy shares (s)."""
    bare, imported = [], []
    for _ in range(STARTUP_REPEATS):
        for sink, code in ((bare, "pass"), (imported, "import toricext")):
            start = time.perf_counter()
            proc = program.python("-c", code)
            sink.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed: {proc.stderr}")
    shares = {"scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = program.python("-X", "importtime", "-c", "import toricext")
        lines = proc.stderr.splitlines()
        for package, sink in shares.items():
            sink.append(_outermost_cumulative_us(lines, package) * 1e-6)
    interp = statistics.median(bare)
    return {
        "startup.interp_s": interp,
        "startup.import_s": statistics.median(imported) - interp,
        "startup.import.scipy_s": statistics.median(shares["scipy"]),
        "startup.import.numpy_s": statistics.median(shares["numpy"]),
    }


def accept_ratio(ops) -> float:
    """Box-rejection acceptance of verify's sampler, computed from geometry.

    verify samples 100 points with every facet value >= m = 0.05(b - a) by
    drawing uniformly from [0, b]^n.  The accepted region is y = x - m*1 >= 0
    with a - (n-1)m <= sum(y) <= b - (n+1)m, of volume (hi^n - lo^n)/n!.
    Returned: expected accepted draws over expected total draws, pooled over
    the run's verify calls (draw cap ignored).
    """
    wanted = drawn = 0.0
    for op in ops:
        if op.command != "verify":
            continue
        n, a, b = op.n, op.a, op.b
        m = 0.05 * (b - a)
        hi = b - (n + 1) * m
        lo = max(0.0, a - (n - 1) * m)
        ratio = (hi**n - lo**n) / math.factorial(n) / b**n if hi > 0 else 0.0
        if ratio <= 0.0:
            return 0.0
        wanted += 100
        drawn += 100 / ratio
    return wanted / drawn if drawn else 0.0


def import_program(program):
    """Import the checkout's toricext.cli into this process."""
    sys.path.insert(0, str(program.src))
    cli = importlib.import_module("toricext.cli")
    where = Path(cli.__file__).resolve()
    if program.src.resolve() not in where.parents:
        raise ImportError(f"toricext imported from {where}, not {program.src}")
    return cli
