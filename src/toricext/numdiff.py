"""Central-difference stencils and the integer power shared by the curvature
pipelines.

Profile and curvature primitives take a scalar or an ndarray of t and answer
in kind, and a value is the same whichever way it was asked for.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)
# classic step exponent: h ~ eps^(1/4) balances rounding vs truncation for
# plain second differences
STEP_SECOND = EPS ** 0.25


def power(x, k: int):
    """x**k elementwise through the C library's pow, as Python's float ** does.

    numpy's own ** on arrays uses a SIMD pow that rounds differently in the
    last bit, so the same formula evaluated at a float and inside an array
    would disagree; np.float_power keeps every evaluation bit for bit equal.
    """
    return np.float_power(x, k)


def keep_last(fn: Callable[[np.ndarray], tuple]) -> Callable:
    """fn of an array of t, remembering its answer for the t asked for last.

    The curvature asks for F'', F''' and F'''' in turn at the same t; a
    profile whose derivatives share one costly evaluation per t wraps that
    evaluation here, so the three calls make one.  fn answers with a tuple
    of arrays; they are shared between those calls, so they are made
    read-only and a write raises instead of changing later answers.
    """
    last: list = [None]

    def cached(t):
        t = np.asarray(t, dtype=float)
        key = (t.shape, t.tobytes())
        entry = last[0]
        if entry is None or entry[0] != key:
            answer = fn(t)
            for value in answer:
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            entry = (key, answer)
            last[0] = entry
        return entry[1]

    return cached


def central_first(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def richardson_first(f: Callable[[float], float], x: float, h: float) -> float:
    """One Richardson level on the centered first difference (O(h^4))."""
    coarse = central_first(f, x, h)
    fine = central_first(f, x, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def richardson_second(f: Callable[[float], float], x: float, h: float) -> float:
    """One Richardson level on the centered second difference (O(h^4))."""
    coarse = central_second(f, x, h)
    fine = central_second(f, x, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0
