"""The Richardson difference stencil and the integer power shared by the
curvature pipelines.

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


def richardson(f: Callable, x, h) -> tuple:
    """f' and f'' at x, one Richardson level on central differences (O(h^4)).

    f is evaluated once at each of x +- h, x +- h/2 and x; both derivatives
    combine the coarse (step h) and fine (step h/2) centered differences as
    (4*fine - coarse)/3.
    """
    up, down = f(x + h), f(x - h)
    half = 0.5 * h
    up_half, down_half = f(x + half), f(x - half)
    mid = f(x)
    first = (4.0 * ((up_half - down_half) / (2.0 * half))
             - (up - down) / (2.0 * h)) / 3.0
    second = (4.0 * ((up_half - 2.0 * mid + down_half) / (half * half))
              - (up - 2.0 * mid + down) / (h * h)) / 3.0
    return first, second
