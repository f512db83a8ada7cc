"""Difference steps and the Richardson stencil shared by the curvature
pipelines, on the standard library alone."""

from __future__ import annotations

import sys
from typing import Callable

EPS = sys.float_info.epsilon
# classic step exponent: h ~ eps^(1/4) balances rounding vs truncation for
# plain second differences
STEP_SECOND = EPS ** 0.25


def richardson(f: Callable, x, h) -> tuple:
    """f' and f'' at x, one Richardson level on central differences (O(h^4)).

    f is evaluated once at each of x +- h, x +- h/2 and x; both derivatives
    combine the coarse (step h) and fine (step h/2) centered differences as
    (4*fine - coarse)/3.  x and h are floats or arrays, as f takes them.
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
