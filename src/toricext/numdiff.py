"""Central-difference stencils shared by the curvature pipelines."""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)
# classic step exponent: h ~ eps^(1/4) balances rounding vs truncation for
# plain second differences
STEP_SECOND = EPS ** 0.25


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
