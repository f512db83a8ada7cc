"""The step of plain second differences, the evenly spaced grid of
``profile`` and ``bridge-check``, and a power of t that refuses to leave
the normal floats, on the standard library alone."""

import sys

from .errors import InvalidParameters

# classic step exponent: h ~ eps^(1/4) balances rounding vs truncation for
# plain second differences
STEP_SECOND = sys.float_info.epsilon ** 0.25


def power(t: float, k: int) -> float:
    """t**k by C pow.  Where it overflows, float ** raises, and where it
    falls below the normal floats it has lost its digits: either is invalid
    input, and the message names the power and the t."""
    try:
        value = t**k
    except OverflowError:
        raise InvalidParameters(f"t^{k} overflows a float at t = {t}") from None
    if abs(value) < sys.float_info.min and t != 0.0:
        raise InvalidParameters(f"t^{k} underflows a float at t = {t}")
    return value


def grid(lo: float, hi: float, num: int) -> list[float]:
    """num evenly spaced points from lo to hi: i*step + lo with
    step = (hi - lo)/(num - 1), the last point set to hi; one point is lo."""
    if num == 1:
        return [lo]
    step = (hi - lo) / (num - 1)
    ts = [i * step + lo for i in range(num)]
    ts[-1] = hi
    return ts
