"""The exact layer of the extremal construction, in rational arithmetic only.

With p = n(n+1)(n+2) and the quartic family

    alpha(t) = n*A*t^(n+2) + (n+2)*B*t^(n+1) + p*(C*t + D),

the profile F''(t) = p*t^(n-1)/(p*t^n - alpha(t)) - 1/t is the second
derivative of an extremal symplectic potential whose scalar curvature is the
affine function S(t) = A*t + B.  The four coefficients are pinned by boundary
conditions at t = a and t = b,

    alpha(a) = p*a^n,        alpha'(a) = (n-1)*p*a^(n-1),
    alpha(b) = p*b^n,        alpha'(b) = (n+1)*p*b^(n-1),

which say that p*t^n - alpha has simple roots at both endpoints with exactly
the residues that cancel the Guillemin log singularities of the boundary
facets.  The coefficients come from the moment polytope alone: Donaldson's
functional, which vanishes on affine functions, gives (A, B) as a 2x2
system of polytope moments, and at (t - c)_+ it is the extremal numerator
p*c^n - alpha(c), whose lowest coefficients give C and D
(``_exact_solution``).  Everything is exact, in rational arithmetic, and the
result is rounded to float once; it is the only coefficient path.  Its
checks are exact: Calabi's closed forms equal it as rationals
(``coefficient_cross_check``), the four boundary conditions hold as exact
deflations, one division each (``_deflation``), and Bernstein coefficients
prove the metric valid on all of (a, b) (``positivity_certificate``).

Everything here runs on the standard library (``fractions``, ``math``), so a
command that needs only exact data loads no numpy.  The record also rounds
the polynomials of the profile, the deflated (V, Q) with
p*t^n - alpha = (t-a)(t-b)*Q, to float once; ``table`` evaluates them in
plain floats.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import (
    BoundaryIdentityViolation,
    InvalidParameters,
    PositivityViolation,
    PotentialPole,
)


# the exact work grows like a power of n (profile's deflation took 3.3 s at
# n = 256 and 16 s at 512 on a 2-core machine); refuse anything bigger so a
# misuse fails loudly instead of slowly
MAX_DIMENSION = 512


def _check_geometry(n: int, a: float, b: float) -> None:
    """The (n, a, b) preconditions shared by every coefficient entry point.

    n is an integer (``numbers.Integral``, so numpy's integers too), never a
    float, not even 2.0, and never a bool, from 1 to ``MAX_DIMENSION``.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise InvalidParameters(f"n must be an integer, got {n!r}")
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    if int(n) > MAX_DIMENSION:
        raise InvalidParameters(
            f"n must be at most {MAX_DIMENSION}, the range the exact layer is "
            f"sized for; got {n}"
        )
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameters("a and b must be finite")
    if not 0.0 < a < b:
        raise InvalidParameters(f"need 0 < a < b, got a={a}, b={b}")


class ExtremalCoefficients(namedtuple("ExtremalCoefficients", "n a b A B C D")):
    """Coefficients (A, B, C, D) of alpha for the (n, a, b) blow-up family.

    The implied scalar curvature is S(t) = A*t + B; c = b - a and
    p = n(n+1)(n+2) are derived.  No ``__slots__``: the cached properties
    below keep their values in the instance ``__dict__``.
    """

    def __new__(
        cls, n: int, a: float, b: float, A: float, B: float, C: float, D: float
    ) -> ExtremalCoefficients:
        _check_geometry(n, a, b)
        return super().__new__(cls, n, a, b, A, B, C, D)

    # _replace builds through _make, so both refuse what the constructor does
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def c(self) -> float:
        return self.b - self.a

    @property
    def p(self) -> float:
        return float(self.n * (self.n + 1) * (self.n + 2))

    # exact data of the profile, built once per coefficient set
    @cached_property
    def _exact_deflation(self) -> tuple[list, list]:
        return _deflation(self)

    # the float polynomials of the profile, the only rounding of V and Q:
    # table's Horner loops read these
    @cached_property
    def _float_deflation(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The exact (V, Q) of h'', each coefficient rounded to float; one past
        the float range, as at (n, a, b) = (6, 1e-163, 1e-160), is invalid
        input, as in ``_rounded``."""
        try:
            return tuple(tuple(map(float, c)) for c in self._exact_deflation)
        except OverflowError:
            raise InvalidParameters(
                f"a coefficient of V or Q overflows a float for"
                f" (n={self.n}, a={self.a}, b={self.b})"
            ) from None

    @cached_property
    def _bernstein(self) -> list:
        Q = self._exact_deflation[1]
        return _bernstein_certificate(Q, Fraction(self.a), Fraction(self.b))


@lru_cache
def _exact_solution(n: int, a: float, b: float) -> tuple[Fraction, ...]:
    """(A, B, C, D) from moments of the polytope, exactly.

    Donaldson's functional L(f) = int_dP f dsigma - int_P (A*t + B)*f dx
    vanishes on affine f.  Reduced to t, dx is t^(n-1)/(n-1)! dt, the n
    facets x_i = 0 carry n*t^(n-2)/(n-2)! dt and the facets t = a, b the
    point masses a^(n-1)/(n-1)! and b^(n-1)/(n-1)!.  So f = 1 and f = t give
    two equations in the moments m_k = (b^(k+1) - a^(k+1))/(k+1) of t^k dt,

        m_(n+j)*A + m_(n-1+j)*B = r_j,    j = 0, 1,

    with the boundary measure r_j = n(n-1)*m_(n-2+j) + a^(n-1+j) + b^(n-1+j),
    a polynomial for every n.  The determinant is the Gram determinant of
    {1, t} in L^2([a, b], t^(n-1) dt), which is ``_calabi_denominator``
    / (n(n+1)^2(n+2)), positive by Cauchy-Schwarz.  At f = (t - c)_+,
    (n+2)!*L is the extremal numerator p*c^n - alpha(c), whose two lowest
    coefficients give C and D.  The float (a, b) are exact rationals, so
    every step is exact.  Cached: ``solve_coefficients`` and the record's
    deflation both need it for the same geometry.
    """
    a, b = Fraction(float(a)), Fraction(float(b))
    m0, m1, m2 = ((b**k - a**k) / k for k in (n, n + 1, n + 2))
    r0 = (n + 1) * b ** (n - 1) - (n - 1) * a ** (n - 1)
    r1 = n * b**n - (n - 2) * a**n
    gram = m0 * m2 - m1**2
    A = (m0 * r1 - m1 * r0) / gram
    B = (m2 * r0 - m1 * r1) / gram
    C = (n + 1) * b ** (n - 1) - A * b ** (n + 1) / (n + 1) - B * b**n / n
    D = A * b ** (n + 2) / (n + 2) + B * b ** (n + 1) / (n + 1) - n * b**n
    return A, B, C, D


def _rounded(n: int, a: float, b: float, exact: tuple) -> ExtremalCoefficients:
    """The record of exact (A, B, C, D), each rounded to float once.

    A coefficient past the float range, as at (n, a, b) = (2, 1e-200, 2e-200)
    where A ~ 1/b^2, is invalid input, not an ``OverflowError``.
    """
    coeffs = {}
    for name, x in zip("ABCD", exact):
        try:
            coeffs[name] = float(x)
        except OverflowError:
            raise InvalidParameters(
                f"coefficient {name} overflows a float for (n={n}, a={a}, b={b})"
            ) from None
    return ExtremalCoefficients(n=n, a=float(a), b=float(b), **coeffs)


def solve_coefficients(n: int, a: float, b: float) -> ExtremalCoefficients:
    """Authoritative coefficients: Donaldson's moment system solved exactly
    and rounded to float once.  A float solve loses digits as a/b -> 1, where
    the Gram determinant has a fourth-order root.
    """
    _check_geometry(n, a, b)
    n = int(n)
    return _rounded(n, a, b, _exact_solution(n, a, b))


def _calabi_denominator(n: int, a, b):
    """The shared denominator of Calabi's closed forms, in the number type of
    a and b; positive for 0 < a < b, since (b^(n+1) - a^(n+1))/(b - a) =
    sum_k a^k b^(n-k) > (n+1)*(ab)^(n/2) by AM-GM."""
    return (b ** (n + 1) - a ** (n + 1)) ** 2 - (n + 1) ** 2 * (a * b) ** n * (b - a) ** 2


@lru_cache
def _closed_form(n: int, a: float, b: float) -> tuple[Fraction, ...]:
    """Calabi's explicit (A, B, C, D), exactly.

    Evaluated over ``Fraction``: the shared denominator has a fourth-order
    root at a = b, so float evaluation drifts as a/b -> 1.
    """
    a, b = Fraction(float(a)), Fraction(float(b))
    den = _calabi_denominator(n, a, b)

    A = (
        (n + 1)
        * (n + 2)
        * (
            (a * b) ** (n - 1)
            * (n * a**2 * (n + 1) + n * b**2 * (n - 1) - 2 * a * b * (n**2 - 1))
            - 2 * a ** (2 * n)
        )
        / den
    )
    B = (
        n
        * (n + 1)
        * (
            (a * b) ** (n - 1)
            * (
                a**2 * (n * b * (n + 2) - a * (n + 1) ** 2)
                + b**2 * (b * (1 - n**2) + a * (n**2 - 4))
            )
            + 3 * a ** (2 * n + 1)
            + b ** (2 * n + 1)
        )
        / den
    )
    C = (
        (a * b) ** (n - 1)
        * (
            (n + 1) * (a ** (n + 3) - a * b ** (n + 2) - 3 * b * a ** (n + 2))
            + ((n - 1) * b ** (n + 3) + 2 * (n + 2) * b**2 * a ** (n + 1))
        )
        / den
    )
    D = (
        (a * b) ** n
        * (
            b ** (n + 1) * (n * a - b * (n - 2))
            - 2 * a**n * b**2 * (n + 1)
            - n * a ** (n + 1) * (a - 3 * b)
        )
        / den
    )
    return A, B, C, D


def coefficient_cross_check(solved: ExtremalCoefficients) -> bool:
    """True when Calabi's closed forms and the moment solve are the same four
    rationals at the record's (n, a, b), and the record is their rounding."""
    closed = _closed_form(solved.n, solved.a, solved.b)
    return closed == _exact_solution(solved.n, solved.a, solved.b) and tuple(
        map(float, closed)
    ) == (solved.A, solved.B, solved.C, solved.D)


def _alpha_coeffs(n: int, A, B, C, D) -> list:
    """Descending coefficients of alpha (degree n+2), in the number type of
    (A, B, C, D)."""
    p = n * (n + 1) * (n + 2)
    coeffs = [0] * (n + 3)
    coeffs[0] = n * A
    coeffs[1] = (n + 2) * B
    coeffs[n + 1] += p * C
    coeffs[n + 2] += p * D
    return coeffs


def _deflate(coeffs: list, root) -> tuple[list, object]:
    """Synthetic division by (t - root): quotient and remainder ([] is 0)."""
    quot, acc = [], 0
    for coeff in coeffs:
        quot.append(acc)
        acc = coeff + root * acc
    return quot[1:], acc


def _deflation(E: ExtremalCoefficients) -> tuple[list, list]:
    """Exact (V, Q) of the cancellation-free form of h''.

    h''(t) = F''(t) - (b-a)/((t-a)(b-t)) has exactly cancelling poles at the
    endpoints.  With beta = p*t^n - alpha = (t-a)(t-b)*Q, the combined
    numerator p*t^(n-1)*(t-a)*(b-t) - (b-a)*beta is -(t-a)(t-b)*R with
    R = p*t^(n-1) + (b-a)*Q, and R has simple roots at both endpoints too;
    dividing them out gives

        h''(t) = -V(t)/Q(t) - 1/t,
        Q = beta / ((t-a)(t-b)),   V = -R / ((t-a)(t-b)).

    Each of the four divisions checks one boundary condition: its remainder
    is 0 exactly when the condition holds, given the ones before it.  beta's
    are alpha(a) = p*a^n and alpha(b) = p*b^n; R(a) = alpha'(a) -
    (n-1)*p*a^(n-1) and R(b) = (n+1)*p*b^(n-1) - alpha'(b) are the slopes.

    Built over ``Fraction`` from the exact moment solve, which must round to
    the record's own (A, B, C, D), or ``InvalidParameters`` is raised.  A
    nonzero remainder raises ``BoundaryIdentityViolation`` naming the first
    condition that fails.
    """
    n, p = E.n, E.n * (E.n + 1) * (E.n + 2)
    exact = _exact_solution(n, E.a, E.b)
    if tuple(map(float, exact)) != (E.A, E.B, E.C, E.D):
        raise InvalidParameters(f"not the extremal coefficients of {E}")
    a, b = Fraction(E.a), Fraction(E.b)

    def divide(coeffs: list, conditions: tuple) -> list:
        for root, condition in zip((a, b), conditions):
            coeffs, rem = _deflate(coeffs, root)
            if rem:
                raise BoundaryIdentityViolation(
                    f"boundary condition {condition} fails for {E}"
                )
        return coeffs

    beta = [-x for x in _alpha_coeffs(n, *exact)]  # p*t^n - alpha
    beta[2] += p  # the p*t^n term sits two slots below the leading one
    Q = divide(beta, ("alpha(a) = p*a^n", "alpha(b) = p*b^n"))
    R = [(b - a) * q for q in Q]
    R[1] += p  # p*t^(n-1), one slot below Q's leading degree n
    V = divide(R, ("alpha'(a) = (n-1)*p*a^(n-1)", "alpha'(b) = (n+1)*p*b^(n-1)"))
    return [-v for v in V], Q


def _h_second_exact(E: ExtremalCoefficients, t: Fraction) -> Fraction:
    """h''(t) = -V(t)/Q(t) - 1/t as an exact rational, at a rational t."""
    V, Q = E._exact_deflation
    q_val = _deflate(Q, t)[1]
    if q_val == 0:
        raise PotentialPole(f"deflated denominator vanishes at t = {float(t)}")
    return -_deflate(V, t)[1] / q_val - 1 / t


def _quadratic_form(a) -> tuple:
    """The n = 2, b = 1 closed form h''(t) = num/den(t) - 1/t at a rational
    a: num and the descending coefficients of the quadratic den, exactly."""
    return 2 * a * (1 - a), [2 * a, 1 - a**2 + 2 * a, 2 * a**2]


def _quadratic_form_identity(E: ExtremalCoefficients) -> bool:
    """Whether the h'' of an n = 2, b = 1 record is the closed form, exactly.

    h'' = -V/Q - 1/t and V is a constant at n = 2, so the closed form is h''
    exactly when -V*den and num*Q are one polynomial.
    """
    (v,), Q = E._exact_deflation
    num, den = _quadratic_form(Fraction(E.a))
    return [-v * d for d in den] == [num * q for q in Q]


def _bernstein_certificate(Q: list, a: Fraction, b: Fraction) -> list:
    """The Bernstein coefficients b_k of Q (descending coefficients) on
    [a, b], exactly: Q(a + c*u) by a Horner Taylor shift, then
    b_k = sum_j C(k, j)/C(d, j) * q_j.  Q on [a, b] lies in their convex hull
    (Farouki, CAGD 2012), so all b_k < 0 proves Q < 0 there; b_0 = Q(a) and
    b_d = Q(b).  Raises ``PositivityViolation`` at the first b_k >= 0.

    Both steps run in integers over one positive scale: with s the common
    denominator of a and b (a power of two for floats) and L that of Q,
    s^d * L * Q(v/s) has integer coefficients, its Taylor shift by s*a and
    the substitution v = s*c*u keep them integers, and d!/C(d, j) = j!(d-j)!
    clears the Bernstein weights, so d! * s^d * L * b_k is an integer.
    """
    Q = [Fraction(x) for x in Q]
    d = len(Q) - 1
    L = math.lcm(*(x.denominator for x in Q))
    s = math.lcm(a.denominator, b.denominator)
    shift, c = int(a * s), int((b - a) * s)
    # ascending integer coefficients of s^d * L * Q(v/s)
    q = [x.numerator * (L // x.denominator) * s**i for i, x in enumerate(Q)][::-1]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            q[j] += shift * q[j + 1]
    w = [x * c**j * math.factorial(j) * math.factorial(d - j) for j, x in enumerate(q)]
    scale = math.factorial(d) * s**d * L
    bern = [sum(math.comb(k, j) * w[j] for j in range(k + 1)) for k in range(d + 1)]
    for k, x in enumerate(bern):
        if x >= 0:
            raise PositivityViolation(
                f"Bernstein coefficient b_{k} = {x / scale:.3e} of Q on"
                f" [{float(a)}, {float(b)}] is not negative; no valid metric"
            )
    return [Fraction(x, scale) for x in bern]


def positivity_certificate(E: ExtremalCoefficients) -> float:
    """Prove 1 + t*F'' > 0 on all of (a, b); return the margin in [-1, 0).

    p*t^n - alpha = (t-a)(t-b)*Q with the exact Q of the deflation, so Q < 0
    on [a, b], proved by its Bernstein coefficients, makes 1 + t*F'' =
    p*t^n/(p*t^n - alpha) positive at every t.  Raises ``PositivityViolation``
    otherwise.  The margin max b_k / max |b_k| is the only rounded part.
    """
    bern = E._bernstein
    return float(max(bern) / max(map(abs, bern)))
