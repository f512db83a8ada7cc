"""The exact layer of the extremal construction, in integer arithmetic only,
and the two commands that run on it alone, ``derive`` and ``example``.

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
(``_exact_solution``); it is the only coefficient path.  Its checks are
exact: Calabi's closed forms equal it as rationals
(``coefficient_cross_check``), and the four boundary conditions hold as
exact deflations, one division each (``_deflation``).  The proof that the
metric is valid on all of (a, b) reads that deflation and lives with
``verify``, the one command that runs it (``calabi.positivity_certificate``).

Everything is exact, and in integers.  The floats a and b are dyadic, so
a = a'/s and b = b'/s for integers a', b' and their common power-of-two
denominator s = 2^e (``_scaled``), and every quantity is an integer over a
known integer denominator: (A, B, C, D) are four numerators over one
denominator, and a polynomial P of t is kept as the descending integer
coefficients of P'(v) = K*P(v/s), a polynomial of v = s*t, with its scale K,
so that dividing by t - a is integer synthetic division by v - a'.  No gcd
is ever taken.  Each float is one int / int division, which Python rounds
correctly (as ``Fraction.__float__`` does), so every result is the exact
value rounded once.  Nothing is cached: the record is a plain value, and
each call that reads an exact quantity computes it.  ``table`` rounds the
polynomials of the profile, the deflated (V, Q) with
p*t^n - alpha = (t-a)(t-b)*Q, to float once per call and evaluates them in
plain floats.  Everything here runs on the standard library, so a command
that needs only exact data loads neither numpy nor ``fractions``.
"""

import math
import operator
from collections import namedtuple

from .errors import BoundaryIdentityViolation, InvalidParameters


# the exact work grows like a power of n (profile --a 0.3 --b 1.7 --samples 5
# took 0.02 s at n = 256 and 0.08 s at 512 in process, on a 2-core machine;
# derive --n 10**48 would never return); refuse anything bigger so a misuse
# fails loudly instead of slowly
MAX_DIMENSION = 512


def _check_geometry(n: int, a: float, b: float) -> int:
    """The (n, a, b) preconditions shared by every coefficient entry point;
    returns n as an int.

    n is an integer (anything with ``__index__``, so numpy's integers too),
    never a float, not even 2.0, and never a bool, from 1 to
    ``MAX_DIMENSION``.
    """
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise InvalidParameters(f"n must be an integer, got {n!r}")
    k = operator.index(n)
    if k < 1:
        raise InvalidParameters("n must be >= 1")
    if k > MAX_DIMENSION:
        raise InvalidParameters(
            f"n must be at most {MAX_DIMENSION}, the range the exact layer is "
            f"sized for; got {n}"
        )
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameters("a and b must be finite")
    if not 0.0 < a < b:
        raise InvalidParameters(f"need 0 < a < b, got a={a}, b={b}")
    return k


def _scaled(a: float, b: float) -> tuple:
    """(e, a', b') with a = a'/2^e and b = b'/2^e: the floats over their
    common power-of-two denominator s = 2^e."""
    (pa, qa), (pb, qb) = float(a).as_integer_ratio(), float(b).as_integer_ratio()
    s = max(qa, qb)
    return s.bit_length() - 1, pa * (s // qa), pb * (s // qb)


class ExtremalCoefficients(namedtuple("ExtremalCoefficients", "n a b A B C D")):
    """Coefficients (A, B, C, D) of alpha for the (n, a, b) blow-up family.

    The implied scalar curvature is S(t) = A*t + B; p = n(n+1)(n+2) is
    derived.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, a: float, b: float, A: float, B: float, C: float, D: float
    ) -> "ExtremalCoefficients":
        _check_geometry(n, a, b)
        return super().__new__(cls, n, a, b, A, B, C, D)

    # _replace builds through _make, so both refuse what the constructor does
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def p(self) -> float:
        return float(self.n * (self.n + 1) * (self.n + 2))


def _exact_solution(n: int, a: float, b: float) -> tuple:
    """(A, B, C, D) from moments of the polytope, exactly: their four integer
    numerators over one positive integer denominator.

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
    coefficients give C and D.

    In integers, with a = a'/s and b = b'/s: M_k = b'^k - a'^k gives the
    moments, R_0 = (n+1)*b'^(n-1) - (n-1)*a'^(n-1) and R_1 = n*b'^n -
    (n-2)*a'^n the measures, and G = (n+1)^2*M_n*M_(n+2) - n(n+2)*M_(n+1)^2
    is Calabi's denominator at (a', b').  Cramer's rule gives
    A = (n+1)(n+2)*A'*s^2/G and B = n(n+1)*B'*s/G with the integers A' and
    B' (``A`` and ``B`` below), and the lines for (C, D) keep every
    numerator over G*s^n, the one denominator.
    """
    e, a, b = _scaled(a, b)
    M0, M1, M2 = (b**k - a**k for k in (n, n + 1, n + 2))
    R0 = (n + 1) * b ** (n - 1) - (n - 1) * a ** (n - 1)
    R1 = n * b**n - (n - 2) * a**n
    G = (n + 1) ** 2 * M0 * M2 - n * (n + 2) * M1**2
    A = (n + 1) * M0 * R1 - n * M1 * R0
    B = (n + 1) * M2 * R0 - (n + 2) * M1 * R1
    C = (n + 1) * G * b ** (n - 1) - (n + 2) * A * b ** (n + 1) - (n + 1) * B * b**n
    D = (n + 1) * A * b ** (n + 2) + n * B * b ** (n + 1) - n * G * b**n
    # A*G*s^n, B*G*s^n, C*G*s^n and D*G*s^n
    numerators = ((n + 1) * (n + 2) * A << e * (n + 2),
                  n * (n + 1) * B << e * (n + 1), C << e, D)
    return numerators, G << e * n


def _rounded(n: int, a: float, b: float, exact: tuple) -> ExtremalCoefficients:
    """The record of exact (A, B, C, D), each rounded to float once.

    A coefficient past the float range, as at (n, a, b) = (2, 1e-200, 2e-200)
    where A ~ 1/b^2, is invalid input, not an ``OverflowError``.
    """
    coeffs = {}
    numerators, den = exact
    for name, x in zip("ABCD", numerators):
        try:
            coeffs[name] = x / den
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
    n = _check_geometry(n, a, b)
    return _rounded(n, a, b, _exact_solution(n, a, b))


def _calabi_denominator(n: int, a, b):
    """The shared denominator of Calabi's closed forms, in the number type of
    a and b; positive for 0 < a < b, since (b^(n+1) - a^(n+1))/(b - a) =
    sum_k a^k b^(n-k) > (n+1)*(ab)^(n/2) by AM-GM."""
    return (b ** (n + 1) - a ** (n + 1)) ** 2 - (n + 1) ** 2 * (a * b) ** n * (b - a) ** 2


def _closed_form(n: int, a: float, b: float) -> tuple:
    """Calabi's explicit (A, B, C, D), exactly, as ``_exact_solution`` gives
    them: numerators over one denominator.

    Evaluated in integers: the shared denominator has a fourth-order root at
    a = b, so float evaluation drifts as a/b -> 1.  The numerators below are
    homogeneous in (a, b) of degrees 2n, 2n+1, 3n+1 and 3n+2, the
    denominator of degree 2n+2, so at (a', b') = s*(a, b) each becomes the
    value over s^n times that denominator by a power of s.
    """
    e, a, b = _scaled(a, b)
    A = (n + 1) * (n + 2) * (
        (a * b) ** (n - 1)
        * (n * a**2 * (n + 1) + n * b**2 * (n - 1) - 2 * a * b * (n**2 - 1))
        - 2 * a ** (2 * n)
    )
    B = n * (n + 1) * (
        (a * b) ** (n - 1)
        * (
            a**2 * (n * b * (n + 2) - a * (n + 1) ** 2)
            + b**2 * (b * (1 - n**2) + a * (n**2 - 4))
        )
        + 3 * a ** (2 * n + 1)
        + b ** (2 * n + 1)
    )
    C = (a * b) ** (n - 1) * (
        (n + 1) * (a ** (n + 3) - a * b ** (n + 2) - 3 * b * a ** (n + 2))
        + ((n - 1) * b ** (n + 3) + 2 * (n + 2) * b**2 * a ** (n + 1))
    )
    D = (a * b) ** n * (
        b ** (n + 1) * (n * a - b * (n - 2))
        - 2 * a**n * b**2 * (n + 1)
        - n * a ** (n + 1) * (a - 3 * b)
    )
    numerators = (A << e * (n + 2), B << e * (n + 1), C << e, D)
    return numerators, _calabi_denominator(n, a, b) << e * n


def coefficient_cross_check(solved: ExtremalCoefficients) -> bool:
    """True when Calabi's closed forms and the moment solve are the same four
    rationals at the record's (n, a, b), and the record is their rounding.

    Both give their numerators over Calabi's denominator times s^n (the Gram
    determinant of the moment solve is that denominator, as integers), so
    the rationals are the same exactly when the integers are.
    """
    n, a, b = solved.n, solved.a, solved.b
    closed = _closed_form(n, a, b)
    return closed == _exact_solution(n, a, b) and _rounded(n, a, b, closed) == solved


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


def _deflation(E: ExtremalCoefficients) -> tuple:
    """Exact (V, Q) of the cancellation-free form of h'', and their scale K.

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

    Built in integers from the exact moment solve, over its denominator d:
    beta' = d*s^(n+2)*beta(v/s), so each division by (t - a)(t - b) is one
    by (v - a')(v - b') and takes out s^2, and Q(t) = Q'(s*t)/K and
    V(t) = V'(s*t)/K with K = d*s^n; the lists are Q' and V'.  The solve
    must round to the record's own (A, B, C, D), or ``InvalidParameters`` is
    raised, as it is for a coefficient past the float range (``_rounded``).
    A nonzero remainder raises ``BoundaryIdentityViolation`` naming the
    first condition that fails.
    """
    n, p = E.n, E.n * (E.n + 1) * (E.n + 2)
    exact = _exact_solution(n, E.a, E.b)
    if _rounded(n, E.a, E.b, exact) != E:
        raise InvalidParameters(f"not the extremal coefficients of {E}")
    numerators, den = exact
    e, a, b = _scaled(E.a, E.b)

    def divide(coeffs: list, conditions: tuple) -> list:
        for root, condition in zip((a, b), conditions):
            coeffs, rem = _deflate(coeffs, root)
            if rem:
                raise BoundaryIdentityViolation(
                    f"boundary condition {condition} fails for {E}"
                )
        return coeffs

    beta = [-x for x in _alpha_coeffs(n, *numerators)]  # d*(p*t^n - alpha)
    beta[2] += p * den  # the p*t^n term sits two slots below the leading one
    # the v^k coefficient of d*s^(n+2)*beta(v/s) is s^(n+2-k) times that of t^k
    beta = [x << e * i for i, x in enumerate(beta)]
    Q = divide(beta, ("alpha(a) = p*a^n", "alpha(b) = p*b^n"))
    R = [(b - a) * q for q in Q]  # d*s^(n+1)*R(v/s)
    R[1] += (p * den) << 2 * e  # p*t^(n-1), one slot below Q's leading degree n
    V = divide(R, ("alpha'(a) = (n-1)*p*a^(n-1)", "alpha'(b) = (n+1)*p*b^(n-1)"))
    return [-(v << e) for v in V], Q, den << e * n


def _quadratic_form(a: int, s: int) -> tuple:
    """The n = 2, b = 1 closed form h''(t) = num/den(t) - 1/t at the rational
    a/s, times s^2: num and the descending coefficients of the quadratic den,
    integers for integer a and s."""
    return 2 * a * (s - a), [2 * a * s, s * s - a * a + 2 * a * s, 2 * a * a]


def run_derive(args) -> tuple[dict, str]:
    """``derive``: the coefficient record of (n, a, b)."""
    E = solve_coefficients(args.n, args.a, args.b)
    doc = {
        "n": E.n,
        "a": E.a,
        "b": E.b,
        "p": E.p,
        "A": E.A,
        "B": E.B,
        "C": E.C,
        "D": E.D,
        "S": "A*t+B",
    }
    return doc, ""


def run_example(args) -> tuple[dict, str]:
    """``example``: the n = 2, b = 1 slice, its closed forms and the
    quadratic form of h''."""
    a = args.a
    E = solve_coefficients(2, a, 1.0)
    # h'' of the form checked, exactly at the float midpoint t = N/m: there
    # m^2*den(t) = D is an integer, so h'' = (num*m^2*N - m*D)/(D*N)
    e, scaled_a, _ = _scaled(E.a, E.b)
    num, den = _quadratic_form(scaled_a, 1 << e)
    N, m = (0.5 * (a + 1.0)).as_integer_ratio()
    D = (den[0] * N + den[1] * m) * N + den[2] * m * m
    # h'' = -V/Q - 1/t with V = v/K a constant at n = 2, so the form is h''
    # exactly when -v*den_k == num*Q'_k*s^k for each k, both times K*s^2
    (v,), Q, _ = _deflation(E)
    checks = {
        "closed_form": coefficient_cross_check(E),
        "quadratic_form": [-v * d for d in den]
        == [num * q << e * k for k, q in zip((2, 1, 0), Q)],
    }
    doc = {
        "schema": 3,
        "command": "example",
        "a": a,
        "coefficients": {"A": E.A, "B": E.B, "C": E.C, "D": E.D},
        "h_second_midpoint": (num * m * m * N - m * D) / (D * N),
        "checks": checks,
        "passed": all(checks.values()),
    }
    failing = [k for k, ok in checks.items() if not ok]
    return doc, "" if not failing else "example check failed: " + ", ".join(failing)
