"""Shared model potentials, which are their own polytopes, the radial curvature references, the
references built from the package's parts (the Legendre F, the full inverse
Hessian, Abreu's stencil one pair of coordinates at a time, Calabi's closed
forms rounded to a record), two independent
routes to the extremal coefficients (the 4x4 boundary system and
Donaldson's moment system, with mutants of the latter), the extremal affine
function from the polytope's own facets, Donaldson's
functional at (t - c)_+, the exact momentum
profile of the extremal metric, the exact layer's integers read as
``Fraction`` and its ``Fraction`` references (the deflated (V, Q), h'' and
the Bernstein coefficients), the exact inverse and inertia of the radial
Hessian and a geometric grid, for the test suite, on the standard library
and sympy alone."""

import math
from fractions import Fraction

from toricext.exact import (
    _alpha_coeffs,
    _check_geometry,
    _closed_form,
    _deflation,
    _exact_solution,
    _rounded,
    _scaled,
)
from toricext.numdiff import STEP_SECOND
from toricext.radial import TPotential, check_validity


def profile(n: int, t_min: float, t_max: float, jet_at) -> TPotential:
    """The TPotential whose momentum profile (phi, phi', phi'') at one t is
    jet_at(t)."""

    def jet(ts):
        return tuple(map(list, zip(*map(jet_at, ts)))) if ts else ([], [], [])

    return TPotential(n, t_min, t_max, jet)


def F_profile(n: int, t_min: float, t_max: float, d2F, d3F, d4F) -> TPotential:
    """The TPotential whose F'', F''' and F'''' at one t are d2F(t), d3F(t)
    and d4F(t): phi = t/g, g = 1 + t*F'', by the quotient rule."""

    def jet_at(t):
        g = 1.0 + t * d2F(t)
        g1 = d2F(t) + t * d3F(t)
        g2 = 2.0 * d3F(t) + t * d4F(t)
        return t / g, (g - t * g1) / g**2, -(t * g2 * g + 2.0 * g1 * (g - t * g1)) / g**3

    return profile(n, t_min, t_max, jet_at)


def cpn_profile(n: int, b: float = 1.0) -> TPotential:
    """Guillemin profile of the size-b simplex: phi = t*(b - t)/b on (0, b)
    (F'' = 1/(b - t)), the Fubini-Study metric with S = n(n+1)/b."""
    return profile(n, 0.0, b, lambda t: (t * (b - t) / b, (b - 2.0 * t) / b, -2.0 / b))


def flat_profile(n: int, t_min: float = 0.0, t_max: float = 10.0) -> TPotential:
    """phi = t (F'' = 0) on (t_min, t_max): the flat metric, S = 0."""
    return profile(n, t_min, t_max, lambda t: (t, 1.0, 0.0))


def radial_hessian(x, d2F_value) -> list[list[Fraction]]:
    """The radial potential's Hessian G_ij = (delta_ij/x_i + F'')/2 at one
    point x, written out in full and exactly at the numbers given: what the
    closed-form inverse inverts."""
    x, f = [Fraction(v) for v in x], Fraction(d2F_value)
    return [[((i == j) / xi + f) / 2 for j in range(len(x))] for i, xi in enumerate(x)]


def exact_inverse_hessian(x, d2F_value) -> list[list[Fraction]]:
    """The inverse of ``radial_hessian(x, F'')``, exactly, by Sherman-Morrison:
    G = (diag(1/x) + F'' 1 1^T)/2 gives G^{-1} = 2*(diag(x) - w*x x^T) with
    w = F''/(1 + F''*t), t = sum(x)."""
    x, f = [Fraction(v) for v in x], Fraction(d2F_value)
    w = f / (1 + f * sum(x))
    return [[2 * ((i == j) * xi - w * xi * xj) for j, xj in enumerate(x)]
            for i, xi in enumerate(x)]


def inertia(matrix) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of the symmetric matrix,
    exactly: symmetric elimination L D L^T over ``Fraction`` keeps them
    (Sylvester's law of inertia).  Each step pivots on the largest diagonal
    entry left; where every one left is 0 but some entry c is not, on that
    2x2 block [[0, c], [c, 0]], whose eigenvalues are +-|c|."""
    a = [[Fraction(v) for v in row] for row in matrix]
    left = list(range(len(a)))
    counts = [0, 0, 0]
    while left:
        k = max(left, key=lambda i: abs(a[i][i]))
        if a[k][k] != 0:
            counts[a[k][k] < 0] += 1
            left.remove(k)
            for i in left:
                f = a[i][k] / a[k][k]
                for j in left:
                    a[i][j] -= f * a[k][j]
            continue
        pair = next(((k, l) for k in left for l in left if a[k][l] != 0), None)
        if pair is None:  # what is left is 0
            counts[2] += len(left)
            break
        k, l = pair
        counts[0] += 1
        counts[1] += 1
        left.remove(k)
        left.remove(l)
        c = a[k][l]
        for i in left:
            fk, fl = a[i][l] / c, a[i][k] / c  # the row of [a_ik, a_il] B^{-1}
            for j in left:
                a[i][j] -= fk * a[k][j] + fl * a[l][j]
    return tuple(counts)


def inverse_hessian(x, phi: float) -> list[list[float]]:
    """G^{-1} = 2*(diag(x) - w*x x^T), w = (t - phi)/t^2, at one point x with
    momentum profile phi at t = sum(x), entry by entry: the diagonal
    2*x_i*(t - x_i + x_i*phi/t)/t and the rest -2*w*x_i*x_j; refuses a t
    where the metric degenerates.  t - x_i is summed from the other
    coordinates: where x_i carries nearly all of t, the rounded t - x_i keeps
    the rounding of t and loses all but a few digits of the diagonal entry."""
    t = sum(x)
    check_validity(t, phi)
    w = (t - phi) / t / t
    return [
        [
            2.0 * xi * (math.fsum(x[:i] + x[i + 1:]) + xi * phi / t) / t
            if i == j else -2.0 * w * xi * xj
            for j, xj in enumerate(x)
        ]
        for i, xi in enumerate(x)
    ]


def pair_loop_curvature(x, h: float, ts, phi) -> float:
    """Abreu's stencil at one point x with step h, on the closed-form
    entries of G^{-1} one pair of coordinates at a time: the four corners
    x +- h*e_i +- h*e_j of every pair i < j, each read as -2*w*y_i*y_j at
    the corner's t.  ts and phi are t + k*h and the momentum profile there,
    indexed by k + 2, as the package's stencil reads them; the reference its
    closed sum over the pairs must reproduce."""
    t = ts[2]
    w = [(s - f) / s / s for s, f in zip(ts, phi)]
    hh = h * h

    def diagonal(y, rest, s, f):  # G^{ii} at x_i = y, t - x_i = rest, t = s
        return 2.0 * y * (rest + y * f / s) / s

    def off_diagonal(yi, yj, wk):  # G^{ij}, i != j
        return -2.0 * wk * yi * yj

    total = 0.0
    for xi in x:
        rest = t - xi  # the same at x and at x +- h*e_i
        plus = diagonal(xi + h, rest, ts[3], phi[3])
        centre = diagonal(xi, rest, t, phi[2])
        minus = diagonal(xi - h, rest, ts[1], phi[1])
        total += (plus - 2.0 * centre + minus) / hh

    for i, xi in enumerate(x):
        for xj in x[i + 1:]:
            mixed = (
                off_diagonal(xi + h, xj + h, w[4])
                - off_diagonal(xi + h, xj - h, w[2])
                - off_diagonal(xi - h, xj + h, w[2])
                + off_diagonal(xi - h, xj - h, w[0])
            ) / (4.0 * hh)
            total += 2.0 * mixed  # (i,j) and (j,i) contribute equally
    return -0.5 * total


def legendre_F(s_of_t, f, t: float) -> float:
    """The t-potential F(t) = t*ln(s(t)/t) - 2*f(s(t)) of the Kahler
    potential f, through s_of_t, the inverse of its moment map."""
    s = s_of_t(t)
    return t * math.log(s / t) - 2.0 * f(s)


def boundary_rows(n: int, a, b) -> list:
    """Augmented rows [coefficients of (A, B, C, D) | target] of the endpoint
    conditions alpha(a), alpha'(a), alpha(b), alpha'(b), in the number type
    of a and b: the 4x4 boundary system, an independent reference for the
    package's moment solve."""
    p = n * (n + 1) * (n + 2)

    def value_row(e) -> list:
        return [n * e ** (n + 2), (n + 2) * e ** (n + 1), p * e, p]

    def slope_row(e) -> list:
        return [n * (n + 2) * e ** (n + 1), (n + 1) * (n + 2) * e**n, p, 0]

    return [
        value_row(a) + [p * a**n],
        slope_row(a) + [(n - 1) * p * a ** (n - 1)],
        value_row(b) + [p * b**n],
        slope_row(b) + [(n + 1) * p * b ** (n - 1)],
    ]


def gauss_jordan(rows: list) -> list:
    """The solution of the augmented rows [matrix | target], by Gauss-Jordan
    elimination in the given row order, in their number type: exact over
    ``Fraction`` where no leading principal minor is 0."""
    for col, pivot in enumerate(rows):
        for r, row in enumerate(rows):
            if r != col:
                f = row[col] / pivot[col]
                rows[r] = [x - f * y for x, y in zip(row, pivot)]
    return [row[-1] / row[k] for k, row in enumerate(rows)]


def boundary_solution(n: int, a: float, b: float) -> tuple[Fraction, ...]:
    """(A, B, C, D) of the 4x4 boundary system, exactly: no leading minor is
    0 for any n (``test_boundary_system_is_nonsingular_for_every_n``)."""
    return tuple(gauss_jordan(boundary_rows(n, Fraction(float(a)), Fraction(float(b)))))


def moment_system(n: int, a, b, facets=1, mass_at_a=1) -> tuple:
    """The moments (m_(n-1), m_n, m_(n+1)), m_k = (b^(k+1) - a^(k+1))/(k+1),
    and the boundary measures (r_0, r_1) of Donaldson's 2x2 system
    m_(n+j)*A + m_(n-1+j)*B = r_j, in the number type of a and b.

    r_j = facets*n(n-1)*m_(n-2+j) + mass_at_a*a^(n-1+j) + b^(n-1+j): the
    weights 0 drop the x_i-facet term or the point mass at t = a."""

    def moment(k):
        return (b ** (k + 1) - a ** (k + 1)) / (k + 1)

    r0 = facets * n * (b ** (n - 1) - a ** (n - 1)) + mass_at_a * a ** (n - 1)
    r1 = facets * (n - 1) * (b**n - a**n) + mass_at_a * a**n
    r0, r1 = r0 + b ** (n - 1), r1 + b**n
    return (moment(n - 1), moment(n), moment(n + 1)), (r0, r1)


def lowest_coefficients(n: int, b, A, B) -> tuple:
    """(C, D) of alpha from (A, B): the two conditions at t = b, solved."""
    C = (n + 1) * b ** (n - 1) - A * b ** (n + 1) / (n + 1) - B * b**n / n
    D = A * b ** (n + 2) / (n + 2) + B * b ** (n + 1) / (n + 1) - n * b**n
    return C, D


def moment_solution(n: int, a: float, b: float, **weights) -> tuple[Fraction, ...]:
    """(A, B, C, D) of Donaldson's system by Cramer's rule over ``Fraction``,
    with the weights of ``moment_system``."""
    a, b = Fraction(float(a)), Fraction(float(b))
    (m0, m1, m2), (r0, r1) = moment_system(n, a, b, **weights)
    gram = m0 * m2 - m1 * m1
    A, B = (m0 * r1 - m1 * r0) / gram, (m2 * r0 - m1 * r1) / gram
    return (A, B, *lowest_coefficients(n, b, A, B))


def polytope_theta(n: int, a: float, b: float, facet_at_a=1) -> tuple[Fraction, ...]:
    """(theta_0, theta_1, ..., theta_n) of the extremal affine function
    theta_0 + sum_i theta_i*x_i of P = {x >= 0, a <= sum(x) <= b}, exactly,
    on the polytope itself: no U(n) reduction, no symmetry assumed.

    theta solves the Gram system int_P theta*f dx = int_dP f dsigma for f in
    {1, x_1, ..., x_n}, with Donaldson's boundary measure, du ^ dsigma = dx
    on each facet {u = 0}: u = x_k, t - a and b - t.  Every integral is
    Dirichlet's int_{y >= 0, sum(y) <= L} y^alpha dy = L^(m+|alpha|) *
    alpha!/(m+|alpha|)! over m coordinates, and on the facets t = L its slice
    form, the L-derivative.  facet_at_a weighs the facet t = a (1, or a
    mutant's other weight)."""
    a, b = Fraction(float(a)), Fraction(float(b))

    def dirichlet(alpha, L, derivative=0):
        # over the simplex {y >= 0, sum(y) <= L} in len(alpha) coordinates,
        # or its slice sum(y) = L
        k = len(alpha) + sum(alpha) - derivative
        return L**k * math.prod(map(math.factorial, alpha)) / math.factorial(k)

    def inside(alpha):  # {a <= sum(y) <= b}, as the difference of two simplices
        return dirichlet(alpha, b) - dirichlet(alpha, a)

    def boundary(alpha):
        # the facets x_k = 0, where x^alpha vanishes unless alpha_k = 0, are
        # slabs in the other n - 1 coordinates
        total = sum(inside(alpha[:k] + alpha[k + 1:]) for k in range(n) if alpha[k] == 0)
        return total + facet_at_a * dirichlet(alpha, a, 1) + dirichlet(alpha, b, 1)

    # the exponents of 1, x_1, ..., x_n
    basis = [(0,) * n] + [tuple(int(i == k) for i in range(n)) for k in range(n)]
    rows = [
        [inside(tuple(map(sum, zip(e, f)))) for f in basis] + [boundary(e)]
        for e in basis
    ]
    # a Gram matrix is positive definite, so no leading minor is 0
    return tuple(gauss_jordan(rows))


def donaldson_functional(n: int, a, b, A, B, c):
    """(n+2)! * L((t - c)_+), L(f) = int_dP f dsigma - int_P (A*t + B)*f dx,
    for a rational c in (a, b), by the U(n)-reduced measures: t^(n-1)/(n-1)!
    dt inside, n*t^(n-2)/(n-2)! dt on the n facets x_i = 0, and the point
    mass b^(n-1)/(n-1)! at t = b ((t - c)_+ is 0 at t = a)."""

    def integral(k):  # int_c^b t^k dt
        return (b ** (k + 1) - c ** (k + 1)) / (k + 1)

    p = n * (n + 1) * (n + 2)
    # (n-1)! times each measure; the facet term is absent at n = 1
    facet = n * (n - 1) * (integral(n - 1) - c * integral(n - 2)) if n > 1 else 0
    point = (b - c) * b ** (n - 1)
    interior = (A * (integral(n + 1) - c * integral(n))
                + B * (integral(n) - c * integral(n - 1)))
    return p * (facet + point - interior)


def closed_form_coefficients(n: int, a: float, b: float):
    """Calabi's explicit coefficient formulas, evaluated exactly and rounded
    to float once, as a record."""
    n = _check_geometry(n, a, b)
    return _rounded(n, a, b, _closed_form(n, a, b))


def differences(f, x: float, h: float) -> tuple[float, float]:
    """f'(x) and f''(x) by one Richardson level on central differences
    (O(h^4)), from f at x, x +- h/2 and x +- h: both combine the coarse
    (step h) and fine (step h/2) centred differences as (4*fine - coarse)/3."""
    down, down_half, mid, up_half, up = (f(x + k * h) for k in (-1.0, -0.5, 0.0, 0.5, 1.0))
    half = 0.5 * h
    first = (4.0 * ((up_half - down_half) / (2.0 * half)) - (up - down) / (2.0 * h)) / 3.0
    second = (4.0 * ((up_half - 2.0 * mid + down_half) / (half * half))
              - (up - 2.0 * mid + down) / (h * h)) / 3.0
    return first, second


def fd_curvature_reference(T, t):
    """S = t^(1-n) * u''(t) by central differences on u = t^(n-1)*(t - phi),
    from phi alone: one Richardson level, step eps^(1/4)*t_max shrunk to half
    the room left in (t_min, t_max).  The reference the analytic
    ``radial_scalar_curvature`` must reproduce."""
    n = T.n
    h = min(STEP_SECOND * T.t_max, 0.5 * min(t - T.t_min, T.t_max - t))

    def u(tau):
        [phi] = T.jet([tau])[0]
        return tau ** (n - 1) * (tau - phi)

    return t ** (1 - n) * differences(u, t, h)[1]


def hwang_singer_curvature(n: int, t, phi, dphi, d2phi):
    """S = n(n-1)/t - t^(1-n) * (t^(n-1)*phi)'' from the momentum profile's
    jet at t (Hwang-Singer), in the number type of the arguments."""
    return (
        n * (n - 1) / t
        - (n - 1) * (n - 2) * phi / t**2
        - 2 * (n - 1) * dphi / t
        - d2phi
    )


# --- the extremal momentum profile in exact rationals -------------------------


def exact_phi_jet(E, t) -> tuple[Fraction, Fraction, Fraction]:
    """(phi, phi', phi'') of the extremal metric of E's (n, a, b), exactly,
    at the rational t: phi = t - alpha(t)/(p*t^(n-1)) on the exact solution
    of the boundary system, differentiated term by term."""
    n = E.n
    p = n * (n + 1) * (n + 2)
    A, B, C, D = as_fractions(_exact_solution(n, E.a, E.b))
    t = Fraction(t)
    # alpha/(p*t^(n-1)) as coefficients of powers of t
    terms = [(Fraction(n) * A / p, 3), (Fraction(n + 2) * B / p, 2), (C, 2 - n), (D, 1 - n)]
    phi = t - sum(c * t**k for c, k in terms)
    dphi = 1 - sum(c * k * t ** (k - 1) for c, k in terms)
    d2phi = -sum(c * k * (k - 1) * t ** (k - 2) for c, k in terms)
    return phi, dphi, d2phi


def exact_F_second(E, t) -> Fraction:
    """F'' = 1/phi - 1/t of the extremal metric, exactly, at the rational t."""
    t = Fraction(t)
    return 1 / exact_phi_jet(E, t)[0] - 1 / t


# --- the exact layer's integers as rationals, and its Fraction references ----


def as_fractions(exact) -> tuple[Fraction, ...]:
    """The exact layer's (numerators, denominator) as Fractions."""
    numerators, den = exact
    return tuple(Fraction(x, den) for x in numerators)


def as_integers(values) -> tuple[tuple[int, ...], int]:
    """Rationals as the exact layer keeps them: integer numerators over one
    denominator, the lcm of theirs."""
    values = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def deflation_fractions(E) -> tuple[list[Fraction], list[Fraction]]:
    """The record's exact (V, Q) as descending Fraction coefficients of t:
    each polynomial is P'(s*t)/K, so its t^k coefficient is P'_k*s^k/K."""
    *polynomials, K = _deflation(E)
    s = 2 ** _scaled(E.a, E.b)[0]
    return tuple(
        [Fraction(x * s ** (len(P) - 1 - i), K) for i, x in enumerate(P)]
        for P in polynomials
    )


def horner(coeffs, t):
    """The polynomial of the descending coefficients at t, in their number type."""
    value = 0
    for c in coeffs:
        value = value * t + c
    return value


def fraction_deflation(n: int, a: float, b: float) -> tuple[list, list]:
    """(V, Q) of h'' = -V/Q - 1/t over ``Fraction``, from ``moment_solution``:
    Q = (p*t^n - alpha)/((t-a)(t-b)) and V = -(p*t^(n-1) + (b-a)*Q)/((t-a)(t-b)),
    each division exact.  The route the package took before it ran on
    integers, and the reference its integer deflation must equal."""
    p = n * (n + 1) * (n + 2)
    A, B, C, D = moment_solution(n, a, b)
    a, b = Fraction(a), Fraction(b)

    def divide(coeffs: list) -> list:
        for root in (a, b):
            quot, acc = [], 0
            for c in coeffs:
                quot.append(acc)
                acc = c + root * acc
            assert acc == 0
            coeffs = quot[1:]
        return coeffs

    beta = [-x for x in _alpha_coeffs(n, A, B, C, D)]
    beta[2] += p
    Q = divide(beta)
    R = [(b - a) * q for q in Q]
    R[1] += p
    return [-v for v in divide(R)], Q


def fraction_h_second(n: int, a: float, b: float, t) -> Fraction:
    """h''(t) = -V(t)/Q(t) - 1/t of ``fraction_deflation`` at the rational t."""
    V, Q = fraction_deflation(n, a, b)
    t = Fraction(t)
    return -horner(V, t) / horner(Q, t) - 1 / t


def fraction_bernstein(Q, a, b) -> list[Fraction]:
    """The Bernstein coefficients of Q (descending coefficients) on [a, b] in
    ``Fraction`` throughout: a Horner Taylor shift to Q(a + c*u), then
    b_k = sum_j C(k, j)/C(d, j) * q_j."""
    q = [Fraction(x) for x in Q[::-1]]
    a, b = Fraction(a), Fraction(b)
    d = len(q) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            q[j] += a * q[j + 1]
    c = b - a
    w = [x * c**j / math.comb(d, j) for j, x in enumerate(q)]
    return [sum(math.comb(k, j) * w[j] for j in range(k + 1)) for k in range(d + 1)]


# --- test inputs ---------------------------------------------------------


def geometric_grid(lo: float, hi: float, num: int) -> list[float]:
    """num >= 2 points from lo to hi > lo > 0 in geometric progression,
    lo*(hi/lo)**(k/(num - 1)), the last point set to hi."""
    ratio = hi / lo
    return [lo * ratio ** (k / (num - 1)) for k in range(num - 1)] + [hi]
