"""The extremal metric ``verify`` checks, built from the polytope data, and
the ``verify`` command itself.  The metric is a ``TPotential(n, a, b, jet)``,
which is also its moment polytope {x_i >= 0, a <= sum(x) <= b}.

The coefficients (A, B, C, D), their exact checks and the deflated Q come
from ``exact``, in integer arithmetic; ``table`` evaluates the momentum
profile they define in plain floats,

    phi(t) = (t-a)(t-b)*Q(t)/(p*t^(n-1)),

with p*t^n - alpha = (t-a)(t-b)*Q.  This module owns the proof that the
metric is valid on all of (a, b), from the Bernstein coefficients of the
exact Q (``positivity_certificate``), which ``run_verify`` runs once per
call before it checks the profile against Abreu's curvature at sampled
interior points.  Of the CLI commands only ``verify`` imports this module.
The modules whose functions verify calls are read through their names at
call time, so a wrapper set on one (a test's, a tracer's) is the one
called.
"""

import math
from functools import partial

from . import abreu, exact, polytope, radial, table
from .errors import BoundaryIdentityViolation, InvalidParameters, PositivityViolation

PRNG_NAME = "python-mt19937"

# curvature points are sampled this deep into the polytope, in facet-value
# units relative to the interval length
_SAMPLING_MARGIN_FACTOR = 0.05

# the dimensions verify is checked for; refuse anything bigger so a misuse
# fails loudly instead of slowly
_VERIFY_MAX_DIMENSION = 16

# the report key of each proof that raises instead of failing
_PROOF_CHECKS = {
    BoundaryIdentityViolation: "boundary_identities",
    PositivityViolation: "validity",
}


def _bernstein_certificate(Q: list, a: float, b: float) -> list:
    """The Bernstein coefficients of Q on [a, b], each times the same
    positive integer: Q(a + c*u) by a Taylor shift, whose coefficients are
    the remainders of dividing by t - a again and again, then
    b_k = sum_j C(k, j)/C(d, j) * q_j.  Q on [a, b] lies in their convex hull
    (Farouki, CAGD 2012), so all b_k < 0 proves Q < 0 there; b_0 = Q(a) and
    b_d = Q(b).  Raises ``PositivityViolation`` at the first b_k >= 0.

    Q is given as the descending integer coefficients of Q'(v), v = s*t with
    s the common denominator of the floats a and b, as ``exact._deflation``
    gives it (any positive scale K of Q = Q'(s*t)/K leaves the signs alone).
    On [a', b'] = s*[a, b] the Taylor shift by a' and the substitution
    v = a' + c'*u, c' = b' - a', keep the coefficients integers, and
    d!/C(d, j) = j!(d-j)! clears the Bernstein weights, so the coefficients
    returned are the integers d! * K * b_k.
    """
    d = len(Q) - 1
    _, shift, end = exact._scaled(a, b)
    c = end - shift
    q = []  # ascending
    while Q:
        Q, rem = exact._deflate(Q, shift)
        q.append(rem)
    w = [x * c**j * math.factorial(j) * math.factorial(d - j) for j, x in enumerate(q)]
    bern = [sum(math.comb(k, j) * w[j] for j in range(k + 1)) for k in range(d + 1)]
    for k, x in enumerate(bern):
        if x >= 0:
            top = max(map(abs, bern)) or 1
            raise PositivityViolation(
                f"Bernstein coefficient b_{k} of Q on [{a}, {b}] is not negative"
                f" ({x / top:.3e} of the largest |b_j|); no valid metric"
            )
    return bern


def positivity_certificate(E: exact.ExtremalCoefficients) -> float:
    """Prove 1 + t*F'' > 0 on all of (a, b); return the margin in [-1, 0).

    p*t^n - alpha = (t-a)(t-b)*Q with the exact Q of the deflation, so Q < 0
    on [a, b], proved by its Bernstein coefficients, makes 1 + t*F'' =
    p*t^n/(p*t^n - alpha) positive at every t.  Raises ``PositivityViolation``
    otherwise.  The margin max b_k / max |b_k| is the only rounded part.
    """
    bern = _bernstein_certificate(exact._deflation(E)[1], E.a, E.b)
    return max(bern) / max(map(abs, bern))


def build_extremal_metric(
    n: int, a: float, b: float
) -> tuple[radial.TPotential, exact.ExtremalCoefficients]:
    """Extremal profile and coefficients for one (n, a, b), after
    ``solve_coefficients`` has checked the geometry; no proof that the
    metric is valid, which is ``positivity_certificate``'s.

    The profile's jet is ``table.jet`` on the record's coefficients.
    """
    E = exact.solve_coefficients(n, a, b)
    return radial.TPotential(E.n, E.a, E.b, partial(table.jet, E)), E


def _verify_battery(args) -> dict:
    """The ``verify`` report of the parsed flags."""
    tolerance_soft, n, a, b = args.tolerance_soft, args.n, args.a, args.b
    # before the solve and the sampler, which can fail first at large n
    if n > _VERIFY_MAX_DIMENSION:
        raise InvalidParameters(
            f"n must be at most {_VERIFY_MAX_DIMENSION}, the range verify is "
            f"checked for; got {n}"
        )

    try:
        T, E = build_extremal_metric(n, a, b)
        bernstein_margin = positivity_certificate(E)
    except (BoundaryIdentityViolation, PositivityViolation) as exc:
        # a failed proof prints no report; name the check it would have failed
        key = _PROOF_CHECKS[type(exc)]
        raise type(exc)(f"{key}: {exc}") from exc
    margin = _SAMPLING_MARGIN_FACTOR * (b - a)
    pts = polytope.sample_interior(T, args.points, margin=margin, seed=args.seed)
    S = abreu.abreu_scalar_curvature(T, pts)
    ts = [math.fsum(x) for x in pts]
    rad = radial.radial_scalar_curvature(T.n, ts, T.jet(ts))
    # both soft checks are relative to the curvature itself (|S| >= 2/b > 0)
    curvature_disc = max(abs(s - r) / abs(r) for s, r in zip(S, rad))
    # extremal means S is the one affine function of Donaldson's projection,
    # A*t + B, not merely some affine function of x
    max_residual = max(abs(s - (E.A * t + E.B)) for s, t in zip(S, ts))
    scaled_residual = max_residual / max(map(abs, rad))

    # the exact deflation and the certificate raise instead of failing, so
    # these two are true in every report printed
    checks = {
        "boundary_identities": True,
        "closed_form": exact.coefficient_cross_check(E),
        "validity": True,
        "curvature_agreement": curvature_disc <= tolerance_soft,
        "extremality": scaled_residual <= tolerance_soft,
    }

    return {
        "schema": 4,
        "command": "verify",
        "inputs": {
            "n": n,
            "a": a,
            "b": b,
            "points": args.points,
            "seed": args.seed,
            "margin": margin,
            "tolerance_soft": tolerance_soft,
        },
        "prng": PRNG_NAME,
        "coefficients": {"p": E.p, "A": E.A, "B": E.B, "C": E.C, "D": E.D},
        "curvature": {
            "max_discrepancy": curvature_disc,
            # where the points lie in the shell, tau = (t - a)/(b - a)
            "tau_range": [(min(ts) - a) / (b - a), (max(ts) - a) / (b - a)],
        },
        # A*t + B written in x; gradient and constant repeat coefficients
        "extremality": {
            "gradient": [E.A] * n,
            "constant": E.B,
            "max_residual": max_residual,
            "scaled_residual": scaled_residual,
        },
        "validity": {"bernstein_margin": bernstein_margin},
        "checks": checks,
        "passed": all(checks.values()),
    }


def run_verify(args) -> tuple[dict, str]:
    """``verify``: the report, and the line naming each failed check."""
    report = _verify_battery(args)
    failing = [k for k, ok in report["checks"].items() if not ok]
    return report, "" if not failing else "verification failed: " + ", ".join(failing)
