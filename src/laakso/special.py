"""Riemann zeta and gamma on the complex strip used by the residue sums.

Power sums: _power_tail(s, a) = sum_{k >= 0} (a + k)^(-s) by Euler-Maclaurin
with the Bernoulli numbers B_2 ... B_16, accurate once a is well past
|s| / (2 pi).  It is the package's only power-sum tail: riemann_zeta adds
the explicit terms k < n to _power_tail(s, n) with n = max(30, 1.5 |s| + 10),
and heatzeta finishes every family of the direct spectral zeta with it.
The term count grows with |s|, so riemann_zeta refuses a non-finite s and
|s| > 1e4 (at most 15,010 terms); below Re s = -1/2, where that head
cancels catastrophically, it reflects through the functional equation.

gamma: classic fixed-coefficient Lanczos rational approximation (g = 7,
nine terms) of log Gamma, reflected for Re z < 1/2, exponentiated once.
Both functions commute with complex conjugation to the ulp because every
constant involved is real.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError, ValidationError

_MAX_ABS_S = 1e4
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos g = 7 coefficients
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Bernoulli numbers B_2, B_4, ..., B_16 for the Euler-Maclaurin tail
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def _power_tail(s: complex, a: float) -> complex:
    """sum_{k >= 0} (a + k)^(-s) by Euler-Maclaurin, for a > 0 past |s| / (2 pi)."""
    apow = cmath.exp(-s * math.log(a))
    total = apow * a / (s - 1.0)
    total += apow / 2.0
    # B_{2j}/(2j)! * s(s+1)...(s+2j-2) * a^(1-s-2j)
    rising = s
    apow_j = apow / a
    for j, b in enumerate(_BERNOULLI, start=1):
        if j > 1:
            rising = rising * (s + (2 * j - 3)) * (s + (2 * j - 2))
        total += (b / math.factorial(2 * j)) * rising * apow_j
        apow_j /= a * a
    return total


def riemann_zeta(s: complex) -> complex:
    """zeta(s) to ~1e-12 (1 + |zeta(s)|) for |Im s| <= 50.

    The error grows to a few 1e-11 near |s| = 1e4, from rounding the phase
    s log k.  Below Re s = -1/2 (nearer 0, zeta(1 - s) nears its pole) it
    is zeta(s) = 2 (2 pi)^(s-1) sin(pi s / 2) Gamma(1 - s) zeta(1 - s),
    exactly 0 at every trivial zero s = -2, -4, ..., -10^4.  Raises
    ValidationError for a non-finite s, |s| > 1e4 (an unbounded term count)
    or a value past the double range.
    """
    s = complex(s)
    if not (cmath.isfinite(s) and abs(s) <= _MAX_ABS_S):
        raise ValidationError(
            f"Riemann zeta needs a finite s with |s| <= {_MAX_ABS_S:g}, got {s}"
        )
    if s == 1:
        raise PoleError("zeta has its pole at s = 1", nearest_pole=1.0 + 0.0j)
    if s.real < -0.5:
        sine = _scaled_sin_pi(s / 2.0)
        if sine == 0:
            return 0j
        log_factor = _LOG_2 + (s - 1.0) * _LOG_2PI + abs(math.pi * s.imag / 2.0)
        try:
            factor = cmath.exp(log_factor + _log_gamma(1.0 - s))
        except OverflowError:
            raise ValidationError(f"zeta(s) overflows double precision at s = {s}") from None
        return factor * sine * riemann_zeta(1.0 - s)
    n = max(30, int(1.5 * abs(s)) + 10)
    total = 0.0 + 0.0j
    for k in range(1, n):
        total += cmath.exp(-s * math.log(k))
    return total + _power_tail(s, n)


def _log_gamma(z: complex) -> complex:
    """log Gamma(z) by Lanczos for Re z >= 1/2, left on the log scale."""
    z -= 1.0
    x = complex(_LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def _scaled_sin_pi(z: complex) -> complex:
    """sin(pi z) e^(-pi |Im z|).  The argument is reduced by the integer n
    nearest Re z to x + iy = pi (z - n), which keeps the zeros accurate (the
    integers exact), and the growth e^|y| is factored out of
    sin(x + iy) = sin x cosh y + i cos x sinh y, which keeps it finite."""
    n = round(z.real)
    x, y = math.pi * (z.real - n), math.pi * z.imag
    return (-1.0) ** n * complex(
        math.sin(x) * (1.0 + math.exp(-2.0 * abs(y))) / 2.0,
        math.copysign(math.cos(x) * -math.expm1(-2.0 * abs(y)) / 2.0, y),
    )


def complex_gamma(z: complex) -> complex:
    """Lanczos approximation of Gamma(z), reflected for Re z < 1/2.

    Both branches apply one exp to log-scale Lanczos terms, so far off the
    real axis no factor overflows on its own and a value below the double
    range underflows to 0."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(
            f"gamma has a pole at {z}", nearest_pole=complex(round(z.real), 0.0)
        )
    if z.real >= 0.5:
        return cmath.exp(_log_gamma(z))
    # reflection Gamma(z) = pi / (sin(pi z) Gamma(1-z))
    scaled = cmath.exp(_LOG_PI - abs(math.pi * z.imag) - _log_gamma(1.0 - z))
    return scaled / _scaled_sin_pi(z)
