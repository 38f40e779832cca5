"""Heat-kernel trace, spectral zeta function, poles, and small-time asymptotics.

The heat trace is Z(t) = sum_k g_k exp(-E_k t) over the full spectrum
(lambda = 0 included), evaluated with certified truncation bounds: each
shape family's tail is dominated by a geometric series once the quadratic
eigenvalue growth is linearized past the cut, and the remaining levels are
dominated through I_n >= 2 I_{n-1}.  The families, their counts and their
eigenvalue progressions are read from the spectrum module's family table.

The spectral zeta function zeta_L(s) = sum g_k E_k^{-s} (zero mode excluded)
has two independent evaluations:

  * direct: family-by-family partial power sums, whose explicit head
    grows with |s| like riemann_zeta's, finished with the Euler-Maclaurin
    tail special._power_tail, levels summed a period at a time until the
    per-period ratio |w| dominates the rest, or refused past a level limit;
  * closed: zeta_R(2s) pi^(-2s) times a bracket that resolves, for a
    sequence of period p with block product P, into finitely many geometric
    series in w = 2^p P^(1-2s) and v = 2^p P^(-2s).  This
    rational-in-exponentials form is also the meromorphic continuation,
    which is how the constant zeta_L(0) is obtained.

The two routes share only that tail: riemann_zeta is its explicit head
plus the same tail.  Both refuse a non-finite s and |s| > 5e3 (the closed
form and the residues because riemann_zeta refuses |2s| > 1e4), and a
closed-form value past the double range raises ValidationError.

Everything periodicity decides reads (seq.period, seq.block) = (p, P):
w, v, the pole spacings and the residue denominators.  The closed form's
denominators vanish on two vertical lattices, Re s = d_s/2 (from w; d_s
comes from sequences.dimensions, as does the direct route's abscissa) and
Re s = d_s/2 - 1/2 (from v), spaced pi / log P apart in the imaginary
direction.  For p = 1 that spacing equals
the familiar 2 pi / log r^2; for longer periods the actual lattice is p
times finer than the coarse progression, and keeping the finer lattice is
what makes the residue expansion track the directly-summed trace.  Residues
at those poles, plus the s = 1/2 and s = 0 contributions, give the small-t
expansion of Z(t) (heat_trace_asymptote, every pole up to |Im s| = 8 pi).
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    PoleError,
    TailToleranceError,
    ValidationError,
)
from .sequences import EXPLICIT, JSequence, dimensions
from .special import _power_tail, complex_gamma, riemann_zeta
from .spectrum import _level_cap, _occupied_families

_PI_SQ = math.pi * math.pi
_LOG_PI_SQ = math.log(_PI_SQ)
_EXP_FLOOR = 745.0  # exp(-745) is the smallest normal-ish double
_POLE_TOL = 1e-12  # |1 - q| below which the closed form reports a pole
_MIN_TOL = 1e-300  # keeps each family's share tol / 2^(n+2) / count above 0


@dataclass(frozen=True)
class HeatTraceSample:
    t: float
    z: float
    tail_bound: float
    level_cap: int | None = None


@dataclass(frozen=True)
class PoleLattice:
    """Arithmetic progression of zeta poles governing the small-t behavior."""

    real_part: float  # d_s / 2 from dimensions(), where |w| = 2^p P^(1-2 Re s) = 1
    spacing: float  # p pi / log P = 2 pi / log r^2: every p-th pole of the family
    members: tuple[complex, ...]


@dataclass(frozen=True)
class _Family:
    """One eigenvalue family: log of count, log of the quadratic scale c
    (eigenvalues are c (k+offset)^2), the half-integer offset, first k."""

    log_count: float
    log_c: float
    offset: float
    kstart: int


def _level_families(seq: JSequence, n: int) -> tuple[int, int, list[_Family]]:
    """I_n, the level weight (sum of the family counts) and the families of level n.

    Each occupied row of the spectrum's family table, keys
    m = I_n (step k + phase), becomes eigenvalues c (k + offset)^2 with
    c = pi^2 I_n^2 step^2 / 4 and offset = phase / step.
    """
    scale, rows = _occupied_families(seq, n)
    log_c = _LOG_PI_SQ + 2.0 * math.log(scale)
    fams = [
        _Family(
            math.log(row.count),
            log_c + 2.0 * math.log(row.step / 2),
            row.phase / row.step,
            row.kstart,
        )
        for row in rows
    ]
    return scale, sum(row.count for row in rows), fams


# the table's line family, m = 2k, without its zero mode k = 0
_LINE = _Family(0.0, _LOG_PI_SQ, 0.0, 1)


# ---------------------------------------------------------------------------
# heat trace with certified tails
# ---------------------------------------------------------------------------


def _family_tail(fam: _Family, ct: float, k: int) -> float:
    """Certified bound on the family's terms from index k on (ct = c t): the
    geometric series count exp(-ct q^2) / (1 - exp(-2 ct q)), q = k + offset."""
    q = k + fam.offset
    expo = ct * q * q
    if expo > _EXP_FLOOR:
        return 0.0
    ratio = math.exp(-2.0 * ct * q) if 2.0 * ct * q < _EXP_FLOOR else 0.0
    return math.exp(fam.log_count) * math.exp(-expo) / (1.0 - ratio)


def _family_partial(fam: _Family, t: float, budget: float) -> tuple[float, float]:
    """Partial sum of count * exp(-c (k+offset)^2 t), certified tail <= budget.

    Works with the product c*t (bounded once a level passes the caller's
    exponent guard) so that deep-level scales never overflow on their own.
    The sum stops before the first k whose (falling) tail bound fits the
    budget, found by doubling a Gaussian estimate past it and bisecting.
    """
    ct = math.exp(fam.log_c + math.log(t))
    # start from the Gaussian estimate count exp(-ct q^2) = budget
    hi = fam.kstart + 1 + int(math.sqrt(max(fam.log_count - math.log(budget), 0.0) / ct))
    while _family_tail(fam, ct, hi) > budget:
        hi *= 2
    first = bisect.bisect_left(
        range(hi + 1), True, lo=fam.kstart, key=lambda k: _family_tail(fam, ct, k) <= budget
    )
    ks = np.arange(fam.kstart, first, dtype=np.float64) + fam.offset
    partial = math.exp(fam.log_count) * float(np.exp(-ct * ks * ks).sum())
    return partial, _family_tail(fam, ct, first)


def _min_exponent(scale: int, t: float) -> float:
    """log of (lambda_min(level) * t) where lambda_min = pi^2 I^2 / 4."""
    return _LOG_PI_SQ + 2.0 * math.log(scale) - math.log(4.0) + math.log(t)


def _remaining_levels_bound(
    seq: JSequence, scale_first: int, weight_first: int, t: float
) -> float:
    """Certified bound on the total contribution of the first omitted level
    (scale I, weight = its total multiplicity count) and every level after it."""
    if _min_exponent(scale_first, t) > math.log(_EXP_FLOOR):
        return 0.0
    # the guard above also keeps float(scale_first) ** 2 from overflowing
    lam_min = _PI_SQ * float(scale_first) ** 2 / 4.0
    u = math.exp(-lam_min * t)
    rho = 2.0 * max(seq.values)
    if u > 0.5 or rho * u**3 >= 0.5:
        return math.inf
    g_first = 3.0 * float(weight_first)
    # weights grow at most like rho per level while the Boltzmann factors
    # contract like u^(1+3i); sum the dominating geometric series
    return g_first * u / ((1.0 - u) * (1.0 - rho * u**3))


def heat_trace(
    seq: JSequence,
    t: float,
    tol: float = 1e-10,
    *,
    level_cap: int | None = None,
) -> HeatTraceSample:
    """Z(t) with a certified truncation bound at most tol.

    With no level cap (constant and periodic sequences) the sum runs over
    every level and the omitted-level remainder is dominated geometrically.
    A level cap restricts the target to the level-capped spectrum, the same
    object level_spectrum describes, under the same rule: a negative cap or
    one past an explicit prefix raises, and explicit prefixes always carry a
    cap (defaulting to the prefix length).  They additionally raise when
    even the mildest continuation (j = 2 at the next level) would contribute
    more than tol, since no cap-respecting answer can then speak for the
    limit space at that accuracy.
    """
    if not t > 0:
        raise ValidationError(f"t {t} must be > 0")
    if not tol >= _MIN_TOL:
        raise ValidationError(f"tol {tol} must be >= {_MIN_TOL:g}")
    # term-by-term summation needs ~sqrt(745 / (pi^2 t)) line-family terms;
    # refuse once that stops being enumerable (use the residue expansion
    # for the deep asymptotic regime instead)
    if t < 3e-14:
        raise ValidationError(
            f"t {t} is below the direct-summation floor 3e-14; "
            "heat_trace_asymptote covers the deep small-t regime"
        )
    explicit = seq.kind == EXPLICIT
    level_cap = _level_cap(seq, level_cap)

    z = 1.0  # lambda = 0
    partial, bound = _family_partial(_LINE, t, tol / 4.0)
    z += partial

    n = 1
    while level_cap is None or n <= level_cap:
        scale, weight, fams = _level_families(seq, n)
        if level_cap is None:
            remaining = _remaining_levels_bound(seq, scale, weight, t)
            if remaining <= tol / 2.0:
                bound += remaining
                break
        if _min_exponent(scale, t) > math.log(_EXP_FLOOR):
            # every remaining capped level is below double-precision zero
            break
        level_budget = tol / 2.0 ** (n + 2)
        for fam in fams:
            partial, tb = _family_partial(fam, t, level_budget / len(fams))
            z += partial
            bound += tb
        n += 1

    if explicit:
        # cheapest possible continuation: a V family at level cap+1 with j = 2
        expo = _min_exponent(2 * seq.scale(level_cap), t)
        lower = 0.0
        if expo < math.log(_EXP_FLOOR):
            lower = 2.0 ** (level_cap + 1) * math.exp(-math.exp(expo))
        if lower > tol:
            raise TailToleranceError(
                f"levels beyond the cap {level_cap} contribute at least "
                f"{lower:.3e} > tol {tol:.3e} at t = {t}",
                achieved_bound=bound + lower,
            )
    if bound > tol:
        raise TailToleranceError(
            f"achieved certified bound {bound:.3e} exceeds tol {tol:.3e}",
            achieved_bound=bound,
        )
    return HeatTraceSample(t=t, z=z, tail_bound=bound, level_cap=level_cap)


def heat_trace_grid(
    seq: JSequence,
    ts,
    tol: float = 1e-10,
    *,
    level_cap: int | None = None,
) -> list[HeatTraceSample]:
    return [heat_trace(seq, float(t), tol, level_cap=level_cap) for t in ts]


# ---------------------------------------------------------------------------
# direct spectral zeta (power sums + Euler-Maclaurin tails)
# ---------------------------------------------------------------------------

_EM_CUT = 64  # smallest head; the head grows with |s| past |2s| ~ 36
_MAX_ABS_S = 5e3  # riemann_zeta's |2s| <= 1e4, which bounds the closed form too
_DIRECT_ATOL = 1e-13  # bound on the omitted levels of the direct sum
_MAX_DIRECT_LEVELS = 20_000  # predicted levels to go; j = 2 at d_s/2 + 2e-3 needs ~1e4


def _family_zeta(fam: _Family, s: complex) -> complex:
    """count * sum_k (c (k+offset)^2)^(-s), Euler-Maclaurin finish.

    The explicit head grows with |s| by the rule riemann_zeta uses.  The
    prefactor count * c^(-s) sits in the exponent of every head term, so a
    (k+offset)^(-2s) past the double range never meets it as inf * 0.
    """
    w = 2.0 * s
    cut = max(_EM_CUT, int(1.5 * abs(w)) + 10)
    pre = fam.log_count - s * fam.log_c
    ks = np.arange(fam.kstart, cut, dtype=np.float64) + fam.offset
    head = complex(np.sum(np.exp(pre - w * np.log(ks))))
    return head + cmath.exp(pre) * _power_tail(w, cut + fam.offset)


def _finite_s(s: complex) -> complex:
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValidationError(f"s {s} is not finite")
    return s


def convergence_abscissa(seq: JSequence) -> float:
    """Re s must exceed this for the sum over every level to converge."""
    return _pole_real_part(seq)


def spectral_zeta_direct(
    seq: JSequence, s: complex, *, level_cap: int | None = None
) -> complex:
    """Brute-force zeta_L(s): term-by-term family sums, no closed forms.

    Serves as the independent oracle for spectral_zeta_closed on the
    convergence half-plane, up to the closed form's |s| <= 5e3.
    """
    s = _finite_s(s)
    if abs(s) > _MAX_ABS_S:
        raise ValidationError(f"the direct zeta needs |s| <= {_MAX_ABS_S:g}, got {s}")
    sigma = s.real
    level_cap = _level_cap(seq, level_cap)
    # a capped sum has finitely many families, each converging past Re s = 1/2
    abscissa = convergence_abscissa(seq) if level_cap is None else 0.5
    if sigma <= abscissa:
        raise DivergenceError(
            f"Re s = {sigma} is at or below the abscissa of convergence "
            f"{abscissa}; the eigenvalue sum diverges"
        )
    if level_cap is None:
        # Level n's term is 2^n I_n^(-2s) (a I_{n-1} + b), a and b fixed by
        # n mod p: a period multiplies the a part by w = 2^p P^(1-2s), the b
        # part by v, |v| = |w| / P.  The cross count I_{n-1} - 1 splits the
        # same way (its -1 is a relative 1/I_{n-1}), so each period's summed
        # |level term| shrinks by |w| = ratio once past level 1 (no crosses).
        p = seq.period
        ratio = 2.0**p * seq.block ** (1.0 - 2.0 * sigma)
        period_sum = 0.0

    total = _family_zeta(_LINE, s)
    n = 1
    while level_cap is None or n <= level_cap:
        _, _, fams = _level_families(seq, n)
        level_term = 0.0 + 0.0j
        for fam in fams:
            level_term += _family_zeta(fam, s)
        total += level_term
        if level_cap is None:
            period_sum += abs(level_term)
            if n % p == 0 and n >= 2 * p:
                tail = period_sum * ratio / (1.0 - ratio)
                if tail <= _DIRECT_ATOL:
                    break
                needed = p * math.log(tail / _DIRECT_ATOL) / -math.log(ratio)
                if not needed <= _MAX_DIRECT_LEVELS:
                    raise DivergenceError(
                        f"Re s = {sigma} needs ~{needed:.3g} more levels of the "
                        f"direct sum, over its limit {_MAX_DIRECT_LEVELS}"
                    )
                period_sum = 0.0
        n += 1
    return total


# ---------------------------------------------------------------------------
# closed-form spectral zeta (blocked geometric series)
# ---------------------------------------------------------------------------


def _bracket(seq: JSequence, s: complex) -> complex:
    """The level sum multiplying zeta_R(2s)/pi^(2s) in zeta_L(s).

    Exact for constant and periodic sequences: residue classes mod the
    period turn the level sum into geometric series with ratios
    w = 2^p P^(1-2s) (dominant) and v = 2^p P^(-2s) (subdominant).
    """
    p = seq.period
    log_block = math.log(seq.block)
    w = cmath.exp(p * math.log(2.0) + (1.0 - 2.0 * s) * log_block)
    v = cmath.exp(p * math.log(2.0) - 2.0 * s * log_block)
    for q, family in ((w, "dominant"), (v, "subdominant")):
        if abs(1.0 - q) < _POLE_TOL:
            fine = fine_pole_spacing(seq)
            raise PoleError(
                f"s = {s} is within {_POLE_TOL} of a {family} pole of the "
                "closed-form zeta",
                nearest_pole=complex(
                    _pole_real_part(seq, family), round(s.imag / fine) * fine
                ),
            )
    j1 = seq.j(1)
    head = 1.0 + (4.0 * _c_half(s) - 4.0 + j1) * cmath.exp(-2.0 * s * math.log(j1))
    return head + _n_dominant(seq, s) / (1.0 - w) + _n_subdominant(seq, s) / (1.0 - v)


def _pole_real_part(seq: JSequence, family: str = "dominant") -> float:
    """Re s of the dominant (1 - w = 0) or subdominant (1 - v = 0) lattice.

    |w| = 1 at Re s = d_s/2, read from dimensions; |v| = |w| / P puts the
    subdominant lattice 1/2 lower."""
    half_ds = dimensions(seq).spectral / 2.0
    return half_ds if family == "dominant" else half_ds - 0.5


def spectral_zeta_closed(seq: JSequence, s: complex) -> complex:
    """zeta_L(s) via the closed geometric form (and its continuation).

    Valid at any s away from the pole lattices and from s = 1/2, where the
    Riemann factor has its pole; in particular s = 0 gives the constant
    term of the small-t trace expansion.
    """
    s = _finite_s(s)
    if abs(2.0 * s - 1.0) < 1e-9:
        raise PoleError(
            "s = 1/2 is the pole of the zeta_R(2s) factor",
            nearest_pole=0.5 + 0.0j,
        )
    try:
        bracket = _bracket(seq, s)
        if s == 0:
            value = complex(-0.5 * bracket)  # zeta_R(0) = -1/2
        else:
            value = riemann_zeta(2.0 * s) * cmath.exp(-2.0 * s * math.log(math.pi)) * bracket
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ValidationError(f"zeta_L(s) overflows double precision at s = {s}")
    return value


def zeta_at_zero(seq: JSequence) -> float:
    """zeta_L(0) by analytic continuation of the closed form."""
    return spectral_zeta_closed(seq, 0.0).real


# ---------------------------------------------------------------------------
# poles and residues
# ---------------------------------------------------------------------------

_MAX_POINTS = 10_001  # members of one poles() range, points of one CLI t grid


def poles(seq: JSequence, m_range: tuple[int, int] = (-3, 3)) -> PoleLattice:
    """The coarse pole lattice s_m = d_s/2 + i m p pi / log P: every p-th dominant pole."""
    if m_range[0] > m_range[1]:
        raise ValidationError(f"empty m range {m_range}")
    if m_range[1] - m_range[0] >= _MAX_POINTS:
        raise ValidationError(f"m range {m_range} has more than {_MAX_POINTS} members")
    spacing = seq.period * fine_pole_spacing(seq)
    real_part = _pole_real_part(seq)
    members = tuple(
        complex(real_part, m * spacing) for m in range(m_range[0], m_range[1] + 1)
    )
    return PoleLattice(real_part=real_part, spacing=spacing, members=members)


def fine_pole_spacing(seq: JSequence) -> float:
    """Imaginary spacing pi/log P of the closed form's actual pole families.

    Equals the PoleLattice spacing for constant sequences; for period p the
    denominator zeros interleave p times finer.
    """
    return math.pi / math.log(seq.block)


def oscillation_log_period(seq: JSequence) -> float:
    """Period in log t of the slowest log-periodic oscillation of Z(t)."""
    return 2.0 * math.pi / fine_pole_spacing(seq)


def _c_half(s: complex) -> complex:
    return cmath.exp(2.0 * s * math.log(2.0)) / 2.0  # 2^(2s-1)


def _n_dominant(seq: JSequence, s: complex) -> complex:
    """Numerator of the bracket's 1/(1 - w) series."""
    c_half = _c_half(s)
    total = 0.0 + 0.0j
    for rho in range(2, seq.period + 2):
        total += (
            (2.0 ** (rho - 1))
            * seq.scale(rho - 1)
            * (c_half + seq.j(rho) - 1.0)
            * cmath.exp(-2.0 * s * math.log(seq.scale(rho)))
        )
    return total


def _n_subdominant(seq: JSequence, s: complex) -> complex:
    """Numerator of the bracket's 1/(1 - v) series."""
    c_sub = 3.0 * _c_half(s) - 3.0
    total = 0.0 + 0.0j
    for rho in range(2, seq.period + 2):
        total += (2.0 ** (rho - 1)) * cmath.exp(-2.0 * s * math.log(seq.scale(rho)))
    return c_sub * total


def residue_coefficient(seq: JSequence, s_pole: complex, family: str) -> complex:
    """Residue of zeta_L(s) Gamma(s) t^(-s) at a lattice pole, sans t^(-s).

    family is "dominant" (zeros of 1 - w) or "subdominant" (zeros of 1 - v);
    either way the bracket's residue there is numerator / (2 log P).
    """
    if family == "dominant":
        num = _n_dominant(seq, s_pole)
    elif family == "subdominant":
        num = _n_subdominant(seq, s_pole)
    else:
        raise ValidationError(f"unknown pole family {family!r}")
    return (
        complex_gamma(s_pole)
        * riemann_zeta(2.0 * s_pole)
        * cmath.exp(-2.0 * s_pole * math.log(math.pi))
        * num
        / (2.0 * math.log(seq.block))
    )


def sqrt_term_coefficient(seq: JSequence) -> float:
    """C in the C / sqrt(pi t) term of the small-t expansion of Z(t).

    Res_{s=1/2} zeta_R(2s) = 1/2 and Gamma(1/2)/pi^1 = 1/sqrt(pi), so the
    residue is bracket(1/2)/2 times 1/sqrt(pi t).  The bracket is removable
    at s = 1/2: the dominant part contributes exactly -2 against the entire
    part's +2 for every pattern, so the limit is 0 unless the pattern is all
    twos (P = 2^p); then the subdominant coefficient's zero meets the
    subdominant pole and leaves sum_rho 2^(rho-1) * 3 log2 / (I_rho log P)."""
    p = seq.period
    if seq.block != 2**p:
        return 0.0
    log_block = math.log(seq.block)
    bracket = sum(
        (2.0 ** (rho - 1)) * 3.0 * math.log(2.0) / (seq.scale(rho) * log_block)
        for rho in range(2, p + 2)
    )
    return bracket / 2.0


# |Gamma(sigma + iy)| ~ sqrt(2 pi) |y|^(sigma - 1/2) exp(-pi |y| / 2), so the
# residues past this height are below exp(-4 pi^2) ~ 7e-18 of the real ones
_RESIDUE_HEIGHT = 8.0 * math.pi


@functools.lru_cache
def _residue_terms(seq: JSequence) -> tuple[tuple[complex, complex], ...]:
    """(s, coefficient) of each lattice pole with 0 <= Im s <= 8 pi, once per
    sequence (no t dependence).  A pole above the real axis also stands for
    its conjugate: its coefficient is doubled and the caller keeps the real
    part.  A fixed height keeps the same poles in every representation of a
    space, so 2 and 2,2 give the same expansion."""
    fine = fine_pole_spacing(seq)
    terms = []
    for family in ("dominant", "subdominant"):
        if family == "subdominant" and seq.block == 2**seq.period:
            continue  # for all-2 patterns every subdominant residue vanishes
        re_part = _pole_real_part(seq, family)
        s_0 = complex(re_part, 0.0)
        terms.append((s_0, complex(residue_coefficient(seq, s_0, family).real)))
        for m in range(1, int(_RESIDUE_HEIGHT / fine) + 1):
            s_m = complex(re_part, m * fine)
            terms.append((s_m, 2.0 * residue_coefficient(seq, s_m, family)))
    return tuple(terms)


def heat_trace_asymptote(seq: JSequence, t: float) -> float:
    """Small-t residue expansion of the full heat trace Z(t).

    Includes the zero mode (+1), the continued constant zeta_L(0), the
    square-root term when present, and both residue lattices at their
    actual (period-refined) imaginary spacing, every pole up to
    |Im s| = 8 pi kept and conjugate pairs folded into twice the real part.
    """
    if not t > 0:
        raise ValidationError(f"t {t} must be > 0")
    log_t = math.log(t)
    total = 1.0 + zeta_at_zero(seq)
    total += sqrt_term_coefficient(seq) / math.sqrt(math.pi * t)
    for s, coeff in _residue_terms(seq):
        total += (coeff * cmath.exp(-s * log_t)).real
    return total


def oscillation_amplitude(seq: JSequence, m: int = 1) -> float:
    """|a_m|: the m-th dominant oscillation coefficient relative to a_0.

    Used to certify that the log-periodic wobble stays inside a stated band
    before asserting window-averaged leading-term checks.
    """
    fine = fine_pole_spacing(seq)
    re_dom = _pole_real_part(seq)
    base = residue_coefficient(seq, complex(re_dom, 0.0), "dominant").real
    osc = residue_coefficient(seq, complex(re_dom, m * fine), "dominant")
    return abs(osc) / abs(base)


# ---------------------------------------------------------------------------
# spectral dimension from trace samples
# ---------------------------------------------------------------------------


def estimate_spectral_dimension(
    samples: list[HeatTraceSample], log_period: float
) -> float:
    """-2 x slope of log z against log t, after one-period window averaging.

    The averaging window is the full period of the slowest log-periodic
    oscillation (oscillation_log_period), which cancels the first-order
    wobble exactly on a uniform log grid.  Requires >= 10 samples spanning
    at least two decades with tail_bound/z < 1e-6.
    """
    if len(samples) < 10:
        raise ValidationError(f"need at least 10 samples, got {len(samples)}")
    if log_period <= 0:
        raise ValidationError(f"log_period {log_period} <= 0")
    ordered = sorted(samples, key=lambda s: s.t)
    tau = np.array([math.log(s.t) for s in ordered])
    if tau[-1] - tau[0] < 2.0 * math.log(10.0):
        raise ValidationError("samples span fewer than two decades of t")
    for s in ordered:
        if s.tail_bound / s.z >= 1e-6:
            raise ValidationError(
                f"sample at t={s.t} has tail_bound/z = "
                f"{s.tail_bound / s.z:.2e} >= 1e-6"
            )
    y = np.array([math.log(s.z) for s in ordered])
    delta = float(np.mean(np.diff(tau)))
    q = max(1, round(log_period / delta))
    if q >= len(ordered):
        raise ValidationError(
            "averaging window exceeds the sample span; extend the t grid"
        )
    kernel = np.ones(q) / q
    y_bar = np.convolve(y, kernel, mode="valid")
    tau_bar = np.convolve(tau, kernel, mode="valid")
    slope = float(np.polyfit(tau_bar, y_bar, 1)[0])
    return -2.0 * slope
