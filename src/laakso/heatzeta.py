"""Heat-kernel trace, spectral zeta function, poles, and small-time asymptotics.

Everything here reads the spectrum module's family table, walked level by
level from level 0, the line, by spectrum._levels: each shape family of a
level has a count and the positive keys m = I_n (step k + phase) of its
progression.  No row holds lambda = 0: the heat trace adds it as its 1, and
the zeta function excludes it.

The heat trace Z(t) = 1 + sum_(E_k>0) g_k exp(-E_k t) is summed row by row,
a = c t for a row's eigenvalues c (k + offset)^2.  Jacobi's
imaginary transformation (Poisson summation; Stein-Shakarchi, Complex
Analysis, ch. 10) gives both row kinds a dual series,

  sum_(k>=1) exp(-a k^2) = (sqrt(pi/a) (1 + 2 sum_(m>=1) exp(-pi^2 m^2/a)) - 1) / 2,
  sum_(k>=0) exp(-a (k+1/2)^2) = sqrt(pi/a) (1/2 + sum_(m>=1) (-1)^m exp(-pi^2 m^2/a)),

summed below a = pi, the direct series from there on: a few terms per row
at any finite t > 0.  A geometric series bounds what each series drops, and
I_n >= 2 I_{n-1} the omitted levels.

The spectral zeta function zeta_L(s) = sum g_k E_k^{-s} (zero mode excluded)
has two independent evaluations, sharing only the Euler-Maclaurin tail
special._power_tail that riemann_zeta also finishes with:

  * direct: family-by-family partial power sums, levels summed a period at
    a time until the per-period ratio |w| dominates the rest, or refused
    past a level limit;
  * closed: the family table resummed per period (_closed_terms): zeta_R(2s)
    pi^(-2s) times finitely many terms and two geometric series in
    w = 2^p P^(1-2s) and v = 2^p P^(-2s) (primitive period p, block P), also
    the meromorphic continuation, which gives zeta_L(0).

Both refuse a non-finite s and |s| > 5e3 (riemann_zeta refuses |2s| > 1e4),
and a closed-form value past the double range raises ValidationError.
The closed form's poles lie on Re s = d_s/2 (1 - w = 0) and d_s/2 - 1/2
(1 - v = 0), d_s from sequences.dimensions, pi / log P apart (p times finer
than the coarse progression 2 pi / log r^2).  Their residues and the s = 1/2
and s = 0 terms give the small-t expansion of Z(t), heat_trace_asymptote.
The closed form's counts are exact integers; one past the double range (a
block near 10^300 has such counts) enters through its logarithm.

Nothing here uses numpy: the direct zeta's heads are sums of exps over a
cached log table, and the slope fit takes its window means from exact
integer prefix sums and its least squares from math.fsum.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from typing import NamedTuple

from .errors import (
    DivergenceError,
    PoleError,
    TailToleranceError,
    ValidationError,
    integer,
)
from .sequences import JSequence, _log_block, dimensions
from .special import _power_tail, complex_gamma, riemann_zeta
from .spectrum import _family_table, _level_cap, _levels

_PI_SQ = math.pi * math.pi
_LOG_PI_SQ = math.log(_PI_SQ)
_EXP_FLOOR = 745.0  # exp(-745) is the smallest normal-ish double
_POLE_TOL = 1e-12  # |1 - q| below which the closed form reports a pole
_MIN_TOL = 1e-300  # smallest heat-trace tol; a deep row's share may still underflow to 0
_TINY_DENOMINATOR = 2**1074  # 1 / the smallest subnormal double


class HeatTraceSample(NamedTuple):
    t: float
    z: float
    tail_bound: float  # truncation only (dropped terms and levels), not rounding
    level_cap: int | None = None


class PoleLattice(NamedTuple):
    """Arithmetic progression of zeta poles governing the small-t behavior."""

    real_part: float  # d_s / 2 from dimensions(), where |w| = 2^p P^(1-2 Re s) = 1
    spacing: float  # p pi / log P = 2 pi / log r^2: every p-th pole of the family
    members: tuple[complex, ...]


def _quadratic(scale: int, row) -> tuple[float, float]:
    """(log c, offset): the row's eigenvalues are c (k + offset)^2, c = pi^2 (I_n step / 2)^2."""
    return _LOG_PI_SQ + 2.0 * math.log(scale) + 2.0 * math.log(row.step / 2), row.phase / row.step


# ---------------------------------------------------------------------------
# heat trace with certified tails
# ---------------------------------------------------------------------------


def _times(count: int, x: float) -> float:
    """count * x, the exact count possibly past the double range (t below ~1e-307)."""
    shift = max(count.bit_length() - 1000, 0)
    return (count >> shift) * x * 2.0**shift


def _gauss_sum(alpha: float, q: float, sign: float, budget: float) -> float:
    """sum_(i >= 0) sign^(i+1) exp(-alpha (q+i)^2), cut at the first p = q + i whose
    tail bound, the geometric series exp(-alpha p^2) / (1 - exp(-2 alpha p)), fits the budget."""
    total, term_sign = 0.0, sign
    while True:
        term = math.exp(-alpha * q * q)
        if not term / (1.0 - math.exp(-2.0 * alpha * q)) > budget:
            return total
        total += term_sign * term
        term_sign *= sign
        q += 1.0


def _theta(scale: int, row, t: float, budget: float) -> float:
    """count * sum_k exp(-a (k + offset)^2), a = c t, with the dropped terms at most budget.

    The sum runs over the row's positive keys: from k = 1 at offset 0, from
    k = 0 at offset 1/2 (the V's).  Below a = pi the dual series is summed,
    and its dropped terms scale by sqrt(pi/a)."""
    offset = row.phase / row.step
    r = (scale * row.step / 2) * math.sqrt(math.pi * t)  # sqrt(a / pi); c alone may overflow
    budget *= 1 / row.count  # per copy; int division, so a count past the double range gives 0
    if r >= 1.0:
        value = _gauss_sum(math.pi * r * r, offset or 1.0, 1.0, budget)
    else:  # with sqrt(pi/a) = 1/r the dual value is (1/2 + sum - (1/2 - offset) r) / r
        total = _gauss_sum(math.pi / (r * r), 1.0, -1.0 if offset else 1.0, budget * r)
        value = (0.5 - (0.5 - offset) * r + total) / r
    return _times(row.count, value)


def _min_exponent(scale: int, t: float) -> float:
    """log of (lambda_min(level) * t) where lambda_min = pi^2 I^2 / 4."""
    return _LOG_PI_SQ + 2.0 * math.log(scale) - math.log(4.0) + math.log(t)


def _remaining_levels_bound(
    seq: JSequence, scale_first: int, weight_first: int, t: float
) -> float:
    """Certified bound on the total contribution of the first omitted level
    (scale I, weight = its total multiplicity count) and every level after it."""
    root = (math.pi / 2.0) * scale_first * math.sqrt(t)  # sqrt(lambda_min t); lambda_min may overflow
    u = math.exp(-root * root)
    rho = 2.0 * max(seq.values)
    if u > 0.5 or rho * u**3 >= 0.5:
        return math.inf
    # weights grow at most like rho per level while the Boltzmann factors
    # contract like u^(1+3i); sum the dominating geometric series
    return _times(3 * weight_first, u) / ((1.0 - u) * (1.0 - rho * u**3))


def _checked_t(t: float) -> None:
    if not 0 < t < math.inf:
        raise ValidationError(f"t {t} must be finite and > 0")


def _checked_tol(tol: float) -> float:
    if not tol >= _MIN_TOL:
        raise ValidationError(f"tol {tol} must be >= {_MIN_TOL:g}")
    return tol


def heat_trace(
    seq: JSequence,
    t: float,
    tol: float = 1e-10,
    *,
    level_cap: int | None = None,
) -> HeatTraceSample:
    """Z(t) with a certified truncation bound at most tol, at any finite t > 0 whose Z(t) fits a double.

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
    _checked_t(t)
    tol = _checked_tol(tol)
    level_cap = _level_cap(seq, level_cap)

    z = 1.0  # the zero mode
    bound = 0.0  # the budgets handed out, which the dropped terms stay within
    for n, scale, rows in _levels(seq, level_cap):
        if n:  # the line, level 0, is always summed
            if level_cap is None:
                remaining = _remaining_levels_bound(seq, scale, sum(row.count for row in rows), t)
                if remaining <= tol / 2.0:
                    bound += remaining
                    break
            if _min_exponent(scale, t) > math.log(_EXP_FLOOR):
                # every remaining capped level is below double-precision zero
                break
        level_budget = tol / 2.0 ** (n + 2)
        for row in rows:
            z += _theta(scale, row, t, level_budget / len(rows))
        bound += level_budget
    if not math.isfinite(z):
        raise ValidationError(f"Z(t) overflows double precision at t = {t}")

    if seq.max_level is not None:
        # cheapest possible continuation: the 2^(cap+1) V's of j = 2 at level cap+1, key 2 I_cap
        expo = _min_exponent(2 * seq.scale(level_cap), t)
        lower = 0.0
        if expo < math.log(_EXP_FLOOR):
            lower = (1 << (level_cap + 1)) * math.exp(-math.exp(expo))
        if lower > tol:
            raise TailToleranceError(
                f"levels beyond the cap {level_cap} contribute at least "
                f"{lower:.3e} > tol {tol:.3e} at t = {t}",
                achieved_bound=bound + lower,
            )
    if not bound <= tol:
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
    """heat_trace at every t of the grid ts; tol and level cap are checked first."""
    tol, level_cap = _checked_tol(tol), _level_cap(seq, level_cap)
    return [heat_trace(seq, float(t), tol, level_cap=level_cap) for t in ts]


# ---------------------------------------------------------------------------
# direct spectral zeta (power sums + Euler-Maclaurin tails)
# ---------------------------------------------------------------------------

_EM_CUT = 64  # smallest head; the head grows with |s| past |2s| ~ 36
_MAX_ABS_S = 5e3  # riemann_zeta's |2s| <= 1e4, which bounds the closed form too
_DIRECT_ATOL = 1e-13  # bound on the omitted levels of the direct sum
_MAX_DIRECT_LEVELS = 20_000  # predicted levels to go; j = 2 at d_s/2 + 2e-3 needs ~1e4


@functools.lru_cache
def _log_keys(offset: float, cut: int) -> tuple[float, ...]:
    """log(k + offset) over a row's mode indices k < cut: one direct zeta head, shared by every level."""
    return tuple(math.log(k + offset) for k in range(0 if offset else 1, cut))


def _family_zeta(scale: int, row, s: complex) -> complex:
    """count * sum_k (c (k+offset)^2)^(-s), Euler-Maclaurin finish.

    The explicit head grows with |s| by the rule riemann_zeta uses.  The
    prefactor count * c^(-s) sits in the exponent of every head term, so a
    (k+offset)^(-2s) past the double range never meets it as inf * 0.
    """
    w = 2.0 * s
    cut = max(_EM_CUT, int(1.5 * abs(w)) + 10)
    log_c, offset = _quadratic(scale, row)
    pre = math.log(row.count) - s * log_c
    logs = _log_keys(offset, cut)
    if w.imag:
        head = sum(map(cmath.exp, [pre - w * lk for lk in logs]))
    else:  # the same terms, by the cheaper real exp
        re_pre, re_w = pre.real, w.real
        head = sum(map(math.exp, [re_pre - re_w * lk for lk in logs]))
    return head + cmath.exp(pre) * _power_tail(w, cut + offset)


def _finite_s(s: complex) -> complex:
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValidationError(f"s {s} is not finite")
    return s


def spectral_zeta_direct(seq: JSequence, s: complex) -> complex:
    """Brute-force zeta_L(s): term-by-term family sums, no closed forms.

    Serves as the independent oracle for spectral_zeta_closed on the
    convergence half-plane, up to the closed form's |s| <= 5e3.  An explicit
    prefix sums its levels only.
    """
    s = _finite_s(s)
    if abs(s) > _MAX_ABS_S:
        raise ValidationError(f"the direct zeta needs |s| <= {_MAX_ABS_S:g}, got {s}")
    sigma = s.real
    level_cap = seq.max_level
    # a prefix has finitely many families, each converging past Re s = 1/2;
    # every level together converges past d_s/2
    abscissa = _pole_real_part(seq) if level_cap is None else 0.5
    if sigma <= abscissa:
        raise DivergenceError(
            f"Re s = {sigma} is at or below the abscissa of convergence "
            f"{abscissa}; the eigenvalue sum diverges"
        )
    if level_cap is None:
        # past level 1 a period multiplies the d part of each level's terms
        # by w and the e part by v, |v| = |w| / P (the d + e split of
        # _closed_terms), so each period's summed |level term| shrinks by |w|
        p = seq.period
        ratio = 2.0**p * seq.block ** (1.0 - 2.0 * sigma)
        period_sum = 0.0

    total = 0.0 + 0.0j
    for n, scale, rows in _levels(seq, level_cap):
        level_term = 0.0 + 0.0j
        for row in rows:
            level_term += _family_zeta(scale, row, s)
        total += level_term
        if level_cap is None and n:  # the periods start at level 1
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
    return total


# ---------------------------------------------------------------------------
# closed-form spectral zeta (blocked geometric series)
# ---------------------------------------------------------------------------


# (step, phase) -> (a, b): the positive keys of the progression give
# sum_k ((step k + phase) / 2)^(-2s) = (a 2^(2s) + b) zeta_R(2s)
_MODE_SUMS = {(1, 0): (1, 0), (2, 0): (0, 1), (2, 1): (1, -1)}  # all, evens, odds


def _level_terms(seq: JSequence, n: int) -> tuple[int, int, int]:
    """(I_n, a, b): level n adds (a 2^(2s) + b) I_n^(-2s) to the bracket."""
    scale, rows = _family_table(seq, n)
    a, b = (sum(row.count * _MODE_SUMS[row.step, row.phase][i] for row in rows) for i in (0, 1))
    return scale, a, b


@functools.lru_cache
def _closed_terms(seq: JSequence) -> dict[str, tuple[tuple[int, int, int], ...]]:
    """(I_n, a, b) terms of the bracket: the family table resummed per period.

    "head" is levels 0 and 1.  From level 2 on a count is d + e, with d a
    multiple of I_(n-1), and a period maps it to 2^p (P d + e), so d is
    (c_(n+p) - 2^p c_n) / (2^p (P - 1)) exactly.  Over n = 2..p+1 the d parts
    are "dominant" (the series in w carries them), the e parts "subdominant".
    """
    p, block = seq.period, seq.block
    head = tuple(_level_terms(seq, n) for n in (0, 1))
    dominant, subdominant = [], []
    for n in range(2, p + 2):
        scale, *counts = _level_terms(seq, n)
        _, *later = _level_terms(seq, n + p)
        d = [(c_p - 2**p * c) // (2**p * (block - 1)) for c, c_p in zip(counts, later)]
        dominant.append((scale, *d))
        subdominant.append((scale, *(c - c_d for c, c_d in zip(counts, d))))
    return {"head": head, "dominant": tuple(dominant), "subdominant": tuple(subdominant)}


def _count_power(count: int, log_base: float, s: complex, log_unit: float) -> complex:
    """count base^(-2s) / e^log_unit.  A count past the double range (a block
    near 10^300 has such counts) enters through its logarithm instead, as
    sign exp(log|count| - 2s log base - log_unit)."""
    if abs(count) <= sys.float_info.max:
        return count * cmath.exp(-2.0 * s * log_base - log_unit)
    sign = 1.0 if count > 0 else -1.0
    return sign * cmath.exp(math.log(abs(count)) - 2.0 * s * log_base - log_unit)


def _terms_sum(
    terms: tuple[tuple[int, int, int], ...], s: complex, log_unit: float = 0.0
) -> complex:
    """sum (a 2^(2s) + b) I^(-2s) over (I, a, b) terms, in units of e^log_unit,
    with 2^(2s) folded into (I/2)^(-2s): formed alone it overflows at s = 600,
    where every term is 0.  Zero coefficients are skipped, so the line's
    (1/2)^(-2s) never arises."""
    total = 0.0 + 0.0j
    for scale, a, b in terms:
        if a:
            if scale <= sys.float_info.max:
                log_half = math.log(scale / 2)
            else:  # I/2 would not fit a float
                log_half = math.log(scale) - math.log(2.0)
            total += _count_power(a, log_half, s, log_unit)
        if b:
            total += _count_power(b, math.log(scale), s, log_unit)
    return total


def _bracket(seq: JSequence, s: complex) -> complex:
    """The level sum multiplying zeta_R(2s)/pi^(2s) in zeta_L(s): the head plus
    the period series of _closed_terms, ratios w = 2^p P^(1-2s) (dominant)
    and v = 2^p P^(-2s) (subdominant).  A ratio past the double range (blocks
    near 10^300 at small Re s) divides its series and 1 - q by |q| first."""
    p = seq.period
    log_block = _log_block(seq)
    log_w = p * math.log(2.0) + (1.0 - 2.0 * s) * log_block
    log_v = p * math.log(2.0) - 2.0 * s * log_block
    terms = _closed_terms(seq)
    total = _terms_sum(terms["head"], s)
    for log_q, family in ((log_w, "dominant"), (log_v, "subdominant")):
        try:
            q = cmath.exp(log_q)
        except OverflowError:
            unit = math.exp(-log_q.real) - cmath.exp(1j * log_q.imag)  # (1 - q) / |q|
            total += _terms_sum(terms[family], s, log_q.real) / unit
            continue
        if abs(1.0 - q) < _POLE_TOL:
            fine = fine_pole_spacing(seq)
            raise PoleError(
                f"s = {s} is within {_POLE_TOL} of a {family} pole of the "
                "closed-form zeta",
                nearest_pole=complex(
                    _pole_real_part(seq, family), round(s.imag / fine) * fine
                ),
            )
        total += _terms_sum(terms[family], s) / (1.0 - q)
    return total


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
    lo, hi = (integer("m_range end", end) for end in m_range)
    if lo > hi:
        raise ValidationError(f"empty m range {m_range}")
    if hi - lo >= _MAX_POINTS:
        raise ValidationError(f"m range {m_range} has more than {_MAX_POINTS} members")
    spacing = seq.period * fine_pole_spacing(seq)
    real_part = _pole_real_part(seq)
    members = tuple(complex(real_part, m * spacing) for m in range(lo, hi + 1))
    return PoleLattice(real_part=real_part, spacing=spacing, members=members)


def fine_pole_spacing(seq: JSequence) -> float:
    """Imaginary spacing pi/log P of the closed form's actual pole families.

    Equals the PoleLattice spacing for constant sequences; for period p the
    denominator zeros interleave p times finer.
    """
    return math.pi / _log_block(seq)


def oscillation_log_period(seq: JSequence) -> float:
    """Period in log t of the slowest log-periodic oscillation of Z(t)."""
    return 2.0 * math.pi / fine_pole_spacing(seq)


def residue_coefficient(seq: JSequence, s_pole: complex, family: str) -> complex:
    """Residue of zeta_L(s) Gamma(s) t^(-s) at a lattice pole, sans t^(-s).

    family is "dominant" (zeros of 1 - w) or "subdominant" (zeros of 1 - v);
    either way the bracket's residue there is that series' term sum over
    2 log P.
    """
    if family not in ("dominant", "subdominant"):
        raise ValidationError(f"unknown pole family {family!r}")
    num = _terms_sum(_closed_terms(seq)[family], s_pole)
    return (
        complex_gamma(s_pole)
        * riemann_zeta(2.0 * s_pole)
        * cmath.exp(-2.0 * s_pole * math.log(math.pi))
        * num
        / (2.0 * _log_block(seq))
    )


def sqrt_term_coefficient(seq: JSequence) -> float:
    """C in the C / sqrt(pi t) term of the small-t expansion of Z(t).

    Res_{s=1/2} zeta_R(2s) = 1/2 and Gamma(1/2)/pi = 1/sqrt(pi), so C is
    bracket(1/2)/2.  At s = 1/2 (2^(2s) = 2, w = 2^p) the closed terms cancel
    in integers: head (1 - 2^p) + dominant = 0, and b = -2a in every
    subdominant term.  Only P = 2^p (all twos, v = 1) leaves a limit, the
    subdominant 0/0: sum 4 a log 2 / I over 2 log P.
    """
    if seq.block != 2**seq.period:
        return 0.0
    num = sum(a * 4.0 * math.log(2.0) / scale for scale, a, _ in _closed_terms(seq)["subdominant"])
    return num / (2.0 * _log_block(seq)) / 2.0


# |Gamma(sigma + iy)| ~ sqrt(2 pi) |y|^(sigma - 1/2) exp(-pi |y| / 2), so the
# residues past this height are below exp(-4 pi^2) ~ 7e-18 of the real ones
_RESIDUE_HEIGHT = 8.0 * math.pi


@functools.lru_cache
def _residue_terms(seq: JSequence) -> tuple[tuple[complex, complex], ...]:
    """(s, coefficient) of each lattice pole with 0 <= Im s <= 8 pi, once per
    space (no t dependence; a pattern is stored as its primitive block, so
    2,2 is 2 here).  A pole above the real axis also stands for its
    conjugate: its coefficient is doubled and the caller keeps the real part."""
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
    _checked_t(t)
    log_t = math.log(t)
    total = 1.0 + zeta_at_zero(seq)
    total += sqrt_term_coefficient(seq) / math.sqrt(math.pi * t)
    try:
        for s, coeff in _residue_terms(seq):
            try:
                total += (coeff * cmath.exp(-s * log_t)).real
            except OverflowError:  # t^(-s) alone is past the double range, the term may not be
                total += cmath.exp(cmath.log(coeff) - s * log_t).real
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError(f"the residue expansion overflows double precision at t = {t}")
    return total


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
    if not 0 < log_period < math.inf:
        raise ValidationError(f"log_period {log_period} must be finite and > 0")
    ordered = sorted(samples, key=lambda s: s.t)
    tau = [math.log(s.t) for s in ordered]
    if tau[-1] - tau[0] < 2.0 * math.log(10.0):
        raise ValidationError("samples span fewer than two decades of t")
    for s in ordered:
        if s.tail_bound / s.z >= 1e-6:
            raise ValidationError(
                f"sample at t={s.t} has tail_bound/z = "
                f"{s.tail_bound / s.z:.2e} >= 1e-6"
            )
    y = [math.log(s.z) for s in ordered]
    delta = (tau[-1] - tau[0]) / (len(tau) - 1)  # the mean step of log t
    q = max(1, round(log_period / delta))
    if q >= len(ordered):
        raise ValidationError(
            "averaging window exceeds the sample span; extend the t grid"
        )

    def window_means(v):
        # every double is an integer multiple of 2^-1074, so the prefix sums of
        # v 2^1074 are exact and each window sum rounds once, as math.fsum's does
        units = (a * (_TINY_DENOMINATOR // b) for a, b in map(float.as_integer_ratio, v))
        prefix = [0, *itertools.accumulate(units)]
        return [(hi - lo) / _TINY_DENOMINATOR / q for lo, hi in zip(prefix, prefix[q:])]

    # the least-squares slope of the window means of y against those of tau
    tau_bar, y_bar = window_means(tau), window_means(y)
    tau_mean, y_mean = math.fsum(tau_bar) / len(tau_bar), math.fsum(y_bar) / len(y_bar)
    dx = [x - tau_mean for x in tau_bar]
    slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y_bar)) / math.fsum(d * d for d in dx)
    return -2.0 * slope
