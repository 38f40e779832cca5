"""Heat trace, spectral zeta (two routes), poles, residues, asymptotics."""

import cmath
import math
import os
import re
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laakso
from laakso import (
    level_spectrum,
    DivergenceError,
    PoleError,
    TailToleranceError,
    ValidationError,
    dimensions,
    estimate_spectral_dimension,
    fine_pole_spacing,
    heat_trace,
    heat_trace_asymptote,
    heat_trace_grid,
    oscillation_log_period,
    parse_sequence,
    poles,
    residue_coefficient,
    spectral_zeta_closed,
    spectral_zeta_direct,
    sqrt_term_coefficient,
    zeta_at_zero,
)
from laakso.heatzeta import (
    HeatTraceSample,
    _DIRECT_ATOL,
    _MODE_SUMS,
    _bracket,
    _closed_terms,
    _gauss_sum,
    _level_terms,
    _progression_sum,
    _residue_terms,
    _terms_sum,
    _theta,
)
from laakso.spectrum import _family_table

J2 = parse_sequence("2")
J3 = parse_sequence("3")
J23 = parse_sequence("2,3")


# -- heat trace ----------------------------------------------------------------


def test_trace_approaches_one_for_large_t():
    assert heat_trace(J2, 60.0, 1e-12).z == pytest.approx(1.0, abs=1e-12)


def test_trace_moderate_t_value():
    sample = heat_trace(J2, 1.0, 1e-9)
    expected = 1.0 + 3.0 * math.exp(-math.pi**2)  # next term is ~4e-17
    assert sample.z == pytest.approx(expected, abs=1e-12)
    assert sample.tail_bound <= 1e-9


def test_trace_small_t_weyl_regime():
    sample = heat_trace(J2, 1e-8, 1e-8)
    product = 16.0 * math.log(2.0) * 1e-8 * sample.z
    assert abs(product - 1.0) < 0.02


def test_trace_z_at_least_one():
    for t in (1e-6, 1e-3, 1.0, 100.0):
        assert heat_trace(J23, t, 1e-10).z >= 1.0


def test_trace_tail_bound_is_honest():
    for t in (3e-7, 1e-5, 1e-3, 0.3):
        coarse = heat_trace(J23, t, 1e-6)
        fine = heat_trace(J23, t, 1e-12)
        assert abs(coarse.z - fine.z) <= coarse.tail_bound
        assert fine.tail_bound <= 1e-12


def test_trace_decreasing_and_convex():
    ts = np.geomspace(1e-7, 1e-1, 25)
    zs = [heat_trace(J23, float(t), 1e-10).z for t in ts]
    assert all(a > b for a, b in zip(zs, zs[1:]))
    slopes = [
        (z2 - z1) / (t2 - t1) for (z1, z2, t1, t2) in zip(zs, zs[1:], ts, ts[1:])
    ]
    assert all(s2 >= s1 for s1, s2 in zip(slopes, slopes[1:]))


def test_trace_validates_inputs():
    with pytest.raises(ValidationError):
        heat_trace(J2, 0.0, 1e-9)
    with pytest.raises(ValidationError):
        heat_trace(J2, 1.0, -1e-9)
    with pytest.raises(ValidationError):
        heat_trace(J2, 1e-320, 1e-9)  # Z(t) ~ 1 / (16 log 2 t) past the double range
    for t, tol in ((math.nan, 1e-9), (1.0, math.nan)):
        with pytest.raises(ValidationError):
            heat_trace(J2, t, tol)
    for t in (math.inf, 0.0, -1.0, math.nan):  # an infinite t has no trace to certify
        with pytest.raises(ValidationError, match="must be finite and > 0"):
            heat_trace(J2, t)
        with pytest.raises(ValidationError, match="must be finite and > 0"):
            heat_trace_asymptote(J2, t)
    # one level-cap rule for the trace and level_spectrum
    prefix = parse_sequence("seq:2,3")
    for seq, cap in ((J2, -1), (prefix, -1), (prefix, 3)):
        with pytest.raises(ValidationError):
            heat_trace(seq, 1.0, 1e-9, level_cap=cap)
        with pytest.raises(ValidationError):
            level_spectrum(seq, cap, 100.0)


def test_trace_grid_checks_tol_before_any_t():
    """An empty grid still refuses a bad tol, with heat_trace's message."""
    for tol in (-1.0, 0.0, math.nan):
        with pytest.raises(ValidationError, match="^tol .* must be >= 1e-300"):
            heat_trace_grid(J2, [], tol)


@mpmath.workdps(40)
def test_theta_matches_the_term_by_term_sum():
    """Both row kinds, a on both sides of pi (the switch between the dual and
    the direct series): the helper's value is the term-by-term sum, to 40
    digits at the same double a the helper forms, within the budget and
    8 ulp of rounding.  Rows: the line and every occupied row of levels 1-3
    of three spaces, each summed over k >= 0 at phase > 0 and k >= 1 at phase 0."""
    scale, (line,) = _family_table(J2, 0)
    rows = [(scale, line)]
    for spec in ("2", "2,3", "3,4"):
        for n in (1, 2, 3):
            scale, level_rows = _family_table(parse_sequence(spec), n)
            rows += [(scale, row) for row in level_rows if row.count]
    kinds = set()
    for scale, row in rows:
        offset = Fraction(row.phase, row.step)
        for a_target in (1e-3, 0.3, 3.0, math.pi * (1 - 1e-12), math.pi, 3.3, 30.0, 300.0):
            t = a_target / (math.pi * scale * row.step / 2) ** 2
            r = (scale * row.step / 2) * math.sqrt(math.pi * t)
            a = mpmath.mpf(math.pi * r * r)
            kinds.add((offset, r < 1.0))
            oracle, k = mpmath.mpf(0), 0 if row.phase else 1
            while k < 5 or oracle * mpmath.mpf(10) ** -45 < mpmath.exp(-a * (k + offset) ** 2):
                oracle += mpmath.exp(-a * (k + offset) ** 2)
                k += 1
            oracle *= row.count
            for budget in (1e-6, 1e-10, 1e-13, 0.0):  # 0 sums until the terms underflow
                value = _theta(scale, row, t, budget)
                assert abs(value - oracle) <= budget + 8 * math.ulp(value), (row, a_target, budget)
    assert kinds == {(o, dual) for o in (0, Fraction(1, 2)) for dual in (False, True)}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("q", [0.5, 1.0])
@pytest.mark.parametrize("budget", [1e-3, 1e-6, 1e-9])
def test_gauss_sum_drops_at_most_its_budget_at_small_alpha(budget, q, sign):
    """At alpha = 1e-3 the geometric factor 1/(1 - exp(-2 alpha p)) of the tail
    bound is ~5 where the sum stops, so stopping at the first term below the
    budget would drop about five budgets.  The dropped tail is the full sum,
    term by term until the terms underflow, less the returned one."""
    alpha, terms, p, term_sign = 1e-3, [], q, sign
    while (term := math.exp(-alpha * p * p)) > 0.0:
        terms.append(term_sign * term)
        term_sign *= sign
        p += 1.0
    dropped = math.fsum(terms) - _gauss_sum(alpha, q, sign, budget)
    assert abs(dropped) <= budget


@mpmath.workdps(40)
def _theta_reference(seq, t):
    """Z(t) to 40 digits: the zero mode's 1, then every row by the same dual
    (a < pi) or direct series over k >= 0 at phase > 0 and k >= 1 at phase 0,
    summed until its terms and then whole levels stop counting at 45 digits."""
    t, small = mpmath.mpf(t), mpmath.mpf(10) ** -45

    def series(alpha, q, sign):
        total, i = mpmath.mpf(0), 0
        while i < 3 or mpmath.exp(-alpha * (q + i) ** 2) > small * abs(total):
            total += sign ** (i + 1) * mpmath.exp(-alpha * (q + i) ** 2)
            i += 1
        return total

    def row_sum(scale, row):
        a = mpmath.pi**2 * (mpmath.mpf(scale) * row.step / 2) ** 2 * t
        offset = mpmath.mpf(row.phase) / row.step
        if a >= mpmath.pi:
            return row.count * series(a, (0 if row.phase else 1) + offset, 1)
        dual = series(mpmath.pi**2 / a, 1, -1 if offset else 1)
        return row.count * (mpmath.sqrt(mpmath.pi / a) * (0.5 + dual) - (0.5 - offset))

    z, n = mpmath.mpf(1), 0
    while True:
        scale, rows = _family_table(seq, n)
        level = sum(row_sum(scale, row) for row in rows if row.count)
        z += level
        if level < small * z and mpmath.pi**2 * scale**2 * t / 4 > 100:
            return z
        n += 1


@pytest.mark.parametrize("t", [1e-13, 1e-9, 1e-5])
def test_trace_matches_a_40_digit_sum(t):
    """mpmath.jtheta refuses a nome this close to 1, so the reference sums
    the same series itself; the trace is within its bound and 8 ulp of it
    (a tol of 1e-14 keeps the bound below an ulp of z)."""
    sample = heat_trace(J23, t, 1e-14)
    reference = _theta_reference(J23, t)
    assert abs(sample.z - reference) <= sample.tail_bound + 8 * math.ulp(sample.z)


def test_trace_explicit_prefix_needs_reachable_tolerance():
    seq = parse_sequence("seq:2,3")
    # at large t the capped trace is fine and echoes its cap
    ok = heat_trace(seq, 5.0, 1e-9)
    assert ok.level_cap == 2
    assert ok.z >= 1.0
    # at small t the omitted levels must contribute, so no answer is honest
    with pytest.raises(TailToleranceError) as err:
        heat_trace(seq, 1e-6, 1e-9)
    assert err.value.achieved_bound > 1e-9


def test_trace_explicit_matches_periodic_when_levels_dormant():
    # at this t, levels above 2 contribute ~e^-106, so the capped explicit
    # trace must agree with the full periodic one
    t = 0.3
    capped = heat_trace(parse_sequence("seq:2,3"), t, 1e-12)
    full = heat_trace(J23, t, 1e-12)
    assert capped.z == pytest.approx(full.z, abs=1e-12)


_HUGE = 10**400  # past the double range


@pytest.mark.parametrize(
    "spec, t, cap, twos_cap",
    [
        (str(_HUGE), 1.0, None, 0),
        (str(_HUGE), 1.0, 1, 0),
        (f"{10**308}", 1.0, None, 0),
        (f"2,{_HUGE}", 1e-3, None, 1),
        (f"seq:2,{_HUGE}", 1e-3, None, 1),
        (f"2,{_HUGE}", 1e-3, 1, 1),
        (f"2,{10**308}", 1e-3, None, 1),
        ("seq:" + ",".join(["2"] * 2101), 1e-3, None, None),
    ],
    ids=["huge", "huge-cap1", "1e308", "2-huge", "seq-2-huge", "2-huge-cap1", "2-1e308", "2101-twos"],
)
def test_trace_past_a_level_whose_scale_has_no_float(spec, t, cap, twos_cap):
    """A level of scale past 2^1000 has exp(-lambda t) = 0 at every t the
    trace takes, so the walk stops there with nothing added: the sample is
    the constant 2's up to the level before.  The 2101-entry prefix's
    continuation count 2^2102 has no float either, and is not formed."""
    sample = heat_trace(parse_sequence(spec), t, level_cap=cap)
    twos = heat_trace(J2, t, level_cap=twos_cap)
    assert (sample.z, sample.tail_bound) == (twos.z, twos.tail_bound)


@pytest.mark.parametrize("spec", ["2", "3", "2,3", "3,4", "2,5"])
@pytest.mark.parametrize("cap", [1, 2, 3, 4])
def test_trace_level_cap_targets_the_level_capped_spectrum(spec, cap):
    # loops (j >= 3) and deep quarter crosses pin the family table's
    # key -> (c, offset) mapping in the trace to the exact table's keys
    seq = parse_sequence(spec)
    # t scales with the first omitted level so that it stays awake
    # (t = 1e-3 for 2,3 at cap 2)
    t = 1e-3 * (12 / seq.scale(cap + 1)) ** 2
    capped = heat_trace(seq, t, 1e-11, level_cap=cap)
    assert capped.level_cap == cap
    # independent reference: exponential sum over the truncated exact table
    table = level_spectrum(seq, cap, 80.0 / t)
    reference = math.fsum(e.multiplicity * math.exp(-e.value * t) for e in table.entries)
    assert abs(capped.z - reference) <= capped.tail_bound + 8 * math.ulp(capped.z)
    assert capped.tail_bound <= 1e-11
    # deeper levels are awake at this t, so the full trace is larger
    full = heat_trace(seq, t, 1e-11)
    assert full.z > capped.z + 1.0


def test_trace_cap_past_the_stop_is_the_uncapped_trace(monkeypatch):
    """A capped sum stops by the uncapped sum's certified rule, its bound
    counting the levels it skips: once the cap passes the stop level, z and
    tail_bound are the uncapped sample's bit for bit, and a cap of 10^5
    walks no further than no cap does."""
    deepest = []

    def walk(seq, level_cap):
        for level in laakso.spectrum._levels(seq, level_cap):
            deepest.append(level[0])
            yield level

    monkeypatch.setattr("laakso.heatzeta._levels", walk)
    for i in range(30):
        t = 10.0 ** (-6 + 6 * i / 29)
        deepest.clear()
        full = heat_trace(J23, t, 1e-10)
        stop = max(deepest)
        for cap in (stop, 30, 10**5):
            deepest.clear()
            capped = heat_trace(J23, t, 1e-10, level_cap=cap)
            assert (capped.z, capped.tail_bound, capped.level_cap) == (full.z, full.tail_bound, cap)
            assert max(deepest) == stop < 30


# -- spectral zeta: two routes -------------------------------------------------


@pytest.mark.parametrize("seq", [J2, J3, J23])
@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 2.5 + 1.0j])
def test_closed_equals_direct(seq, s):
    closed = spectral_zeta_closed(seq, s)
    direct = spectral_zeta_direct(seq, s)
    assert abs(closed - direct) <= 1e-8 * (1.0 + abs(closed))


def test_direct_matches_closed_far_up_the_strip():
    """The direct route's explicit head grows with |s| like riemann_zeta's.
    Near the abscissa at 4000i, `2,3` sums some 1,700 levels, each reusing
    the same three power sums of 12,010 head terms."""
    half_ds = dimensions(J23).spectral / 2.0
    for seq, s in ((J2, 1.5 + 400j), (J23, complex(half_ds + 1e-2, 4000.0))):
        closed = spectral_zeta_closed(seq, s)
        direct = spectral_zeta_direct(seq, s)
        assert abs(direct - closed) <= 1e-10 * abs(closed)


def test_direct_forms_each_progression_sum_once(monkeypatch):
    """A level's rows reuse their progression's power sum: d_s/2 + 3e-3 walks
    some 8,000 levels of `2`, yet at most three sums are formed, one per (step, phase)."""
    formed = []

    def counted(step, phase, s):
        formed.append((step, phase))
        return _progression_sum(step, phase, s)

    monkeypatch.setattr("laakso.heatzeta._progression_sum", counted)
    s = dimensions(J2).spectral / 2.0 + 3e-3
    assert spectral_zeta_direct(J2, s) == pytest.approx(spectral_zeta_closed(J2, s), rel=1e-12)
    assert len(formed) == len(set(formed)) <= 3


def test_direct_vanishes_at_large_real_s():
    """At s = 600 every term is below the double range, while the 2^(2s)
    that the V's odd j carry as 2 (k + 1/2) is above it: the sum is 0, not a
    level loop on NaN.  A child process turns a hang into a failure."""
    code = (
        "from laakso import parse_sequence, spectral_zeta_direct\n"
        "print(spectral_zeta_direct(parse_sequence('2'), 600) == 0)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "True", done.stderr


@pytest.mark.parametrize("spec, s", [("2,5", 3.0), ("2,3,4", 4.0 + 10.0j)])
def test_direct_stop_rule_covers_whole_periods(spec, s):
    """Periodic level terms do not shrink at every level: the stop rule
    must bound the omitted levels a whole period at a time."""
    seq = parse_sequence(spec)
    closed = spectral_zeta_closed(seq, s)
    direct = spectral_zeta_direct(seq, s)
    assert abs(direct - closed) <= _DIRECT_ATOL + 1e-15 * abs(closed)


@pytest.mark.parametrize("seq", [J2, J23])
def test_direct_sums_close_to_the_abscissa(seq):
    """d_s/2 + 2e-3 is inside the direct route's level limit (~1e4 levels for j = 2)."""
    s = dimensions(seq).spectral / 2.0 + 2e-3
    closed = spectral_zeta_closed(seq, s)
    assert spectral_zeta_direct(seq, s) == pytest.approx(closed, rel=1e-12)


def test_direct_diverges_at_the_closed_forms_nearest_pole():
    """The closed form's nearest pole lies on the direct route's abscissa,
    so the direct sum refuses it instead of summing without end.  A child
    process turns a hang into a failure."""
    code = (
        "from laakso import *\n"
        "seq = parse_sequence('2,5')\n"
        "try:\n"
        "    spectral_zeta_closed(seq, poles(seq).real_part)\n"
        "except PoleError as err:\n"
        "    try:\n"
        "        spectral_zeta_direct(seq, err.nearest_pole)\n"
        "    except DivergenceError:\n"
        "        print('diverges')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "diverges", done.stderr


def test_direct_refuses_huge_s():
    """Both routes refuse |s| > 5e3 by one rule that names the s given, not
    the 2s that the closed form's riemann_zeta would see."""
    for route in (spectral_zeta_direct, spectral_zeta_closed):
        for s in (2.0 + 6e3j, 1e4):
            with pytest.raises(ValidationError, match=re.escape(f"|s| <= 5000, got {complex(s)}")):
                route(J2, s)


@pytest.mark.parametrize("s", [-200.25, -600.0])
def test_closed_overflow_is_invalid_input(s):
    with pytest.raises(ValidationError, match="overflows"):
        spectral_zeta_closed(J2, s)


def test_closed_underflow_is_zero():
    """Past Re s ~ 512, 2^(2s) alone overflows while every term of zeta_L is
    below the double range: the closed form returns 0, as the direct sum
    does.  Next to the overflow at s = -200.25, the trivial zero s = -200
    also gives 0."""
    for seq in (J2, J23):
        for s in (600.0, 4000.0):
            assert spectral_zeta_closed(seq, s) == 0 == spectral_zeta_direct(seq, s)
    assert spectral_zeta_closed(J2, -200) == 0


@pytest.mark.parametrize("seq", [J2, J23], ids=["J2", "J23"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 70, 130])
def test_closed_vanishes_at_the_trivial_zeros(seq, n):
    """zeta_R(2s) vanishes at s = -1, -2, ..., so zeta_L does too."""
    assert spectral_zeta_closed(seq, -n) == 0


def test_direct_diverges_at_and_below_abscissa():
    """Also just above it: at d_s/2 + 1e-4 the tail needs about 2.7e5 (J2)
    and 2.1e5 (J23) more levels, over the direct sum's 20,000-level limit."""
    for seq in (J2, J23):
        abscissa = dimensions(seq).spectral / 2.0
        for s in (abscissa, abscissa - 0.3, abscissa + 1e-4):
            with pytest.raises(DivergenceError):
                spectral_zeta_direct(seq, s)


def test_closed_rejects_pole_neighborhood():
    s_pole = 1.0 + 2.0j * math.pi / math.log(4.0)
    with pytest.raises(PoleError) as err:
        spectral_zeta_closed(J2, s_pole)
    near = err.value.nearest_pole
    assert near.real == pytest.approx(1.0, abs=1e-12)
    assert near.imag == pytest.approx(2.0 * math.pi / math.log(4.0), abs=1e-9)


def test_closed_rejects_half():
    with pytest.raises(PoleError):
        spectral_zeta_closed(J23, 0.5)


@pytest.mark.parametrize("s", [math.inf, math.nan, complex(2.0, math.inf)])
def test_zeta_routes_refuse_non_finite_s(s):
    with pytest.raises(ValidationError):
        spectral_zeta_direct(J2, s)
    with pytest.raises(ValidationError):
        spectral_zeta_closed(J2, s)


def test_zeta_at_zero_by_continuation():
    # the geometric closed form continues through the divergence abscissa
    assert zeta_at_zero(J2) == pytest.approx(-1.0, abs=1e-12)
    assert zeta_at_zero(J23) == pytest.approx(-1.0, abs=1e-12)
    assert zeta_at_zero(J3) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("spec", ["2", "2,3", "3,4"])
def test_zeta_at_zero_is_the_limit_of_the_closed_form(spec):
    """zeta_L(0) = -bracket(0)/2, since zeta_R(0) = -1/2: the float bracket
    at s = 0 gives it to rounding, and it is the limit of the closed form
    as s -> 0 from either side of both axes."""
    seq = parse_sequence(spec)
    at_zero = zeta_at_zero(seq)
    assert at_zero == float(_exact_zeta_at_zero(seq))
    assert -0.5 * _bracket(seq, 0.0).real == pytest.approx(at_zero, rel=1e-15)
    for s in (1e-7, -1e-7, 1e-7j, -1e-7j):
        assert spectral_zeta_closed(seq, s) == pytest.approx(at_zero, rel=1e-5)


def _prefix_zeta(seq, s):
    """zeta_L(s) of an explicit prefix by Hurwitz zeta, one per family row:
    keys I (step k + phase) are eigenvalues (pi I step / 2)^2 (k + phase/step)^2."""
    total = mpmath.mpf(0)
    for n in range(seq.max_level + 1):
        scale, rows = _family_table(seq, n)
        for row in rows:
            first = 0 if row.phase else 1  # the positive keys; lambda = 0 is excluded
            offset = mpmath.mpf(row.phase) / row.step
            c = mpmath.pi * scale * row.step / 2
            total += row.count * c ** (-2 * s) * mpmath.zeta(2 * s, first + offset)
    return complex(total)


def test_explicit_direct_capped_levels():
    seq = parse_sequence("seq:2,3,2")
    value = spectral_zeta_direct(seq, 2.0)
    assert value == pytest.approx(_prefix_zeta(seq, 2), rel=1e-12)


def test_capped_direct_sum_converges_past_one_half():
    # a prefix is finitely many families, whatever the pattern's d_s / 2
    seq = parse_sequence("seq:2,3,2")
    assert dimensions(J23).spectral / 2.0 > 0.8
    value = spectral_zeta_direct(seq, 0.8)
    assert value == pytest.approx(_prefix_zeta(seq, mpmath.mpf("0.8")), abs=1e-12)
    with pytest.raises(DivergenceError):
        spectral_zeta_direct(seq, 0.5)


@given(
    st.sampled_from(["2", "3", "2,3"]),
    st.floats(min_value=1.3, max_value=3.5),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_closed_equals_direct_on_halfplane(spec, re, im):
    seq = parse_sequence(spec)
    s = complex(re, im)
    closed = spectral_zeta_closed(seq, s)
    direct = spectral_zeta_direct(seq, s)
    assert abs(closed - direct) <= 1e-8 * (1.0 + abs(closed))


# -- the closed form's terms: the family table resummed per period -------------

SPLIT_SPECS = ["2", "3", "2,3", "3,2", "3,4", "2,5", "2,3,4", "2,2", "2,2,2", "4", "2,4", "6,2"]


def test_mode_sums_are_the_progression_sums():
    """Each (step, phase) entry is the Hurwitz sum over the progression's
    positive keys: sum_k ((step k + phase)/2)^(-2s) = (a 2^(2s) + b) zeta_R(2s)."""
    assert set(_MODE_SUMS) == {
        (row.step, row.phase) for n in (0, 1, 2) for row in _family_table(J23, n)[1]
    }
    for s in (mpmath.mpf(3), mpmath.mpc(1.5, 4)):
        for (step, phase), (a, b) in _MODE_SUMS.items():
            first = phase / mpmath.mpf(step) if phase else 1
            direct = mpmath.power(step / mpmath.mpf(2), -2 * s) * mpmath.zeta(2 * s, first)
            closed = (a * mpmath.power(2, 2 * s) + b) * mpmath.zeta(2 * s)
            assert abs(direct - closed) < 1e-12 * abs(closed)


@pytest.mark.parametrize("spec", ["2", "2,3", "3,4", "2,3,4"])
def test_closed_terms_reproduce_the_paper_numerators(spec):
    """The bracket's head and numerators as the paper writes them, with
    c = 2^(2s-1), j_1 the first entry and I_r = j_1 ... j_r:
        head  = 1 + (4c - 4 + j_1) j_1^(-2s)
        N_dom = sum_{r=2}^{p+1} 2^(r-1) I_(r-1) (c + j_r - 1) I_r^(-2s)
        N_sub = (3c - 3) sum_{r=2}^{p+1} 2^(r-1) I_r^(-2s)
    """
    seq = parse_sequence(spec)
    values = seq.values * 2
    p = len(seq.values)

    def scale(r):
        return math.prod(values[:r])

    terms = _closed_terms(seq)
    for s in (2.0, 0.3 + 5.0j, -0.7 - 12.0j, 1.25 + 0.5j):
        c = 2.0 ** (2.0 * s - 1.0)
        paper = {
            "head": 1.0 + (4.0 * c - 4.0 + values[0]) * values[0] ** (-2.0 * s),
            "dominant": sum(
                2 ** (r - 1) * scale(r - 1) * (c + values[r - 1] - 1.0) * scale(r) ** (-2.0 * s)
                for r in range(2, p + 2)
            ),
            "subdominant": (3.0 * c - 3.0)
            * sum(2 ** (r - 1) * scale(r) ** (-2.0 * s) for r in range(2, p + 2)),
        }
        for family, expected in paper.items():
            assert abs(_terms_sum(terms[family], s) - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("spec", SPLIT_SPECS)
def test_period_split_reproduces_the_family_table(spec):
    """Level n + kp of the table is 2^(kp) (P^k d + e) for the d and e of
    level n, exactly, over four periods."""
    seq = parse_sequence(spec)
    p, block = seq.period, seq.block
    terms = _closed_terms(seq)
    assert terms["head"] == tuple(_level_terms(seq, n) for n in (0, 1))
    for n, dom, sub in zip(range(2, p + 2), terms["dominant"], terms["subdominant"]):
        assert dom[0] == sub[0] == seq.scale(n)
        for k in range(4):
            scale, a, b = _level_terms(seq, n + k * p)
            assert scale == seq.scale(n) * block**k
            assert (a, b) == tuple(
                2 ** (k * p) * (block**k * d + e) for d, e in zip(dom[1:], sub[1:])
            )


@pytest.mark.parametrize("spec", SPLIT_SPECS)
def test_closed_terms_cancel_at_one_half(spec):
    """At s = 1/2 a term is (2a + b) / I and w = 2^p.  Over the common
    denominator I_(p+1), head (1 - 2^p) + dominant is 0 and so is the
    subdominant sum, in integers: the bracket is removable there."""
    seq = parse_sequence(spec)
    p = seq.period
    common = seq.scale(p + 1)
    terms = _closed_terms(seq)

    def numerator(family):
        assert all(common % scale == 0 for scale, _, _ in terms[family])
        return sum((2 * a + b) * (common // scale) for scale, a, b in terms[family])

    assert numerator("head") * (1 - 2**p) + numerator("dominant") == 0
    assert numerator("subdominant") == 0


# -- poles and residues ----------------------------------------------------------


def test_pole_lattice_constant_two():
    lattice = poles(J2, (-3, 3))
    assert lattice.real_part == pytest.approx(1.0, abs=1e-15)
    assert lattice.spacing == pytest.approx(2.0 * math.pi / math.log(4.0), rel=1e-15)
    assert len(lattice.members) == 7
    assert lattice.members[3] == complex(1.0, 0.0)


def test_pole_range_is_bounded():
    assert len(poles(J2, (-5000, 5000)).members) == 10_001
    with pytest.raises(ValidationError):
        poles(J2, (-5000, 5001))
    with pytest.raises(ValidationError, match="empty m range"):
        poles(J2, (3, -3))


def test_pole_lattice_alternating():
    lattice = poles(J23)
    assert lattice.real_part == pytest.approx(
        0.5 + math.log(2.0) / math.log(6.0), rel=1e-14
    )


@given(st.sampled_from(["2", "3", "4", "7", "2,3", "3,2", "2,5", "2,3,4"]))
def test_pole_real_part_is_half_spectral_dimension(spec):
    seq = parse_sequence(spec)
    assert poles(seq).real_part == pytest.approx(
        dimensions(seq).spectral / 2.0, rel=1e-14
    )


@pytest.mark.parametrize("spec", ["2", "3", "5", "2,3", "2,5", "3,4", "2,3,4", "6,2"])
def test_half_spectral_dimension_has_one_source(spec):
    """d_s/2 is one number: the pole lattice and the closed form's nearest
    pole both read dimensions(), bit for bit."""
    seq = parse_sequence(spec)
    lattice = poles(seq)
    assert lattice.real_part == dimensions(seq).spectral / 2.0
    assert lattice.spacing == seq.period * fine_pole_spacing(seq)
    with pytest.raises(PoleError) as err:
        spectral_zeta_closed(seq, lattice.real_part)
    assert err.value.nearest_pole.real == lattice.real_part


def test_fine_spacing_refines_by_period():
    assert fine_pole_spacing(J2) == pytest.approx(poles(J2).spacing, rel=1e-14)
    assert fine_pole_spacing(J23) == pytest.approx(poles(J23).spacing / 2.0, rel=1e-14)


def test_residue_conjugate_symmetry():
    fine = fine_pole_spacing(J23)
    re_dom = poles(J23).real_part
    for m in (1, 2, 3):
        plus = residue_coefficient(J23, complex(re_dom, m * fine), "dominant")
        minus = residue_coefficient(J23, complex(re_dom, -m * fine), "dominant")
        assert minus == plus.conjugate()
    with pytest.raises(ValidationError, match="unknown pole family 'bogus'"):
        residue_coefficient(J23, complex(re_dom, fine), "bogus")


def test_dominant_residue_value_j2():
    # at the real pole s = 1 the residue must assemble to 1/(16 log 2)
    coeff = residue_coefficient(J2, complex(1.0, 0.0), "dominant")
    assert coeff.real == pytest.approx(1.0 / (16.0 * math.log(2.0)), rel=1e-12)
    assert abs(coeff.imag) < 1e-15


def test_sqrt_term_only_for_all_twos():
    assert sqrt_term_coefficient(J2) == pytest.approx(0.75, rel=1e-13)
    assert sqrt_term_coefficient(J23) == 0.0
    assert sqrt_term_coefficient(J3) == 0.0
    for spec in ("2,2", "2,2,2"):
        assert sqrt_term_coefficient(parse_sequence(spec)) == pytest.approx(
            0.75, rel=1e-13
        )
    # blocks that are powers of 2 but not 2^p
    for spec in ("4", "2,4"):
        assert sqrt_term_coefficient(parse_sequence(spec)) == 0.0


def test_sqrt_coefficient_measured_from_the_trace():
    """The square-root term is read off the trace itself.

    Subtracting the residue expansion minus its square-root part from the
    directly summed Z(t) isolates C / sqrt(pi t); the constant-2 space
    measures C = 3/4 and the alternating space measures 0, pinning the
    coefficients independently of the formulas that produced them.
    """
    for seq, expected in ((J2, 0.75), (J23, 0.0), (J3, 0.0)):
        sqrt_c = sqrt_term_coefficient(seq)
        for t in (1e-7, 1e-8):
            z = heat_trace(seq, t, 1e-12).z
            lattice_only = heat_trace_asymptote(seq, t) - (
                sqrt_c / math.sqrt(math.pi * t)
            )
            measured = (z - lattice_only) * math.sqrt(math.pi * t)
            assert abs(measured - expected) < 2e-3


# -- residue expansion vs direct trace -------------------------------------------


def test_asymptote_matches_trace_j2():
    for t in (1e-9, 1e-8, 1e-7):
        z = heat_trace(J2, t, 1e-10).z
        a = heat_trace_asymptote(J2, t)
        assert abs(a - z) / z < 1e-9


def test_asymptote_matches_trace_j23():
    for t in (1e-9, 1e-8, 1e-7):
        z = heat_trace(J23, t, 1e-10).z
        a = heat_trace_asymptote(J23, t)
        assert abs(a - z) / z < 1e-5


def test_asymptote_matches_trace_j3():
    for t in (1e-9, 1e-8):
        z = heat_trace(J3, t, 1e-10).z
        a = heat_trace_asymptote(J3, t)
        assert abs(a - z) / z < 1e-5


@pytest.mark.parametrize(
    "spec", ["2", "3", "2,3", "3,4", "2,5", "2,3,4", "2,2", "6,2"]
)
def test_asymptote_matches_trace_to_rounding(spec):
    """Every pole up to Im s = 8 pi leaves only rounding between the routes."""
    seq = parse_sequence(spec)
    for t in np.geomspace(1e-9, 1e-3, 13):
        z = heat_trace(seq, float(t), 1e-10).z
        assert heat_trace_asymptote(seq, float(t)) == pytest.approx(z, rel=1e-11)


DEEP_SPECS = ["2", "2,3", "3,4", "2,5", "7", "2,3,4"]


@pytest.mark.parametrize("spec", DEEP_SPECS)
def test_trace_meets_the_asymptote_at_deep_t(spec):
    """Far below t = 1e-13 the level sums alone check the closed form's
    residues and its pole height: no zeta enters the trace."""
    seq = parse_sequence(spec)
    for t in (1e-20, 1e-40, 1e-80):
        assert heat_trace(seq, t).z == pytest.approx(heat_trace_asymptote(seq, t), rel=1e-13)


@pytest.mark.parametrize("spec", DEEP_SPECS + ["3"])
def test_trace_ratio_over_one_period_is_the_spectral_dimension(spec):
    """Over one log-period L the oscillation cancels, so at t = 1e-120 the
    ratio 2 log(Z(t) / Z(t e^L)) / L is d_s without a fit."""
    seq = parse_sequence(spec)
    t, log_period = 1e-120, oscillation_log_period(seq)
    ratio = heat_trace(seq, t).z / heat_trace(seq, t * math.exp(log_period)).z
    assert 2.0 * math.log(ratio) / log_period == pytest.approx(dimensions(seq).spectral, abs=1e-13)


def test_trace_at_the_bottom_of_the_double_range():
    """Below t ~ 1e-307 the deepest counts of the constant-2 space pass the
    double range while Z(t) does not.  At 1e-309 the expansion's t^(-s) is
    past it too, but each residue term, formed in log space, is not.  At
    1e-320 Z(t) itself is past the double range, and both refuse."""
    for t in (1e-307, 1e-308, 1e-309):
        assert heat_trace(J2, t).z == pytest.approx(heat_trace_asymptote(J2, t), rel=1e-13)
    for route in (heat_trace, heat_trace_asymptote):
        with pytest.raises(ValidationError, match="overflows double precision"):
            route(J2, 1e-320)


def test_trace_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "from laakso import heat_trace, parse_sequence\n"
        "heat_trace(parse_sequence('2,3'), 1e-9)\n"
        "print('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(laakso.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "False", done.stderr


def test_leading_term_m0_decomposition_j2():
    """Residue expansion of Z(t) for the constant-2 space.

    The oscillatory part is (1/(16 t log 2)) (1 + sum_m 2 Re a_m t^(-i m w))
    with w = 2 pi / log 4 and
    a_m = 6 zeta_R(2 + 4 pi i m/log4) Gamma(1 + 2 pi i m/log4)
          / pi^(2 + 4 pi i m/log4).
    The square-root term is 3/(4 sqrt(pi t)) and the constant is
    1 + zeta_L(0).  Valid as t -> 0; for large t the trace approaches 1 and
    this expansion does not apply.
    """
    # the three real residues plus the oscillating pairs a_m t^(-s_m), m >= 1,
    # of every pole up to Im s = 8 pi
    t = 1e-6
    real_residues = (
        1.0
        + zeta_at_zero(J2)
        + 0.75 / math.sqrt(math.pi * t)
        + 1.0 / (16.0 * t * math.log(2.0))
    )
    fine = fine_pole_spacing(J2)
    oscillating = 0.0
    for m in range(1, int(8.0 * math.pi / fine) + 1):
        s_m = complex(1.0, m * fine)
        a_m = residue_coefficient(J2, s_m, "dominant")
        oscillating += 2.0 * (a_m * cmath.exp(-s_m * math.log(t))).real
    expansion = heat_trace_asymptote(J2, t)
    assert expansion == pytest.approx(real_residues + oscillating, rel=1e-13)
    # the m = 0 residue meets 1/(16 t log 2) only to rounding, which the
    # subtraction magnifies by about 1e3
    assert expansion - real_residues == pytest.approx(oscillating, rel=1e-11)


def test_leading_term_j23_log_slope():
    """Residue expansion of Z(t) for the alternating 2,3 space.

    Dominant lattice at Re s = 1/2 + log2/log6 with coefficient
    (1/(24 log6)) 2^(-2s) (2^(4s) + 10 * 2^(2s) + 12) Gamma(s) zeta_R(2s)
    / pi^(2s); subdominant lattice at Re s = log2/log6 with coefficient
    (3/(8 log6)) (4^(2s) - 4) 4^(-s) Gamma(s) zeta_R(2s) / pi^(2s).  Both
    lattices are spaced pi/log6 apart in the imaginary direction, and the
    bracket's zero at s = 1/2 removes the square-root term entirely.
    """
    # the expansion's own log-log slope reproduces -(1/2 + log2/log6)
    ts = np.geomspace(1e-9, 1e-6, 61)
    ys = np.array([heat_trace_asymptote(J23, float(t)) for t in ts])
    slope = np.polyfit(np.log(ts), np.log(ys), 1)[0]
    expected = -(0.5 + math.log(2.0) / math.log(6.0))
    assert abs(slope - expected) <= 0.01 * abs(expected)


def test_period_refined_lattice_is_needed_for_j23():
    """Keeping only every other lattice point leaves a percent-level error."""
    t = 1e-8
    z = heat_trace(J23, t, 1e-10).z
    fine = fine_pole_spacing(J23)
    re_dom = poles(J23).real_part
    re_sub = math.log(2.0) / math.log(6.0)

    coarse = 1.0 + zeta_at_zero(J23)
    for re_part, family in ((re_dom, "dominant"), (re_sub, "subdominant")):
        coarse += residue_coefficient(
            J23, complex(re_part, 0.0), family
        ).real * t ** (-re_part)
        for m in (2, 4, 6, 8):  # even multiples only = the coarse lattice
            s_m = complex(re_part, m * fine)
            term = residue_coefficient(J23, s_m, family) * cmath.exp(
                -s_m * math.log(t)
            )
            coarse += 2.0 * term.real
    assert abs(coarse - z) / z > 3e-3
    assert abs(heat_trace_asymptote(J23, t) - z) / z < 1e-5


# -- spectral dimension estimation ------------------------------------------------


def _fit(seq, t_lo=1e-9, t_hi=1e-5, n=81):
    samples = heat_trace_grid(seq, np.geomspace(t_lo, t_hi, n), 1e-9)
    return estimate_spectral_dimension(samples, oscillation_log_period(seq))


def test_fit_constant_two():
    assert abs(_fit(J2) - 2.0) <= 0.04


def test_fit_alternating():
    expected = math.log(24.0) / math.log(6.0)
    assert abs(_fit(J23) - expected) <= 0.035


def test_fit_constant_three():
    expected = math.log(6.0) / math.log(3.0)
    assert abs(_fit(J3) - expected) <= 0.035


@pytest.mark.parametrize("seq, n", [(J2, 40), (J23, 81)])
def test_fit_matches_a_polyfit_reference(seq, n):
    """The window means and least-squares slope, formed with math.fsum, are
    numpy's convolve and polyfit to 1e-12 on the README grid 1e-9:1e-5."""
    samples = heat_trace_grid(seq, np.geomspace(1e-9, 1e-5, n))
    log_period = oscillation_log_period(seq)
    tau, y = np.log([s.t for s in samples]), np.log([s.z for s in samples])
    q = round(log_period / np.mean(np.diff(tau)))
    kernel = np.ones(q) / q
    slope = np.polyfit(np.convolve(tau, kernel, "valid"), np.convolve(y, kernel, "valid"), 1)[0]
    assert estimate_spectral_dimension(samples, log_period) == pytest.approx(-2.0 * slope, rel=1e-12)


def _fsum_window_fit(samples, log_period):
    """The fit with each window mean its own math.fsum: the O(n q) form."""
    ordered = sorted(samples, key=lambda s: s.t)
    tau, y = [math.log(s.t) for s in ordered], [math.log(s.z) for s in ordered]
    q = max(1, round(log_period / ((tau[-1] - tau[0]) / (len(tau) - 1))))

    def window_means(v):
        return [math.fsum(v[i : i + q]) / q for i in range(len(v) - q + 1)]

    tau_bar, y_bar = window_means(tau), window_means(y)
    tau_mean, y_mean = math.fsum(tau_bar) / len(tau_bar), math.fsum(y_bar) / len(y_bar)
    dx = [x - tau_mean for x in tau_bar]
    slope = math.fsum(d * (v - y_mean) for d, v in zip(dx, y_bar)) / math.fsum(d * d for d in dx)
    return -2.0 * slope


def test_fit_equals_the_per_window_fsum_form():
    """The window means from exact integer prefix sums round each window sum
    once, as math.fsum does, so the fit is the same double: on a README grid
    and on jittered grids of random traces, windows from 1 to most samples."""
    samples = heat_trace_grid(J23, np.geomspace(1e-9, 1e-5, 81), 1e-9)
    log_period = oscillation_log_period(J23)
    assert estimate_spectral_dimension(samples, log_period) == _fsum_window_fit(samples, log_period)
    rng = np.random.default_rng(11)
    for _ in range(40):
        size = int(rng.integers(10, 400))
        log_t = np.sort(rng.uniform(-600.0, 600.0, 2)).tolist()
        ts = np.exp(np.linspace(*log_t, size) + rng.normal(0.0, 1e-3, size))
        zs = np.exp(rng.uniform(-600.0, 600.0, size))
        samples = [HeatTraceSample(float(t), float(z), 0.0) for t, z in zip(ts, zs)]
        log_period = (log_t[1] - log_t[0]) * rng.uniform(0.0, 0.95)
        if log_t[1] - log_t[0] < 2.0 * math.log(10.0) or log_period <= 0.0:
            continue
        fit = estimate_spectral_dimension(samples, log_period)
        assert fit == _fsum_window_fit(samples, log_period)


def test_fit_input_validation():
    samples = heat_trace_grid(J2, np.geomspace(1e-8, 1e-6, 9), 1e-9)
    with pytest.raises(ValidationError):
        estimate_spectral_dimension(samples, math.log(4.0))
    narrow = heat_trace_grid(J2, np.geomspace(1e-8, 5e-8, 12), 1e-9)
    with pytest.raises(ValidationError):
        estimate_spectral_dimension(narrow, math.log(4.0))
    loose = heat_trace_grid(J2, np.geomspace(1e-8, 1e-4, 12), 0.5)
    with pytest.raises(ValidationError):
        estimate_spectral_dimension(loose, math.log(4.0))
    wide = heat_trace_grid(J2, np.geomspace(1e-5, 1e-2, 10))
    for log_period in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="log_period"):
            estimate_spectral_dimension(wide, log_period)
    with pytest.raises(ValidationError, match="averaging window exceeds the sample span"):
        estimate_spectral_dimension(wide, 10.0)


def test_oscillation_log_period_values():
    assert oscillation_log_period(J2) == pytest.approx(math.log(4.0), rel=1e-14)
    assert oscillation_log_period(J23) == pytest.approx(
        2.0 * math.log(6.0), rel=1e-14
    )


# -- redundant pattern representations ---------------------------------------


def test_doubled_pattern_is_the_same_space():
    """{2,2} describes the constant-2 space and is stored as its block 2.

    So every analytic quantity is the constant's, bit for bit, and the
    doubled pattern's extra candidate pole points (interleaved at pi/log4,
    where a doubled block would need vanishing residues) never enter the
    expansion.
    """
    j22 = parse_sequence("2,2")
    assert j22 == J2 and hash(j22) == hash(J2)
    for s in (1.5, 2.0, 3.0):
        assert spectral_zeta_closed(j22, s) == spectral_zeta_closed(J2, s)
    interleaved = math.pi / math.log(4.0)
    assert fine_pole_spacing(j22) == 2.0 * interleaved
    assert all(round(s.imag / interleaved) % 2 == 0 for s, _ in _residue_terms(j22))
    for t in (1e-8, 1e-6):
        assert heat_trace_asymptote(j22, t) == heat_trace_asymptote(J2, t)
        assert heat_trace(j22, t, 1e-10).z == heat_trace(J2, t, 1e-10).z


def test_repeated_pattern_has_the_residue_terms_of_its_block():
    """1000 twos are the constant 2: the residue expansion keeps the 6 terms
    of the lattice pi / log 2, not the 1000-fold finer lattice of the
    pattern as written."""
    thousand = parse_sequence(",".join(["2"] * 1000))
    assert _residue_terms(thousand) == _residue_terms(J2)
    assert len(_residue_terms(thousand)) == 6


@pytest.mark.parametrize(
    "entries, constant", [(238, "10"), (300, "10"), (1000, "2")], ids=["10x238", "10x300", "2x1000"]
)
def test_wide_block_inside_the_double_range_is_the_constant_space(entries, constant):
    """A pattern that repeats one entry is the constant sequence itself, so
    its block is that entry, not 10^238, 10^300 or 2^1000, and every value
    is the constant's, bit for bit."""
    wide = parse_sequence(",".join([constant] * entries))
    narrow = parse_sequence(constant)
    assert wide == narrow and wide.block == int(constant)
    for s in (2.0, 3.0 + 1.0j):
        assert spectral_zeta_closed(wide, s) == spectral_zeta_closed(narrow, s)
    assert zeta_at_zero(wide) == zeta_at_zero(narrow)


def _exact_zeta_at_zero(seq):
    """zeta_L(0) = -bracket(0)/2 (zeta_R(0) = -1/2) in exact arithmetic.

    At s = 0 a level term is its count sum a + b.  Each level's sum from 2
    on splits as d + e, and a period maps it to 2^p (P d + e), so two
    periods of the family table fix d and e, and the continued series
    are sums over 1 - 2^p P and 1 - 2^p.
    """
    p, block = seq.period, seq.block

    def count(n):
        _, a, b = _level_terms(seq, n)
        return a + b

    bracket = Fraction(count(0) + count(1))
    for n in range(2, p + 2):
        d = Fraction(count(n + p) - 2**p * count(n), 2**p * (block - 1))
        bracket += d / (1 - 2**p * block) + (count(n) - d) / (1 - 2**p)
    return -bracket / 2


_WIDE_BLOCKS = [
    pytest.param(["10"] * 239 + ["11"], id="10x239,11"),
    pytest.param(["10"] * 299 + ["11"], id="10x299,11"),
]
# P ~ 9.99e305 fits a double, I_(p+1) ~ 1e309 does not, so the closed
# terms take log I - log 2 for log(I/2)
_PAST_DOUBLE = ["1000"] * 101 + ["999"]


@pytest.mark.parametrize("pattern", _WIDE_BLOCKS + [pytest.param(_PAST_DOUBLE, id="1000x101,999")])
def test_primitive_wide_block_sums_its_closed_zeta(pattern):
    """Primitive blocks near 10^240, 10^300 and 10^306 fit a double, but
    their closed terms' counts do not: those enter through their
    logarithms, and past the last block I/2 does too.  The direct route
    checks them."""
    seq = parse_sequence(",".join(pattern))
    assert seq.period == len(pattern)
    for s in (2.0, 1.5 + 2.0j, 3.0 + 1.0j):
        closed = spectral_zeta_closed(seq, s)
        assert abs(spectral_zeta_direct(seq, s) - closed) <= 1e-13 * abs(closed)


@pytest.mark.parametrize(
    "pattern",
    _WIDE_BLOCKS
    + [
        pytest.param(_PAST_DOUBLE, id="1000x101,999"),
        pytest.param(["1000"] * 100 + ["999"], id="1000x100,999"),
        pytest.param(["100"] * 150 + ["99"], id="100x150,99"),
    ],
)
def test_primitive_wide_block_zeta_at_zero(pattern):
    """At s = 0 the ratio w = 2^p P is past the double range, where the
    float route drifts by up to 1.7e-11 relative; zeta_at_zero sums the
    bracket exactly, so it equals the exact reference."""
    seq = parse_sequence(",".join(pattern))
    assert zeta_at_zero(seq) == float(_exact_zeta_at_zero(seq))
