"""Heat trace, spectral zeta (two routes), poles, residues, asymptotics."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

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
    oscillation_amplitude,
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
    _DIRECT_ATOL,
    _LINE,
    _family_partial,
    _family_tail,
    _level_families,
    convergence_abscissa,
)

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
        heat_trace(J2, 1e-15, 1e-9)  # below the direct-summation floor
    for t, tol in ((math.nan, 1e-9), (1.0, math.nan)):
        with pytest.raises(ValidationError):
            heat_trace(J2, t, tol)
    # one level-cap rule for the trace, the direct zeta and level_spectrum
    prefix = parse_sequence("seq:2,3")
    for seq, cap in ((J2, -1), (prefix, -1), (prefix, 3)):
        with pytest.raises(ValidationError):
            heat_trace(seq, 1.0, 1e-9, level_cap=cap)
        with pytest.raises(ValidationError):
            spectral_zeta_direct(seq, 2.0, level_cap=cap)
        with pytest.raises(ValidationError):
            level_spectrum(seq, cap, 100.0)


def test_family_cutoff_matches_a_linear_scan():
    """The bisected cutoff is the first index whose tail fits the budget.

    A linear scan from the family's first index finds the same first
    omitted index, and the partial sum over the kept indices is bitwise
    the one _family_partial returns, together with that index's tail.
    """
    families = [_LINE]
    for spec in ("2", "2,3", "3,4"):
        for n in (1, 2, 3):
            families += _level_families(parse_sequence(spec), n)[2]
    for fam in families:
        for t in (1e-8, 1e-5, 1e-2, 1.0):
            ct = math.exp(fam.log_c + math.log(t))
            for budget in (1e-6, 1e-10, 1e-13):
                first = fam.kstart
                while _family_tail(fam, ct, first) > budget:
                    first += 1
                ks = np.arange(fam.kstart, first, dtype=np.float64) + fam.offset
                kept = math.exp(fam.log_count) * float(np.exp(-ct * ks * ks).sum())
                assert _family_partial(fam, t, budget) == (
                    kept,
                    _family_tail(fam, ct, first),
                )


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
    reference = sum(e.multiplicity * math.exp(-e.value * t) for e in table.entries)
    assert capped.z == pytest.approx(reference, abs=1e-10)
    # deeper levels are awake at this t, so the full trace is larger
    full = heat_trace(seq, t, 1e-11)
    assert full.z > capped.z + 1.0


# -- spectral zeta: two routes -------------------------------------------------


@pytest.mark.parametrize("seq", [J2, J3, J23])
@pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 2.5 + 1.0j])
def test_closed_equals_direct(seq, s):
    closed = spectral_zeta_closed(seq, s)
    direct = spectral_zeta_direct(seq, s)
    assert abs(closed - direct) <= 1e-8 * (1.0 + abs(closed))


def test_direct_matches_closed_far_up_the_strip():
    """The direct route's explicit head grows with |s| like riemann_zeta's."""
    s = 1.5 + 400j
    closed = spectral_zeta_closed(J2, s)
    direct = spectral_zeta_direct(J2, s)
    assert abs(direct - closed) <= 1e-10 * abs(closed)


def test_direct_vanishes_at_large_real_s():
    """At s = 600 the V family's (k + 1/2)^(-2s) is past the double range
    while its prefactor count * c^(-s) underflows: the sum is 0, not a level
    loop on NaN.  A child process turns a hang into a failure."""
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
    with pytest.raises(ValidationError):
        spectral_zeta_direct(J2, 2.0 + 6e3j)


@pytest.mark.parametrize("s", [600.0, -600.0])
def test_closed_overflow_is_invalid_input(s):
    with pytest.raises(ValidationError, match="overflows"):
        spectral_zeta_closed(J2, s)


@pytest.mark.parametrize("seq", [J2, J23], ids=["J2", "J23"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 70, 130])
def test_closed_vanishes_at_the_trivial_zeros(seq, n):
    """zeta_R(2s) vanishes at s = -1, -2, ..., so zeta_L does too."""
    assert spectral_zeta_closed(seq, -n) == 0


def test_direct_diverges_at_and_below_abscissa():
    for seq in (J2, J23):
        abscissa = dimensions(seq).spectral / 2.0
        for s in (abscissa, abscissa - 0.3):
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


def test_explicit_direct_capped_levels():
    seq = parse_sequence("seq:2,3,2")
    value = spectral_zeta_direct(seq, 2.0)
    reference = spectral_zeta_direct(J23, 2.0, level_cap=3)
    assert value == pytest.approx(reference, rel=1e-12)


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
    """d_s/2 is one number: the pole lattice, the direct route's abscissa and
    the closed form's nearest pole all read dimensions(), bit for bit."""
    seq = parse_sequence(spec)
    lattice = poles(seq)
    assert lattice.real_part == dimensions(seq).spectral / 2.0
    assert lattice.real_part == convergence_abscissa(seq)
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


def test_dominant_residue_value_j2():
    # at the real pole s = 1 the residue must assemble to 1/(16 log 2)
    coeff = residue_coefficient(J2, complex(1.0, 0.0), "dominant")
    assert coeff.real == pytest.approx(1.0 / (16.0 * math.log(2.0)), rel=1e-12)
    assert abs(coeff.imag) < 1e-15


def test_sqrt_term_only_for_all_twos():
    assert sqrt_term_coefficient(J2) == pytest.approx(0.75, rel=1e-13)
    assert sqrt_term_coefficient(J23) == 0.0
    assert sqrt_term_coefficient(J3) == 0.0
    assert sqrt_term_coefficient(parse_sequence("2,2")) == pytest.approx(
        0.75, rel=1e-13
    )


def test_oscillation_amplitude_small_for_j2():
    # the first oscillation coefficient is a fraction of a percent
    amp = oscillation_amplitude(J2, 1)
    assert 1e-4 < amp < 5e-3


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


def test_oscillation_log_period_values():
    assert oscillation_log_period(J2) == pytest.approx(math.log(4.0), rel=1e-14)
    assert oscillation_log_period(J23) == pytest.approx(
        2.0 * math.log(6.0), rel=1e-14
    )


# -- redundant pattern representations ---------------------------------------


def test_doubled_pattern_is_the_same_space():
    """{2,2} describes the constant-2 space; every analytic quantity agrees.

    In particular the doubled representation's extra candidate pole points
    (interleaved at pi/log4) must carry vanishing residues, or the
    expansion would diverge from the true trace.
    """
    j22 = parse_sequence("2,2")
    for s in (1.5, 2.0, 3.0):
        assert spectral_zeta_closed(j22, s) == pytest.approx(
            spectral_zeta_closed(J2, s), rel=1e-12
        )
    interleaved = complex(1.0, math.pi / math.log(4.0))
    assert abs(residue_coefficient(j22, interleaved, "dominant")) < 1e-14
    for t in (1e-8, 1e-6):
        a = heat_trace_asymptote(j22, t)
        b = heat_trace_asymptote(J2, t)
        assert a == pytest.approx(b, rel=1e-11)
        assert heat_trace(j22, t, 1e-10).z == pytest.approx(
            heat_trace(J2, t, 1e-10).z, rel=1e-12
        )
