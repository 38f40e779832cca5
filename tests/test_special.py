"""Zeta and gamma evaluations on the strip the residue sums need."""

import cmath
import math

import mpmath as mp
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from laakso import PoleError, ValidationError, complex_gamma, riemann_zeta

mp.mp.dps = 30


def em_zeta(s: complex, n: int = 60) -> complex:
    """Independent Euler-Maclaurin evaluation used as the test oracle."""
    bern = [
        (2, 1.0 / 6.0),
        (4, -1.0 / 30.0),
        (6, 1.0 / 42.0),
        (8, -1.0 / 30.0),
        (10, 5.0 / 66.0),
        (12, -691.0 / 2730.0),
        (14, 7.0 / 6.0),
    ]
    total = sum(cmath.exp(-s * math.log(k)) for k in range(1, n))
    total += cmath.exp(-s * math.log(n)) / 2.0
    total += n * cmath.exp(-s * math.log(n)) / (s - 1.0)
    rising = 1.0 + 0.0j
    for idx, (two_j, b) in enumerate(bern, start=1):
        if idx == 1:
            rising = s
        else:
            rising *= (s + two_j - 3) * (s + two_j - 2)
        total += (b / math.factorial(two_j)) * rising * cmath.exp(
            (1.0 - s - two_j) * math.log(n)
        )
    return total


# -- zeta ---------------------------------------------------------------------


def test_classical_values():
    assert riemann_zeta(2.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert abs(riemann_zeta(2.0).imag) < 1e-15
    assert riemann_zeta(0.0).real == pytest.approx(-0.5, abs=1e-13)
    assert riemann_zeta(4.0).real == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
    assert riemann_zeta(-1.0).real == pytest.approx(-1.0 / 12.0, abs=1e-12)


def test_pole_at_one():
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


def test_oscillation_strip_value_used_by_residues():
    s = 2.0 + 4.0 * math.pi * 1j / math.log(4.0)
    ours = riemann_zeta(s)
    oracle = em_zeta(s)
    assert abs(ours - oracle) < 1e-11
    reference = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert abs(ours - reference) < 1e-12


@given(
    st.floats(min_value=-1.0, max_value=4.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=80, deadline=None)
def test_matches_reference_on_strip(re, im):
    s = complex(re, im)
    if abs(s - 1.0) < 0.05:
        return
    ours = riemann_zeta(s)
    reference = complex(mp.zeta(mp.mpc(re, im)))
    assert abs(ours - reference) <= 1e-12 * (1.0 + abs(reference))


@given(
    st.floats(min_value=-1.0, max_value=4.0),
    st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_zeta_conjugate_symmetry(re, im):
    s = complex(re, im)
    a = riemann_zeta(s)
    b = riemann_zeta(s.conjugate())
    assert b == a.conjugate()  # real-coefficient scheme commutes with conj


def test_eta_guard_region():
    # a point where 1 - 2^(1-s) is small: s near 1 + 2 pi i / log 2
    s = complex(1.0, 2.0 * math.pi / math.log(2.0)) + 1e-5
    ours = riemann_zeta(s)
    reference = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert abs(ours - reference) < 1e-10


@pytest.mark.parametrize("s", [2 + 200j, 2 + 1000j])
def test_matches_reference_far_up_the_strip(s):
    # the Euler-Maclaurin term count grows with |s|, so accuracy holds there
    reference = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert abs(riemann_zeta(s) - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("s", [-3 + 0.5j, -10 + 0.5j, -21 + 0.5j, -5.1 + 0.3j])
def test_matches_reference_left_of_the_strip(s):
    # the functional equation replaces a head that cancels catastrophically
    reference = complex(mp.zeta(mp.mpc(s.real, s.imag)))
    assert abs(riemann_zeta(s) - reference) <= 1e-13 * abs(reference)


def test_trivial_zeros_are_exact():
    for n in [*range(1, 71), 130, 150, 1000, 5000]:
        assert riemann_zeta(-2.0 * n) == 0


@pytest.mark.parametrize(
    "s", [math.nan, math.inf, complex(2.0, math.inf), 2 + 2e4j, -1200.5]
)
def test_rejects_non_finite_and_huge_arguments(s):
    with pytest.raises(ValidationError):
        riemann_zeta(s)


# -- gamma ---------------------------------------------------------------------


def test_gamma_classical_values():
    assert complex_gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    for n in range(1, 8):
        assert complex_gamma(float(n)).real == pytest.approx(
            math.factorial(n - 1), rel=1e-13
        )


def test_gamma_poles():
    for z in (0.0, -1.0, -3.0):
        with pytest.raises(PoleError):
            complex_gamma(z)


@given(
    st.floats(min_value=-3.0, max_value=6.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=80, deadline=None)
def test_gamma_matches_scipy(re, im):
    z = complex(re, im)
    if im == 0.0 and re <= 0.0 and abs(re - round(re)) < 0.05:
        return
    ours = complex_gamma(z)
    reference = complex(scipy.special.gamma(z))
    if not (cmath.isfinite(reference) and abs(reference) > 1e-280):
        return
    assert abs(ours - reference) <= 1e-11 * abs(reference)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_gamma_recurrence(re, im):
    z = complex(re, im)
    lhs = complex_gamma(z + 1.0)
    rhs = z * complex_gamma(z)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@given(
    st.floats(min_value=-3.0, max_value=6.0),
    st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_gamma_conjugate_symmetry(re, im):
    z = complex(re, im)
    if im == 0.0 and re <= 0.5 and abs(re - round(re)) < 0.05:
        return
    assert complex_gamma(z.conjugate()) == complex_gamma(z).conjugate()


def test_gamma_magnitude_on_imaginary_axis():
    # |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
    for y in (0.5, 1.75, 4.5324):
        got = abs(complex_gamma(complex(1.0, y)))
        expected = math.sqrt(math.pi * y / math.sinh(math.pi * y))
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("z", [0.3 + 230j, -0.4 + 300j, 0.2 + 400j])
def test_gamma_far_off_the_axis_matches_mpmath(z):
    # sin(pi z) alone overflows here; Gamma itself is ~1e-157 .. 1e-274
    reference = complex(mp.gamma(mp.mpc(z.real, z.imag)))
    assert abs(complex_gamma(z) - reference) <= 1e-12 * abs(reference)


def test_gamma_underflows_to_zero():
    # |Gamma(0.3 + 600i)| ~ 1e-410 is below the double range
    assert complex_gamma(0.3 + 600j) == 0
