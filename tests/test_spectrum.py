"""Exact spectrum generation, aggregation, and counting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from laakso import (
    ValidationError,
    counting_function,
    dimensions,
    eigenvalue_of_key,
    first_distinct,
    full_spectrum,
    level_spectrum,
    parse_sequence,
)
from laakso.spectrum import LINE, Contribution, SpectrumEntry, _family_table, _key_bound

TABLE1_MULTIPLICITIES = [1, 3, 1, 8, 1, 3, 26, 3, 1, 8, 1, 3, 38, 3, 1, 8, 1, 3, 86, 3]

sequences = st.sampled_from(["2", "3", "2,3", "3,2", "4", "2,3,4"])


# -- per-shape families ------------------------------------------------------


def _family_keys(table, shape, level):
    """(key m, copies) of one family at one level, read off the contributions."""
    return [
        (e.m, c.count)
        for e in table.entries
        for c in e.contributions
        if (c.shape, c.level) == (shape, level)
    ]


def test_v_family_alternating_level_one():
    # I_1 = 2: modes (2k+1)^2 pi^2 I_1^2 / 4 = pi^2, 9 pi^2, 25 pi^2, ...
    seq = parse_sequence("2,3")
    assert _family_keys(full_spectrum(seq, 100.0), "V", 1) == [(2, 2), (6, 2)]
    assert _family_keys(full_spectrum(seq, 50.0), "V", 1) == [(2, 2)]


def test_loop_family_empty_for_constant_two():
    table = full_spectrum(parse_sequence("2"), 1e9)
    assert all(c.shape != "loop" for e in table.entries for c in e.contributions)


@pytest.mark.parametrize("lambda_max", [math.inf, math.nan, -1.0])
def test_table_refuses_bad_bound(lambda_max):
    with pytest.raises(ValidationError):
        full_spectrum(parse_sequence("2"), lambda_max)
    with pytest.raises(ValidationError):
        level_spectrum(parse_sequence("2"), 3, lambda_max)


def test_quarter_cross_family():
    seq = parse_sequence("2,3")
    assert _family_keys(full_spectrum(seq, 360.0), "cross-quarter", 2) == [(6, 1), (12, 1)]
    assert _family_keys(full_spectrum(seq, 100.0), "cross-quarter", 2) == [(6, 1)]


def test_full_cross_is_double_of_quarter_per_cross():
    seq = parse_sequence("3,2")
    table = full_spectrum(seq, 1e6)
    for n in (2, 3, 4):
        full = dict(_family_keys(table, "cross-full", n))
        quarter = dict(_family_keys(table, "cross-quarter", n))
        assert set(full.values()) == {2 * next(iter(quarter.values()))}


def test_shape_level_compatibility():
    """The line lives at level 0 only, V and loop families from level 1,
    both cross families from level 2."""
    table = full_spectrum(parse_sequence("2,3"), 1e5)
    first_level = {"line": 0, "V": 1, "loop": 1, "cross-full": 2, "cross-quarter": 2}
    seen = set()
    for e in table.entries:
        for c in e.contributions:
            assert c.level >= first_level[c.shape]
            assert c.shape != "line" or c.level == 0
            seen.add((c.shape, c.level))
    assert {("line", 0), ("V", 1), ("loop", 2), ("cross-full", 2), ("cross-quarter", 2)} <= seen


# -- merged tables -----------------------------------------------------------


def test_alternating_low_spectrum():
    table = full_spectrum(parse_sequence("2,3"), 360.0)
    assert [(e.m, e.multiplicity) for e in table.entries] == [
        (0, 1),
        (2, 3),
        (4, 1),
        (6, 8),
        (8, 1),
        (10, 3),
        (12, 26),
    ]
    values = [e.value for e in table.entries]
    assert values[1] == pytest.approx(9.8696, abs=5e-5)
    assert values[6] == pytest.approx(355.31, abs=5e-3)


def test_alternating_first_twenty_distinct():
    table = first_distinct(parse_sequence("2,3"), 20)
    assert [e.multiplicity for e in table.entries] == TABLE1_MULTIPLICITIES
    for k, e in enumerate(table.entries):
        assert e.value == pytest.approx((k * math.pi) ** 2, abs=5e-3)


def test_count_is_bounded_as_an_integer(monkeypatch):
    """--count is compared with 2^18 before any float is formed from it: a
    count past the double range is refused by name, not by an OverflowError,
    and 2^18 itself asks for a table out to key 2 (2^18 - 1), below the
    key bound 2^19."""
    seq = parse_sequence("2")
    for count in (0, 2**18 + 1, 10**400):
        with pytest.raises(ValidationError, match="count"):
            first_distinct(seq, count)
    # building the 2^18-entry table takes seconds; record its lambda_max only
    asked = []

    def small_table(seq, lambda_max):
        asked.append(lambda_max)
        return full_spectrum(seq, 100.0)

    monkeypatch.setattr("laakso.spectrum.full_spectrum", small_table)
    first_distinct(seq, 2**18)
    assert _key_bound(asked[0]) == 2**19 - 2


def test_alternating_high_multiplicities():
    table = full_spectrum(parse_sequence("2,3"), 3600.0)
    by_m = {e.m: e.multiplicity for e in table.entries}
    assert by_m[24] == 38  # (12 pi)^2
    assert by_m[36] == 86  # (18 pi)^2


def test_tiny_lambda_max_keeps_only_zero():
    """The zero mode is one entry, the line's k = 0, in every table."""
    table = full_spectrum(parse_sequence("2"), 1.0)
    assert [(e.m, e.multiplicity) for e in table.entries] == [(0, 1)]
    zero = SpectrumEntry(0, 1, (Contribution(LINE, 0, 0, 1),))
    for spec in ("2", "2,3", "seq:2,3,4"):
        seq = parse_sequence(spec)
        assert full_spectrum(seq, 0.0).entries == (zero,)
        entries = level_spectrum(seq, 0, 1e3).entries
        assert [e for e in entries if e.m == 0] == [zero]


def test_level_spectrum_constant_two_level_one():
    table = level_spectrum(parse_sequence("2"), 1, 800.0)
    assert [(e.m, e.multiplicity) for e in table.entries] == [
        (0, 1), (2, 3), (4, 1), (6, 3), (8, 1),
        (10, 3), (12, 1), (14, 3), (16, 1), (18, 3),
    ]


def test_level_zero_is_unit_interval():
    table = level_spectrum(parse_sequence("2,3"), 0, 100.0)
    assert [(e.m, e.multiplicity) for e in table.entries] == [
        (0, 1), (2, 1), (4, 1), (6, 1),
    ]


def test_level_spectrum_converges_to_full():
    seq = parse_sequence("2,3")
    lam = 2000.0
    assert level_spectrum(seq, 12, lam).entries == full_spectrum(seq, lam).entries


def test_explicit_prefix_caps_levels():
    seq = parse_sequence("seq:2,3,2")
    table = full_spectrum(seq, 4000.0)
    assert table.level_cap == 3
    # the cap is the prefix's whether or not lambda_max reaches its last level
    assert full_spectrum(seq, 10.0).level_cap == 3
    reference = level_spectrum(parse_sequence("2,3"), 3, 4000.0)
    assert [(e.m, e.multiplicity) for e in table.entries] == [
        (e.m, e.multiplicity) for e in reference.entries
    ]


# -- counting function -------------------------------------------------------


def test_counting_small_values():
    table = full_spectrum(parse_sequence("2,3"), 400.0)
    assert counting_function(table, 10.0) == 4
    assert counting_function(table, 0.0) == 1
    assert counting_function(table, 356.0) == 43


def test_counting_beyond_range_raises():
    table = full_spectrum(parse_sequence("2,3"), 400.0)
    # NaN compares false with everything: "lam > lambda_max" would count it all
    for lam in (401.0, math.nan):
        with pytest.raises(ValidationError):
            counting_function(table, lam)


@given(sequences, st.floats(min_value=1.0, max_value=5e3))
@settings(max_examples=40, deadline=None)
def test_counting_monotone(spec, lam):
    table = full_spectrum(parse_sequence(spec), 5e3)
    assert counting_function(table, lam) <= counting_function(table, 5e3)
    assert counting_function(table, 0.0) == 1


def test_weyl_slope_tracks_spectral_dimension():
    for spec in ("2", "2,3", "3"):
        seq = parse_sequence(spec)
        table = full_spectrum(seq, 1.05e6)
        lams = np.geomspace(1e3, 1e6, 40)
        counts = np.array([counting_function(table, lam) for lam in lams])
        slope = np.polyfit(np.log(lams), np.log(counts), 1)[0]
        expected = dimensions(seq).spectral / 2.0
        assert abs(slope - expected) <= 0.05 * expected


# -- structural invariants ---------------------------------------------------


@given(sequences, st.floats(min_value=50.0, max_value=2e4))
@settings(max_examples=30, deadline=None)
def test_entries_strictly_increasing_and_consistent(spec, lam):
    table = full_spectrum(parse_sequence(spec), lam)
    keys = [e.m for e in table.entries]
    assert keys == sorted(set(keys))
    for e in table.entries:
        assert e.multiplicity == sum(c.count for c in e.contributions) >= 1
        assert e.contributions
        assert e.value == eigenvalue_of_key(e.m)
        assert e.value <= lam


def _recount(seq, lam, level_cap=None):
    """key -> multiplicity by the float test eigenvalue_of_key(m) <= lam on
    every mode: the zero mode, then each row's keys from k = 0 at phase > 0
    and from k = 1 at phase 0, level by level through the cap."""
    if level_cap is None:
        level_cap = seq.max_level
    recount = {0: 1}
    n = 0
    while (level_cap is None or n <= level_cap) and (n == 0 or eigenvalue_of_key(seq.scale(n)) <= lam):
        scale, rows = _family_table(seq, n)
        for row in rows:
            k = 0 if row.phase else 1
            while eigenvalue_of_key(m := scale * (row.step * k + row.phase)) <= lam:
                recount[m] = recount.get(m, 0) + row.count
                k += 1
        n += 1
    return recount


@given(sequences, st.floats(min_value=50.0, max_value=2e4))
@settings(max_examples=30, deadline=None)
def test_aggregation_matches_per_family_recount(spec, lam):
    """Coincident keys merge across families with nothing lost."""
    seq = parse_sequence(spec)
    table = full_spectrum(seq, lam)
    assert {e.m: e.multiplicity for e in table.entries} == _recount(seq, lam)


def test_key_bound_is_the_float_test():
    """The largest key whose eigenvalue is <= lam: an eigenvalue is its own
    key's bound and one ulp below it the key before, every key below 2^12
    and every 13th key from there to 2^19; -1 below 0."""
    for m in [*range(2**12), *range(2**12, 2**19, 13), 2**19]:
        lam = eigenvalue_of_key(m)
        assert _key_bound(lam) == m
        assert _key_bound(math.nextafter(lam, -math.inf)) == m - 1
    assert _key_bound(-0.0) == 0
    assert _key_bound(-1e300) == -1


@pytest.mark.parametrize("spec", ["2", "2,3", "3,4", "2,5", "2,3,4", "7", "seq:2,3,2"])
def test_tables_and_counts_on_and_just_below_eigenvalues(spec):
    """A lambda exactly on an eigenvalue keeps its key, one ulp below drops
    it: full and level-capped tables hold the keys of the float test, and
    the counting function counts the entries the float test admits."""
    seq = parse_sequence(spec)
    for m in (1, 2, 3, 4, 6, 12, 18, 35, 36, 48, 70, 72, 140, 144):
        for lam in (eigenvalue_of_key(m), math.nextafter(eigenvalue_of_key(m), -math.inf)):
            table = full_spectrum(seq, lam)
            assert {e.m: e.multiplicity for e in table.entries} == _recount(seq, lam)
            for cap in (0, 1, 2):
                capped = level_spectrum(seq, cap, lam)
                assert {e.m: e.multiplicity for e in capped.entries} == _recount(seq, lam, cap)
            for key in range(m + 1):
                for x in (eigenvalue_of_key(key), math.nextafter(eigenvalue_of_key(key), -math.inf)):
                    if x <= lam:
                        expected = sum(e.multiplicity for e in table.entries if e.value <= x)
                        assert counting_function(table, x) == expected
