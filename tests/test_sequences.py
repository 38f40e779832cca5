"""Sequence parsing and the closed-form combinatorics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laakso import (
    DimensionUndefinedError,
    JSequence,
    LevelRangeError,
    ValidationError,
    dimensions,
    level_info,
    parse_sequence,
    shape_census,
)

patterns = st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=5)


def any_sequence():
    return st.one_of(
        st.integers(min_value=2, max_value=9).map(lambda j: parse_sequence(str(j))),
        patterns.map(lambda vs: parse_sequence(",".join(map(str, vs)))),
        patterns.map(lambda vs: parse_sequence("seq:" + ",".join(map(str, vs)))),
    )


# -- parsing -----------------------------------------------------------------


def test_parse_constant():
    seq = parse_sequence("2")
    assert seq.kind == "periodic"
    assert seq.period == 1
    assert [seq.j(n) for n in range(1, 6)] == [2, 2, 2, 2, 2]


def test_parse_periodic_matches_alternating_pattern():
    seq = parse_sequence("2,3")
    assert seq.kind == "periodic"
    assert [seq.j(n) for n in range(1, 6)] == [2, 3, 2, 3, 2]


def test_parse_explicit_prefix_is_bounded():
    seq = parse_sequence("seq:2,3,4")
    assert seq.kind == "explicit"
    assert seq.j(3) == 4
    with pytest.raises(LevelRangeError):
        seq.j(4)


@pytest.mark.parametrize("bad", ["seq:2,1", "1", "2,x", "", "seq:", "2,,3", "0"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        parse_sequence(bad)


def test_parse_error_names_offending_entry():
    with pytest.raises(ValidationError, match="^entry 1 must be an integer >= 2"):
        parse_sequence("seq:2,1")


@given(any_sequence())
def test_spec_string_round_trips(seq):
    assert parse_sequence(seq.spec_string()) == seq


def test_periodic_pattern_is_its_primitive_block():
    """A periodic pattern is stored as its shortest repeating block, so every
    spelling of one space is one value; an explicit prefix stays as written."""
    assert parse_sequence("2,2") == parse_sequence("2")
    assert hash(parse_sequence("2,2,2")) == hash(parse_sequence("2"))
    assert JSequence("periodic", (10,) * 300) == parse_sequence("10")
    assert parse_sequence("2,3,2,3").spec_string() == "2,3"
    assert parse_sequence("2,3,2").values == (2, 3, 2)
    assert parse_sequence("2,3,2,2,3,2").values == (2, 3, 2)
    assert parse_sequence("seq:2,2").values == (2, 2)
    assert parse_sequence("seq:2,2") != parse_sequence("seq:2")


@given(patterns, st.integers(min_value=1, max_value=4))
def test_repeated_pattern_is_the_same_value(values, times):
    seq = parse_sequence(",".join(map(str, values)))
    assert parse_sequence(",".join(map(str, values * times))) == seq
    assert len(values) % seq.period == 0
    assert seq.values * (len(values) // seq.period) == tuple(values)
    # and no shorter block divides the stored one
    for p in range(1, seq.period):
        assert seq.period % p or seq.values[p:] != seq.values[:-p]


# -- level info --------------------------------------------------------------


def test_level_info_unit_interval():
    info = level_info(parse_sequence("2,3"), 0)
    assert (info.scale, info.cells, info.nodes) == (1, 1, 2)


def test_level_info_first_level_constant_two():
    info = level_info(parse_sequence("2"), 1)
    assert (info.scale, info.cells, info.nodes) == (2, 4, 5)


def test_level_info_alternating_scale():
    assert level_info(parse_sequence("2,3"), 3).scale == 12


def test_level_info_beyond_prefix_raises():
    with pytest.raises(LevelRangeError):
        level_info(parse_sequence("seq:2,3"), 3)


@given(any_sequence(), st.integers(min_value=1, max_value=6))
def test_level_recurrences(seq, n):
    if seq.max_level is not None and n > seq.max_level:
        n = seq.max_level
    prev = level_info(seq, n - 1)
    cur = level_info(seq, n)
    jn = seq.j(n)
    assert cur.scale == prev.scale * jn
    assert cur.cells == 2 * jn * prev.cells
    assert cur.nodes == 2 * prev.nodes + 2 ** (n - 1) * (jn - 1) * prev.scale


@given(any_sequence(), st.integers(min_value=1, max_value=6))
def test_degree_four_count_nonnegative(seq, n):
    if seq.max_level is not None and n > seq.max_level:
        n = seq.max_level
    info = level_info(seq, n)
    assert info.nodes - 2 ** (n + 1) == 2 ** (n - 1) * (info.scale - 1) >= 0


# -- shape census ------------------------------------------------------------


def test_census_constant_two_level_one():
    c = shape_census(parse_sequence("2"), 1)
    assert (c.v_count, c.loop_count, c.cross_count) == (2, 0, 0)


def test_census_constant_three_level_one():
    c = shape_census(parse_sequence("3"), 1)
    assert (c.v_count, c.loop_count, c.cross_count) == (2, 1, 0)


def test_census_alternating_level_two():
    c = shape_census(parse_sequence("2,3"), 2)
    assert (c.v_count, c.loop_count, c.cross_count) == (4, 4, 1)


def test_census_rejects_level_zero():
    with pytest.raises(ValidationError):
        shape_census(parse_sequence("2"), 0)


@given(any_sequence(), st.integers(min_value=1, max_value=6))
def test_census_degree_bookkeeping(seq, n):
    if seq.max_level is not None and n > seq.max_level:
        n = seq.max_level
    c = shape_census(seq, n)
    info = level_info(seq, n)
    # every cell belongs to exactly one shape
    assert 2 * c.v_count + 2 * c.loop_count + 8 * c.cross_count == info.cells


# -- dimensions --------------------------------------------------------------


def test_dimensions_constant_two():
    rep = dimensions(parse_sequence("2"))
    assert rep.r == 2.0
    assert rep.hausdorff == pytest.approx(2.0, abs=1e-15)
    assert rep.spectral == pytest.approx(2.0, abs=1e-15)
    assert rep.walk == 2.0


def test_dimensions_alternating():
    rep = dimensions(parse_sequence("2,3"))
    assert rep.r == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert rep.hausdorff == pytest.approx(math.log(24) / math.log(6), rel=1e-14)
    assert rep.spectral == rep.hausdorff


def test_dimensions_constant_three_follows_formula():
    # 1 + log2/log3, not any other combination of logs
    rep = dimensions(parse_sequence("3"))
    assert rep.hausdorff == pytest.approx(math.log(6) / math.log(3), rel=1e-14)


def test_dimensions_explicit_needs_pattern():
    with pytest.raises(DimensionUndefinedError):
        dimensions(parse_sequence("seq:2,3"))
    rep = dimensions(parse_sequence("2,3"))
    assert rep.r == pytest.approx(math.sqrt(6.0), rel=1e-15)


@given(patterns)
def test_contraction_limit_power_identity(values):
    seq = parse_sequence(",".join(map(str, values)))
    r = dimensions(seq).r
    assert r ** len(values) == pytest.approx(math.prod(values), rel=1e-12)


@given(patterns)
def test_hausdorff_matches_deep_level_ratio(values):
    seq = parse_sequence(",".join(map(str, values)))
    rep = dimensions(seq)
    n = 100 * seq.period
    scale = seq.scale(n)
    q_limit = math.log((2**n) * scale) / math.log(scale)
    assert abs(rep.hausdorff - q_limit) < 1e-12


@given(any_sequence())
def test_einstein_relation(seq):
    if seq.kind == "explicit":
        seq = parse_sequence(",".join(map(str, seq.values)))
    rep = dimensions(seq)
    assert 2.0 * rep.hausdorff / rep.walk == rep.spectral


def test_immutability():
    seq = parse_sequence("2,3")
    with pytest.raises(AttributeError):
        seq.kind = "constant"
    with pytest.raises(ValidationError):
        JSequence(kind="constant", values=(2, 3))
