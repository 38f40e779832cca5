"""Exact Laplacian spectrum of a Laakso space, with multiplicities.

Every eigenvalue of the Laplacian on the limit space is of the form
lambda = (m/2)^2 * pi^2 for a nonnegative integer key m.  Key 0, the
constant mode, has multiplicity 1; the positive keys come from one table: at
each level n, every shape family has a count and a key progression
m = I_n (step k + phase), and _family_table is the only place that lists
them.  The exact spectrum here and the heat trace and zeta sums in heatzeta
all read that table, level by level through _levels.

The rows come from the copy swaps.  A function odd under the level-n swap
and even under the later ones vanishes at the glued vertices: it solves the
Dirichlet problem on one copy of F_(n-1), subdivided and cut there.  That
copy falls apart into a Neumann-Dirichlet arm at each of the 2^n tips (modes
at the odd multiples of I_n: the V row), (j_n - 2) E_(n-1) Dirichlet
segments (even multiples: the loop row) and a four-arm star with Dirichlet
tips at each of the V_(n-1) - 2^n other vertices (1 mode at odd and 3 at
even multiples: cross-quarter plus the doubled cross-full row).  So odd
multiples carry V + cross = V_(n-1) modes and even ones loop + 3 cross =
j_n E_(n-1) - V_(n-1).  Level 0, even under every swap, is the Neumann line.

A float lambda enters once, as the integer key bound _key_bound: the tables,
the counts and the merge of coincident eigenvalues across families compare
keys m exactly, with no floating-point ties.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .errors import LevelRangeError, ValidationError, integer
from .sequences import JSequence, _census, shape_census

LINE = "line"
V = "V"
LOOP = "loop"
CROSS_FULL = "cross-full"
CROSS_QUARTER = "cross-quarter"

_QUARTER_PI_SQ = math.pi * math.pi / 4.0


def eigenvalue_of_key(m: int) -> float:
    """lambda = (m/2)^2 pi^2 as a float (exact key is the integer m)."""
    return (m * m) * _QUARTER_PI_SQ


def _key_bound(lam: float) -> int:
    """The largest m with eigenvalue_of_key(m) <= lam, or -1 when lam < 0."""
    if lam < 0:
        return -1
    m = math.isqrt(int(lam / _QUARTER_PI_SQ)) + 1  # at most two past it below key 2^26
    while eigenvalue_of_key(m) > lam:  # the float test is monotone in m
        m -= 1
    return m


# a table's entries grow like its key bound 2 sqrt(lambda_max) / pi (keys
# 2^19 take seconds and hundreds of MB), so lambda_max stops there
_MAX_KEY = 2**19
_MAX_LAMBDA = eigenvalue_of_key(_MAX_KEY)


class Contribution(NamedTuple):
    """One family's donation to an eigenvalue: which shape, where, and how many."""

    shape: str
    level: int
    k: int
    count: int


class SpectrumEntry(NamedTuple):
    m: int  # eigenvalue key; lambda = (m/2)^2 pi^2
    multiplicity: int
    contributions: tuple[Contribution, ...]

    @property
    def value(self) -> float:
        return eigenvalue_of_key(self.m)

    def as_dict(self) -> dict:
        """The JSON form of the entry; m is a string because keys outgrow doubles."""
        return {
            "m": str(self.m),
            "lambda": self.value,
            "multiplicity": self.multiplicity,
            "contributions": [c._asdict() for c in self.contributions],
        }


class SpectrumTable(NamedTuple):
    """Sorted distinct eigenvalues with exact aggregated multiplicities."""

    entries: tuple[SpectrumEntry, ...]
    lambda_max: float
    level_cap: int | None  # None means every level below lambda_max is present


class _FamilyRow(NamedTuple):
    """One shape family of a level: `count` copies, each carrying the positive
    keys m = I_n (step k + phase), k >= 0 when phase > 0 and k >= 1 when phase = 0."""

    shape: str
    count: int
    step: int
    phase: int


@functools.lru_cache(maxsize=1024)  # the deepest trace, 2 at t = 5e-324, has 543 levels
def _family_table(
    seq: JSequence, n: int, scale_prev: int | None = None
) -> tuple[int, tuple[_FamilyRow, ...]]:
    """I_n and the row of every family that has a copy at level n; the level
    walk passes scale_prev = I_(n-1), so no level forms I_n afresh.  Level 0
    is the line, its row the keys 2, 4, ... (its constant mode, lambda = 0, is
    no row's key); loops when j_n = 2 and crosses at level 1 have no row."""
    if n == 0:
        return 1, (_FamilyRow(LINE, 1, 2, 0),)
    census = shape_census(seq, n) if scale_prev is None else _census(seq, n, scale_prev)
    rows = (
        _FamilyRow(V, census.v_count, 2, 1),
        _FamilyRow(LOOP, census.loop_count, 2, 0),
        _FamilyRow(CROSS_FULL, 2 * census.cross_count, 2, 0),
        _FamilyRow(CROSS_QUARTER, census.cross_count, 1, 0),
    )
    return census.scale, tuple(row for row in rows if row.count)


def _levels(seq: JSequence, level_cap: int | None):
    """(n, I_n, the family table's rows) for n = 0, 1, ... through level_cap, or
    without end when it is None: the one level walk.  A capped heat trace stops
    it early by the uncapped rule, its bound counting the levels it skips."""
    scale = 1
    for n in range(level_cap + 1) if level_cap is not None else itertools.count():
        scale, rows = _family_table(seq, n, scale)
        yield n, scale, rows


def _level_cap(seq: JSequence, cap: int | None) -> int | None:
    """The last level a capped table or sum covers: the one level-cap rule.

    A cap must be a level the sequence has: negative caps and caps past an
    explicit prefix raise.  No cap means every level, which for an explicit
    prefix is its length.
    """
    if cap is None:
        return seq.max_level
    cap = integer("level_cap", cap, 0)
    if seq.max_level is not None and cap > seq.max_level:
        raise LevelRangeError(
            f"level cap {cap} exceeds the {seq.max_level}-entry explicit prefix"
        )
    return cap


def _generate(seq: JSequence, lambda_max: float, level_cap: int | None) -> SpectrumTable:
    # the mode loops end only below a finite bound, and the table grows with it
    if not 0 <= lambda_max <= _MAX_LAMBDA:
        raise ValidationError(
            f"lambda_max {lambda_max} must be in [0, {_MAX_LAMBDA:.6g}], "
            "keys up to 2^19"
        )
    level_cap = _level_cap(seq, level_cap)
    key_max = _key_bound(lambda_max)
    collected = {0: [Contribution(shape=LINE, level=0, k=0, count=1)]}  # lambda = 0
    for n, scale, rows in _levels(seq, level_cap):
        if scale > key_max:  # I_n is at most the level's smallest key
            break
        for row in rows:  # the keys I_n (step k + phase) <= key_max
            for k in range(0 if row.phase else 1, (key_max // scale - row.phase) // row.step + 1):
                collected.setdefault(scale * (row.step * k + row.phase), []).append(
                    Contribution(shape=row.shape, level=n, k=k, count=row.count)
                )

    entries = tuple(
        SpectrumEntry(
            m=m,
            multiplicity=sum(c.count for c in contribs),
            contributions=tuple(contribs),
        )
        for m, contribs in sorted(collected.items())
    )
    return SpectrumTable(entries, lambda_max, level_cap)


def full_spectrum(seq: JSequence, lambda_max: float) -> SpectrumTable:
    """Merged spectrum over every level whose families reach lambda_max.

    For an explicit prefix the level loop stops at the prefix end and the
    table records that cap, whether or not lambda_max reaches it.
    """
    return _generate(seq, lambda_max, None)


def level_spectrum(seq: JSequence, n_max: int, lambda_max: float) -> SpectrumTable:
    """Spectrum truncated to families of level <= n_max.

    This is what the finite graph F_{n_max} carries, hence the comparison
    target for the mesh eigensolver.
    """
    return _generate(seq, lambda_max, n_max)


def counting_function(table: SpectrumTable, lam: float) -> int:
    """Number of eigenvalues (with multiplicity) <= lam in the table."""
    if not lam <= table.lambda_max:
        raise ValidationError(
            f"lambda {lam} must be at most the table's lambda_max {table.lambda_max}"
        )
    key_max = _key_bound(lam)
    total = 0
    for e in table.entries:
        if e.m > key_max:
            break
        total += e.multiplicity
    return total


def _first_key_bound(count: int) -> int:
    """The first count eigenvalues have keys at most 2 (count - 1): every even key is present."""
    return 2 * (count - 1)


def first_distinct(seq: JSequence, count: int) -> SpectrumTable:
    """Table holding exactly the first `count` distinct eigenvalues."""
    # the key bound compare_spectra reads too; an integer bound on count keeps
    # it in range before any float is formed
    count = integer("count", count, 1, _MAX_KEY // 2)
    table = full_spectrum(seq, eigenvalue_of_key(_first_key_bound(count)))
    entries = table.entries[:count]
    return table._replace(entries=entries, lambda_max=entries[-1].value)
