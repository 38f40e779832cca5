"""Exact Laplacian spectrum of a Laakso space, with multiplicities.

Every eigenvalue of the Laplacian on the limit space is of the form
lambda = (m/2)^2 * pi^2 for a nonnegative integer key m.  Key 0, the
constant mode, has multiplicity 1; the positive keys come from one table: at
each level n, every shape family has a count and a key progression
m = I_n (step k + phase), and _family_table is the only place that lists
them.  The exact spectrum here and the heat trace and zeta sums in heatzeta
all read that table, level by level through _levels.

Aggregation of coincident eigenvalues across families is exact integer
comparison on m, so multiplicities merge without floating-point ties.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .errors import LevelRangeError, ValidationError, integer
from .sequences import JSequence, shape_census

LINE = "line"
V = "V"
LOOP = "loop"
CROSS_FULL = "cross-full"
CROSS_QUARTER = "cross-quarter"

_QUARTER_PI_SQ = math.pi * math.pi / 4.0


def eigenvalue_of_key(m: int) -> float:
    """lambda = (m/2)^2 pi^2 as a float (exact key is the integer m)."""
    return (m * m) * _QUARTER_PI_SQ


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

    sequence: JSequence
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
def _family_table(seq: JSequence, n: int) -> tuple[int, tuple[_FamilyRow, ...]]:
    """I_n and the row of every family that lives at level n, empty ones included.

    The line (the unit interval) is level 0, its row the keys 2, 4, ...; its
    constant mode, lambda = 0, is no row's key.  V and loop families start at
    level 1 and both cross families at level 2.  A family can live at a
    level and still have no copies (loops when j_n = 2).
    """
    if n == 0:
        return 1, (_FamilyRow(LINE, 1, 2, 0),)
    census = shape_census(seq, n)
    rows = (
        _FamilyRow(V, census.v_count, 2, 1),
        _FamilyRow(LOOP, census.loop_count, 2, 0),
    )
    if n >= 2:
        rows += (
            _FamilyRow(CROSS_FULL, 2 * census.cross_count, 2, 0),
            _FamilyRow(CROSS_QUARTER, census.cross_count, 1, 0),
        )
    return census.scale, rows


def _levels(seq: JSequence, level_cap: int | None):
    """(n, I_n, rows of the level-n families that have a copy) for n = 0, 1, ...
    through level_cap, or without end when it is None: the one level walk."""
    for n in range(level_cap + 1) if level_cap is not None else itertools.count():
        scale, rows = _family_table(seq, n)
        yield n, scale, [row for row in rows if row.count]


def _family_modes(
    scale: int, row: _FamilyRow, lambda_max: float
) -> list[tuple[int, int]]:
    """(key m, mode index k) pairs of one family with eigenvalue <= lambda_max."""
    out = []
    k = 0 if row.phase else 1
    while True:
        m = scale * (row.step * k + row.phase)
        if eigenvalue_of_key(m) > lambda_max:
            return out
        out.append((m, k))
        k += 1


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
    collected = {0: [Contribution(shape=LINE, level=0, k=0, count=1)]}  # lambda = 0
    for n, scale, rows in _levels(seq, level_cap):
        if eigenvalue_of_key(scale) > lambda_max:  # I_n is at most the level's smallest key
            break
        for row in rows:
            for m, k in _family_modes(scale, row, lambda_max):
                collected.setdefault(m, []).append(
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
    return SpectrumTable(seq, entries, lambda_max, level_cap)


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
    total = 0
    for e in table.entries:
        if e.value > lam:
            break
        total += e.multiplicity
    return total


def first_distinct(seq: JSequence, count: int) -> SpectrumTable:
    """Table holding exactly the first `count` distinct eigenvalues."""
    # the line family alone has count distinct keys up to 2 (count - 1), so an
    # integer bound on count keeps that key in range before any float is formed
    count = integer("count", count, 1, _MAX_KEY // 2)
    table = full_spectrum(seq, eigenvalue_of_key(2 * (count - 1)) + 1.0)
    entries = table.entries[:count]
    return table._replace(entries=entries, lambda_max=entries[-1].value)
