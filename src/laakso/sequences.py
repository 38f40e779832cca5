"""Defining sequences {j_n} and the closed-form combinatorics of Laakso spaces.

A Laakso space is determined by a sequence of integers j_n >= 2: level n of
the approximating graph F_n is obtained from level n-1 by subdividing every
cell into j_n equal pieces, duplicating the graph, and identifying the two
copies of each newly inserted node.  Everything countable about the space
(cell scale I_n, cell count N_n, node count, shape census, dimensions) is a
closed-form function of the j_i and is computed here exactly, in
arbitrary-precision integer arithmetic where the quantity is an integer.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DimensionUndefinedError, LevelRangeError, ValidationError, integer

PERIODIC = "periodic"
EXPLICIT = "explicit"


class _Spec(NamedTuple):  # JSequence's fields; its __new__ validates them
    kind: str
    values: tuple[int, ...]


class JSequence(_Spec):
    """The sequence {j_n} defining a Laakso space.

    kind is "periodic" or "explicit".  values holds the finite prefix as
    written, or the repeating pattern reduced to its shortest block: 2,2 and
    2 define one space, so they are one value (a constant is a one-entry
    pattern).  Indexing is 1-based to match the construction: j(1) is used
    to build F_1.
    """

    __slots__ = ()

    def __new__(cls, kind: str, values: tuple[int, ...]):
        if kind not in (PERIODIC, EXPLICIT):
            raise ValidationError(f"unknown sequence kind {kind!r}")
        if not values:
            raise ValidationError("sequence needs at least one value")
        values = tuple(integer("entry", v, 2) for v in values)
        if kind == PERIODIC:
            length = len(values)
            # the shortest p dividing the length with values[i] == values[i + p]
            p = next(p for p in range(1, length + 1) if length % p == 0 and values[p:] == values[:-p])
            values = values[:p]
        return super().__new__(cls, kind, values)

    @classmethod
    def _make(cls, iterable) -> JSequence:
        """What _replace builds with: through __new__, so it validates too."""
        return cls(*iterable)

    def j(self, n: int) -> int:
        """j_n for n >= 1.  Raises beyond the prefix of an explicit sequence."""
        n = integer("level", n, 1)
        if self.kind == PERIODIC:
            return self.values[(n - 1) % len(self.values)]
        if n > len(self.values):
            raise LevelRangeError(
                f"j_{n} requested but explicit sequence has only "
                f"{len(self.values)} entries"
            )
        return self.values[n - 1]

    def scale(self, n: int) -> int:
        """I_n = j_1 * ... * j_n (exact integer; cell diameter is 1/I_n)."""
        n = integer("level", n, 0)
        if n:
            self.j(n)  # raises beyond an explicit prefix
        # whole passes over the values by exponentiation, so deep periodic
        # levels cost O(log n) products; a prefix never completes a second pass
        passes, rest = divmod(n, len(self.values))
        return math.prod(self.values) ** passes * math.prod(self.values[:rest])

    @property
    def period(self) -> int:
        """Length of the repeating block (1 for a constant)."""
        if self.kind == PERIODIC:
            return len(self.values)
        raise DimensionUndefinedError(
            "an explicit prefix has no period; write the pattern without "
            "'seq:' to repeat it"
        )

    @property
    def block(self) -> int:
        """P = j_1 * ... * j_p = I_p; with p it fixes all that periodicity decides."""
        return math.prod(self.values[: self.period])

    @property
    def j_max(self) -> int:
        """The largest j_n, which bounds every level's growth I_n / I_(n-1)."""
        return max(self.values)

    @property
    def max_level(self) -> int | None:
        """Largest usable level, or None when every level is defined."""
        return len(self.values) if self.kind == EXPLICIT else None

    def spec_string(self) -> str:
        """Round-trippable text form (the parse_sequence grammar)."""
        body = ",".join(str(v) for v in self.values)
        if self.kind == EXPLICIT:
            return f"seq:{body}"
        return body

    def __str__(self) -> str:
        return self.spec_string()


class LevelInfo(NamedTuple):
    """Exact counts for the level-n graph F_n."""

    scale: int  # I_n; cells have diameter 1/I_n
    cells: int  # N_n = 2^n * I_n edges
    nodes: int  # 2^(n-1) * (I_n + 3), which is 2 at n = 0


class ShapeCensus(NamedTuple):
    """How many of each spectral motif the level-n graph contains."""

    scale: int  # I_n
    v_count: int
    loop_count: int
    cross_count: int


class DimensionReport(NamedTuple):
    """Hausdorff, spectral, and walk dimensions of the limit space."""

    r: float  # contraction-limit value, lim I_n^(1/n)
    hausdorff: float  # Q = 1 + log 2 / log r
    spectral: float  # d_s = log(2r) / log r, equal to Q here
    walk: float = 2.0


def parse_sequence(spec: str) -> JSequence:
    """Parse the sequence grammar.

    "k"         -> constant j_n = k, the one-entry pattern (k)
    "a,b,..."   -> periodic with pattern (a, b, ...), stored as its
                   shortest repeating block (2,3,2,3 is 2,3)
    "seq:a,b,..." -> explicit finite prefix
    """
    text = spec.strip()
    body = text.removeprefix("seq:")
    values = []
    for entry in body.split(","):
        try:  # int() strips whitespace and refuses an empty entry itself
            values.append(int(entry))
        except ValueError:
            raise ValidationError(
                f"entry {entry.strip()!r} of sequence spec {spec!r} is not an integer"
            ) from None
    return JSequence(kind=EXPLICIT if body != text else PERIODIC, values=tuple(values))


def level_info(seq: JSequence, n: int) -> LevelInfo:
    """Exact I_n, N_n, and node count of F_n."""
    n = integer("level", n, 0)
    scale = seq.scale(n)  # raises LevelRangeError beyond an explicit prefix
    cells = (1 << n) * scale
    if n == 0:
        nodes = 2
    else:
        nodes = (1 << (n - 1)) * (scale + 3)
    return LevelInfo(scale=scale, cells=cells, nodes=nodes)


def shape_census(seq: JSequence, n: int) -> ShapeCensus:
    """Counts of V's, loops, and crosses in F_n (n >= 1).

    V count doubles each level; loops appear j_n - 2 per parent cell; a cross
    appears wherever the parent graph had a degree-4 node, so none exist at
    n = 1 and F_0 (a single interval) has no shapes at all.
    """
    n = integer("level", n, 1)  # no shapes exist on the unit interval
    return _census(seq, n, seq.scale(n - 1))


def _census(seq: JSequence, n: int, scale_prev: int) -> ShapeCensus:
    """shape_census from I_(n-1), which a level walk carries along: each
    level then costs shifts and small products, not the power that forms
    I_(n-1) afresh."""
    jn = seq.j(n)
    v_count = 1 << n
    loop_count = ((jn - 2) * scale_prev) << (n - 1)
    cross_count = 0 if n == 1 else (scale_prev - 1) << (n - 2)
    return ShapeCensus(scale_prev * jn, v_count, loop_count, cross_count)


def _log_block(seq: JSequence) -> float:
    """log P, read by every float formula in the block P (dimensions, the
    closed zeta, pole spacings, residues).  A block past the double range
    (e.g. 310 entries of 10) is refused: r = P^(1/p) and the direct zeta's
    per-period ratio form P as a float."""
    if seq.block > sys.float_info.max:
        raise ValidationError(
            f"the block P = j_1 ... j_p of this {seq.period}-entry pattern is "
            f"about 10^{math.log10(seq.block):.0f}, past the double range"
        )
    return math.log(seq.block)


def dimensions(seq: JSequence) -> DimensionReport:
    """Dimension report from the period p and block P, r = P^(1/p); an
    explicit prefix has no period and raises DimensionUndefinedError."""
    # the one formula for d_s; heatzeta's abscissa and pole real parts read it
    log_r = _log_block(seq) / seq.period
    r = seq.block ** (1.0 / seq.period)
    q = 1.0 + math.log(2.0) / log_r
    return DimensionReport(r=r, hausdorff=q, spectral=q, walk=2.0)
