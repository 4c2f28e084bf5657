"""Exact satisfiability of linear constraint systems in two variables.

Used to decide emptiness of candidate violation regions when comparing
piecewise-affine functions.  One Fourier-Motzkin elimination of t serves
every caller, and it grows: ``Elimination.add`` pairs a new row only with
the rows of the opposite sign seen so far and folds the products into the
running tightest bounds on x, so a system of k rows costs O(k) per row and
``Elimination.point(extra)`` tests one more row in O(k) without re-solving.
``feasible_point`` is the one-shot use of it.

The solver divides nowhere: Fourier-Motzkin products, bound comparisons
(cross-multiplied, each bound kept as a numerator over a positive
denominator) and the back-substitution are all ring operations, so integer
coefficients are solved in integer arithmetic.  ``Fraction``s are built only
for the point returned.  Rational coefficients work the same way.  Strict
and non-strict inequalities are kept apart, so open regions are handled
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .rational import Rational

ZERO = Fraction(0)


class Constraint(NamedTuple):
    """a*x + b*t + c >= 0, or strictly > 0 when ``strict`` is set.

    The order test builds every constraint with integer coefficients,
    cleared of denominators; the solver takes ``Fraction``s as well."""

    a: Rational
    b: Rational
    c: Rational
    strict: bool = False


def feasible_point(constraints: Iterable[Constraint]) -> Optional[tuple[Fraction, Fraction]]:
    """A real point (x, t) satisfying every constraint, or None: one
    ``Elimination`` of all of them.  The library itself solves through
    ``Elimination.point``; this is the one-shot entry point for a fixed
    system, used by the tests' subset violation search and timed by
    perfbench."""
    return Elimination(constraints).point()


class Elimination:
    """Fourier-Motzkin elimination of t over a system that grows.

    Keeps the rows bounding t from below (b > 0) and from above (b < 0),
    and the tightest bounds on x of the rows without t and of every
    lower/upper pair formed so far.  Which point ``point`` picks depends
    only on the set of rows, never on the order they came in."""

    __slots__ = ("lows", "highs", "x")

    def __init__(self, rows: Iterable[Constraint] = ()):
        self.lows: list[Constraint] = []
        self.highs: list[Constraint] = []
        self.x = _Bounds()
        for row in rows:
            self.add(row)

    def add(self, row: Constraint) -> None:
        """Add a row, pairing it with the rows of the opposite sign."""
        _pair(row, self.lows, self.highs, self.x)
        if row.b > 0:
            self.lows.append(row)
        elif row.b < 0:
            self.highs.append(row)

    def empty(self) -> bool:
        """Whether the rows so far have no common point; then every system
        that extends them has none either."""
        return self.x.empty()

    def point(self, extra: Optional[Constraint] = None) -> Optional[tuple[Fraction, Fraction]]:
        """A point of the rows so far, plus ``extra`` when given (which is
        not kept), or None.

        x is picked from the bounds on x; then each t row, with x = p/q
        substituted and scaled by q, is linear in t alone."""
        x_bounds = self.x
        if extra is not None:
            x_bounds = x_bounds.copy()
            _pair(extra, self.lows, self.highs, x_bounds)
        x = x_bounds.pick()
        if x is None:
            return None
        rows = self.lows + self.highs
        if extra is not None:
            rows.append(extra)
        p, q = x.numerator, x.denominator
        t = _Bounds().fold([(b * q, a * p + c * q, strict) for a, b, c, strict in rows]).pick()
        if t is None:
            return None
        return x, t


def _pair(row: Constraint, lows: list, highs: list, x: "_Bounds") -> None:
    """Fold into ``x`` the bound on x of ``row`` (b = 0) or of its pairs
    with the rows of the opposite sign.  A lower row t >= (-la x - lc)/lb
    and an upper row t <= (ha x + hc)/(-hb) are compatible where
    (lb*ha - hb*la) x + (lb*hc - hb*lc) >= 0, strict if either is."""
    a, b, c, strict = row
    if b > 0:
        if highs:
            x.fold([(b * ha - hb * a, b * hc - hb * c, strict or hs) for ha, hb, hc, hs in highs])
    elif b < 0:
        if lows:
            x.fold([(lb * a - b * la, lb * c - b * lc, ls or strict) for la, lb, lc, ls in lows])
    else:
        x.fold(((a, c, strict),))


class _Bounds:
    """The tightest bounds of a one-variable system a*v + c >= 0 (> 0 where
    strict), folded in one (a, c, strict) row at a time.

    A bound is kept as (num, den, strict) with den > 0 and compared by
    cross-multiplication; of tied bounds the strict one wins.  ``dead`` is
    set by a row without v that fails."""

    __slots__ = ("low", "high", "dead")

    def __init__(self, low=None, high=None, dead=False):
        self.low = low
        self.high = high
        self.dead = dead

    def copy(self) -> "_Bounds":
        return _Bounds(self.low, self.high, self.dead)

    def fold(self, rows) -> "_Bounds":
        low, high = self.low, self.high
        for a, c, strict in rows:
            if a > 0:  # v >= -c/a
                if low is None or -c * low[1] > low[0] * a or (strict and not low[2] and -c * low[1] == low[0] * a):
                    low = (-c, a, strict)
            elif a < 0:  # v <= c/(-a)
                if high is None or c * high[1] < high[0] * -a or (strict and not high[2] and c * high[1] == high[0] * -a):
                    high = (c, -a, strict)
            elif c < 0 or (strict and c == 0):
                self.dead = True
        self.low, self.high = low, high
        return self

    def empty(self) -> bool:
        if self.dead:
            return True
        low, high = self.low, self.high
        if low is None or high is None:
            return False
        gap = high[0] * low[1] - low[0] * high[1]  # sign of high - low
        return gap < 0 or (gap == 0 and (low[2] or high[2]))

    def pick(self) -> Optional[Fraction]:
        """A point of the system, or None: the lower bound, one past it,
        one below the upper bound, or the midpoint, as the bounds allow."""
        if self.empty():
            return None
        low, high = self.low, self.high
        if low is None:
            return ZERO if high is None else Fraction(high[0] - high[1], high[1])
        if high is None:
            return Fraction(low[0] + low[1], low[1]) if low[2] else Fraction(low[0], low[1])
        if high[0] * low[1] == low[0] * high[1]:
            return Fraction(low[0], low[1])
        return Fraction(low[0] * high[1] + high[0] * low[1], 2 * low[1] * high[1])
