"""Exact satisfiability of linear constraint systems in two variables.

Used to decide emptiness of candidate violation regions when comparing
piecewise-affine functions.  The solver divides nowhere: Fourier-Motzkin
products, bound comparisons (cross-multiplied, each bound kept as a
numerator over a positive denominator) and the back-substitution are all
ring operations, so integer coefficients are solved in integer arithmetic.
``Fraction``s are built only for the point returned.  Rational coefficients
work the same way.  Strict and non-strict inequalities are kept apart, so
open regions are handled exactly.
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
    """A real point (x, t) satisfying every constraint, or None.

    Fourier-Motzkin elimination of t followed by a one-dimensional interval
    check on x; unbounded directions are allowed.  The point turns negative
    order decisions into directly checkable witnesses."""
    lows: list[Constraint] = []   # b > 0: lower bounds on t
    highs: list[Constraint] = []  # b < 0: upper bounds on t
    x_rows = []  # (a, c, strict): a*x + c >= 0
    for cn in constraints:
        a, b, c, strict = cn
        if b == 0:
            x_rows.append((a, c, strict))
        elif b > 0:
            lows.append(cn)
        else:
            highs.append(cn)
    for la, lb, lc, ls in lows:
        for ha, hb, hc, hs in highs:
            # t >= (-la x - lc)/lb and t <= (ha x + hc)/(-hb); their
            # compatibility is affine in x once cleared of denominators.
            x_rows.append((lb * ha - hb * la, lb * hc - hb * lc, ls or hs))
    x = _interval_pick(x_rows)
    if x is None:
        return None
    # substitute x = p/q back, scaled by q: each row is linear in t alone
    p, q = x.numerator, x.denominator
    t = _interval_pick([(b * q, a * p + c * q, strict) for a, b, c, strict in lows + highs])
    if t is None:
        return None
    return x, t


def _interval_pick(rows) -> Optional[Fraction]:
    """A point of the one-variable system a*v + c >= 0 (strict where
    flagged), given as (a, c, strict) rows, or None.

    The tightest bounds are kept as (num, den) with den > 0 and compared by
    cross-multiplication; the point picked is the lower bound, one past it,
    one below the upper bound, or the midpoint, as the bounds allow."""
    low = high = None
    low_strict = high_strict = False
    for a, c, strict in rows:
        if a > 0:  # v >= -c/a
            if low is None or -c * low[1] > low[0] * a:
                low, low_strict = (-c, a), strict
            elif strict and -c * low[1] == low[0] * a:
                low_strict = True
        elif a < 0:  # v <= c/(-a)
            if high is None or c * high[1] < high[0] * -a:
                high, high_strict = (c, -a), strict
            elif strict and c * high[1] == high[0] * -a:
                high_strict = True
        elif c < 0 or (strict and c == 0):
            return None
    if low is None:
        return ZERO if high is None else Fraction(high[0] - high[1], high[1])
    if high is None:
        return Fraction(low[0] + low[1], low[1]) if low_strict else Fraction(*low)
    gap = high[0] * low[1] - low[0] * high[1]  # sign of high - low
    if gap < 0 or (gap == 0 and (low_strict or high_strict)):
        return None
    if gap == 0:
        return Fraction(*low)
    return Fraction(low[0] * high[1] + high[0] * low[1], 2 * low[1] * high[1])
