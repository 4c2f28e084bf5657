"""Exact satisfiability of linear constraint systems in two variables.

Used to decide emptiness of candidate violation regions when comparing
piecewise-affine functions.  Everything is rational arithmetic; strict and
non-strict inequalities are kept apart so open regions are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

ZERO = Fraction(0)


@dataclass(frozen=True)
class Constraint:
    """a*x + b*t + c >= 0, or strictly > 0 when ``strict`` is set."""

    a: Fraction
    b: Fraction
    c: Fraction
    strict: bool = False


def feasible_point(constraints: Iterable[Constraint]) -> Optional[tuple[Fraction, Fraction]]:
    """A real point (x, t) satisfying every constraint, or None.

    Fourier-Motzkin elimination of t followed by a one-dimensional interval
    check on x; unbounded directions are allowed.  The point turns negative
    order decisions into directly checkable witnesses."""
    x_only, lows, highs = _eliminate_t(constraints)
    x = _interval_pick(x_only)
    if x is None:
        return None
    # substitute x back: each remaining constraint is linear in t alone
    t_cons = [Constraint(cn.b, ZERO, cn.a * x + cn.c, cn.strict) for cn in lows + highs]
    t = _interval_pick(t_cons)
    if t is None:
        return None
    return x, t


def _eliminate_t(constraints: Iterable[Constraint]):
    lows: list[Constraint] = []   # b > 0: lower bounds on t
    highs: list[Constraint] = []  # b < 0: upper bounds on t
    x_only: list[Constraint] = []
    for cn in constraints:
        if cn.b == 0:
            x_only.append(cn)
        elif cn.b > 0:
            lows.append(cn)
        else:
            highs.append(cn)
    for lo in lows:
        for hi in highs:
            # lo: t >= (-lo.a x - lo.c)/lo.b, hi: t <= (hi.a x + hi.c)/(-hi.b);
            # their compatibility is affine in x once cleared of denominators.
            x_only.append(
                Constraint(
                    lo.b * hi.a - hi.b * lo.a,
                    ZERO,
                    lo.b * hi.c - hi.b * lo.c,
                    lo.strict or hi.strict,
                )
            )
    return x_only, lows, highs


def _interval_bounds(constraints: list[Constraint]):
    """Tightest bounds of a one-variable system a*v + c >= 0; None on an
    unsatisfiable constant constraint."""
    low: Optional[Fraction] = None
    low_strict = False
    high: Optional[Fraction] = None
    high_strict = False
    for cn in constraints:
        if cn.a == 0:
            if cn.c < 0 or (cn.strict and cn.c == 0):
                return None
        elif cn.a > 0:
            v = -cn.c / cn.a  # v >= bound
            if low is None or v > low:
                low, low_strict = v, cn.strict
            elif v == low and cn.strict:
                low_strict = True
        else:
            v = -cn.c / cn.a  # v <= bound
            if high is None or v < high:
                high, high_strict = v, cn.strict
            elif v == high and cn.strict:
                high_strict = True
    return low, low_strict, high, high_strict


def _interval_pick(constraints: list[Constraint]) -> Optional[Fraction]:
    bounds = _interval_bounds(constraints)
    if bounds is None:
        return None
    low, low_strict, high, high_strict = bounds
    if low is None and high is None:
        return ZERO
    if low is None:
        return high - 1
    if high is None:
        return low + 1 if low_strict else low
    if low > high or (low == high and (low_strict or high_strict)):
        return None
    if low == high:
        return low
    return (low + high) / 2
