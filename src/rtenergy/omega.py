"""Boolean-valued limit behaviors and the left action of energy functions.

An endless schedule is possible from (x, t) exactly when either a finite-time
certificate exists (reach a free cycle: the ``support`` function is defined
there) or, with unbounded time, the start level clears a self-sustaining
``threshold``.  Both parts are closed under supremum and under composition
with an energy function, so this pair represents everything the automaton
layer produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import Energy, LinearRtef, Rtef, TIME_INF, Time

ZERO = Fraction(0)


@dataclass(frozen=True)
class OmegaVal:
    """Truth-valued behavior of endless schedules.

    ``support``: true at finite horizons exactly where it is not bottom.
    ``threshold``: least start level admitting an endless schedule with
    unbounded time, or None when no finite level does.
    """

    support: Rtef
    threshold: Optional[Fraction]

    def __post_init__(self):
        if self.threshold is not None and self.threshold < 0:
            raise ValueError("threshold must be non-negative")

    @staticmethod
    def false() -> "OmegaVal":
        return _FALSE

    def eval(self, x: Energy, t: Time) -> bool:
        if x.is_bottom:
            return False
        if not t.is_infinite:
            return not self.support.eval(x, t).is_bottom
        if self.threshold is not None and (x.is_infinite or x.value >= self.threshold):
            return True
        return not self.support.eval(x, TIME_INF).is_bottom

    def sup(self, other: "OmegaVal") -> "OmegaVal":
        thr = _least((self.threshold, other.threshold))
        return OmegaVal(self.support.sup(other.support), thr)


_FALSE = OmegaVal(Rtef.bottom(), None)


def _least(levels: Iterable[Optional[Fraction]]) -> Optional[Fraction]:
    """The least level that is not None, or None if every level is None.

    A None threshold admits no endless schedule, so it never lowers the least.
    """
    return min((q for q in levels if q is not None), default=None)


def omega_of(f: Rtef) -> OmegaVal:
    """Endless iteration of one function.

    Finite horizons force vanishing delays, so only free (all-prices-zero)
    components can repeat forever; the support is any iteration prefix
    followed by one free component, which then loops with zero delay.  With
    unbounded time a component sustains itself from the least level where one
    pass can return at least its input.
    """
    free = [c for c in f.components if all(a.price == 0 for a in c.atoms)]
    support = f.star().compose(Rtef.of(free)) if free else Rtef.bottom()
    threshold = _least(_self_sustain_threshold(c) for c in f.components)
    return OmegaVal(support, threshold)


def _self_sustain_threshold(c: LinearRtef) -> Optional[Fraction]:
    # One pass must return at least its input.  A lone zero-rate step returns
    # x + price, so it does only when free; any other component does wherever
    # it is defined.  Either way that is the level that reaches goal 0, since
    # for the free step max(bound, 0 - price) is its bound.
    if c.atoms and c.atoms[-1].rate == 0 and c.atoms[-1].price != 0:
        return None
    return _reach_threshold(c, ZERO)


def act(f: Rtef, v: OmegaVal) -> OmegaVal:
    """Left action: run one pass of ``f``, then behave as ``v``."""
    support = f.compose(v.support)
    if v.threshold is None:
        return OmegaVal(support, None)
    threshold = _least(_reach_threshold(c, v.threshold) for c in f.components)
    return OmegaVal(support, threshold)


def _reach_threshold(c: LinearRtef, goal: Fraction) -> Fraction:
    """Least start level from which ``c`` with unbounded time reaches ``goal``."""
    if not c.atoms:
        return goal
    first, last = c.atoms[0], c.atoms[-1]
    if last.rate > 0:
        return first.bound if first.rate == 0 else ZERO
    return max(first.bound, goal - last.price)
