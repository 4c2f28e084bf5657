"""Boolean-valued limit behaviors and the left action of energy functions.

An endless schedule is possible from (x, t) exactly when either a finite-time
certificate exists (reach a free cycle: the ``support`` function is defined
there) or, with unbounded time, the start level clears a self-sustaining
``threshold``.  Both parts are closed under supremum and under composition
with an energy function, so this pair represents everything the automaton
layer produces.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .algebra import FREE_STEP, Energy, LinearRtef, Rtef, Time, checked_tuple
from .rational import Rational


class OmegaVal(checked_tuple("OmegaVal", "support threshold")):
    """Truth-valued behavior of endless schedules.

    ``support``: true at finite horizons exactly where it is not bottom.
    ``threshold``: least start level admitting an endless schedule with
    unbounded time, an exact ``Rational`` as the atoms store it, or None
    when no finite level does.
    """

    __slots__ = ()

    def __new__(cls, support: Rtef, threshold: Optional[Rational]):
        if threshold is not None and threshold < 0:
            raise ValueError("threshold must be non-negative")
        return tuple.__new__(cls, (support, threshold))

    @staticmethod
    def false() -> "OmegaVal":
        return _FALSE

    def eval(self, x: Energy, t: Time) -> bool:
        """Whether an endless schedule exists from ``x`` within ``t``.  Levels
        compare in the lattice order: bottom clears no threshold, inf all."""
        if t.is_infinite and self.threshold is not None and x >= Energy.of(self.threshold):
            return True
        return not self.support.eval(x, t).is_bottom

    def sup(self, other: "OmegaVal") -> "OmegaVal":
        thr = _least((self.threshold, other.threshold))
        return OmegaVal(self.support.sup(other.support), thr)


_FALSE = OmegaVal(Rtef.bottom(), None)


def _least(levels: Iterable[Optional[Rational]]) -> Optional[Rational]:
    """The least ``Rational`` level that is not None, or None if every level
    is None.

    A None threshold admits no endless schedule, so it never lowers the least.
    """
    return min((q for q in levels if q is not None), default=None)


def omega_of(f: Rtef, star: Optional[Rtef] = None) -> OmegaVal:
    """Endless iteration of one function; ``star``, when given, is
    ``f.star()`` already computed by the caller.

    Finite horizons force vanishing delays, so only free components (a
    final price of zero, the one price a staircase carries) can repeat
    forever; the support is any iteration prefix followed by one free
    component, which then loops with zero delay.  With unbounded time a
    component sustains itself from the least level where one pass can
    return at least its input.
    """
    free = [c for c in f.components if (c.atoms or FREE_STEP)[-1].price == 0]
    if free:
        support = (f.star() if star is None else star).compose(Rtef.of(free))
    else:
        support = Rtef.bottom()
    threshold = _least(_self_sustain_threshold(c) for c in f.components)
    return OmegaVal(support, threshold)


def _self_sustain_threshold(c: LinearRtef) -> Optional[Rational]:
    # One pass must return at least its input.  A lone zero-rate step returns
    # x + price, so it does only when free; any other component does wherever
    # it is defined.  Either way that is the level that reaches goal 0, since
    # for the free step max(bound, 0 - price) is its bound.
    last = (c.atoms or FREE_STEP)[-1]
    if last.rate == 0 and last.price != 0:
        return None
    return _reach_threshold(c, 0)


def act(f: Rtef, v: OmegaVal) -> OmegaVal:
    """Left action: run one pass of ``f``, then behave as ``v``."""
    support = f.compose(v.support)
    if v.threshold is None:
        return OmegaVal(support, None)
    threshold = _least(_reach_threshold(c, v.threshold) for c in f.components)
    return OmegaVal(support, threshold)


def _reach_threshold(c: LinearRtef, goal: Rational) -> Rational:
    """Least start level from which ``c`` with unbounded time reaches
    ``goal``: an atom bound as stored, ``goal`` less the price, or 0."""
    atoms = c.atoms or FREE_STEP
    first, last = atoms[0], atoms[-1]
    if last.rate > 0:
        return first.bound if first.rate == 0 else 0
    return max(first.bound, goal - last.price)
