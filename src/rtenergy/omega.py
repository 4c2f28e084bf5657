"""Boolean-valued limit behaviors and the left action of energy functions.

An endless run either ends in a free loop or wins its prices back by
waiting.  A free loop needs no time, so such runs hold at every horizon: the
``support`` function is defined exactly where one exists.  A waiting loop
needs unbounded time: with it, the run exists exactly from the levels that
clear the ``threshold``.  Both parts are closed under supremum and under
composition with an energy function, so this pair represents everything the
automaton layer produces.
"""

from __future__ import annotations

from typing import Optional

from .algebra import FREE_STEP, Energy, LinearRtef, Rtef, Time, _tail, checked_tuple
from .rational import Rational


class OmegaVal(checked_tuple("OmegaVal", "support threshold")):
    """Truth-valued behavior of endless schedules, split by how they loop.

    ``support``: the runs that end in a free loop, true at every horizon
    exactly where it is not bottom.
    ``threshold``: for the runs that end in a waiting loop, the least start
    level from which one exists with unbounded time, an exact ``Rational``
    as the atoms store it, or None when no such run exists.
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
        a, b = self.threshold, other.threshold
        thr = b if a is None else a if b is None else min(a, b)
        return OmegaVal(self.support.sup(other.support), thr)


_FALSE = OmegaVal(Rtef.bottom(), None)


def omega_of(f: Rtef, star: Optional[Rtef] = None) -> OmegaVal:
    """Endless iteration of one function; ``star``, when given, is
    ``f.star()`` already computed by the caller.

    Free loops make the support: finite horizons force vanishing delays, so
    only free components (a final price of zero, the one price a staircase
    carries) repeat forever, after any iteration prefix.  Waiting loops make
    the threshold: a component with a positive final rate wins its price
    back by waiting, so it sustains itself from the least level where it is
    defined.  A zero-rate component never waits: the support holds it at
    every horizon when it is free, and otherwise each pass loses its price.
    """
    free = [c for c in f.components if _tail(c)[1] == 0]
    if free:
        support = (f.star() if star is None else star).compose(Rtef.of(free))
    else:
        support = Rtef.bottom()
    threshold = min((_reach_threshold(c, 0) for c in f.components if _tail(c)[0] > 0), default=None)
    return OmegaVal(support, threshold)


def act(f: Rtef, v: OmegaVal) -> OmegaVal:
    """Left action: run one pass of ``f``, then behave as ``v``."""
    support = f.compose(v.support)
    if v.threshold is None:
        return OmegaVal(support, None)
    threshold = min((_reach_threshold(c, v.threshold) for c in f.components), default=None)
    return OmegaVal(support, threshold)


def _reach_threshold(c: LinearRtef, goal: Rational) -> Rational:
    """Least start level from which ``c`` with unbounded time reaches
    ``goal``: an atom bound as stored, ``goal`` less the price, or 0."""
    atoms = c.atoms or FREE_STEP
    first, last = atoms[0], atoms[-1]
    if last.rate > 0:
        return first.bound if first.rate == 0 else 0
    return max(first.bound, goal - last.price)
