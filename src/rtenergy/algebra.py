"""Exact algebra of real-time energy functions.

A staircase component models one path through an automaton: wait in
successively faster states until each threshold is met, then pay the whole
accumulated cost on the final jump.  General functions are finite suprema of
such components.  All arithmetic is exact rational; ``bottom`` ("no feasible
schedule") is a value, not an error, and absorbs every operation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Optional

from .linear2d import Constraint, feasible_point
from .rational import parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

# Entry bounds of the process-lifetime memo caches, well above the largest
# working sets one pass of a perfbench workload needs (1,454 and 1,278 on
# reach_random at seed 1; flower_closure needs 1,174 and 651).
LEQ_LINEAR_CACHE_SIZE = 2**17
COMPONENT_CELLS_CACHE_SIZE = 2**14

__all__ = [
    "Energy",
    "Time",
    "Atom",
    "LinearRtef",
    "Rtef",
    "BOTTOM",
    "INFINITY",
    "TIME_INF",
    "atom",
    "normalize",
    "leq_linear",
    "order_witness",
    "component_cells",
    "Cell",
]


@dataclass(frozen=True, order=True, slots=True)
class Energy:
    """A battery level in the flat-bottomed lattice: bot < finite < inf.

    The generated order is the lattice order: rank decides first, and equal
    ranks 0 or 2 compare equal without comparing their None values.
    """

    rank: int  # 0 bottom, 1 finite, 2 infinity
    value: Optional[Fraction] = None

    @staticmethod
    def of(x) -> "Energy":
        q = Fraction(x)
        if q < 0:
            raise ValueError(f"energy must be non-negative: {q}")
        return Energy(1, q)

    @property
    def is_bottom(self) -> bool:
        return self.rank == 0

    @property
    def is_finite(self) -> bool:
        return self.rank == 1

    @property
    def is_infinite(self) -> bool:
        return self.rank == 2

    def text(self) -> str:
        if self.rank == 0:
            return "bot"
        if self.rank == 2:
            return "inf"
        return str(self.value)

    def __repr__(self):
        return f"Energy({self.text()})"


BOTTOM = Energy(0)
INFINITY = Energy(2)


@total_ordering
@dataclass(frozen=True, slots=True)
class Time:
    """An available-time budget: a finite non-negative rational or infinity."""

    value: Optional[Fraction] = None  # None encodes infinity

    def __post_init__(self):
        if self.value is not None:
            value = Fraction(self.value)
            if value < 0:
                raise ValueError(f"time must be non-negative: {value}")
            object.__setattr__(self, "value", value)

    @staticmethod
    def of(x) -> "Time":
        if isinstance(x, Time):
            return x
        if isinstance(x, str):
            return TIME_INF if x.strip().lower() == "inf" else Time(parse_rational(x))
        return Time(Fraction(x))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def text(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __lt__(self, other: "Time") -> bool:
        # by hand: a generated order cannot put None (infinity) above all
        if self.value is None:
            return False
        return other.value is None or self.value < other.value

    def __repr__(self):
        return f"Time({self.text()})"


TIME_INF = Time()


@dataclass(frozen=True)
class Atom:
    """One delay-then-jump step: earn ``rate`` per time unit, jump once the
    level reaches ``bound`` and pay ``price``."""

    rate: Fraction
    price: Fraction
    bound: Fraction

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"rate must be non-negative: {self.rate}")
        if self.price > 0:
            raise ValueError(f"price must be non-positive: {self.price}")
        if self.bound < -self.price:
            raise ValueError(f"bound {self.bound} below -price {-self.price}")

    def __repr__(self):
        return f"Atom({self.rate}, {self.price}, {self.bound})"


def atom(rate, price, bound) -> Atom:
    return Atom(Fraction(rate), Fraction(price), Fraction(bound))


@dataclass(frozen=True)
class LinearRtef:
    """A path function in staircase form: rates strictly increase, thresholds
    never decrease, and the whole price sits on the final step.  The empty
    sequence is the identity function."""

    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.atoms, self.atoms[1:]):
            if not a.rate < b.rate:
                raise ValueError("rates must strictly increase; use normalize()")
            if not a.bound <= b.bound:
                raise ValueError("bounds must not decrease; use normalize()")
        for a in self.atoms[:-1]:
            if a.price != 0:
                raise ValueError("only the final step may carry a price; use normalize()")

    @property
    def is_identity(self) -> bool:
        return not self.atoms

    def sort_key(self):
        return tuple((a.rate, a.price, a.bound) for a in self.atoms)

    def __hash__(self):
        # cached: most calls repeat (the sets in Rtef.of and sup, the
        # leq_linear keys), while an Atom is hashed about once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.atoms))
            return self._hash

    def eval(self, x: Energy, t: Time) -> Energy:
        """Best reachable level from ``x`` within time ``t``.

        Greedy schedule: wait the minimum at each step to meet its threshold,
        spend every leftover instant in the final (fastest) state.  Infinite
        time takes the supremum over finite budgets.
        """
        if x.is_bottom:
            return BOTTOM
        if x.is_infinite:
            return INFINITY
        if not self.atoms:
            return x
        first = self.atoms[0]
        last = self.atoms[-1]
        if t.is_infinite:
            if first.rate == 0 and x.value < first.bound:
                return BOTTOM
            if last.rate > 0:
                return INFINITY
            return Energy.of(x.value + last.price)  # lone zero-rate step
        cur = x.value
        rem = t.value
        for a in self.atoms:
            if cur < a.bound:
                if a.rate == 0:
                    return BOTTOM
                wait = (a.bound - cur) / a.rate
                if wait > rem:
                    return BOTTOM
                cur = a.bound
                rem -= wait
        return Energy.of(cur + last.rate * rem + last.price)

    def __repr__(self):
        return "LinearRtef(" + " ".join(repr(a) for a in self.atoms) + ")"


def normalize(seq: Iterable[Atom]) -> LinearRtef:
    """Rewrite an arbitrary step sequence into staircase form.

    Any step whose rate does not exceed its predecessor's is absorbed into
    the predecessor (left to right, to a fixpoint), then one sweep defers
    every price onto the final step.  The induced function is unchanged;
    tests verify this against schedule-enumeration oracles.
    """
    atoms = list(seq)
    i = 0
    while i + 1 < len(atoms):
        a, b = atoms[i], atoms[i + 1]
        if a.rate >= b.rate:
            atoms[i : i + 2] = [Atom(a.rate, a.price + b.price, max(a.bound, b.bound - a.price))]
        else:
            i += 1
    for i in range(len(atoms) - 1):
        a, b = atoms[i], atoms[i + 1]
        atoms[i] = Atom(a.rate, ZERO, a.bound)
        atoms[i + 1] = Atom(b.rate, a.price + b.price, max(a.bound, b.bound - a.price))
    return LinearRtef(tuple(atoms))


@dataclass(frozen=True)
class Rtef:
    """A finite supremum of staircase components, kept sorted and duplicate
    free; the empty supremum is the all-bottom function."""

    components: tuple[LinearRtef, ...] = ()

    def __post_init__(self):
        keys = [c.sort_key() for c in self.components]
        if not all(a < b for a, b in zip(keys, keys[1:])):
            raise ValueError("components must be sorted and unique; use Rtef.of()")

    @staticmethod
    def of(components: Iterable[LinearRtef]) -> "Rtef":
        return Rtef(tuple(sorted(set(components), key=LinearRtef.sort_key)))

    @staticmethod
    def bottom() -> "Rtef":
        return _BOTTOM_RTEF

    @staticmethod
    def one() -> "Rtef":
        return _ONE_RTEF

    @property
    def is_empty(self) -> bool:
        return not self.components

    def eval(self, x: Energy, t: Time) -> Energy:
        return max((c.eval(x, t) for c in self.components), default=BOTTOM)

    def compose(self, other: "Rtef") -> "Rtef":
        """Sequential composition: split the time budget optimally."""
        comps = [
            normalize(a.atoms + b.atoms)
            for a in self.components
            for b in other.components
        ]
        return Rtef.of(comps).prune()

    def sup(self, other: "Rtef") -> "Rtef":
        """Pointwise maximum, merged rather than pruned from scratch.

        A pruned operand (every result of ``compose``, ``sup``, ``prune`` and
        ``star`` is one) has no component dominated by another of its own, so
        only pairs across the operands are compared, and a component common
        to both always stays.  For pruned operands the result is ``==`` to
        ``Rtef.of(self.components + other.components).prune()``, tie rule
        included.  With an unpruned operand it is still the pointwise
        maximum, but components dominated within that operand may remain.
        """
        if not self.components:
            return other
        if not other.components:
            return self
        left, right = set(self.components), set(other.components)
        comps = sorted(left | right, key=LinearRtef.sort_key)
        side = [(c in left) | (c in right) << 1 for c in comps]
        return Rtef(_undominated(comps, side))

    def prune(self) -> "Rtef":
        """Drop every component pointwise dominated by another.

        Component c goes when some other d has c <= d and either d comes
        first in sort order or d <= c fails; of mutually equivalent
        components the first in sort order stays.  The result has no
        component below another, which is what ``sup`` relies on.
        """
        if len(self.components) <= 1:
            return self
        return Rtef(_undominated(self.components))

    def star(self) -> "Rtef":
        """Least fixpoint of iteration: the product of (1 ∨ c) over the
        non-identity components c in order of final rate.

        Iterating components in any order is dominated by running each one
        once in rate order, so the closure is the supremum over rate-ordered
        subsets; the product builds that supremum one factor at a time, and
        pruning after each factor is sound because composition is monotone.
        """
        loops = sorted(
            (c for c in self.components if c.atoms),
            key=lambda c: c.atoms[-1].rate,
        )
        acc = Rtef.one()
        for c in loops:
            acc = acc.sup(acc.compose(Rtef((c,))))
        return acc

    def leq(self, other: "Rtef") -> bool:
        """Exact pointwise comparison over every energy/time pair."""
        return order_witness(self, other) is None

    def __repr__(self):
        return "Rtef{" + ", ".join(repr(c) for c in self.components) + "}"


_BOTTOM_RTEF = Rtef()
_ONE_RTEF = Rtef((LinearRtef(),))


def _tail(c: LinearRtef) -> tuple[Fraction, Fraction]:
    """Final rate and price; the identity counts as (0, 0)."""
    if not c.atoms:
        return ZERO, ZERO
    last = c.atoms[-1]
    return last.rate, last.price


def _leq(c: LinearRtef, d: LinearRtef) -> bool:
    """``leq_linear(c, d)``, first rejected in O(1) by the tails.

    Above every bound and at t = 0, c is x + price; as t grows it gains
    rate per unit.  So c <= d needs c's final rate and price to be at most
    d's, a test that rejects most pairs without the cached comparison.
    """
    rc, pc = _tail(c)
    rd, pd = _tail(d)
    return rc <= rd and pc <= pd and leq_linear(c, d)


def _undominated(comps, side=None) -> tuple[LinearRtef, ...]:
    """The components of the sorted, duplicate-free ``comps`` that survive
    ``Rtef.prune``'s rule.  ``side`` restricts the comparisons to pairs
    whose bit masks are disjoint (``sup``: 1 left only, 2 right only, 3
    both); without it every pair is compared."""
    keep = []
    for i, c in enumerate(comps):
        for j, d in enumerate(comps):
            if j == i or (side and side[i] & side[j]):
                continue
            if _leq(c, d) and (j < i or not _leq(d, c)):
                break
        else:
            keep.append(c)
    return tuple(keep)


# ---------------------------------------------------------------------------
# Cell decomposition: per x-strip affine data used by the order decision and
# by the region exporter.

@dataclass(frozen=True, slots=True)
class Cell:
    """One vertical strip of a component's domain.

    For x in [lo, hi): defined where t >= max(0, wait_x*x + wait_c), there
    evaluating to value_t*t + value_x*x + value_c.  Strips below an
    unreachable first threshold are marked infeasible.

    ``ints`` is the same affine data in integers for the order kernel: a
    common denominator d > 0, then the numerators over d of wait_x, wait_c,
    value_t, value_x and value_c.  It is derived, so it takes no part in
    equality, hashing or the repr.
    """

    lo: Fraction
    hi: Optional[Fraction]
    feasible: bool
    wait_x: Fraction = ZERO
    wait_c: Fraction = ZERO
    value_t: Fraction = ZERO
    value_x: Fraction = ZERO
    value_c: Fraction = ZERO
    ints: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = (self.wait_x, self.wait_c, self.value_t, self.value_x, self.value_c)
        d = math.lcm(*(q.denominator for q in coeffs))
        object.__setattr__(self, "ints", (d, *(q.numerator * (d // q.denominator) for q in coeffs)))


@lru_cache(maxsize=COMPONENT_CELLS_CACHE_SIZE)
def component_cells(l: LinearRtef) -> tuple[Cell, ...]:
    if not l.atoms:
        return (Cell(ZERO, None, True, ZERO, ZERO, ZERO, ONE, ZERO),)
    atoms = l.atoms
    n = len(atoms)
    rn, bn, price = atoms[-1].rate, atoms[-1].bound, atoms[-1].price
    bounds = [a.bound for a in atoms]
    rates = [a.rate for a in atoms]
    climb = [ZERO] * n  # time to raise the level from bounds[j] past the rest
    for j in range(n - 2, -1, -1):
        climb[j] = climb[j + 1] + (bounds[j + 1] - bounds[j]) / rates[j + 1]
    cells = []
    for j in range(n + 1):
        lo = ZERO if j == 0 else bounds[j - 1]
        hi = bounds[j] if j < n else None
        if hi is not None and lo == hi:
            continue
        if j == n:
            cells.append(Cell(lo, None, True, ZERO, ZERO, rn, ONE, price))
        elif rates[j] == 0:
            cells.append(Cell(lo, hi, False))
        else:
            wx = -ONE / rates[j]
            wc = bounds[j] / rates[j] + climb[j]
            cells.append(Cell(lo, hi, True, wx, wc, rn, -rn * wx, bn + price - rn * wc))
    return tuple(cells)


def _strips(fcomps, gcomps):
    """Every strip where a component of ``fcomps`` is defined, as
    (f cell, feasible g cells, lo, hi), one component of f after another.

    The strips cut [0, inf) at every bound of both sides, so each component
    of either side is one affine cell on each of them.  They come from a
    merge of the cell lists of all components: one cursor per list, and a
    strip ends at the nearest right edge among the current cells.
    """
    lists = [component_cells(l) for l in (*fcomps, *gcomps)]
    nf = len(fcomps)
    for k in range(nf):
        pos = [0] * len(lists)
        lo = ZERO
        while True:
            cur = [cells[i] for cells, i in zip(lists, pos)]
            hi = min((c.hi for c in cur if c.hi is not None), default=None)
            fc = cur[k]
            if fc.feasible:
                yield fc, [c for c in cur[nf:] if c.feasible], lo, hi
            if hi is None:
                break
            pos = [i + 1 if c.hi is not None and c.hi == hi else i for c, i in zip(cur, pos)]
            lo = hi


# ---------------------------------------------------------------------------
# Order decision.  A violation of f <= g is a point where some component of f
# is defined and beats every component of g; within one x-strip everything is
# affine, so emptiness of the violation set is an exact two-variable linear
# satisfiability question.
#
# Only finite points need searching.  At x = bot both sides are bot, and at
# x = inf every component is inf, so only an empty g loses there, and it loses
# at every finite x where f is defined as well.  At t = inf a component takes
# the supremum of its values over finite t (``LinearRtef.eval``), and a
# supremum over components commutes with one over t; so f(x, inf) > g(x, inf)
# means f(x, t) exceeds g(x, inf) >= g(x, t) at some finite t.
#
# The strips come from one merged walk over the cell lists of both sides
# (``_strips``), and the endpoint checks that settle most strips without a
# linear system (``_covers``) are integer sign tests: each cell carries its
# affine data as numerators over a common denominator (``Cell.ints``).

def _covers(g: Cell, f: Cell, lo: Fraction, hi: Optional[Fraction]) -> bool:
    """Whether g alone dominates f on this whole strip (exact for affine
    data: endpoint checks suffice, the unbounded strip is slope-free).

    At an endpoint x = p/q, f is first defined at tf/(d_f*q) and g at
    tg/(d_g*q), and g - f at f's first time is
    (dt*tf + (dx*p + dc*q)*d_f) / (d_f^2*d_g*q), where dt, dx, dc are the
    numerators of g - f over d_f*d_g.  Every test is the sign of an
    integer, with no ``Fraction`` built.  tf and tg need no clamp at 0: a
    strip lies inside one cell of each component, and a feasible cell's
    wait is >= 0 at both of its ends, hence on all of it.
    """
    dg, gwx, gwc, gvt, gvx, gvc = g.ints
    df, fwx, fwc, fvt, fvx, fvc = f.ints
    dt = gvt * df - fvt * dg
    if not g.feasible or dt < 0:
        return False
    dx = gvx * df - fvx * dg
    dc = gvc * df - fvc * dg
    for x in (lo,) if hi is None else (lo, hi):
        p, q = x.numerator, x.denominator
        tf = fwx * p + fwc * q
        tg = gwx * p + gwc * q
        if tg * df > tf * dg:
            return False
        if dt * tf + (dx * p + dc * q) * df < 0:
            return False
    return True


@lru_cache(maxsize=LEQ_LINEAR_CACHE_SIZE)
def leq_linear(lhs: LinearRtef, rhs: LinearRtef) -> bool:
    """Pointwise comparison of two single components: a lone g cell that
    does not cover f on a strip loses to it somewhere there."""
    return lhs == rhs or all(
        any(_covers(gc, fc, lo, hi) for gc in gcs)
        for fc, gcs, lo, hi in _strips((lhs,), (rhs,))
    )


def _violation_point(
    fc: Cell, gcells: list[Cell], lo: Fraction, hi: Optional[Fraction]
) -> Optional[tuple[Fraction, Fraction]]:
    """A point of the strip where f is defined and beats every g, or None.

    Each g is undefined below its feasibility line t = wait_g(x).  The strip
    is cut further where two of these lines cross; on each piece they are
    totally ordered, so the cells defined at height t are a prefix of that
    order.  One system per prefix length k then decides the piece: the first
    k cells lie strictly below f and t stays below the (k+1)-th line, where
    every later cell is still undefined.  That is O(m^2) pieces times m + 1
    systems for m cells of g.

    The strip's right edge is excluded: a violation exactly there reappears
    in the next strip with that strip's (correct) cell data, while here the
    edge may sit on a feasibility jump of some g.  Inner cuts are closed on
    both sides, where the order of the lines still holds by continuity.
    """
    crossings = {
        (b.wait_c - a.wait_c) / (a.wait_x - b.wait_x)
        for a, b in itertools.combinations(gcells, 2)
        if a.wait_x != b.wait_x
    }
    cuts = [lo, *sorted(x for x in crossings if lo < x and (hi is None or x < hi)), hi]
    f_cons = [
        Constraint(ZERO, ONE, ZERO),
        Constraint(-fc.wait_x, ONE, -fc.wait_c),
    ]
    for a, b in zip(cuts, cuts[1:]):
        piece = [Constraint(ONE, ZERO, -a)]
        if b is not None:
            piece.append(Constraint(-ONE, ZERO, b, strict=b == hi))
        mid = a + 1 if b is None else (a + b) / 2
        order = sorted(gcells, key=lambda gc: gc.wait_x * mid + gc.wait_c)
        below = []  # g defined but strictly below f: value_g < value_f
        for k in range(len(order) + 1):
            cons = piece + f_cons + below
            if k < len(order):
                gc = order[k]
                # t < wait_g(x): this cell and every later one undefined
                cons.append(Constraint(gc.wait_x, -ONE, gc.wait_c, strict=True))
                below.append(
                    Constraint(
                        fc.value_x - gc.value_x,
                        fc.value_t - gc.value_t,
                        fc.value_c - gc.value_c,
                        strict=True,
                    )
                )
            point = feasible_point(cons)
            if point is not None:
                return point
    return None


def order_witness(f: Rtef, g: Rtef) -> Optional[tuple[Energy, Time]]:
    """A concrete (energy, time) pair where ``f`` beats ``g``, or None when
    f <= g holds everywhere; negative order answers are thereby directly
    checkable by evaluation.

    The witness time is always finite: by the supremum argument above, a
    violation at t = inf has one at a finite t too.  Components shared with
    g never beat it and are skipped; each strip that no single g cell
    covers goes to ``_violation_point``.
    """
    shared = set(g.components)
    fcomps = [c for c in f.components if c not in shared]
    for fc, gcs, lo, hi in _strips(fcomps, g.components):
        if any(_covers(gc, fc, lo, hi) for gc in gcs):
            continue
        point = _violation_point(fc, gcs, lo, hi)
        if point is not None:
            return (Energy.of(point[0]), Time(point[1]))
    return None
