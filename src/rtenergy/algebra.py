"""Exact algebra of real-time energy functions.

A staircase component models one path through an automaton: wait in
successively faster states until each threshold is met, then pay the whole
accumulated cost on the final jump.  General functions are finite suprema of
such components.  All arithmetic is exact rational, with integral values
held as ``int`` (``rational.rational``); ``bottom`` ("no feasible schedule")
is a value, not an error, and absorbs every operation.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, NamedTuple, Optional

from .linear2d import Constraint, Elimination
from .rational import Rational, parse_rational, rational

# Entry bounds of the process-lifetime memo caches, well above the largest
# working sets one cold pass of a perfbench workload needs (69 and 199 on
# reach_random at seed 1; flower_closure needs 0 and 136, the cells all for
# its answers, which eval and the export read alike).
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
        q = parse_rational(x) if isinstance(x, str) else Fraction(x)
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
            value = parse_rational(self.value) if isinstance(self.value, str) else Fraction(self.value)
            if value < 0:
                raise ValueError(f"time must be non-negative: {value}")
            object.__setattr__(self, "value", value)

    @staticmethod
    def of(x) -> "Time":
        if isinstance(x, Time):
            return x
        if isinstance(x, str):
            return TIME_INF if x.strip().lower() == "inf" else Time(x)
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


class Atom(namedtuple("Atom", "rate price bound")):
    """One delay-then-jump step: earn ``rate`` per time unit, jump once the
    level reaches ``bound`` and pay ``price``.

    A tuple of its three fields, so equality, hashing and order are theirs;
    every construction, ``_make``, ``_replace``, copies and unpickling
    included, goes through the checks in ``__new__``."""

    __slots__ = ()

    def __new__(cls, rate: Rational, price: Rational, bound: Rational):
        if rate < 0:
            raise ValueError(f"rate must be non-negative: {rate}")
        if price > 0:
            raise ValueError(f"price must be non-positive: {price}")
        if bound < -price:
            raise ValueError(f"bound {bound} below -price {-price}")
        return tuple.__new__(cls, (rate, price, bound))

    @classmethod
    def _make(cls, iterable) -> "Atom":
        return cls(*iterable)

    def __repr__(self):
        return f"Atom({self.rate}, {self.price}, {self.bound})"


def atom(rate, price, bound) -> Atom:
    return Atom(rational(rate), rational(price), rational(bound))


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
        time takes the supremum over finite budgets: infinity once the final
        rate is positive, else x plus the price of the lone zero-rate step.
        A zero-rate step above the current level is never met: bottom.

        On the strip of ``component_cells`` holding x those waits add up to
        the affine boundary wait_x*x + wait_c, and the greedy value is the
        cell's affine form, so the schedule is read off that cell
        (``_eval_cells``); the step-by-step loop is a test oracle.
        """
        return _eval_cells((component_cells(self),), x, t)

    def __repr__(self):
        return "LinearRtef(" + " ".join(repr(a) for a in self.atoms) + ")"


def _splice(a: LinearRtef, b: LinearRtef) -> LinearRtef:
    """``a`` then ``b`` in staircase form, in one pass.

    Both operands are staircases, so a merge can happen only at the
    junction: a's last step absorbs the leading steps of b whose rate does
    not exceed its own.  The steps of a before its last are kept as they
    are; from the junction on, a's price is carried onto the final step,
    and each later bound rises to at least b's bound less that price.
    """
    if not a.atoms:
        return b
    if not b.atoms:
        return a
    *head, (rate, price, bound) = a.atoms
    rest = b.atoms
    k = 0
    while k < len(rest) and rest[k].rate <= rate:
        k += 1
    if k:
        # b's bounds never decrease, so its last absorbed step sets the bound
        bound = max(bound, rest[k - 1].bound - price)
        if k == len(rest):
            return LinearRtef((*head, Atom(rate, price + rest[-1].price, bound)))
    # a's last step, its price carried on; kept as it is if nothing changes
    head.append(a.atoms[-1] if not k and price == 0 else Atom(rate, 0, bound))
    for nxt in rest[k:-1]:
        bound = max(bound, nxt.bound - price)
        head.append(Atom(nxt.rate, 0, bound))
    last = rest[-1]
    head.append(Atom(last.rate, price + last.price, max(bound, last.bound - price)))
    return LinearRtef(tuple(head))


def normalize(seq: Iterable[Atom]) -> LinearRtef:
    """Rewrite an arbitrary step sequence into staircase form: the steps,
    each a one-step staircase, spliced on from left to right.  The induced
    function is unchanged; tests verify this against schedule-enumeration
    oracles."""
    out = LinearRtef()
    for step in seq:
        out = _splice(out, LinearRtef((step,)))
    return out


@dataclass(frozen=True)
class Rtef:
    """A finite supremum of staircase components, kept sorted by their
    atoms and duplicate free; the empty supremum is the all-bottom
    function."""

    components: tuple[LinearRtef, ...] = ()

    def __post_init__(self):
        comps = self.components
        if not all(a.atoms < b.atoms for a, b in zip(comps, comps[1:])):
            raise ValueError("components must be sorted and unique; use Rtef.of()")

    @staticmethod
    def of(components: Iterable[LinearRtef]) -> "Rtef":
        return Rtef(tuple(sorted(set(components), key=lambda c: c.atoms)))

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
        return _eval_cells([component_cells(c) for c in self.components], x, t)

    def compose(self, other: "Rtef") -> "Rtef":
        """Sequential composition: split the time budget optimally."""
        if len(self.components) == len(other.components) == 1:
            # one component is already sorted, unique and pruned
            return Rtef((_splice(self.components[0], other.components[0]),))
        comps = [_splice(a, b) for a in self.components for b in other.components]
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
        comps = sorted(left | right, key=lambda c: c.atoms)
        side = [(c in left) | (c in right) << 1 for c in comps]
        return Rtef(_undominated(comps, side))

    def prune(self) -> "Rtef":
        """Drop every component pointwise dominated by another.

        Component c goes when some other d has c <= d and either d comes
        first in sort order or d <= c fails; of mutually equivalent
        components the first in sort order stays.  The result has no
        component below another, which is what ``sup`` relies on.  The
        rule only asks whether such a d exists, so ``_undominated`` tries
        the candidates in tail order and stops at the first whose final
        rate and price sort below c's.
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


def _tail(c: LinearRtef) -> tuple[Rational, Rational]:
    """Final rate and price; the identity counts as (0, 0)."""
    if not c.atoms:
        return 0, 0
    last = c.atoms[-1]
    return last.rate, last.price


def _atom_leq(c: LinearRtef, d: LinearRtef) -> Optional[bool]:
    """Whether c <= d, for a pair that passed the tail test (c's final rate
    and price at most d's), decided from the atoms where that is cheap:
    True or False when decided, None when only ``leq_linear`` can tell.

    With neither side the identity, c has rates r_1..r_n, bounds
    b_1..b_n and price p, and d has r'_1..r'_m, b'_1..b'_m and p'.  Three
    rules decide most such pairs in O(n + m):

    1. Reject if b'_m > b_n: at t = 0 and x = b_n, c is b_n + p and d,
       which would still have to climb, is bottom.
    2. Reject if r'_1 = 0 and b'_1 > (b_1 if r_1 = 0 else 0): d is bottom
       below b'_1 at every t, and c is defined at x = b_1 (or x = 0) once t
       is large, since its later rates are positive.
    3. Accept if each atom j of d climbs at least as fast as the first atom
       i of c with b_i >= b'_j (rule 1 says there is one): r'_j >= r_i.
       The greedy schedule climbs level y at the rate of the first atom
       whose bound exceeds y.  For y < b'_m, with j that atom of d, the one
       of c comes no later than i, as b_i >= b'_j > y, and rates increase;
       so d climbs every level below b'_m at least as fast as c, and where
       d meets a zero-rate step so does c.  Hence d's total wait W_d(x) is
       at most c's W_c(x), and d is defined wherever c is.
       For t >= W_c(x), c still spends T >= D / r_n on the D = max(x, b_n)
       - max(x, b'_m) levels d no longer climbs, so
       r'_m (t - W_d) >= r_n (t - W_c) + r_n T >= r_n (t - W_c) + D, and
       d = max(x, b'_m) + r'_m (t - W_d) + p' >= max(x, b_n)
       + r_n (t - W_c) + p = c.  At t = inf both are suprema over finite t.

    With one atom on each side, rules 1 and 3 are exact: c <= d iff the
    tail test holds and b' <= b.  Every other pair is left open.
    """
    cs, ds = c.atoms, d.atoms
    if not cs or not ds:
        return None
    if ds[-1].bound > cs[-1].bound:
        return False
    if ds[0].rate == 0 and ds[0].bound > (cs[0].bound if cs[0].rate == 0 else 0):
        return False
    i = 0
    for rate, _, bound in ds:
        while cs[i].bound < bound:
            i += 1
        if rate < cs[i].rate:
            return None
    return True


def _leq(c: LinearRtef, d: LinearRtef) -> bool:
    """``leq_linear(c, d)``, walked only where the tail test and
    ``_atom_leq`` leave it open.

    Above every bound and at t = 0, c is x + price; as t grows it gains
    rate per unit.  So c <= d needs c's final rate and price to be at most
    d's, a tail test that rejects most pairs without the cached comparison.
    """
    rc, pc = _tail(c)
    rd, pd = _tail(d)
    if not (rc <= rd and pc <= pd):
        return False
    holds = _atom_leq(c, d)
    return leq_linear(c, d) if holds is None else holds


def _undominated(comps, side=None) -> tuple[LinearRtef, ...]:
    """The components of the sorted, duplicate-free ``comps`` that survive
    ``Rtef.prune``'s rule: c goes iff some other d has c <= d and either d
    comes first in sort order or d <= c fails.  ``side`` restricts the
    comparisons to pairs whose bit masks are disjoint (``sup``: 1 left only,
    2 right only, 3 both); without it every pair is compared.

    The rule asks only whether such a d exists, so the candidates for each
    c may be tried in any order.  They are tried in tail order: ranked once
    by (final rate, final price), descending.  c <= d needs d's tail to be
    at least c's in both parts (``_leq``'s tail test), so the scan of c
    stops at the first candidate whose tail sorts below c's, a lower final
    rate or the same rate and a lower price: no later one passes the test.
    c is kept unless a candidate before that dominates it.  A candidate
    with a lower price is skipped; the others are decided by
    ``_atom_leq``, and the pairs it leaves open are walked
    (``leq_linear``) only after the scan, and only when no candidate was
    proven to dominate c.  Two components have nothing to rank and take
    one direct check.
    """
    if len(comps) == 2:
        c, d = comps
        if side and side[0] & side[1]:
            return tuple(comps)
        # d goes if d <= c, as c sorts first; else c goes if c <= d
        if _leq(d, c):
            return (c,)
        return (d,) if _leq(c, d) else tuple(comps)
    tails = [_tail(c) for c in comps]
    rank = sorted(range(len(comps)), key=tails.__getitem__, reverse=True)

    def dominated(i: int, c: LinearRtef) -> bool:
        tail = tails[i]
        price = tail[1]
        walks = []
        for j in rank:
            if tails[j] < tail:
                break
            if tails[j][1] < price or j == i or side and side[i] & side[j]:
                continue
            d = comps[j]
            holds = _atom_leq(c, d)
            if holds is None:
                walks.append(j)
            elif holds and (j < i or not _leq(d, c)):
                return True
        for j in walks:
            if leq_linear(c, comps[j]) and (j < i or not _leq(comps[j], c)):
                return True
        return False

    return tuple([c for i, c in enumerate(comps) if not dominated(i, c)])


# ---------------------------------------------------------------------------
# Cell decomposition: per x-strip affine data used by the order decision, by
# evaluation and by the region exporter.

class Cell(NamedTuple):
    """One vertical strip of a component's domain.

    For x in [lo, hi): defined where t >= max(0, wait_x*x + wait_c), there
    evaluating to value_t*t + value_x*x + value_c.  Strips below an
    unreachable first threshold are marked infeasible.

    The affine data is held once, in integers: ``ints`` is a common
    denominator d > 0, then the numerators over d of wait_x, wait_c,
    value_t, value_x and value_c, reduced by their gcd, so equal data gives
    equal ``ints``.  The five coefficients are read-only ``Fraction``
    properties, computed from ``ints`` on each read, for callers; the
    library itself reads ``ints``.  Equality, hashing and the repr see the
    four fields only.
    """

    lo: Rational
    hi: Optional[Rational]
    feasible: bool
    ints: tuple[int, ...] = (1, 0, 0, 0, 0, 0)

    wait_x = property(lambda self: Fraction(self.ints[1], self.ints[0]))
    wait_c = property(lambda self: Fraction(self.ints[2], self.ints[0]))
    value_t = property(lambda self: Fraction(self.ints[3], self.ints[0]))
    value_x = property(lambda self: Fraction(self.ints[4], self.ints[0]))
    value_c = property(lambda self: Fraction(self.ints[5], self.ints[0]))


def _reduced(*ints: int) -> tuple[int, ...]:
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


_IDENTITY_CELLS = (Cell(0, None, True, (1, 0, 0, 0, 1, 0)),)


@lru_cache(maxsize=COMPONENT_CELLS_CACHE_SIZE)
def component_cells(l: LinearRtef) -> tuple[Cell, ...]:
    """The strips of ``l`` from x = 0 up, one per bound, built in integers.

    Below bound j a feasible cell waits (b_j - x)/r_j + climb_j, where
    climb_j is the sum of (b_k - b_(k-1))/r_k over the later steps k, and
    then earns at the final rate rn: value rn*t + (rn/r_j)*x + bn + price -
    rn*wait_c.  With the bounds and the price scaled by s, the lcm of their
    denominators, and each rate written p/q, the cell of bound j has the
    common denominator s * lcm(p_j, ..., p_last) * q_last.  The walk runs
    from the last step down, so that lcm grows one rate at a time, and the
    climb is carried as its numerator over s times that lcm.  No
    ``Fraction`` is built.
    """
    if not l.atoms:
        return _IDENTITY_CELLS
    atoms = l.atoms
    last = atoms[-1]
    s = math.lcm(last.price.denominator, *(a.bound.denominator for a in atoms))
    bs = [a.bound.numerator * (s // a.bound.denominator) for a in atoms]
    price = last.price.numerator * (s // last.price.denominator)
    pn, qn = last.rate.numerator, last.rate.denominator
    cells = [Cell(last.bound, None, True, _reduced(s * qn, 0, 0, pn * s, s * qn, price * qn))]
    span, climb = 1, 0  # lcm(p_j, ..., p_last) and s * span * climb_j
    for j in range(len(atoms) - 1, -1, -1):
        lo = atoms[j - 1].bound if j else 0
        hi = atoms[j].bound
        p, q = atoms[j].rate.numerator, atoms[j].rate.denominator
        if p == 0:  # only a first step can earn nothing: unreachable from below
            if lo != hi:
                cells.append(Cell(lo, hi, False))
            break
        grown = math.lcm(span, p)
        climb *= grown // span
        if j + 1 < len(atoms):
            nxt = atoms[j + 1].rate
            climb += (bs[j + 1] - bs[j]) * nxt.denominator * (grown // nxt.numerator)
        span = grown
        if lo == hi:
            continue
        k = span // p
        wc = bs[j] * q * k + climb  # wait_c * s * span
        cells.append(
            Cell(
                lo,
                hi,
                True,
                _reduced(
                    s * span * qn,
                    -q * k * s * qn,
                    wc * qn,
                    pn * s * span,
                    pn * q * k * s,
                    (bs[-1] + price) * span * qn - pn * wc,
                ),
            )
        )
    return tuple(reversed(cells))


def _eval_cells(tables, x: Energy, t: Time) -> Energy:
    """The best value over the cell lists ``tables`` (one per component) at
    (x, t), read in integers.

    With x = p/q, the cell holding x is the first whose right edge lies
    above it, as the cells cover [0, inf) in order.  With t = u/v and the
    cell's ``ints`` (d, wx, wc, vt, vx, vc), t meets the wait iff
    u*d*q >= (wx*p + wc*q)*v, and the value is
    (vt*u*q + (vx*p + vc*q)*v) / (d*q*v); at t = inf it is infinity if
    vt > 0, else (vx*p + vc*q) / (d*q).  The best value is kept as a
    numerator over a positive denominator (den 0: none yet) and compared by
    cross-multiplication, so only the answer becomes a ``Fraction``.
    """
    if x.is_bottom or not tables:
        return BOTTOM
    if x.is_infinite:
        return INFINITY
    p, q = x.value.numerator, x.value.denominator
    endless = t.value is None
    if not endless:
        u, v = t.value.numerator, t.value.denominator
    num = den = 0
    for cells in tables:
        for c in cells:
            hi = c.hi
            if hi is None or p * hi.denominator < hi.numerator * q:
                break
        if not c.feasible:
            continue
        d, wx, wc, vt, vx, vc = c.ints
        if endless:
            if vt > 0:
                return INFINITY
            n, m = vx * p + vc * q, d * q
        elif u * d * q < (wx * p + wc * q) * v:
            continue
        else:
            n, m = vt * u * q + (vx * p + vc * q) * v, d * q * v
        if not den or n * den > num * m:
            num, den = n, m
    return Energy.of(Fraction(num, den)) if den else BOTTOM


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
        lo = 0
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
# The strips come from a merged walk over the cell lists of both sides: two
# cursors in ``leq_linear``, one per component in ``_strips`` for
# ``order_witness``.  The endpoint checks that settle most strips without a
# linear system (``_covers``) are integer sign tests: each cell carries its
# affine data as numerators over a common denominator (``Cell.ints``).

def _covers(g: Cell, f: Cell, lo: Rational, hi: Optional[Rational]) -> bool:
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
    does not cover f on a strip loses to it somewhere there.

    One cursor walks each cell list; a strip ends at the nearer right edge
    of the two current cells, and the first strip where f is defined and
    not covered decides."""
    fcells, gcells = component_cells(lhs), component_cells(rhs)
    i = j = 0
    lo = 0
    while True:
        fc, gc = fcells[i], gcells[j]
        fhi, ghi = fc.hi, gc.hi
        hi = fhi if ghi is None or (fhi is not None and fhi < ghi) else ghi
        if fc.feasible and not _covers(gc, fc, lo, hi):
            return False
        if hi is None:
            return True
        i += fhi == hi
        j += ghi == hi
        lo = hi


def _violation_point(
    fc: Cell, gcells: list[Cell], lo: Rational, hi: Optional[Rational]
) -> Optional[tuple[Fraction, Fraction]]:
    """A point of the strip where f is defined and beats every g, or None.

    Each g is undefined below its feasibility line t = wait_g(x).  The strip
    is cut further where two of these lines cross; on each piece they are
    totally ordered, so the cells defined at height t are a prefix of that
    order.  One system per prefix length k then decides the piece: the first
    k cells lie strictly below f and t stays below the (k+1)-th line, where
    every later cell is still undefined.  The systems of a piece share all
    but their last row, so one ``Elimination`` grows by a "below" row per
    k and each system folds in its one "undefined" row on top: O(m) per
    system, O(m^2) per piece for m cells of g, where solving each system
    afresh took O(m^3).  Once the shared rows have no point, no later
    system of the piece has one, and the sweep goes to the next piece.

    The strip's right edge is excluded: a violation exactly there reappears
    in the next strip with that strip's (correct) cell data, while here the
    edge may sit on a feasibility jump of some g.  Inner cuts are closed on
    both sides, where the order of the lines still holds by continuity.

    Everything runs in integers: each constraint is built from the cells'
    ``ints`` multiplied through by their positive denominators, and a cut
    p/q enters as q*x - p.  The crossings are tested against the strip in
    integers; only those inside it become ``Fraction`` cuts, and only the
    point returned is built from quotients.
    """
    df, fwx, fwc, fvt, fvx, fvc = fc.ints
    gs = [gc.ints for gc in gcells]
    lo_p, lo_q = lo.numerator, lo.denominator
    if hi is not None:
        hi_p, hi_q = hi.numerator, hi.denominator
    crossings = set()  # x = num/den where two feasibility lines cross, inside the strip
    for u, v in itertools.combinations(gs, 2):
        du, uwx, uwc = u[0], u[1], u[2]
        dv, vwx, vwc = v[0], v[1], v[2]
        num, den = vwc * du - uwc * dv, uwx * dv - vwx * du
        if den < 0:
            num, den = -num, -den
        if den and lo_p * den < num * lo_q and (hi is None or num * hi_q < hi_p * den):
            crossings.add(Fraction(num, den))
    cuts = [lo, *sorted(crossings), hi]
    common = math.lcm(*(g[0] for g in gs))
    f_cons = [
        Constraint(0, 1, 0),
        Constraint(-fwx, df, -fwc),  # t >= wait_f(x)
    ]
    for a, b in zip(cuts, cuts[1:]):
        elim = Elimination(f_cons)
        elim.add(Constraint(a.denominator, 0, -a.numerator))
        # a point mp/mq inside the piece: one past a, or the midpoint
        if b is None:
            mp, mq = a.numerator + a.denominator, a.denominator
        else:
            elim.add(Constraint(-b.denominator, 0, b.numerator, strict=b == hi))
            mp, mq = a.numerator * b.denominator + b.numerator * a.denominator, 2 * a.denominator * b.denominator
        # wait_g there, over the common denominator common * mq
        for dg, gwx, gwc, gvt, gvx, gvc in sorted(gs, key=lambda g: (g[1] * mp + g[2] * mq) * (common // g[0])):
            if elim.empty():
                break
            # t < wait_g(x): this cell and every later one undefined
            point = elim.point(Constraint(gwx, -dg, gwc, True))
            if point is not None:
                return point
            # this cell defined but strictly below f: value_g < value_f
            elim.add(Constraint(fvx * dg - gvx * df, fvt * dg - gvt * df, fvc * dg - gvc * df, True))
        else:
            point = elim.point()
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
