"""Matrix layer: z = M* . w v M^omega as one state-elimination factorization
of M and one solve per right-hand side: reach, Buchi, each closure column.

A matrix is its successor maps, the non-bottom entries of each row, and a
right-hand side the map of its states that are not false: an absent entry
is the zero, so every sum starts from its first term.  Each solve runs in
the least units in which every atom is an int (``_integer_units``) and
maps its answer back."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Sequence

from .algebra import Atom, LinearRtef, Rtef, checked_tuple
from .omega import OmegaVal, act, omega_of


class RtefMatrix(checked_tuple("RtefMatrix", "n_cols succ")):
    """A matrix of energy functions; products may be rectangular, automaton
    matrices are square.

    ``succ[i]`` is the map {j: M[i][j]} of the non-bottom entries of row i,
    and an absent j is bottom, so an automaton costs its transitions, not
    n^2; the maps are not to be mutated.  ``of`` builds one from a grid."""

    __slots__ = ()

    def __new__(cls, n_cols: int, succ: tuple[dict[int, Rtef], ...]):
        for row in succ:
            for j, f in row.items():
                if not 0 <= j < n_cols:
                    raise ValueError("column index out of range")
                if not f.components:
                    raise ValueError("bottom entry stored")
        return tuple.__new__(cls, (n_cols, succ))

    @staticmethod
    def of(rows) -> "RtefMatrix":
        rows = [tuple(r) for r in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        succ = tuple({j: f for j, f in enumerate(r) if f.components} for r in rows)
        return RtefMatrix(widths.pop() if widths else 0, succ)

    def dim(self) -> int:
        if len(self.succ) != self.n_cols:
            raise ValueError("square matrix required")
        return self.n_cols


def mat_mul(a: RtefMatrix, b: RtefMatrix) -> RtefMatrix:
    if a.n_cols != len(b.succ):
        raise ValueError("dimension mismatch in matrix product")
    out = []  # a product of entries that are not bottom is not bottom
    for row in a.succ:
        acc = {}
        for k, f in row.items():
            for j, g in b.succ[k].items():
                h = f.compose(g)
                acc[j] = acc[j].sup(h) if j in acc else h
        out.append(acc)
    return RtefMatrix(b.n_cols, tuple(out))


def _integer_units(m: RtefMatrix):
    """``m`` in the least units in which every atom is an ``int``, and the
    map of a solved value back to the given units.

    Scaling energy by e > 0 and time by 1/l is an order isomorphism of the
    functions: an atom (r, p, b) becomes (r*e*l, p*e, b*e), and every rule
    of the algebra compares and adds like quantities, so compose, sup,
    star, omega and ``act`` on the scaled functions are those on the given
    ones, scaled; a right-hand side of identities and false needs no
    scaling.  e is the lcm of the price and bound denominators, l that of
    the rate denominators.  A solve copies rates and never computes one, so
    each scaled rate maps back through the dict built here; prices, bounds
    and thresholds are divided by e.  When every atom holds ints already,
    ``m`` comes back unchanged with the identity map."""
    e = l = 1
    for row in m.succ:
        for f in row.values():
            for c in f.components:
                for r, p, b in c.atoms:
                    if type(r) is not int:
                        l = lcm(l, r.denominator)
                    if type(p) is not int:
                        e = lcm(e, p.denominator)
                    if type(b) is not int:
                        e = lcm(e, b.denominator)
    if e == l == 1:
        return m, _given
    el, rates = e * l, {}

    def up(v, unit):
        return v * unit if type(v) is int else v.numerator * (unit // v.denominator)

    def down(v):
        if e == 1:
            return v
        q, rem = divmod(v, e)
        return Fraction(v, e) if rem else q

    def scaled(c: LinearRtef) -> LinearRtef:
        atoms = []
        for r, p, b in c.atoms:
            rate = up(r, el)
            rates[rate] = r
            atoms.append(Atom(rate, up(p, e), up(b, e)))
        return LinearRtef(tuple(atoms))

    def given(c: LinearRtef) -> LinearRtef:
        return LinearRtef(tuple(Atom(rates[r], down(p), down(b)) for r, p, b in c.atoms))

    def back(v: OmegaVal) -> OmegaVal:
        support = Rtef(tuple(map(given, v.support.components)))
        return OmegaVal(support, None if v.threshold is None else down(v.threshold))

    succ = tuple({j: Rtef(tuple(map(scaled, f.components))) for j, f in row.items()} for row in m.succ)
    return RtefMatrix(m.n_cols, succ), back


def _given(v: OmegaVal) -> OmegaVal:
    return v


def _factor(m: RtefMatrix, late: Sequence, k: int) -> list[tuple]:
    """The half of solving z = M* . w v M^omega that never reads w, so one
    factorization serves every right-hand side, as LU does: state
    elimination of M on copies of the successor maps and on predecessor
    sets, both kept to the live states, so a pivot costs its in-degree
    times its out-degree.  When p goes, its self-loop l holds its loops
    through the states gone before it, and each live predecessor i folds
    m[i][p] . l* . m[p][j] into m[i][j].  Step p records l* (None without a
    loop), l^omega off that l* when p < k (None when it is false, as it is
    without a loop), p's row scaled by l*, and the pairs (i, m[i][p]).

    Each pivot is the live state with the least key (late[p], in-degree
    times out-degree, p), self-loops excluded from both degrees: the
    greedy minimum-degree order of sparse direct solvers, the Markowitz
    rule, read off the live pattern.  With boolean ``late`` flags a late
    state goes only once every state that is not late is gone; distinct
    ranks give that order outright.  Each degree change pushes a fresh
    heap entry; an entry whose degree is no longer current is skipped when
    it comes up."""
    # imported here, so that starting the command line does not load it
    from heapq import heapify, heappop, heappush

    succ = [dict(row) for row in m.succ]
    pred = [set() for _ in succ]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].add(i)

    def key(q):
        return late[q], (len(pred[q]) - (q in pred[q])) * (len(succ[q]) - (q in succ[q])), q

    heap = [key(q) for q in range(len(succ))]
    heapify(heap)
    steps, gone = [], [False] * len(succ)
    while heap:
        entry = heappop(heap)
        p = entry[2]
        if gone[p] or entry != key(p):
            continue
        gone[p] = True
        row = succ[p]
        loop = row.pop(p, None)
        pred[p].discard(p)
        for j in row:
            pred[j].discard(p)
        s = None if loop is None else loop.star()
        row = row if s is None else {j: s.compose(g) for j, g in row.items()}
        folds = [(i, succ[i].pop(p)) for i in pred[p]]
        for i, f in folds:
            for j, g in row.items():
                h = f.compose(g)
                succ[i][j] = succ[i][j].sup(h) if j in succ[i] else h
                pred[j].add(i)
        omega = omega_of(loop, s) if p < k and loop is not None else None
        steps.append((p, s, None if omega == OmegaVal.false() else omega, row, folds))
        for q in pred[p] | row.keys():
            heappush(heap, key(q))
    return steps


def _solve(steps: list[tuple], w: dict[int, OmegaVal], want: Sequence[int]) -> dict[int, OmegaVal]:
    """z = M* . w v M^omega, the omega part through the first k states, off
    the ``steps`` of ``_factor``, which it does not change; w and z map
    states to values, and an absent state is false.  Exact at the ``want``
    states, a lower bound elsewhere.  The forward pass sets
    v_p = l* . w[p], plus l^omega when p < k, which covers every run from p
    that stays among p and the states gone before it, and gains
    m[i][p] . v_p in w[i] for each recorded predecessor i.  A backward pass
    sets z_p = v_p v sup_j (l* . m[p][j]) . z_j over the scaled row, for the
    ``want`` states and the states they reach that way.  M* . w is exact in
    any order.  M^omega misses no run when, within each strongly connected
    component of M, the states p >= k go before the states p < k: the
    states a run visits infinitely often lie in one component, and from
    some point on the run stays among them; let j be the last-eliminated of
    them, so the run stays among j and the states gone before j.  If one of
    them is below k, so is j.  Every state p >= k before every state
    p < k, the order of ``mat_omega_accepting``, meets that in every
    component at once.  No closure is built and nothing recurses.
    """
    w = dict(w)
    for p, s, omega, _, folds in steps:
        if p in w and s is not None:
            w[p] = act(s, w[p])
        if omega is not None:
            w[p] = w[p].sup(omega) if p in w else omega
        if p in w:
            v = w[p]
            for i, f in folds:
                h = act(f, v)
                w[i] = w[i].sup(h) if i in w else h
    needed = set(want)
    for p, _, _, row, _ in steps:
        if p in needed:
            needed.update(row)
    for p, _, _, row, _ in reversed(steps):
        if p in needed:
            for j, g in row.items():
                if j in w:
                    h = act(g, w[j])
                    w[p] = w[p].sup(h) if p in w else h
    return w


def mat_star(m: RtefMatrix) -> RtefMatrix:
    """Reflexive-transitive closure, one factorization and one solve per
    column: column j is the map of the supports of M* . {j: goal}."""
    n = m.dim()
    m, back = _integer_units(m)
    steps = _factor(m, [False] * n, 0)
    cols = [_solve(steps, {j: OmegaVal(Rtef.one(), None)}, range(n)) for j in range(n)]
    return RtefMatrix(n, tuple({j: back(col[i]).support for j, col in enumerate(cols) if i in col} for i in range(n)))


def mat_omega_accepting(m: RtefMatrix, k: int) -> dict[int, OmegaVal]:
    """Per-state truth of visiting the first ``k`` states infinitely often,
    as ``_solve``'s map, where an absent state is false: one factorization
    in minimum-degree order with the accepting states held to the end,
    which keeps the rule of ``_solve`` without finding the strongly
    connected components."""
    n = m.dim()
    if not 0 <= k <= n:
        raise ValueError("accepting count out of range")
    m, back = _integer_units(m)
    return {i: back(v) for i, v in _solve(_factor(m, [p < k for p in range(n)], k), {}, range(n)).items()}


class AutomatonRep(checked_tuple("AutomatonRep", "alpha matrix accepting_count state_names")):
    """Matrix form of an automaton: initial flags, transition matrix, and the
    count of accepting states, which occupy the leading indices."""

    __slots__ = ()

    def __new__(
        cls, alpha: tuple[bool, ...], matrix: RtefMatrix, accepting_count: int, state_names: tuple[str, ...] = ()
    ):
        n = matrix.dim()
        if len(alpha) != n:
            raise ValueError("initial vector length mismatch")
        if not 0 <= accepting_count <= n:
            raise ValueError("accepting count out of range")
        if state_names and len(state_names) != n:
            raise ValueError("state name count mismatch")
        return tuple.__new__(cls, (alpha, matrix, accepting_count, state_names))


def _initial_sup(rep: AutomatonRep, late: Sequence[bool], k: int, w: dict[int, OmegaVal]) -> OmegaVal:
    """sup over the initial states i of z[i], z = M* . w v M^omega through
    the first ``k`` states: one factorization in minimum-degree order with
    the ``late`` states held to the end, one solve back-substituted only at
    the initial states, where ``_solve`` is exact."""
    initial = [i for i, start in enumerate(rep.alpha) if start]
    m, back = _integer_units(rep.matrix)
    z = _solve(_factor(m, late, k), w, initial)
    return back(reduce(OmegaVal.sup, [z[i] for i in initial if i in z] or [OmegaVal.false()]))


def finite_behavior(rep: AutomatonRep) -> Rtef:
    """Best finite run alpha . M* . kappa, solved from the goal backwards.

    The column y = M* kappa is ``_solve`` with w = kappa, the goal at each
    accepting state, and no omega part: without a threshold, ``act`` and
    ``OmegaVal.sup`` are ``compose`` and ``sup`` on the support.  The
    initial states are the late ones, so only they are back-substituted.
    """
    goal = OmegaVal(Rtef.one(), None)
    return _initial_sup(rep, rep.alpha, 0, dict.fromkeys(range(rep.accepting_count), goal)).support


def buchi_behavior(rep: AutomatonRep) -> OmegaVal:
    """Truth of an endless run visiting accepting states infinitely often:
    the factorization of ``mat_omega_accepting``, the accepting states late,
    solved with w = false everywhere, the empty map."""
    n, k = rep.matrix.dim(), rep.accepting_count
    return _initial_sup(rep, [p < k for p in range(n)], k, {})
