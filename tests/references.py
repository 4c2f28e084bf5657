"""Brute-force reference implementations for the test suite.

Nothing here sits on the decision path: these are independent baselines the
exact algebra and the ``.rtea`` reader are checked against, and the dense
matrix helpers they need.
The discretized ones are deliberate lower bounds; the schedule enumerator
and the label searches at unbounded time are exact.  The references
``rtenergy check --verify`` runs stay in ``rtenergy.oracles``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import NamedTuple, Optional, Sequence

from rtenergy.algebra import (
    Atom,
    BOTTOM,
    Cell,
    Energy,
    INFINITY,
    LinearRtef,
    Rtef,
    Time,
    _leq,
    _splice,
    _violation_point,
    component_cells,
)
from rtenergy.linear2d import Constraint, feasible_point
from rtenergy.matrix import RtefMatrix, mat_mul
from rtenergy.model import ModelError, RteaModel, Transition
from rtenergy.omega import OmegaVal, act, omega_of
from rtenergy.rational import NUMBER, Rational, rational

ZERO = Fraction(0)
ONE = Fraction(1)


class Coefficients(NamedTuple):
    """A cell's affine data as ``Fraction``s: defined where
    t >= wait_x*x + wait_c, and there value_t*t + value_x*x + value_c."""

    wait_x: Fraction
    wait_c: Fraction
    value_t: Fraction
    value_x: Fraction
    value_c: Fraction


def coefficients(c: Cell) -> Coefficients:
    """The five coefficients of ``c``, each a numerator of ``Cell.ints``
    over its common denominator."""
    d, *nums = c.ints
    return Coefficients(*(Fraction(n, d) for n in nums))


def identity(n: int) -> RtefMatrix:
    return RtefMatrix(n, tuple({i: Rtef.one()} for i in range(n)))


def zeros(n_rows: int, n_cols: int) -> RtefMatrix:
    return RtefMatrix(n_cols, tuple({} for _ in range(n_rows)))


def dense(m: RtefMatrix) -> tuple[tuple[Rtef, ...], ...]:
    """The grid of ``m``: every row in full, bottom where no entry is
    stored; ``RtefMatrix.of`` takes it back."""
    return tuple(tuple(row.get(j, Rtef.bottom()) for j in range(m.n_cols)) for row in m.succ)


def mat_sup(a: RtefMatrix, b: RtefMatrix) -> RtefMatrix:
    if (len(a.succ), a.n_cols) != (len(b.succ), b.n_cols):
        raise ValueError("dimension mismatch in matrix supremum")
    return RtefMatrix.of(
        [[x.sup(y) for x, y in zip(ra, rb)] for ra, rb in zip(dense(a), dense(b))]
    )


def mat_mul_dense(a: RtefMatrix, b: RtefMatrix) -> RtefMatrix:
    """The product by the triple loop over the grids, each sum folded into
    bottom: a reference for ``matrix.mat_mul``, which walks the successor
    maps."""
    if a.n_cols != len(b.succ):
        raise ValueError("dimension mismatch in matrix product")
    ga, gb = dense(a), dense(b)
    out = []
    for i in range(len(a.succ)):
        row = []
        for j in range(b.n_cols):
            acc = Rtef.bottom()
            for k in range(a.n_cols):
                acc = acc.sup(ga[i][k].compose(gb[k][j]))
            row.append(acc)
        out.append(row)
    return RtefMatrix.of(out)


def compose_split_oracle(l1: LinearRtef, l2: LinearRtef, x: Energy, t: Fraction, grid: int) -> Energy:
    """Best two-stage value over an even grid of budget splits.

    A lower bound on the composition; exact whenever the optimal split lies
    on the grid.
    """
    if grid <= 0:
        raise ValueError("grid must be positive")
    t = Fraction(t)
    best = BOTTOM
    for i in range(grid + 1):
        t1 = t * i / grid
        v = l2.eval(l1.eval(x, Time(t1)), Time(t - t1))
        if best < v:
            best = v
    return best


def normalize_two_pass(seq: Sequence[Atom]) -> LinearRtef:
    """Staircase form of an arbitrary step sequence in two passes: any step
    whose rate does not exceed its predecessor's is absorbed into the
    predecessor (left to right, to a fixpoint), then one sweep defers every
    price onto the final step.  The reference ``algebra._splice`` and
    ``normalize`` are checked against; it treats its input as an arbitrary
    sequence, so it does not rely on either operand being a staircase."""
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
        atoms[i] = Atom(a.rate, 0, a.bound)
        atoms[i + 1] = Atom(b.rate, a.price + b.price, max(a.bound, b.bound - a.price))
    return LinearRtef(tuple(atoms))


def greedy_eval(l: LinearRtef, x: Energy, t: Time) -> Energy:
    """``LinearRtef.eval`` spelled out step by step: wait the minimum at each
    step to meet its threshold, spend every leftover instant in the final
    (fastest) state; infinite time takes the supremum over finite budgets.
    The reference the integer strip reader is checked against."""
    if x.is_bottom:
        return BOTTOM
    if x.is_infinite:
        return INFINITY
    if not l.atoms:
        return x
    first = l.atoms[0]
    last = l.atoms[-1]
    if t.is_infinite:
        if first.rate == 0 and x.value < first.bound:
            return BOTTOM
        if last.rate > 0:
            return INFINITY
        return Energy.of(x.value + last.price)  # lone zero-rate step
    cur = x.value
    rem = t.value
    for a in l.atoms:
        if cur < a.bound:
            if a.rate == 0:
                return BOTTOM
            # exact even when both sides are ints, where / is a float
            wait = Fraction(a.bound - cur, a.rate)
            if wait > rem:
                return BOTTOM
            cur = a.bound
            rem -= wait
    return Energy.of(cur + last.rate * rem + last.price)


def greedy_wait(l: LinearRtef, x: Fraction) -> Optional[Fraction]:
    """The total wait of the greedy schedule from level x: the least t at
    which ``greedy_eval`` is not bottom, or None when a zero-rate step lies
    above x."""
    cur, total = x, ZERO
    for a in l.atoms:
        if cur < a.bound:
            if a.rate == 0:
                return None
            total += Fraction(a.bound - cur, a.rate)
            cur = a.bound
    return total


def piece_json_fractions(c: Cell) -> dict:
    """``regions.piece_json`` printed from the cell's ``Fraction``
    coefficients, each by ``str``."""
    out = {
        "x_low": str(c.lo),
        "x_high": "inf" if c.hi is None else str(c.hi),
    }
    if not c.feasible:
        out["infeasible"] = True
        return out
    k = coefficients(c)
    out["boundary"] = {
        "slope": str(k.wait_x),
        "t_at_x_low": str(k.wait_x * c.lo + k.wait_c),
    }
    out["value"] = {
        "t": str(k.value_t),
        "x": str(k.value_x),
        "c": str(k.value_c),
    }
    return out


def function_json_fractions(f: Rtef) -> dict:
    """``regions.function_json`` read through the ``Fraction`` coefficients
    of the cells: the last two strips of a component merge when their values
    are equal as ``Fraction``s, and each piece is ``piece_json_fractions``."""
    comps = []
    for l in f.components:
        cells = component_cells(l)
        if len(cells) >= 2:
            a, b = cells[-2:]
            if a.feasible and b.feasible and coefficients(a)[2:] == coefficients(b)[2:]:
                cells = cells[:-2] + (a._replace(hi=None),)
        comps.append(
            {
                "atoms": [[str(a.rate), str(a.price), str(a.bound)] for a in l.atoms],
                "pieces": [piece_json_fractions(c) for c in cells],
            }
        )
    return {"components": comps}


def exact_schedule_value(atoms: Sequence[Atom], x: Fraction, t: Fraction) -> Energy:
    """Exact optimum over all delay assignments for one step sequence.

    Solves the schedule polytope by vertex enumeration (the polytope is
    bounded, so the linear objective peaks at a vertex).  Works on raw,
    un-normalized sequences and is independent of the greedy evaluator.
    """
    x, t = Fraction(x), Fraction(t)
    n = len(atoms)
    if n == 0:
        return Energy.of(x)
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []  # a . w >= c
    for i in range(n):
        unit = tuple(Fraction(int(j == i)) for j in range(n))
        rows.append((unit, ZERO))
    rows.append((tuple(Fraction(-1) for _ in range(n)), -t))
    paid = ZERO
    for i, a in enumerate(atoms):
        # Fraction rates: _solve_square divides, and int / int is a float
        coeffs = tuple(Fraction(atoms[j].rate) if j <= i else ZERO for j in range(n))
        rows.append((coeffs, a.bound - x - paid))
        paid += a.price
    best: Optional[Fraction] = None
    for picks in itertools.combinations(range(len(rows)), n):
        point = _solve_square([rows[i][0] for i in picks], [rows[i][1] for i in picks])
        if point is None:
            continue
        if all(sum(c * w for c, w in zip(coeffs, point)) >= rhs for coeffs, rhs in rows):
            gain = sum(a.rate * w for a, w in zip(atoms, point))
            if best is None or gain > best:
                best = gain
    if best is None:
        return BOTTOM
    return Energy.of(x + best + paid)


def _solve_square(mat: list[tuple[Fraction, ...]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    n = len(rhs)
    a = [list(row) + [v] for row, v in zip(mat, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def truncated_path_sum(m: RtefMatrix, max_length: int) -> RtefMatrix:
    """Supremum of all path products up to ``max_length`` steps (plus the
    identity), accumulated by repeated multiplication; a lower bound on the
    closure that matches it once powers stabilize.

    One unchanged accumulation step implies all longer paths are dominated
    (acc*M <= acc from then on), so the loop may stop early without changing
    the result.
    """
    acc = identity(m.dim())
    power = acc
    for _ in range(max_length):
        power = mat_mul(power, m)
        grown = mat_sup(acc, power)
        if grown == acc:
            break
        acc = grown
    return acc


def star_subsets(f: Rtef) -> Rtef:
    """Closure of ``f`` as the supremum of the compositions of every
    rate-ordered subset of its non-identity components.

    Makes 2^k - 1 ``normalize_two_pass`` calls for k components and prunes
    only once at the end; the reference ``Rtef.star`` is checked against.
    """
    loops = sorted(
        (c for c in f.components if c.atoms),
        key=lambda c: c.atoms[-1].rate,
    )
    comps = [LinearRtef()]
    for r in range(1, len(loops) + 1):
        for pick in itertools.combinations(loops, r):
            comps.append(normalize_two_pass(tuple(a for c in pick for a in c.atoms)))
    return Rtef.of(comps).prune()


def undominated_all_pairs(comps) -> tuple[LinearRtef, ...]:
    """``algebra._undominated`` as an all-pairs scan: each component is
    compared with every other in sort order, each pair through ``_leq``
    in full, and the first dominator found ends its scan.  The reference
    the tail-order scan is checked against."""
    keep = []
    for i, c in enumerate(comps):
        for j, d in enumerate(comps):
            if j == i:
                continue
            if _leq(c, d) and (j < i or not _leq(d, c)):
                break
        else:
            keep.append(c)
    return tuple(keep)


def rtef_of_hashed(components) -> Rtef:
    """The former ``Rtef.of``: a set drops equal components, then a sort by
    atoms orders the rest.  It, ``sup_two_step`` and ``compose_two_step``
    are the former kernel, which built each result twice; the one-step
    builder is checked against them."""
    return Rtef(tuple(sorted(set(components), key=lambda c: c.atoms)))


def sup_two_step(f: Rtef, g: Rtef) -> Rtef:
    """The former ``Rtef.sup``: one value for the union, one for its prune."""
    return rtef_of_hashed(f.components + g.components).prune()


def compose_two_step(f: Rtef, g: Rtef) -> Rtef:
    """The former ``Rtef.compose``: every splice, then the two steps of
    ``sup_two_step``; one component on each side is taken as it is."""
    if len(f.components) == len(g.components) == 1:
        return Rtef((_splice(f.components[0], g.components[0]),))
    return rtef_of_hashed([_splice(a, b) for a in f.components for b in g.components]).prune()


def feasible_point_fractions(constraints: Sequence[Constraint]) -> Optional[tuple[Fraction, Fraction]]:
    """``linear2d.feasible_point`` with every bound divided out as a
    ``Fraction``: Fourier-Motzkin elimination of t, then the x interval,
    then t at that x.  The reference the division-free solver is checked
    against; it picks the same point."""
    lows = [cn for cn in constraints if cn.b > 0]
    highs = [cn for cn in constraints if cn.b < 0]
    x_only = [cn for cn in constraints if cn.b == 0]
    for lo in lows:
        for hi in highs:
            x_only.append(
                Constraint(lo.b * hi.a - hi.b * lo.a, ZERO, lo.b * hi.c - hi.b * lo.c, lo.strict or hi.strict)
            )
    x = _interval_pick_fractions(x_only)
    if x is None:
        return None
    t = _interval_pick_fractions([Constraint(cn.b, ZERO, cn.a * x + cn.c, cn.strict) for cn in lows + highs])
    if t is None:
        return None
    return x, t


def _interval_pick_fractions(constraints: list[Constraint]) -> Optional[Fraction]:
    """A point of the one-variable system a*v + c >= 0, or None."""
    low: Optional[Fraction] = None
    low_strict = False
    high: Optional[Fraction] = None
    high_strict = False
    for cn in constraints:
        if cn.a == 0:
            if cn.c < 0 or (cn.strict and cn.c == 0):
                return None
            continue
        v = Fraction(-cn.c) / cn.a
        if cn.a > 0:  # v >= bound
            if low is None or v > low:
                low, low_strict = v, cn.strict
            elif v == low and cn.strict:
                low_strict = True
        else:  # v <= bound
            if high is None or v < high:
                high, high_strict = v, cn.strict
            elif v == high and cn.strict:
                high_strict = True
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


def violation_point_subsets(
    fc: Cell, gcells: list[Cell], lo: Fraction, hi: Optional[Fraction]
) -> Optional[tuple[Fraction, Fraction]]:
    """A point of the strip [lo, hi) where f is defined and beats every g,
    or None, by trying every subset of the g cells as the undefined ones.

    Makes up to 2^m ``feasible_point`` calls for m cells; the reference the
    line sweep in ``algebra._violation_point`` is checked against.
    """
    fk = coefficients(fc)
    base = [
        Constraint(ONE, ZERO, -lo),
        Constraint(ZERO, ONE, ZERO),
        Constraint(-fk.wait_x, ONE, -fk.wait_c),
    ]
    if hi is not None:
        base.append(Constraint(-ONE, ZERO, hi, strict=True))
    for picks in itertools.product((False, True), repeat=len(gcells)):
        cons = list(base)
        for gk, too_early in zip(map(coefficients, gcells), picks):
            if too_early:
                # below g's feasibility boundary: t < wait_g(x)
                cons.append(Constraint(gk.wait_x, -ONE, gk.wait_c, strict=True))
            else:
                # g defined but strictly below f: value_g < value_f
                cons.append(
                    Constraint(
                        fk.value_x - gk.value_x,
                        fk.value_t - gk.value_t,
                        fk.value_c - gk.value_c,
                        strict=True,
                    )
                )
        point = feasible_point(cons)
        if point is not None:
            return point
    return None


def _active_cell(cells: tuple[Cell, ...], x: Fraction) -> Cell:
    for c in cells:
        if c.lo <= x and (c.hi is None or x < c.hi):
            return c
    raise AssertionError("cells cover [0, inf)")


def cells_eval_fractions(cells: tuple[Cell, ...], x: Energy, t: Time) -> Energy:
    """One component's value at (x, t) read off its strip table in
    ``Fraction``s: the cell holding x, its wait wait_x*x + wait_c and its
    value value_t*t + value_x*x + value_c (at t = inf, infinity when
    value_t > 0).  The reference the exported cells are read with."""
    if x.is_bottom:
        return BOTTOM
    if x.is_infinite:
        return INFINITY
    c = _active_cell(cells, x.value)
    if not c.feasible:
        return BOTTOM
    k = coefficients(c)
    if t.is_infinite:
        return INFINITY if k.value_t > 0 else Energy.of(k.value_x * x.value + k.value_c)
    if t.value < k.wait_x * x.value + k.wait_c:
        return BOTTOM
    return Energy.of(k.value_t * t.value + k.value_x * x.value + k.value_c)


def _strips_cut_set(fcomps, gcomps):
    """The strips of ``algebra._strips``, from a sorted cut set of every
    bound of both sides, each cell found by a scan of its component's list."""
    cuts = {ZERO}
    for l in (*fcomps, *gcomps):
        cuts.update(a.bound for a in l.atoms)
    cuts = sorted(cuts)
    spans = [*zip(cuts, cuts[1:]), (cuts[-1], None)]
    gcells = [component_cells(g) for g in gcomps]
    for f in fcomps:
        fcells = component_cells(f)
        for lo, hi in spans:
            fc = _active_cell(fcells, lo)
            if fc.feasible:
                active = [c for c in (_active_cell(cells, lo) for cells in gcells) if c.feasible]
                yield fc, active, lo, hi


def component_cells_fractions(l: LinearRtef) -> tuple[tuple, ...]:
    """The strips of ``algebra.component_cells`` computed in ``Fraction``s,
    each as (lo, hi, feasible, coefficients, ints): the five coefficients
    wait_x, wait_c, value_t, value_x, value_c, and from them ``Cell.ints``
    over the lcm of their denominators.  The reference the integer walk is
    checked against."""
    if not l.atoms:
        cells = [(ZERO, None, True, (ZERO, ZERO, ZERO, ONE, ZERO))]
    else:
        atoms = l.atoms
        n = len(atoms)
        rn, bn, price = (Fraction(v) for v in (atoms[-1].rate, atoms[-1].bound, atoms[-1].price))
        bounds = [Fraction(a.bound) for a in atoms]
        rates = [Fraction(a.rate) for a in atoms]
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
                cells.append((lo, None, True, (ZERO, ZERO, rn, ONE, price)))
            elif rates[j] == 0:
                cells.append((lo, hi, False, (ZERO,) * 5))
            else:
                wx = -ONE / rates[j]
                wc = bounds[j] / rates[j] + climb[j]
                cells.append((lo, hi, True, (wx, wc, rn, -rn * wx, bn + price - rn * wc)))
    out = []
    for lo, hi, feasible, coeffs in cells:
        d = math.lcm(*(q.denominator for q in coeffs))
        out.append((lo, hi, feasible, coeffs, (d, *(q.numerator * (d // q.denominator) for q in coeffs))))
    return tuple(out)


def _covers_fractions(g: Cell, f: Cell, lo: Fraction, hi: Optional[Fraction]) -> bool:
    """``algebra._covers`` evaluated in ``Fraction``s at each endpoint."""
    if not g.feasible:
        return False
    fk, gk = coefficients(f), coefficients(g)
    if gk.value_t < fk.value_t:
        return False
    for x in (lo,) if hi is None else (lo, hi):
        tf = max(ZERO, fk.wait_x * x + fk.wait_c)
        tg = max(ZERO, gk.wait_x * x + gk.wait_c)
        if tg > tf:
            return False
        gap = (
            (gk.value_t - fk.value_t) * tf
            + (gk.value_x - fk.value_x) * x
            + (gk.value_c - fk.value_c)
        )
        if gap < 0:
            return False
    return True


def leq_linear_cut_set(lhs: LinearRtef, rhs: LinearRtef) -> bool:
    """``algebra.leq_linear`` on cut-set strips with ``Fraction`` endpoint
    checks, uncached; the reference the integer strip kernel is checked
    against."""
    return lhs == rhs or all(
        any(_covers_fractions(gc, fc, lo, hi) for gc in gcs)
        for fc, gcs, lo, hi in _strips_cut_set((lhs,), (rhs,))
    )


def order_witness_cut_set(f: Rtef, g: Rtef) -> Optional[tuple[Energy, Time]]:
    """``algebra.order_witness`` on cut-set strips with ``Fraction``
    endpoint checks; same strips in the same order, so the same witness."""
    shared = set(g.components)
    fcomps = [c for c in f.components if c not in shared]
    for fc, gcs, lo, hi in _strips_cut_set(fcomps, g.components):
        if any(_covers_fractions(gc, fc, lo, hi) for gc in gcs):
            continue
        point = _violation_point(fc, gcs, lo, hi)
        if point is not None:
            return (Energy.of(point[0]), Time(point[1]))
    return None


def _blocks(m: RtefMatrix, k: int):
    """The four blocks of ``m`` split after its first ``k`` rows and columns."""
    g = dense(m)
    return (
        RtefMatrix.of([r[:k] for r in g[:k]]),
        RtefMatrix.of([r[k:] for r in g[:k]]),
        RtefMatrix.of([r[:k] for r in g[k:]]),
        RtefMatrix.of([r[k:] for r in g[k:]]),
    )


def _assemble(tl: RtefMatrix, tr: RtefMatrix, bl: RtefMatrix, br: RtefMatrix) -> RtefMatrix:
    top = [ra + rb for ra, rb in zip(dense(tl), dense(tr))]
    bottom = [ra + rb for ra, rb in zip(dense(bl), dense(br))]
    return RtefMatrix.of(top + bottom)


def mat_star_blocks(m: RtefMatrix) -> RtefMatrix:
    """Reflexive-transitive closure by block recursion on the first row.

    With e = (a v b d* c)*, the closure is [[e, e b d*], [d* c e, d* v
    d* c e b d*]].  Recurses once per state; ``matrix.mat_star``, read off
    the elimination solver, is checked against it.
    """
    n = m.dim()
    if n == 1:
        return RtefMatrix.of([[dense(m)[0][0].star()]])
    a, b, c, d = _blocks(m, 1)
    dstar = mat_star_blocks(d)
    bds = mat_mul(b, dstar)
    estar = mat_star_blocks(mat_sup(a, mat_mul(bds, c)))
    tr = mat_mul(estar, bds)
    bl = mat_mul(mat_mul(dstar, c), estar)
    br = mat_sup(dstar, mat_mul(bl, bds))
    return _assemble(estar, tr, bl, br)


def min_degree_order(m: RtefMatrix, late: Sequence[bool]) -> list[int]:
    """Greedy minimum-degree elimination order, the Markowitz rule of sparse
    direct solvers, played on the sparsity pattern alone, on sets, before
    any function is composed: take, at each step, the live state with the
    least in-degree times out-degree, self-loops excluded, ties to the
    least index, a ``late`` state only once every state that is not late is
    gone.  A reference for the pivots ``matrix._factor`` picks from its own
    live maps.

    Each degree change pushes a fresh heap entry; an entry whose degree is
    no longer current is skipped when it comes up."""
    n = m.dim()
    outs = [set(row) for row in m.succ]
    ins = [set() for _ in range(n)]
    for i, row in enumerate(outs):
        row.discard(i)
        for j in row:
            ins[j].add(i)
    heap = [(late[p], len(ins[p]) * len(outs[p]), p) for p in range(n)]
    heapify(heap)
    order, gone = [], [False] * n
    while heap:
        _, key, p = heappop(heap)
        into, out = ins[p], outs[p]
        if gone[p] or key != len(into) * len(out):
            continue
        gone[p] = True
        order.append(p)
        for i in into:
            row = outs[i]
            row.discard(p)
            row |= out
            row.discard(i)
        for j in out:
            col = ins[j]
            col.discard(p)
            col |= into
            col.discard(j)
        for q in into | out:
            heappush(heap, (late[q], len(ins[q]) * len(outs[q]), q))
    return order


def _act_rows(m: RtefMatrix, vals: Sequence[OmegaVal]) -> tuple[OmegaVal, ...]:
    """Entry i is the supremum over j of m[i][j] acting on vals[j]."""
    out = []
    for row in dense(m):
        v = OmegaVal.false()
        for f, w in zip(row, vals):
            v = v.sup(act(f, w))
        out.append(v)
    return tuple(out)


def mat_omega_lasso(m: RtefMatrix, k: int) -> tuple[OmegaVal, ...]:
    """Per-state truth of visiting the first ``k`` states infinitely often.

    Eliminate the states after the first ``k`` into the significant block
    S = a v b d* c, take the lasso form on S: one closure S* plus one
    ``omega_of`` per accepting j, S^omega[i] = sup_j S*[i][j] .
    ((S S*)[j][j])^omega, and route the rest into it through d* c.  A
    reference for ``matrix.mat_omega_accepting``.
    """
    n = m.dim()
    if not 0 <= k <= n:
        raise ValueError("accepting count out of range")
    if k == 0:
        return (OmegaVal.false(),) * n
    if k == n:
        return _lasso_all_significant(m)
    a, b, c, d = _blocks(m, k)
    dstar = mat_star_blocks(d)
    head = _lasso_all_significant(mat_sup(a, mat_mul(mat_mul(b, dstar), c)))
    return (*head, *_act_rows(mat_mul(dstar, c), head))


def _lasso_all_significant(s: RtefMatrix) -> tuple[OmegaVal, ...]:
    # an endless run visits some state j infinitely often, so it is a path
    # to j followed by endless loops j -> j
    n = s.dim()
    sstar = mat_star_blocks(s)
    gs, gstar = dense(s), dense(sstar)
    loops = []
    for j in range(n):
        loop = Rtef.bottom()
        for l in range(n):
            loop = loop.sup(gs[j][l].compose(gstar[l][j]))
        loops.append(omega_of(loop))
    return _act_rows(sstar, loops)


def unbounded_labels(model: RteaModel, x0: Energy) -> dict[str, Energy]:
    """The greatest level at which a run from ``x0`` with unbounded time
    enters each state, for the states some run enters.

    A forward label search under the run semantics of Bouyer, Fahrenberg,
    Larsen, Markey and Srba (*Infinite runs in weighted timed automata with
    energy constraints*, FORMATS 2008).  Waiting in a positive-rate state
    earns without limit, so a jump out of one, or out of an infinite label,
    lands at infinity; out of a zero-rate state the jump needs the label to
    clear its bound and pays its price.  Prices are non-positive, so no
    cycle raises a finite label and the search ends.
    """
    rates = dict(model.states)
    labels = {model.initial: x0}
    queue = deque([model.initial])
    while queue:
        src = queue.popleft()
        level = labels[src]
        for tr in model.transitions:
            if tr.src != src:
                continue
            if level.is_infinite or rates[src] > 0:
                out = INFINITY
            elif level >= Energy.of(tr.bound):
                out = Energy.of(level.value + tr.price)
            else:
                continue
            if tr.dst not in labels or labels[tr.dst] < out:
                labels[tr.dst] = out
                queue.append(tr.dst)
    return labels


def unbounded_reach(model: RteaModel, x0: Energy) -> Energy:
    """The finite behavior at (x0, inf): the greatest label of an accepting
    state, or bottom when no run enters one."""
    labels = unbounded_labels(model, x0)
    return max((labels[a] for a in model.accepting if a in labels), default=BOTTOM)


def unbounded_buchi(model: RteaModel, x0: Energy) -> bool:
    """The Büchi behavior at (x0, inf): some entered accepting state ``a``
    shares a cycle with an entered positive-rate state, which recharges
    without limit, or lies on a cycle of price-0 transitions whose bounds
    ``a``'s label clears."""
    labels = unbounded_labels(model, x0)
    rates = dict(model.states)

    def after(src: str, keep) -> set[str]:
        # the states one or more kept transitions lead to from src
        seen: set[str] = set()
        frontier = [src]
        while frontier:
            cur = frontier.pop()
            for tr in model.transitions:
                if tr.src == cur and keep(tr) and tr.dst not in seen:
                    seen.add(tr.dst)
                    frontier.append(tr.dst)
        return seen

    reach = {s: after(s, lambda tr: True) for s in labels}
    for a in model.accepting:
        if a not in labels:
            continue
        if any(rates[p] > 0 and p in reach[a] and a in reach[p] for p in labels):
            return True
        if a in after(a, lambda tr: tr.price == 0 and labels[a] >= Energy.of(tr.bound)):
            return True
    return False


# The reader's token grammar, spelled out here on its own: the reference
# tokenizer must not share the pattern that ``parse_model``'s diagnostics
# are checked against.
_TOKEN = r"""\s*(?:\#[^\n]*\s*)*  # whitespace and comments in front of every token
    (?: (?P<num>""" + NUMBER + r""")
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>->|[{};])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )"""


def _position(text: str, off: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset ``off``."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


class _Parser:
    """Recursive descent over ``(kind, text, offset)`` tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # the whole text is tokenized first, so a bad character is reported
        # ahead of any grammar error in front of it; the parser stops at the
        # first "eof" (finditer repeats it after trailing whitespace)
        tokens = re.finditer(_TOKEN, text, re.VERBOSE)
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in tokens]
        bad = next((tok for tok in self.tokens if tok[0] == "bad"), None)
        if bad is not None:
            raise self.error("syntax", f"unexpected character {bad[1]!r}", bad[2])

    def error(self, code: str, message: str, off: int) -> ModelError:
        return ModelError(code, message, *_position(self.text, off))

    def take(self, kind: Optional[str] = None, text: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        if text is not None and tok[1] != text:
            raise self.error("syntax", f"expected {text!r}, found {tok[1]!r}", tok[2])
        if kind is not None and tok[0] != kind:
            what = "a name" if kind == "word" else "a number"
            raise self.error("syntax", f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos][1] != text:
            return False
        self.pos += 1
        return True

    def number(self) -> tuple[Rational, int]:
        _, text, off = self.take("num")
        try:
            return rational(text), off
        except (ValueError, ZeroDivisionError):
            raise self.error("syntax", f"bad number literal {text!r}", off) from None

    def parse(self) -> RteaModel:
        self.take(text="rtea")
        self.take(text="{")
        states: list[tuple[str, Rational]] = []
        seen: set[str] = set()
        initial: Optional[str] = None
        accepting: list[str] = []
        transitions: list[tuple[Transition, int]] = []  # with the source's offset
        while not self.accept("}"):
            kind, word, off = self.take()
            if word == "state":
                _, name, name_off = self.take("word")
                if name in seen:
                    raise self.error("duplicate-state", f"state {name!r} declared twice", name_off)
                seen.add(name)
                self.take(text="rate")
                rate, rate_off = self.number()
                if rate < 0:
                    raise self.error("negative-rate", f"state {name!r} has rate {rate}", rate_off)
                if self.accept("initial"):
                    if initial is not None:
                        raise self.error("multiple-initial", f"second initial state {name!r}", name_off)
                    initial = name
                if self.accept("accepting"):
                    accepting.append(name)
                self.take(text=";")
                states.append((name, rate))
            elif word == "trans":
                _, src, src_off = self.take("word")
                self.take(text="->")
                dst = self.take("word")[1]
                self.take(text="price")
                price, price_off = self.number()
                if price > 0:
                    raise self.error("positive-price", f"transition price {price} is positive", price_off)
                self.take(text="bound")
                bound, bound_off = self.number()
                if bound < -price:
                    raise self.error("bound-below-price", f"bound {bound} cannot cover price {price}", bound_off)
                self.take(text=";")
                transitions.append((Transition(src, price, bound, dst), src_off))
            elif kind == "word":
                raise self.error("syntax", f"expected 'state' or 'trans', found {word!r}", off)
            else:
                raise self.error("syntax", f"expected 'state', 'trans' or '}}', found {word!r}", off)
        kind, text, off = self.take()
        if kind != "eof":
            raise self.error("syntax", f"trailing input {text!r}", off)
        if initial is None:
            raise ModelError("missing-initial", "no state is marked initial")
        for tr, off in transitions:
            for endpoint in (tr.src, tr.dst):
                if endpoint not in seen:
                    raise self.error("undeclared-state", f"transition endpoint {endpoint!r} not declared", off)
        return RteaModel(tuple(states), initial, tuple(accepting), tuple(tr for tr, _ in transitions))


def token_parse_model(text: str) -> RteaModel:
    """``parse_model`` as a recursive descent over tokens: the same models,
    and the same first error with the same code, message and position.  A
    reference for the one-pass reader of ``rtenergy.model``."""
    return _Parser(text).parse()
