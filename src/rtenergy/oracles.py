"""Brute-force reference implementations for the test suite.

Nothing here sits on the decision path: these are independent baselines the
exact algebra is checked against.  The discretized ones are deliberate lower
bounds; the schedule enumerator is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Atom, BOTTOM, Cell, Energy, LinearRtef, Rtef, Time, _violation_point, component_cells, normalize
from .linear2d import Constraint, feasible_point
from .matrix import RtefMatrix, mat_mul, mat_sup
from .model import RteaModel
from .omega import OmegaVal, act, omega_of
from .regions import _active_cell

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class DpConfig:
    """Time grid for the dynamic program: ``delta * max_steps`` is the horizon."""

    delta: Fraction
    max_steps: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")


def _grid_best(model: RteaModel, x0: Fraction, delta: Fraction, steps: int):
    """Grid-delay exploration of the run relation.

    Returns two per-state maxima over the whole horizon: ``arrival`` levels
    (just after a jump into the state, or the start configuration; runs end
    on arrival, waiting afterwards earns nothing) and ``presence`` levels
    (including subsequent waiting, usable as the launch level of a later
    jump).
    """
    rates = dict(model.states)
    level: dict[str, Optional[Fraction]] = {n: None for n in rates}
    level[model.initial] = Fraction(x0)
    arrival = dict(level)
    presence = dict(level)
    for step in range(steps + 1):
        # close under zero-delay jumps; prices are non-positive, so simple
        # paths suffice and |S| relaxation rounds reach the fixpoint
        for _ in range(len(rates)):
            changed = False
            for tr in model.transitions:
                src = level[tr.src]
                if src is None or src < tr.bound:
                    continue
                out = src + tr.price
                if arrival[tr.dst] is None or arrival[tr.dst] < out:
                    arrival[tr.dst] = out
                if level[tr.dst] is None or level[tr.dst] < out:
                    level[tr.dst] = out
                    changed = True
            if not changed:
                break
        for name, val in level.items():
            if val is not None and (presence[name] is None or presence[name] < val):
                presence[name] = val
        if step < steps:
            level = {
                n: (None if v is None else v + rates[n] * delta)
                for n, v in level.items()
            }
    return arrival, presence


def dp_lower_bound(model: RteaModel, x0: Fraction, horizon: Fraction, cfg: DpConfig) -> Energy:
    """Discretized best final level at an accepting state.

    Delays are restricted to multiples of ``cfg.delta``, so the result never
    exceeds the exact behavior and converges to it as the grid refines.
    """
    if cfg.delta * cfg.max_steps != horizon:
        raise ValueError("delta * max_steps must equal the horizon")
    arrival, _ = _grid_best(model, Fraction(x0), cfg.delta, cfg.max_steps)
    out = BOTTOM
    for name in model.accepting:
        val = arrival[name]
        if val is not None and out < Energy.of(val):
            out = Energy.of(val)
    return out


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
        coeffs = tuple(atoms[j].rate if j <= i else ZERO for j in range(n))
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


def buchi_unroll(model: RteaModel, x0: Fraction, horizon: Fraction, repetitions: int) -> bool:
    """Semi-decision for endless accepting runs within a finite horizon.

    Searches grid-delay runs to an accepting state, then certifies endless
    repetition by a free (all prices zero) cycle whose bounds the reached
    level already clears; such a cycle repeats forever with zero delay.
    A True answer is definitive, False is inconclusive.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    horizon = Fraction(horizon)
    if horizon > 0:
        delta = horizon / repetitions
        steps = repetitions
    else:
        delta = Fraction(1)
        steps = 0
    _, presence = _grid_best(model, Fraction(x0), delta, steps)
    for name in model.accepting:
        level = presence[name]
        if level is not None and _free_cycle_at(model, name, level):
            return True
    return False


def _free_cycle_at(model: RteaModel, state: str, level: Fraction) -> bool:
    edges: dict[str, list[str]] = {}
    for tr in model.transitions:
        if tr.price == 0 and tr.bound <= level:
            edges.setdefault(tr.src, []).append(tr.dst)
    frontier = list(edges.get(state, ()))
    seen = set(frontier)
    while frontier:
        cur = frontier.pop()
        if cur == state:
            return True
        for nxt in edges.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def truncated_path_sum(m: RtefMatrix, max_length: int) -> RtefMatrix:
    """Supremum of all path products up to ``max_length`` steps (plus the
    identity), accumulated by repeated multiplication; a lower bound on the
    closure that matches it once powers stabilize.

    One unchanged accumulation step implies all longer paths are dominated
    (acc*M <= acc from then on), so the loop may stop early without changing
    the result.
    """
    acc = RtefMatrix.identity(m.dim())
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

    Makes 2^k - 1 ``normalize`` calls for k components and prunes only once
    at the end; the reference ``Rtef.star`` is checked against.
    """
    loops = sorted(
        (c for c in f.components if c.atoms),
        key=lambda c: c.atoms[-1].rate,
    )
    comps = [LinearRtef()]
    for r in range(1, len(loops) + 1):
        for pick in itertools.combinations(loops, r):
            comps.append(normalize(tuple(a for c in pick for a in c.atoms)))
    return Rtef.of(comps).prune()


def violation_point_subsets(
    fc: Cell, gcells: list[Cell], lo: Fraction, hi: Optional[Fraction]
) -> Optional[tuple[Fraction, Fraction]]:
    """A point of the strip [lo, hi) where f is defined and beats every g,
    or None, by trying every subset of the g cells as the undefined ones.

    Makes up to 2^m ``feasible_point`` calls for m cells; the reference the
    line sweep in ``algebra._violation_point`` is checked against.
    """
    base = [
        Constraint(ONE, ZERO, -lo),
        Constraint(ZERO, ONE, ZERO),
        Constraint(-fc.wait_x, ONE, -fc.wait_c),
    ]
    if hi is not None:
        base.append(Constraint(-ONE, ZERO, hi, strict=True))
    for picks in itertools.product((False, True), repeat=len(gcells)):
        cons = list(base)
        for gc, too_early in zip(gcells, picks):
            if too_early:
                # below g's feasibility boundary: t < wait_g(x)
                cons.append(Constraint(gc.wait_x, -ONE, gc.wait_c, strict=True))
            else:
                # g defined but strictly below f: value_g < value_f
                cons.append(
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


def _covers_fractions(g: Cell, f: Cell, lo: Fraction, hi: Optional[Fraction]) -> bool:
    """``algebra._covers`` evaluated in ``Fraction``s at each endpoint."""
    if not g.feasible or g.value_t < f.value_t:
        return False
    for x in (lo,) if hi is None else (lo, hi):
        tf = max(ZERO, f.wait_x * x + f.wait_c)
        tg = max(ZERO, g.wait_x * x + g.wait_c)
        if tg > tf:
            return False
        gap = (
            (g.value_t - f.value_t) * tf
            + (g.value_x - f.value_x) * x
            + (g.value_c - f.value_c)
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
    return (
        RtefMatrix.of([r[:k] for r in m.rows[:k]]),
        RtefMatrix.of([r[k:] for r in m.rows[:k]]),
        RtefMatrix.of([r[:k] for r in m.rows[k:]]),
        RtefMatrix.of([r[k:] for r in m.rows[k:]]),
    )


def _assemble(tl: RtefMatrix, tr: RtefMatrix, bl: RtefMatrix, br: RtefMatrix) -> RtefMatrix:
    top = [ra + rb for ra, rb in zip(tl.rows, tr.rows)]
    bottom = [ra + rb for ra, rb in zip(bl.rows, br.rows)]
    return RtefMatrix.of(top + bottom)


def mat_star_blocks(m: RtefMatrix) -> RtefMatrix:
    """Reflexive-transitive closure by block recursion on the first row.

    With e = (a v b d* c)*, the closure is [[e, e b d*], [d* c e, d* v
    d* c e b d*]].  Recurses once per state; ``matrix.mat_star``, read off
    the elimination solver, is checked against it.
    """
    n = m.dim()
    if n == 1:
        return RtefMatrix.of([[m.rows[0][0].star()]])
    a, b, c, d = _blocks(m, 1)
    dstar = mat_star_blocks(d)
    bds = mat_mul(b, dstar)
    estar = mat_star_blocks(mat_sup(a, mat_mul(bds, c)))
    tr = mat_mul(estar, bds)
    bl = mat_mul(mat_mul(dstar, c), estar)
    br = mat_sup(dstar, mat_mul(bl, bds))
    return _assemble(estar, tr, bl, br)


def _act_rows(m: RtefMatrix, vals: Sequence[OmegaVal]) -> tuple[OmegaVal, ...]:
    """Entry i is the supremum over j of m[i][j] acting on vals[j]."""
    out = []
    for row in m.rows:
        v = OmegaVal.false()
        for f, w in zip(row, vals):
            v = v.sup(act(f, w))
        out.append(v)
    return tuple(out)


def _significant(m: RtefMatrix, k: int, omega_all) -> tuple[OmegaVal, ...]:
    """Eliminate the states after the first ``k`` into the significant block
    S = a v b d* c, take ``omega_all`` of S, and route the rest into it
    through d* c."""
    n = m.dim()
    if not 0 <= k <= n:
        raise ValueError("accepting count out of range")
    if k == 0:
        return (OmegaVal.false(),) * n
    if k == n:
        return omega_all(m)
    a, b, c, d = _blocks(m, k)
    dstar = mat_star_blocks(d)
    head = omega_all(mat_sup(a, mat_mul(mat_mul(b, dstar), c)))
    return (*head, *_act_rows(mat_mul(dstar, c), head))


def mat_omega_lasso(m: RtefMatrix, k: int) -> tuple[OmegaVal, ...]:
    """Per-state truth of visiting the first ``k`` states infinitely often,
    by the lasso form on the significant block S: one closure S* plus one
    ``omega_of`` per accepting j, S^omega[i] = sup_j S*[i][j] .
    ((S S*)[j][j])^omega.  A reference for ``matrix.mat_omega_accepting``.
    """
    return _significant(m, k, _lasso_all_significant)


def _lasso_all_significant(s: RtefMatrix) -> tuple[OmegaVal, ...]:
    # an endless run visits some state j infinitely often, so it is a path
    # to j followed by endless loops j -> j
    n = s.dim()
    sstar = mat_star_blocks(s)
    loops = []
    for j in range(n):
        loop = Rtef.bottom()
        for l in range(n):
            loop = loop.sup(s.rows[j][l].compose(sstar.rows[l][j]))
        loops.append(omega_of(loop))
    return _act_rows(sstar, loops)


def mat_omega_recursive(m: RtefMatrix, k: int) -> tuple[OmegaVal, ...]:
    """Per-state truth of visiting the first ``k`` states infinitely often,
    by the first-row block recursion into both sub-blocks of the significant
    block.

    Makes 3 * 2^(k-1) - 2 ``omega_of`` calls; a reference for
    ``matrix.mat_omega_accepting``.
    """
    return _significant(m, k, _omega_all_significant)


def _omega_all_significant(m: RtefMatrix) -> tuple[OmegaVal, ...]:
    n = m.dim()
    if n == 1:
        return (omega_of(m.rows[0][0]),)
    a, b, c, d = _blocks(m, 1)
    a00 = a.rows[0][0]
    dstar = mat_star_blocks(d)
    bds = mat_mul(b, dstar)
    f = a00.sup(mat_mul(bds, c).rows[0][0])
    head = omega_of(f)
    frow = mat_mul(RtefMatrix.of([[f.star()]]), bds)
    for j, w in enumerate(_omega_all_significant(d)):
        head = head.sup(act(frow.rows[0][j], w))
    g = mat_sup(d, mat_mul(mat_mul(c, RtefMatrix.of([[a00.star()]])), b))
    gomega = _omega_all_significant(g)
    gcol = mat_mul(mat_star_blocks(g), c)
    a_omega = omega_of(a00)
    tail = tuple(
        gomega[i].sup(act(gcol.rows[i][0], a_omega)) for i in range(n - 1)
    )
    return (head, *tail)
