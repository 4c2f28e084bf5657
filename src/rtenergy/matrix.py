"""Matrix layer: z = M* . w v M^omega as one state-elimination factorization
of M and one solve per right-hand side: reach, Buchi, each closure column.

A matrix is stored as successor maps, the non-bottom entries of each row;
the dense grid of rows is built only when something asks for it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import Rtef
from .omega import OmegaVal, act, omega_of


@dataclass(frozen=True)
class RtefMatrix:
    """A matrix of energy functions; products may be rectangular, automaton
    matrices are square.

    ``succ[i]`` is the map {j: M[i][j]} of the non-bottom entries of row i,
    so an automaton costs its transitions, not n^2; the maps are not to be
    mutated.  ``rows``, the dense grid, is built on first access."""

    n_cols: int
    succ: tuple[dict[int, Rtef], ...]

    def __post_init__(self):
        for row in self.succ:
            for j, f in row.items():
                if not 0 <= j < self.n_cols:
                    raise ValueError("column index out of range")
                if not f.components:
                    raise ValueError("bottom entry stored")

    @staticmethod
    def of(rows) -> "RtefMatrix":
        rows = [tuple(r) for r in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        succ = tuple({j: f for j, f in enumerate(r) if f.components} for r in rows)
        return RtefMatrix(widths.pop() if widths else 0, succ)

    @cached_property
    def rows(self) -> tuple[tuple[Rtef, ...], ...]:
        bottom = Rtef.bottom()
        return tuple(tuple(row.get(j, bottom) for j in range(self.n_cols)) for row in self.succ)

    @property
    def n_rows(self) -> int:
        return len(self.succ)

    def dim(self) -> int:
        if self.n_rows != self.n_cols:
            raise ValueError("square matrix required")
        return self.n_rows


def mat_mul(a: RtefMatrix, b: RtefMatrix) -> RtefMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError("dimension mismatch in matrix product")
    out = []
    for i in range(a.n_rows):
        row = []
        for j in range(b.n_cols):
            acc = Rtef.bottom()
            for k in range(a.n_cols):
                acc = acc.sup(a.rows[i][k].compose(b.rows[k][j]))
            row.append(acc)
        out.append(row)
    return RtefMatrix.of(out)


def _order(m: RtefMatrix, late: Sequence[bool]) -> list[int]:
    """Greedy minimum-degree elimination order, the Markowitz rule of sparse
    direct solvers: play the elimination on the sparsity pattern alone and
    take, at each step, the live state with the least in-degree times
    out-degree, self-loops excluded, ties to the least index.  A ``late``
    state is taken only once every state that is not late is gone.

    Each degree change pushes a fresh heap entry; an entry whose degree is
    no longer current is skipped when it comes up."""
    # imported here, so that starting the command line does not load it
    from heapq import heapify, heappop, heappush

    n = m.dim()
    outs = [set(row) for row in m.succ]
    ins = [set() for _ in range(n)]
    for i, row in enumerate(outs):
        row.discard(i)
        for j in row:
            ins[j].add(i)
    early = sum(not is_late for is_late in late)
    heap = [(len(ins[p]) * len(outs[p]), p) for p in range(n) if not late[p] or not early]
    heapify(heap)
    order, gone = [], [False] * n
    while heap:
        key, p = heappop(heap)
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
        touched = into | out
        if not late[p]:
            early -= 1
            if not early:
                touched.update(q for q in range(n) if late[q])
        for q in touched:
            if not late[q] or not early:
                heappush(heap, (len(ins[q]) * len(outs[q]), q))
    return order


def _factor(m: RtefMatrix, order: list[int], k: int) -> list[tuple]:
    """The half of solving z = M* . w v M^omega that never reads w, so one
    factorization serves every right-hand side, as LU does: state
    elimination of M in ``order`` on copies of the successor maps and on
    predecessor sets, both kept to the live states, so a pivot costs its
    in-degree times its out-degree.  When p goes, its self-loop l holds its
    loops through the states gone before it, and each live predecessor i
    folds m[i][p] . l* . m[p][j] into m[i][j].  Step p records l* (None
    without a loop), l^omega off that l* when p < k, p's row scaled by l*,
    and the pairs (i, m[i][p])."""
    succ = [dict(row) for row in m.succ]
    pred = [set() for _ in succ]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].add(i)
    steps = []
    for p in order:
        row = succ[p]
        loop = row.pop(p, Rtef.bottom())
        pred[p].discard(p)
        for j in row:
            pred[j].discard(p)
        s = None if loop.is_empty else loop.star()
        row = row if s is None else {j: s.compose(g) for j, g in row.items()}
        folds = [(i, succ[i].pop(p)) for i in pred[p]]
        for i, f in folds:
            for j, g in row.items():
                succ[i][j] = succ[i].get(j, Rtef.bottom()).sup(f.compose(g))
                pred[j].add(i)
        steps.append((p, s, omega_of(loop, s) if p < k else None, row, folds))
    return steps


def _solve(steps: list[tuple], w: Sequence[OmegaVal], want: Sequence[int]) -> list[OmegaVal]:
    """z = M* . w v M^omega, the omega part through the first k states, off
    the ``steps`` of ``_factor``, which it does not change; exact at the
    ``want`` states, a lower bound elsewhere.  The forward pass sets
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
    w = list(w)
    for p, s, omega, _, folds in steps:
        v = w[p] if s is None else act(s, w[p])
        if omega is not None:
            v = v.sup(omega)
        if v != OmegaVal.false():
            for i, f in folds:
                w[i] = w[i].sup(act(f, v))
        w[p] = v
    needed = set(want)
    for p, _, _, row, _ in steps:
        if p in needed:
            needed.update(row)
    for p, _, _, row, _ in reversed(steps):
        if p in needed:
            for j, g in row.items():
                w[p] = w[p].sup(act(g, w[j]))
    return w


def mat_star(m: RtefMatrix) -> RtefMatrix:
    """Reflexive-transitive closure, one factorization and one solve per
    column: column j is the support of M* . e_j, with e_j the goal at j."""
    n = m.dim()
    steps = _factor(m, _order(m, [False] * n), 0)
    goal, false = OmegaVal(Rtef.one(), None), OmegaVal.false()
    cols = [_solve(steps, [goal if i == j else false for i in range(n)], range(n)) for j in range(n)]
    return RtefMatrix.of([[col[i].support for col in cols] for i in range(n)])


def mat_omega_accepting(m: RtefMatrix, k: int) -> tuple[OmegaVal, ...]:
    """Per-state truth of visiting the first ``k`` states infinitely often,
    by one factorization in minimum-degree order with the accepting states
    held to the end, which keeps the rule of ``_solve`` without finding the
    strongly connected components."""
    n = m.dim()
    if not 0 <= k <= n:
        raise ValueError("accepting count out of range")
    if k == 0:
        return (OmegaVal.false(),) * n
    steps = _factor(m, _order(m, [p < k for p in range(n)]), k)
    return tuple(_solve(steps, [OmegaVal.false()] * n, range(n)))


@dataclass(frozen=True)
class AutomatonRep:
    """Matrix form of an automaton: initial flags, transition matrix, and the
    count of accepting states, which occupy the leading indices."""

    alpha: tuple[bool, ...]
    matrix: RtefMatrix
    accepting_count: int
    state_names: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.matrix.dim()
        if len(self.alpha) != n:
            raise ValueError("initial vector length mismatch")
        if not 0 <= self.accepting_count <= n:
            raise ValueError("accepting count out of range")
        if self.state_names and len(self.state_names) != n:
            raise ValueError("state name count mismatch")

    def state_index(self, name: str) -> int:
        return self.state_names.index(name)


def finite_behavior(rep: AutomatonRep) -> Rtef:
    """Best finite run alpha . M* . kappa, solved from the goal backwards.

    The column y = M* kappa is ``_solve`` with w = kappa and no omega part:
    without a threshold, ``act`` and ``OmegaVal.sup`` are ``compose`` and
    ``sup`` on the support.  The states go in minimum-degree order with the
    initial ones held to the end, so only the initial states are
    back-substituted.
    """
    n = rep.matrix.dim()
    initial = [i for i in range(n) if rep.alpha[i]]
    if not initial or rep.accepting_count == 0:
        return Rtef.bottom()
    goal, false = OmegaVal(Rtef.one(), None), OmegaVal.false()
    w = [goal if j < rep.accepting_count else false for j in range(n)]
    z = _solve(_factor(rep.matrix, _order(rep.matrix, rep.alpha), 0), w, initial)
    out = Rtef.bottom()
    for i in initial:
        out = out.sup(z[i].support)
    return out


def buchi_behavior(rep: AutomatonRep) -> OmegaVal:
    """Truth of an endless run visiting accepting states infinitely often."""
    vec = mat_omega_accepting(rep.matrix, rep.accepting_count)
    out = OmegaVal.false()
    for i, init in enumerate(rep.alpha):
        if init:
            out = out.sup(vec[i])
    return out
