"""Matrix layer: the Gauss-Jordan closure, and reach and Buchi behaviors
from one state-elimination solver of z = M* . w v M^omega."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Rtef
from .omega import OmegaVal, act, omega_of


@dataclass(frozen=True)
class RtefMatrix:
    """A matrix of energy functions; products may be rectangular, automaton
    matrices are square."""

    rows: tuple[tuple[Rtef, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")

    @staticmethod
    def of(rows) -> "RtefMatrix":
        return RtefMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "RtefMatrix":
        return RtefMatrix.of(
            [[Rtef.one() if i == j else Rtef.bottom() for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(n_rows: int, n_cols: int) -> "RtefMatrix":
        return RtefMatrix.of([[Rtef.bottom()] * n_cols for _ in range(n_rows)])

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def dim(self) -> int:
        if self.n_rows != self.n_cols:
            raise ValueError("square matrix required")
        return self.n_rows


def mat_sup(a: RtefMatrix, b: RtefMatrix) -> RtefMatrix:
    if (a.n_rows, a.n_cols) != (b.n_rows, b.n_cols):
        raise ValueError("dimension mismatch in matrix supremum")
    return RtefMatrix.of(
        [[x.sup(y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    )


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


def _eliminate(m: list[list[Rtef]], p: int, live: Sequence[int]):
    """One step of state elimination by Arden's rule, in place on ``m``.

    Stars the pivot, s = m[p][p]*, scales its row to s . m[p][j] for the
    ``live`` j whose entry is not bottom, and folds m[i][p] . s . m[p][j]
    into m[i][j] for the ``live`` i with m[i][p] not bottom.  Returns s, the
    scaled row and those predecessors as (index, m[i][p]) pairs.  Without a
    self-loop s is the identity, and composing with it is a no-op.
    """
    loop, row = m[p][p], m[p]
    s = loop.star()
    succ = [(j, row[j] if loop.is_empty else s.compose(row[j])) for j in live if not row[j].is_empty]
    preds = [(i, m[i][p]) for i in live if not m[i][p].is_empty]
    for i, f in preds:
        mi = m[i]
        for j, g in succ:
            mi[j] = mi[j].sup(f.compose(g))
    return s, succ, preds


def mat_star(m: RtefMatrix) -> RtefMatrix:
    """Reflexive-transitive closure by in-place Gauss-Jordan elimination.

    Pivot p replaces m[p][p] by s = m[p][p]*, its row by s . m[p][j] and its
    column by m[i][p] . s, after folding m[i][p] . s . m[p][j] into every
    other entry; afterwards m[i][j] holds the paths from i to j through the
    pivots so far.  On a 1x1 matrix this is exactly the star of the entry.
    """
    a = [list(row) for row in m.rows]
    n = m.dim()
    for p in range(n):
        s, succ, preds = _eliminate(a, p, [q for q in range(n) if q != p])
        for j, g in succ:
            a[p][j] = g
        if not a[p][p].is_empty:
            for i, f in preds:
                a[i][p] = f.compose(s)
        a[p][p] = s
    return RtefMatrix.of(a)


def _solve(m: RtefMatrix, order: list[int], w: Sequence[OmegaVal], k: int, want: Sequence[int]):
    """z = M* . w v M^omega, the omega part through the first ``k`` states,
    by one elimination pass in ``order``; exact at the ``want`` states.

    When p goes, m[p][p] holds its loops through the states gone before it,
    and w[p] the runs that leave p into them for good, so v_p = m[p][p]* .
    w[p], plus m[p][p]^omega when p < k, covers every run from p that stays
    among p and the earlier states; each live predecessor i gains
    m[i][p] . v_p in w[i].  A backward pass sets z_p = v_p v sup_j
    (s . m[p][j]) . z_j over the successors j still live when p went, for
    the ``want`` states and the states they reach that way.  M* . w is
    exact in any order; M^omega misses no run when the states p >= k go
    first: let j be the last-eliminated state below k that a run visits
    infinitely often; from some point on the run stays among j and the
    states gone before j.  No closure is built and nothing recurses.
    """
    a, w, steps = [list(row) for row in m.rows], list(w), []
    for t, p in enumerate(order):
        s, succ, preds = _eliminate(a, p, order[t + 1:])
        v = w[p] if a[p][p].is_empty else act(s, w[p])
        if p < k:
            v = v.sup(omega_of(a[p][p]))
        if v != OmegaVal.false():
            for i, f in preds:
                w[i] = w[i].sup(act(f, v))
        steps.append((p, v, succ))
    needed = set(want)
    for p, _, succ in steps:
        if p in needed:
            needed.update(j for j, _ in succ)
    z = [OmegaVal.false()] * len(a)
    for p, v, succ in reversed(steps):
        if p in needed:
            for j, g in succ:
                v = v.sup(act(g, z[j]))
            z[p] = v
    return z


def mat_omega_accepting(m: RtefMatrix, k: int) -> tuple[OmegaVal, ...]:
    """Per-state truth of visiting the first ``k`` states infinitely often;
    the non-accepting states go first, then the accepting ones."""
    n = m.dim()
    if not 0 <= k <= n:
        raise ValueError("accepting count out of range")
    if k == 0:
        return (OmegaVal.false(),) * n
    return tuple(_solve(m, [*range(k, n), *range(k)], [OmegaVal.false()] * n, k, range(n)))


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

    @property
    def kappa(self) -> tuple[bool, ...]:
        return tuple(i < self.accepting_count for i in range(self.matrix.dim()))

    def state_index(self, name: str) -> int:
        return self.state_names.index(name)


def finite_behavior(rep: AutomatonRep) -> Rtef:
    """Best finite run alpha . M* . kappa, solved from the goal backwards.

    The column y = M* kappa is ``_solve`` with w = kappa and no omega part:
    without a threshold, ``act`` and ``OmegaVal.sup`` are ``compose`` and
    ``sup`` on the support.  The non-initial states go first, in reverse
    index order, then the initial ones, and only the initial states are
    back-substituted.
    """
    n = rep.matrix.dim()
    initial = [i for i in range(n) if rep.alpha[i]]
    if not initial or rep.accepting_count == 0:
        return Rtef.bottom()
    goal, false = OmegaVal(Rtef.one(), None), OmegaVal.false()
    w = [goal if j < rep.accepting_count else false for j in range(n)]
    order = [p for p in reversed(range(n)) if not rep.alpha[p]] + initial
    z = _solve(rep.matrix, order, w, 0, initial)
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
