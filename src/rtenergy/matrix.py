"""Matrix layer: closure and automaton behaviors by iterative state elimination."""

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


def _eliminate(m: list[list[Rtef]], p: int, rows: Sequence[int], cols: Sequence[int]):
    """One step of state elimination by Arden's rule, in place on ``m``.

    Stars the pivot, s = m[p][p]*, scales its row to s . m[p][j] for the
    ``cols`` whose entry is not bottom, and folds m[i][p] . s . m[p][j] into
    m[i][j] for the ``rows`` with m[i][p] not bottom.  Returns s, the scaled
    row and those predecessors as (index, m[i][p]) pairs.  Without a
    self-loop s is the identity, and composing with it is a no-op.
    """
    loop, row = m[p][p], m[p]
    s = loop.star()
    succ = [(j, row[j] if loop.is_empty else s.compose(row[j])) for j in cols if not row[j].is_empty]
    preds = [(i, m[i][p]) for i in rows if not m[i][p].is_empty]
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
        others = [q for q in range(n) if q != p]
        s, succ, preds = _eliminate(a, p, others, others)
        for j, g in succ:
            a[p][j] = g
        if not a[p][p].is_empty:
            for i, f in preds:
                a[i][p] = f.compose(s)
        a[p][p] = s
    return RtefMatrix.of(a)


def mat_omega_accepting(m: RtefMatrix, k: int) -> tuple[OmegaVal, ...]:
    """Per-state truth of visiting the first ``k`` states infinitely often.

    One forward pass eliminates the non-accepting states, then the accepting
    ones.  When p goes, m[p][p] holds its loops through the states gone
    before it, and w[p] the endless runs that leave p into them for good, so
    v_p = m[p][p]* . w[p], plus m[p][p]^omega when p accepts, covers every
    endless run from p that stays among p and the earlier states; each live
    predecessor i gains m[i][p] . v_p in w[i].  This misses no run: let j be
    the last-eliminated accepting state it visits infinitely often; from
    some point on it stays among j and the states gone before j.  A
    backward pass then sets z_p = v_p v sup_j (s . m[p][j]) . z_j over the
    states j still live when p went.  No closure is built and nothing
    recurses per state.
    """
    n = m.dim()
    if not 0 <= k <= n:
        raise ValueError("accepting count out of range")
    if k == 0:
        return (OmegaVal.false(),) * n
    a = [list(row) for row in m.rows]
    w = [OmegaVal.false()] * n
    order = [*range(k, n), *range(k)]
    steps = []
    for t, p in enumerate(order):
        rest = order[t + 1:]
        s, succ, preds = _eliminate(a, p, rest, rest)
        v = act(s, w[p])
        if p < k:
            v = v.sup(omega_of(a[p][p]))
        for i, f in preds:
            w[i] = w[i].sup(act(f, v))
        steps.append((p, v, succ))
    z = [OmegaVal.false()] * n
    for p, v, succ in reversed(steps):
        for j, g in succ:
            v = v.sup(act(g, z[j]))
        z[p] = v
    return tuple(z)


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

    The column y = M* kappa is the least solution of y = kappa v M y.  Each
    non-initial state p is eliminated, in reverse index order, by Arden's
    rule y_p = M[p][p]* (kappa_p v sup_j M[p][j] y_j), which folds
    M[i][p] M[p][p]* into the rows of its live predecessors i.  Only the
    initial block is left; it is closed with ``mat_star`` and read off
    against y.  No full closure is built and nothing recurses per state.
    """
    m = [list(row) for row in rep.matrix.rows]
    n = len(m)
    initial = [i for i in range(n) if rep.alpha[i]]
    if not initial or rep.accepting_count == 0:
        return Rtef.bottom()
    y = [Rtef.one() if j < rep.accepting_count else Rtef.bottom() for j in range(n)]
    live = list(range(n))
    for p in reversed(range(n)):
        if rep.alpha[p]:
            continue
        live.remove(p)
        s, _, preds = _eliminate(m, p, live, live)
        yp = y[p] if m[p][p].is_empty else s.compose(y[p])
        if not yp.is_empty:
            for i, f in preds:
                y[i] = y[i].sup(f.compose(yp))
    star = mat_star(RtefMatrix.of([[m[a][b] for b in initial] for a in initial]))
    out = Rtef.bottom()
    for srow in star.rows:
        for f, b in zip(srow, initial):
            out = out.sup(f.compose(y[b]))
    return out


def buchi_behavior(rep: AutomatonRep) -> OmegaVal:
    """Truth of an endless run visiting accepting states infinitely often."""
    vec = mat_omega_accepting(rep.matrix, rep.accepting_count)
    out = OmegaVal.false()
    for i, init in enumerate(rep.alpha):
        if init:
            out = out.sup(vec[i])
    return out
