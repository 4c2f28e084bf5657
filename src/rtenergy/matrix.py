"""Matrix layer: block star recursion, lasso-form omega and automaton behaviors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Rtef
from .omega import OmegaVal, act, omega_of


@dataclass(frozen=True)
class RtefMatrix:
    """A matrix of energy functions; blocks taken during recursion may be
    rectangular, automaton matrices are square."""

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

    def entry(self, i: int, j: int) -> Rtef:
        return self.rows[i][j]

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


def _block(m: RtefMatrix, r0: int, r1: int, c0: int, c1: int) -> RtefMatrix:
    return RtefMatrix.of([m.rows[i][c0:c1] for i in range(r0, r1)])


def _blocks(m: RtefMatrix, k: int):
    n = m.dim()
    return (
        _block(m, 0, k, 0, k),
        _block(m, 0, k, k, n),
        _block(m, k, n, 0, k),
        _block(m, k, n, k, n),
    )


def _assemble(tl: RtefMatrix, tr: RtefMatrix, bl: RtefMatrix, br: RtefMatrix) -> RtefMatrix:
    top = [ra + rb for ra, rb in zip(tl.rows, tr.rows)]
    bottom = [ra + rb for ra, rb in zip(bl.rows, br.rows)]
    return RtefMatrix.of(top + bottom)


def mat_star(m: RtefMatrix) -> RtefMatrix:
    """Reflexive-transitive closure by block recursion on the first row.

    With e = (a v b d* c)*, the closure is [[e, e b d*], [d* c e, d* v
    d* c e b d*]]; the two forms of the lower-right block agree in any
    Kleene algebra, and tests pin the result to the path-sum oracle.
    """
    n = m.dim()
    if n == 1:
        return RtefMatrix.of([[m.rows[0][0].star()]])
    a, b, c, d = _blocks(m, 1)
    dstar = mat_star(d)
    bds = mat_mul(b, dstar)
    estar = mat_star(mat_sup(a, mat_mul(bds, c)))
    tr = mat_mul(estar, bds)
    bl = mat_mul(mat_mul(dstar, c), estar)
    br = mat_sup(dstar, mat_mul(bl, bds))
    return _assemble(estar, tr, bl, br)


def _lasso_omega(s: RtefMatrix) -> tuple[OmegaVal, ...]:
    """Entrywise infinite iteration, every state significant: an endless run
    visits some state j infinitely often, so it is a path to j followed by
    endless loops j -> j."""
    n = s.dim()
    sstar = mat_star(s)
    loops = []
    for j in range(n):
        loop = Rtef.bottom()
        for l in range(n):
            loop = loop.sup(s.rows[j][l].compose(sstar.rows[l][j]))
        loops.append(omega_of(loop))
    return _act_rows(sstar, loops)


def _act_rows(m: RtefMatrix, vals: Sequence[OmegaVal]) -> tuple[OmegaVal, ...]:
    """Entry i is the supremum over j of m[i][j] acting on vals[j]."""
    out = []
    for row in m.rows:
        v = OmegaVal.false()
        for f, w in zip(row, vals):
            v = v.sup(act(f, w))
        out.append(v)
    return tuple(out)


def mat_omega_accepting(m: RtefMatrix, k: int) -> tuple[OmegaVal, ...]:
    """Per-state truth of visiting the first ``k`` states infinitely often.

    With k < n the rest is eliminated first: the significant block is
    S = a v b d* c, whose entries are paths between accepting states through
    excursions into the rest.  On S the lasso form applies, one closure S*
    plus one ``omega_of`` per accepting j:
    S^omega[i] = sup_j S*[i][j] . ((S S*)[j][j])^omega.  The remaining
    entries first route into S through d* c.
    """
    n = m.dim()
    if not 0 <= k <= n:
        raise ValueError("accepting count out of range")
    if k == 0:
        return (OmegaVal.false(),) * n
    if k == n:
        return _lasso_omega(m)
    a, b, c, d = _blocks(m, k)
    dstar = mat_star(d)
    head = _lasso_omega(mat_sup(a, mat_mul(mat_mul(b, dstar), c)))
    return (*head, *_act_rows(mat_mul(dstar, c), head))


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
        row, loop = m[p], m[p][p]
        s = loop.star()
        # without a self-loop s is the identity, and composing with it is a no-op
        succ = [(j, row[j] if loop.is_empty else s.compose(row[j])) for j in live if not row[j].is_empty]
        yp = y[p] if loop.is_empty else s.compose(y[p])
        for i in live:
            f = m[i][p]
            if f.is_empty:
                continue
            for j, g in succ:
                m[i][j] = m[i][j].sup(f.compose(g))
            if not yp.is_empty:
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
