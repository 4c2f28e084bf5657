"""Piecewise-affine descriptions of staircase components, for export.

Each component splits the energy axis into strips, the `algebra.Cell`s of
`component_cells`; on a strip the component is defined above an affine
feasibility boundary t = wait_x*x + wait_c and evaluates to an affine form
there.  The exporter emits exact rational coefficients so downstream
consumers can plot or re-check behaviors without this library.
"""

from __future__ import annotations

import math

from .algebra import Atom, Cell, LinearRtef, Rtef, component_cells


def extract_regions(l: LinearRtef) -> tuple[Cell, ...]:
    """Strip decomposition of one component.

    When the last step's strip [b_(n-1), b_n) is non-empty, it and the
    strip above b_n share one affine value (the coefficient of x is 1 on
    both), so they are emitted merged; the boundary of the merged strip
    clamps at zero.  With b_(n-1) = b_n the strip below b_n is an earlier
    step's, and the two values differ.
    """
    cells = component_cells(l)
    if len(cells) >= 2:
        a, b = cells[-2:]
        da, db = a.ints[0], b.ints[0]
        if a.feasible and b.feasible and all(m * db == n * da for m, n in zip(a.ints[3:], b.ints[3:])):
            return cells[:-2] + (a._replace(hi=None),)
    return cells


def _ratio(n: int, d: int) -> str:
    """n/d (d > 0) printed as ``str(Fraction(n, d))`` prints it."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def piece_json(c: Cell) -> dict:
    out = {
        "x_low": str(c.lo),
        "x_high": "inf" if c.hi is None else str(c.hi),
    }
    if not c.feasible:
        out["infeasible"] = True
        return out
    d, wx, wc, vt, vx, vc = c.ints
    p, q = c.lo.numerator, c.lo.denominator
    out["boundary"] = {
        "slope": _ratio(wx, d),
        "t_at_x_low": _ratio(wx * p + wc * q, d * q),
    }
    out["value"] = {
        "t": _ratio(vt, d),
        "x": _ratio(vx, d),
        "c": _ratio(vc, d),
    }
    return out


def atoms_json(atoms: tuple[Atom, ...]) -> list:
    return [[str(a.rate), str(a.price), str(a.bound)] for a in atoms]


def component_json(l: LinearRtef) -> dict:
    return {
        "atoms": atoms_json(l.atoms),
        "pieces": [piece_json(c) for c in extract_regions(l)],
    }


def function_json(f: Rtef) -> dict:
    return {"components": [component_json(l) for l in f.components]}
