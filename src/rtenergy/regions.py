"""Piecewise-affine descriptions of staircase components, for export.

Each component splits the energy axis into strips, the `algebra.Cell`s of
`component_cells`, cut only where its affine data changes; on a strip the
component is defined above an affine feasibility boundary
t = max(0, wait_x*x + wait_c) and evaluates to an affine form there.  The
last strip runs to infinity, and its boundary may cross 0 inside it, at
the last bound.  The exporter emits exact rational coefficients so
downstream consumers can plot or re-check behaviors without this library.
"""

from __future__ import annotations

import math

from .algebra import Atom, Cell, LinearRtef, Rtef, component_cells


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
        "pieces": [piece_json(c) for c in component_cells(l)],
    }


def function_json(f: Rtef) -> dict:
    return {"components": [component_json(l) for l in f.components]}
