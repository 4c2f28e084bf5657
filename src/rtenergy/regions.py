"""Piecewise-affine descriptions of staircase components, for export.

Each component splits the energy axis into strips, the `algebra.Cell`s of
`component_cells`; on a strip the component is defined above an affine
feasibility boundary t = wait_x*x + wait_c and evaluates to an affine form
there.  The exporter emits exact rational coefficients so downstream
consumers can plot or re-check behaviors without this library.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import BOTTOM, INFINITY, Atom, Cell, Energy, LinearRtef, Rtef, Time, component_cells


def extract_regions(l: LinearRtef) -> tuple[Cell, ...]:
    """Strip decomposition of one component.

    The final two strips always share one affine value (the coefficient of x
    flattens to 1 past the second-to-last threshold), so they are emitted
    merged; the boundary of the merged strip clamps at zero.
    """
    cells = component_cells(l)
    if len(cells) >= 2:
        a, b = cells[-2:]
        if a.feasible and b.feasible and (a.value_t, a.value_x, a.value_c) == (b.value_t, b.value_x, b.value_c):
            return cells[:-2] + (a._replace(hi=None),)
    return cells


def _active_cell(cells: tuple[Cell, ...], x: Fraction) -> Cell:
    for c in cells:
        if c.lo <= x and (c.hi is None or x < c.hi):
            return c
    raise AssertionError("cells cover [0, inf)")


def region_eval(cells: tuple[Cell, ...], x: Energy, t: Time) -> Energy:
    """Evaluate through the exported strip table; must agree with the greedy
    evaluator everywhere (tested, not assumed)."""
    if x.is_bottom:
        return BOTTOM
    if x.is_infinite:
        return INFINITY
    c = _active_cell(cells, x.value)
    if not c.feasible:
        return BOTTOM
    if t.is_infinite:
        if c.value_t > 0:
            return INFINITY
        return Energy.of(c.value_x * x.value + c.value_c)
    if t.value < c.wait_x * x.value + c.wait_c:
        return BOTTOM
    return Energy.of(c.value_t * t.value + c.value_x * x.value + c.value_c)


def piece_json(c: Cell) -> dict:
    out = {
        "x_low": str(c.lo),
        "x_high": "inf" if c.hi is None else str(c.hi),
    }
    if not c.feasible:
        out["infeasible"] = True
        return out
    out["boundary"] = {
        "slope": str(c.wait_x),
        "t_at_x_low": str(c.wait_x * c.lo + c.wait_c),
    }
    out["value"] = {
        "t": str(c.value_t),
        "x": str(c.value_x),
        "c": str(c.value_c),
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
