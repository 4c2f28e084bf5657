"""Brute-force references behind ``rtenergy check --verify``.

Nothing here sits on the decision path: these are independent baselines the
exact answer is checked against.  The grid dynamic program is a deliberate
lower bound; the unroller's True is definitive and its False inconclusive.
Each reads its start level through ``Energy`` and its horizon through
``Time``, so a negative one raises ``ValueError`` and a float ``TypeError``.
The references only the test suite uses live with it, in
``tests/references.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import BOTTOM, Energy, Time, checked_tuple
from .model import RteaModel


class DpConfig(checked_tuple("DpConfig", "delta max_steps")):
    """Time grid for the dynamic program: ``delta * max_steps`` is the horizon."""

    __slots__ = ()

    def __new__(cls, delta: Fraction, max_steps: int):
        if delta <= 0:
            raise ValueError("delta must be positive")
        if max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        return tuple.__new__(cls, (delta, max_steps))

    @staticmethod
    def over(horizon: Fraction, steps: int) -> "DpConfig":
        """``steps`` equal steps across ``horizon``, a finite ``Time``, or none at 0."""
        if steps < 1:
            raise ValueError("steps must be positive")
        horizon = Time(horizon).value
        return DpConfig(horizon / steps, steps) if horizon > 0 else DpConfig(Fraction(1), 0)


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
    level[model.initial] = Energy.of(x0).value
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
    """Discretized best final level at an accepting state, or bottom.

    Delays are restricted to multiples of ``cfg.delta``, so the result never
    exceeds the exact behavior and converges to it as the grid refines.
    """
    if cfg.delta * cfg.max_steps != horizon:
        raise ValueError("delta * max_steps must equal the horizon")
    arrival, _ = _grid_best(model, x0, cfg.delta, cfg.max_steps)
    return max((Energy.of(arrival[n]) for n in model.accepting if arrival[n] is not None), default=BOTTOM)


def buchi_unroll(model: RteaModel, x0: Fraction, horizon: Fraction, repetitions: int) -> bool:
    """Semi-decision for endless accepting runs within a finite horizon.

    Searches grid-delay runs to an accepting state, then certifies endless
    repetition by a free (all prices zero) cycle whose bounds the reached
    level already clears; such a cycle repeats forever with zero delay.
    A True answer is definitive, False is inconclusive.
    """
    cfg = DpConfig.over(horizon, repetitions)
    _, presence = _grid_best(model, x0, cfg.delta, cfg.max_steps)
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
