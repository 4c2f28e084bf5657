"""Limit behaviors: construction, action, and the infinite-product laws."""

import random
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from rtenergy import (
    Atom,
    BOTTOM,
    Energy,
    INFINITY,
    OmegaVal,
    Rtef,
    TIME_INF,
    Time,
    normalize,
)
from rtenergy.omega import act, omega_of

from helpers import SAMPLE_TS, SAMPLE_XS, lin, rand_rtef, rtef, sample_points
from references import exact_schedule_value

PUMP = rtef(lin((1, 0, 5)))
PUMP_LEAK = rtef(lin((1, -1, 5)))
FLAT_LEAK = rtef(lin((0, -1, 1)))
KEEPER = rtef(lin((0, 0, 5)))


def same_on_grid(a: OmegaVal, b: OmegaVal) -> bool:
    points = sample_points(with_inf=True) + [(INFINITY, Time(Fraction(0))), (INFINITY, TIME_INF)]
    return all(a.eval(x, t) == b.eval(x, t) for x, t in points)


class TestOmegaOf:
    def test_pump_loop(self):
        v = omega_of(PUMP)
        assert v.threshold == 0
        assert v.eval(Energy.of(3), Time.of(2)) is True
        assert v.eval(Energy.of(3), Time.of(1)) is False

    def test_leaking_pump_has_no_finite_support(self):
        v = omega_of(PUMP_LEAK)
        assert not v.support.components
        assert v.threshold == 0  # x + t0 - 1 >= x once t0 >= max(1, 5 - x)
        assert v.eval(Energy.of(0), TIME_INF) is True
        assert v.eval(Energy.of(100), Time.of(50)) is False

    def test_bottom_iterates_to_false(self):
        v = omega_of(Rtef.bottom())
        assert not v.support.components and v.threshold is None
        assert not any(v.eval(x, t) for x, t in sample_points(with_inf=True))

    def test_flat_leak_is_false_everywhere(self):
        v = omega_of(FLAT_LEAK)
        assert v.threshold is None
        assert v.eval(Energy.of(100), TIME_INF) is False

    def test_zero_rate_keeper_is_support_only(self):
        # a free zero-rate loop needs no time: the support holds from its
        # bound at every horizon, and no waiting loop gives a threshold
        v = omega_of(KEEPER)
        assert v.threshold is None
        assert v.eval(Energy.of(5), TIME_INF) is True
        assert v.eval(Energy.of(4), TIME_INF) is False
        assert v.eval(Energy.of(5), Time.of(0)) is True

    def test_keeper_support_alone_holds_from_its_bound(self):
        support = OmegaVal(omega_of(KEEPER).support, None)
        for t in (Time.of(0), Time.of(3), TIME_INF):
            assert support.eval(Energy.of(4), t) is False
            assert support.eval(Energy.of(5), t) is True

    def test_free_pump_sets_both_parts(self):
        v = omega_of(PUMP)
        assert v.support.components and v.threshold == 0


class TestAct:
    def test_bottom_acts_as_zero(self):
        v = act(Rtef.bottom(), omega_of(PUMP))
        assert not any(v.eval(x, t) for x, t in sample_points(with_inf=True))

    def test_identity_acts_as_unit(self):
        v = omega_of(PUMP)
        assert same_on_grid(act(Rtef.one(), v), v)

    def test_prefix_then_loop(self):
        # one pass of the fast opener leaves 20 >= 5 with no time spent
        f1 = lin((0, 0, 30), (4, -10, 30))
        v = act(rtef(f1), omega_of(PUMP))
        assert v.eval(Energy.of(30), Time.of(0)) is True
        # split enumeration confirms: f1(30, 0) = 20 and the loop accepts (20, 0)
        out = exact_schedule_value(f1.atoms, Fraction(30), Fraction(0))
        assert out == Energy.of(20)
        assert omega_of(PUMP).eval(out, Time.of(0)) is True

    def test_threshold_through_zero_rate_pass(self):
        # one leaking flat pass must start at max(bound, goal - price)
        v = act(rtef(lin((0, -2, 3))), OmegaVal(Rtef.bottom(), Fraction(5)))
        assert v.threshold == 7
        assert v.eval(Energy.of(7), TIME_INF) is True
        assert v.eval(Energy.of(Fraction(27, 4)), TIME_INF) is False


class TestSupOmega:
    def test_false_is_unit(self):
        v = omega_of(PUMP)
        assert same_on_grid(v.sup(OmegaVal.false()), v)
        assert v.sup(v) == v

    def test_threshold_minimum(self):
        a = OmegaVal(Rtef.bottom(), Fraction(5))
        b = OmegaVal(Rtef.bottom(), Fraction(3))
        assert a.sup(b).threshold == 3
        assert a.sup(OmegaVal.false()).threshold == 5


class TestEvalOmega:
    def test_bottom_input_false(self):
        assert omega_of(PUMP).eval(BOTTOM, Time.of(3)) is False

    def test_monotone(self):
        rng = random.Random(31)
        for _ in range(40):
            v = omega_of(rand_rtef(rng))
            for x1 in SAMPLE_XS:
                for x2 in SAMPLE_XS:
                    if x1 > x2:
                        continue
                    for t1 in SAMPLE_TS:
                        assert v.eval(Energy.of(x1), Time(t1)) <= v.eval(Energy.of(x2), TIME_INF)

    def test_threshold_upward_closed(self):
        rng = random.Random(32)
        for _ in range(40):
            v = omega_of(rand_rtef(rng))
            hit = [x for x in SAMPLE_XS if v.eval(Energy.of(x), TIME_INF)]
            if hit:
                lo = min(hit)
                for x in SAMPLE_XS:
                    if x >= lo:
                        assert v.eval(Energy.of(x), TIME_INF)


rates = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)])
atoms = st.builds(
    lambda r, p, e: Atom(r, -Fraction(p, 2), Fraction(p, 2) + Fraction(e, 2)),
    rates,
    st.integers(0, 4),
    st.integers(0, 6),
)
rtefs = st.lists(st.lists(atoms, max_size=2).map(normalize), max_size=2).map(Rtef.of)


@settings(max_examples=60, deadline=None)
@given(rtefs, rtefs, rtefs)
def test_action_satisfies_the_semimodule_laws(f, g, h):
    v = omega_of(g)
    w = omega_of(h)
    points = sample_points(with_inf=True)
    assoc_l, assoc_r = act(f.compose(g), v), act(f, act(g, v))
    dist_l, dist_r = act(f.sup(g), v), act(f, v).sup(act(g, v))
    dist2_l, dist2_r = act(f, v.sup(w)), act(f, v).sup(act(f, w))
    unit = act(Rtef.one(), v)
    zero = act(Rtef.bottom(), v)
    for x, t in points:
        assert assoc_l.eval(x, t) == assoc_r.eval(x, t)
        assert dist_l.eval(x, t) == dist_r.eval(x, t)
        assert dist2_l.eval(x, t) == dist2_r.eval(x, t)
        assert unit.eval(x, t) == v.eval(x, t)
        assert zero.eval(x, t) is False


@settings(max_examples=60, deadline=None)
@given(rtefs)
def test_threshold_is_the_self_sustainment_level(f):
    v = omega_of(f)
    for x in SAMPLE_XS:
        e = Energy.of(x)
        assert v.eval(e, TIME_INF) == (f.eval(e, TIME_INF) >= e)


@settings(max_examples=60, deadline=None)
@given(rtefs)
def test_threshold_only_from_waiting_loops(f):
    # only a component with a positive final rate wins its price back by waiting
    waits = any((c.atoms[-1].rate if c.atoms else 0) > 0 for c in f.components)
    assert (omega_of(f).threshold is None) == (not waits)


@settings(max_examples=60, deadline=None)
@given(rtefs)
def test_first_pass_then_iterate_is_iterate(f):
    # peeling one factor off the infinite product changes nothing
    assert same_on_grid(act(f, omega_of(f)), omega_of(f))


@settings(max_examples=60, deadline=None)
@given(rtefs)
def test_given_star_is_the_star(f):
    assert omega_of(f, f.star()) == omega_of(f)


@settings(max_examples=60, deadline=None)
@given(rtefs)
def test_iterate_in_blocks_of_two(f):
    assert same_on_grid(omega_of(f), omega_of(f.compose(f)))


@settings(max_examples=40, deadline=None)
@given(rtefs, rtefs)
def test_support_splits_like_composition(f, g):
    # composite support is defined exactly where some exact split works
    comp = f.compose(g)
    for x in (Fraction(0), Fraction(4), Fraction(21, 2)):
        for t in (Fraction(0), Fraction(3), Fraction(12)):
            direct = not comp.eval(Energy.of(x), Time(t)).is_bottom
            split = any(
                not exact_schedule_value(a.atoms + b.atoms, x, t).is_bottom
                for a in f.components
                for b in g.components
            )
            assert direct == split
