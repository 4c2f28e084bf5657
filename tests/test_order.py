"""The pointwise order: worked counterexamples and exactness checks."""

import random
from fractions import Fraction

from rtenergy import BOTTOM, Energy, Rtef, finite_behavior, to_matrix_rep
import rtenergy.algebra
import rtenergy.linear2d
from rtenergy.algebra import leq_linear, order_witness

from helpers import (
    A,
    F1,
    F2,
    MODELS,
    ev,
    lin,
    load_model,
    rand_coprime_linear,
    rand_linear,
    rand_rtef,
    rtef,
    sample_points,
)
from references import leq_linear_cut_set, order_witness_cut_set, violation_point_subsets


class TestOrderCounterexample:
    """A later-faster path is not automatically better: it may start blocked."""

    f = rtef(lin((4, 0, 0)))
    fp = rtef(lin((1, 0, 1), (5, 0, 2)))

    def test_point_values(self):
        assert ev(self.f, 0, 1) == Energy.of(4)
        assert ev(self.fp, 0, 1) == BOTTOM

    def test_not_leq(self):
        assert self.f.leq(self.fp) is False

    def test_appending_a_slower_pass_never_helps(self):
        assert self.fp.compose(self.f).leq(self.fp) is True

    def test_reflexive(self):
        for f in (self.f, self.fp, rtef(F1, F2), Rtef.bottom(), Rtef.one()):
            assert f.leq(f)


class TestExactness:
    def test_crossing_above_all_boundaries_detected(self):
        # Naive boundary sampling misses this: every feasibility boundary sits
        # at t = 0 for large x, yet f overtakes both components mid-range.
        f = rtef(lin((1, -10, 10)))
        g = rtef(lin((Fraction(1, 2), 0, 0)), lin((2, -100, 100)))
        assert ev(f, 200, 50) == Energy.of(240)
        assert ev(g, 200, 50) == Energy.of(225)
        assert f.leq(g) is False

    def test_bottom_least_and_infinity_side(self):
        f = rtef(F1)
        assert Rtef.bottom().leq(f)
        assert not f.leq(Rtef.bottom())
        # the witness is a finite point where f is defined
        x, t = order_witness(f, Rtef.bottom())
        assert x.is_finite and not t.is_infinite
        assert f.eval(x, t) > BOTTOM

    def test_rate_direction(self):
        slow = rtef(lin((1, 0, 0)))
        fast = rtef(lin((2, 0, 0)))
        assert slow.leq(fast)
        assert not fast.leq(slow)

    def test_unbounded_time_slice(self):
        keeper = rtef(lin((0, 0, 5)))
        leak = rtef(lin((0, -1, 5)))
        pump = rtef(lin((1, 0, 5)))
        assert leak.leq(keeper)
        assert not keeper.leq(leak)
        assert keeper.leq(pump)
        assert not pump.leq(keeper)
        # both failures already show at a finite time
        for lhs, rhs in ((keeper, leak), (pump, keeper)):
            x, t = order_witness(lhs, rhs)
            assert not t.is_infinite
            assert lhs.eval(x, t) > rhs.eval(x, t)

    def test_leq_linear_matches_general_decision(self):
        rng = random.Random(23)
        for _ in range(150):
            a = rand_linear(rng)
            b = rand_linear(rng)
            assert leq_linear(a, b) == Rtef.of([a]).leq(Rtef.of([b]))


class TestSampledSoundness:
    """Whenever leq says yes, no sampled point may disagree (including the
    unbounded-time row); when it says no, the decision is trusted to the
    exact procedure and at least spot-checked by a search for a witness."""

    def test_positive_answers_hold_at_samples(self):
        rng = random.Random(7)
        points = sample_points(with_inf=True)
        for _ in range(60):
            f = rand_rtef(rng)
            g = rand_rtef(rng)
            if f.leq(g):
                for x, t in points:
                    assert not f.eval(x, t) > g.eval(x, t)

    def test_every_negative_answer_has_a_verified_witness(self):
        rng = random.Random(8)
        negatives = 0
        for _ in range(250):
            f = rand_rtef(rng)
            g = rand_rtef(rng)
            w = order_witness(f, g)
            assert f.leq(g) == (w is None)
            if w is not None:
                negatives += 1
                x, t = w
                assert not t.is_infinite
                assert f.eval(x, t) > g.eval(x, t)
        assert negatives > 0

    def test_witness_for_crossing_counterexample(self):
        f = rtef(lin((1, -10, 10)))
        g = rtef(lin((Fraction(1, 2), 0, 0)), lin((2, -100, 100)))
        x, t = order_witness(f, g)
        assert not t.is_infinite
        assert f.eval(x, t) > g.eval(x, t)


def line_set(rng, n):
    """n single-atom lines: rate p/q, price -P, bound P + slack."""
    comps = []
    for _ in range(n):
        price = rng.randint(0, 20)
        rate = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        comps.append(lin((rate, -price, price + rng.randint(0, 15))))
    return Rtef.of(comps)


def order_pair(rng, case):
    """Three generators in turn; the line sets put crossings of feasibility
    lines inside strips."""
    kind = case % 3
    if kind == 0:
        return rand_rtef(rng), rand_rtef(rng)
    if kind == 1:
        return rtef(rand_linear(rng)), Rtef.of(rand_linear(rng) for _ in range(rng.randint(2, 7)))
    return line_set(rng, 1), line_set(rng, rng.randint(2, 7))


def tangent_family(m):
    """g: m tangents (s, -s^2/2) of a parabola as lines defined where they
    are non-negative, so every pair of feasibility lines crosses; f: a line
    through the kink between two neighbouring tangents with a slope strictly
    between theirs, so f <= g holds but no single tangent covers f."""

    def line(rate, price):
        return lin((rate, price, -price))

    s = [Fraction(i) for i in range(1, m + 1)]
    g = Rtef.of(line(si, -si * si / 2) for si in s)
    i = m // 2
    kink = (s[i] + s[i + 1]) / 2
    rate = s[i] + (s[i + 1] - s[i]) * Fraction(3, 8)
    price = s[i] * kink - s[i] * s[i] / 2 - rate * kink
    return rtef(line(rate, price)), g


class TestLineSweep:
    """``_violation_point`` sweeps the ordered feasibility lines; the old
    search over every subset of undefined cells is the oracle."""

    def test_against_subset_oracle(self, monkeypatch):
        rng = random.Random(41)
        holding = 0
        for case in range(600):
            f, g = order_pair(rng, case)
            for lhs, rhs in ((f, g), (g, f)):
                w = order_witness(lhs, rhs)
                with monkeypatch.context() as patch:
                    patch.setattr(rtenergy.algebra, "_violation_point", violation_point_subsets)
                    w_oracle = order_witness(lhs, rhs)
                # witnesses may differ; both must be genuine
                assert (w is None) == (w_oracle is None), (lhs, rhs, w, w_oracle)
                for point in (w, w_oracle):
                    if point is not None:
                        assert lhs.eval(*point) > rhs.eval(*point)
                holding += w is None
        assert 0 < holding < 1200

    def test_crossing_inside_strip(self):
        f = rtef(lin((Fraction(11, 3), -14, 18)))
        g = rtef(
            lin((Fraction(9, 4), -5, 16)),
            lin((Fraction(5, 2), -13, 27)),
            lin((11, -20, 27)),
        )
        assert order_witness(f, g) is None

    def test_elimination_pairs_grow_polynomially(self, monkeypatch):
        # Fourier-Motzkin pairs formed by the sweep: each doubling of m may
        # grow them at most 8x (solving each system afresh grew them 10.9x
        # and 12.9x, from 3,010 at m = 12); m = 12 is pinned exactly
        pairs = 0
        pair = rtenergy.linear2d._pair

        def counted(row, lows, highs, x):
            nonlocal pairs
            pairs += len(highs) if row.b > 0 else len(lows) if row.b < 0 else 0
            return pair(row, lows, highs, x)

        monkeypatch.setattr(rtenergy.linear2d, "_pair", counted)
        counts = []
        for m in (12, 24, 48):
            pairs = 0
            assert order_witness(*tangent_family(m)) is None
            counts.append(pairs)
        assert counts[0] == 742, counts
        assert counts[1] <= 8 * counts[0] and counts[2] <= 8 * counts[1], counts


def coprime_pool(rng, n):
    """n distinct components over coprime denominators, in a fixed order."""
    pool = {}
    while len(pool) < n:
        pool.setdefault(rand_coprime_linear(rng), None)
    return list(pool)


class TestIntegerStripKernel:
    """The merged strip walk with integer endpoint checks against the
    cut-set strips with ``Fraction`` checks it replaced: equal decisions and
    equal witnesses, on components whose denominators are coprime."""

    def test_leq_linear_against_fraction_oracle(self):
        pool = coprime_pool(random.Random(97), 105)
        holding = 0
        for a in pool:
            for b in pool:
                got = leq_linear.__wrapped__(a, b)  # uncached: the kernel itself
                assert got == leq_linear_cut_set(a, b), (a, b)
                holding += got
        # 11,025 pairs, 105 of them a component against itself
        assert 1000 < holding < 10000
        # the walk alone holds each component against itself: 1,000 random
        # ones, half over coprime denominators, and the bundled models'
        # behavior components
        rng = random.Random(99)
        corpus = [rand_linear(rng) for _ in range(500)] + [rand_coprime_linear(rng) for _ in range(500)]
        for path in sorted(MODELS.glob("*.rtea")):
            corpus += finite_behavior(to_matrix_rep(load_model(path.name))).components
        assert len(corpus) > 1000
        assert all(leq_linear.__wrapped__(c, c) for c in corpus)

    def test_order_witness_against_fraction_oracle(self):
        rng = random.Random(98)
        pool = coprime_pool(rng, 120)
        left, right = pool[:60], pool[60:]
        holding = 0
        for case in range(2500):
            # disjoint halves, so no component of f is shared with g
            fside, gside = (left, right) if case % 2 else (right, left)
            f = Rtef.of(rng.sample(fside, rng.randint(2, 3)))
            g = Rtef.of(rng.sample(gside, rng.randint(2, 4)))
            w = order_witness(f, g)
            assert w == order_witness_cut_set(f, g), (f, g)
            if w is None:
                holding += 1
            else:
                assert f.eval(*w) > g.eval(*w)
        assert 250 < holding < 2250

    def test_denominator_sensitive_pairs(self):
        # the first cells of f and g have common denominators 330 and 2 * 97^2:
        # the gap test at a strip endpoint must scale by d_f, or this
        # violation is missed
        f = lin((Fraction(11, 5), Fraction(-77, 15), Fraction(199, 30)))
        g = lin(
            (Fraction(2, 5), 0, Fraction(114, 97)),
            (Fraction(332, 97), Fraction(-113, 97), Fraction(114, 97)),
        )
        assert leq_linear(f, g) is False
        x, t = order_witness(rtef(f), rtef(g))
        assert rtef(f).eval(x, t) > rtef(g).eval(x, t)
        # holds only through cross-multiplied waits and values: dropping a
        # denominator from the wait test, the gap's constant term or any
        # difference of g and f over d_f * d_g flips it
        f = lin((1, 0, Fraction(8, 3)), (2, Fraction(-61, 15), Fraction(61, 15)))
        g = lin((4, -3, Fraction(292, 97)))
        assert leq_linear(f, g) is True
        assert order_witness(rtef(f), rtef(g)) is None
