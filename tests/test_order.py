"""The pointwise order: worked counterexamples and exactness checks."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from rtenergy import BOTTOM, Energy, Rtef, finite_behavior, to_matrix_rep
import rtenergy.algebra
import rtenergy.linear2d
from rtenergy.algebra import _covers, component_cells, leq_linear, order_witness

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
from references import (
    crossings_all_pairs,
    leq_linear_cut_set,
    leq_linear_every_bound,
    order_holds_every_bound,
    order_witness_cut_set,
    violation_point_subsets,
)


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


@pytest.fixture
def pair_tests(monkeypatch):
    """A one-item list counting the line pairs the crossing fallback tests."""
    count = [0]
    fallback = rtenergy.algebra._pair_crossings

    def counted(lines, lo, hi):
        count[0] += len(lines) * (len(lines) - 1) // 2
        return fallback(lines, lo, hi)

    monkeypatch.setattr(rtenergy.algebra, "_pair_crossings", counted)
    return count


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

    def test_crossing_inside_strip(self, pair_tests):
        f = rtef(lin((Fraction(11, 3), -14, 18)))
        g = rtef(
            lin((Fraction(9, 4), -5, 16)),
            lin((Fraction(5, 2), -13, 27)),
            lin((11, -20, 27)),
        )
        assert order_witness(f, g) is None
        assert pair_tests[0] > 0

    def test_tangent_families_test_no_pair(self, pair_tests):
        # every pair of tangents crosses, but their feasibility lines meet
        # only at negative x, so no two cross inside the one strip [0, inf)
        # and the lines' end order shows it
        for m in (12, 24, 48):
            assert order_witness(*tangent_family(m)) is None
        assert pair_tests[0] == 0

    def test_witnesses_pinned(self):
        # every witness of the oracle corpus both ways and of the tangent
        # families; re-recorded once each staircase's last step became one
        # cell up to inf (the holding count did not move), after the
        # witnesses matched the Fraction cut-set oracle and the decisions
        # the walk that cuts at every bound
        rng = random.Random(41)
        witnesses = []
        for case in range(600):
            f, g = order_pair(rng, case)
            witnesses += [order_witness(f, g), order_witness(g, f)]
        witnesses += [order_witness(g, f) for f, g in map(tangent_family, range(3, 20))]
        texts = [None if w is None else (w[0].text(), w[1].text()) for w in witnesses]
        assert sum(w is None for w in texts) == 394
        assert hashlib.sha256(repr(texts).encode()).hexdigest()[:16] == "e0dcfa09652c21ff"

    def test_elimination_pairs_grow_polynomially(self, monkeypatch):
        # Fourier-Motzkin pairs formed by the sweep: each doubling of m may
        # grow them at most 8x (solving each system afresh grew them 10.9x
        # and 12.9x, from 3,010 at m = 12); m = 12 is pinned exactly (742
        # while every bound cut x, one sweep per strip)
        pairs = 0
        pair = rtenergy.linear2d._pair

        def counted(row, lows, highs, x):
            nonlocal pairs
            pairs += len(highs) if row[1] > 0 else len(lows) if row[1] < 0 else 0
            return pair(row, lows, highs, x)

        monkeypatch.setattr(rtenergy.linear2d, "_pair", counted)
        counts = []
        for m in (12, 24, 48):
            pairs = 0
            assert order_witness(*tangent_family(m)) is None
            counts.append(pairs)
        assert counts[0] == 53, counts
        assert counts[1] <= 8 * counts[0] and counts[2] <= 8 * counts[1], counts

    def test_tangent_family_counts_pinned(self, monkeypatch):
        # sweeps (_violation_point calls) and Fourier-Motzkin pairings
        # (_pair calls) on holding tangent families: each tangent is one
        # cell from x = 0 up, so the family is one strip and one sweep
        # whatever m (18 / 34 / 66 / 130 sweeps and 431 / 1,359 / 4,751 /
        # 17,679 pairings while every bound cut x)
        sweeps = pairings = 0
        sweep, pair = rtenergy.algebra._violation_point, rtenergy.linear2d._pair

        def counted_sweep(fc, gcells, lo, hi):
            nonlocal sweeps
            sweeps += 1
            return sweep(fc, gcells, lo, hi)

        def counted_pair(row, lows, highs, x):
            nonlocal pairings
            pairings += 1
            return pair(row, lows, highs, x)

        monkeypatch.setattr(rtenergy.algebra, "_violation_point", counted_sweep)
        monkeypatch.setattr(rtenergy.linear2d, "_pair", counted_pair)
        counts = []
        for m in (16, 32, 64, 128):
            sweeps = pairings = 0
            assert order_witness(*tangent_family(m)) is None
            counts.append((sweeps, pairings))
        assert counts == [(1, 23), (1, 39), (1, 71), (1, 135)], counts


def crossing_case(rng):
    """A strip (lo, hi) and 1-7 feasibility lines as (d, wx, wc), drawn by
    their values at the two ends from small pools, so that lines tie at lo,
    at hi (a crossing exactly on an edge) or at both (identical lines); some
    are copies or parallel shifts of an earlier line.  One strip in four is
    unbounded, its lines drawn by value at lo and slope."""
    lo = rng.choice((0, Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))))
    hi = None if rng.random() < 0.25 else lo + Fraction(rng.randint(1, 9), rng.choice((1, 2, 5)))
    lines = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        if lines and kind < 0.1:
            lines.append(rng.choice(lines))
            continue
        if lines and kind < 0.2:
            d, wx, wc = rng.choice(lines)
            lines.append((d, wx, wc + rng.choice((-2, -1, 1, 3))))
            continue
        at_lo = Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
        if hi is None:
            slope = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        else:
            slope = (Fraction(rng.randint(-4, 4), rng.choice((1, 3))) - at_lo) / (hi - lo)
        intercept = at_lo - slope * lo
        d = math.lcm(slope.denominator, intercept.denominator) * rng.choice((1, 2))
        lines.append((d, int(slope * d), int(intercept * d)))
    return lo, hi, lines


def wait_at(line, x):
    d, wx, wc = line
    return Fraction(wx * x + wc, d)


class TestCrossings:
    """``_crossings`` reads the lines' order at the strip ends and tests
    pairs only when two lines cross inside; the former loop over every pair
    is the oracle."""

    def test_against_all_pairs(self, pair_tests):
        rng = random.Random(43)
        ran = edge = unbounded = 0
        for _ in range(3000):
            lo, hi, lines = crossing_case(rng)
            common = math.lcm(*(d for d, _, _ in lines))
            over_common = [(wx * (common // d), wc * (common // d)) for d, wx, wc in lines]
            tested = pair_tests[0]
            got = rtenergy.algebra._crossings(over_common, lo, hi)
            want = crossings_all_pairs(lines, lo, hi)
            assert got == sorted(want), (lo, hi, lines)
            # the pair loop runs exactly when two lines cross inside
            assert (pair_tests[0] > tested) == bool(want), (lo, hi, lines)
            ran += bool(want)
            unbounded += hi is None and bool(want)
            # a crossing exactly on an edge: two lines of unequal slope that
            # meet at lo or hi
            edge += any(
                wait_at(u, x) == wait_at(v, x) and Fraction(u[1], u[0]) != Fraction(v[1], v[0])
                for u, v in itertools.combinations(lines, 2)
                for x in (lo, hi)
                if x is not None
            )
        # both paths, the unbounded strip and edge crossings all occur
        assert 300 < ran < 2700, ran
        assert unbounded > 100 and edge > 300, (unbounded, edge)


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


def decision_pair(rng, case):
    """Four generators in turn: random suprema, suprema over coprime
    denominators, one-atom line sets and a component against a supremum."""
    kind = case % 4
    if kind == 0:
        return rand_rtef(rng), rand_rtef(rng)
    if kind == 1:
        return tuple(Rtef.of(rand_coprime_linear(rng) for _ in range(rng.randint(1, 3))) for _ in range(2))
    if kind == 2:
        return line_set(rng, rng.randint(1, 3)), line_set(rng, rng.randint(1, 4))
    return rtef(rand_linear(rng)), Rtef.of(rand_linear(rng) for _ in range(rng.randint(2, 4)))


def clamp_point(c):
    """Where the cell's wait crosses 0, or None for a flat wait."""
    _, wx, wc = c.ints[:3]
    return Fraction(wc, -wx) if wx else None


class TestMergedStrips:
    """Each staircase's last step is one cell from its strip's foot up to
    inf, so x is cut only where some cell's data changes.  The walk that
    cuts at every bound, with one unmerged cell per bound on which every
    wait is >= 0, decides the order for the check."""

    def test_decisions_against_every_bound_oracle(self):
        rng = random.Random(44)
        holding = components_holding = components = 0
        for case in range(3000):
            pair = decision_pair(rng, case)
            for f, g in (pair, pair[::-1]):
                w = order_witness(f, g)
                assert (w is None) == order_holds_every_bound(f, g), (f, g, w)
                if w is None:
                    holding += 1
                else:
                    assert not w[1].is_infinite
                    assert f.eval(*w) > g.eval(*w), (f, g, w)
            for a in pair[0].components:
                for b in pair[1].components:
                    for lhs, rhs in ((a, b), (b, a)):
                        got = leq_linear.__wrapped__(lhs, rhs)
                        assert got == leq_linear_every_bound(lhs, rhs), (lhs, rhs)
                        components += 1
                        components_holding += got
        # 6,000 ordered pairs of suprema and their component pairs
        assert 1000 < holding < 5000, holding
        assert components > 20000 and 3000 < components_holding < components - 3000

    def test_covers_against_violation_search(self):
        # _covers on strips inside a feasible cell of each side, the ends
        # drawn from the cells' edges, both clamp points and points between,
        # against an exact search for a point where f is defined and beats g
        rng = random.Random(45)
        covered = inside = negative = 0
        for i in range(3000):
            a, b = (rand_coprime_linear(rng) if i % 2 else rand_linear(rng) for _ in range(2))
            fc = rng.choice([c for c in component_cells(a) if c.feasible])
            gc = rng.choice([c for c in component_cells(b) if c.feasible])
            lo = max(fc.lo, gc.lo)
            his = [c.hi for c in (fc, gc) if c.hi is not None]
            hi = min(his, default=None)
            if hi is not None and lo >= hi:
                continue
            top = lo + 8 if hi is None else hi
            points = {lo, top, *(lo + (top - lo) * Fraction(rng.randint(1, 7), 8) for _ in range(2))}
            points.update(x for x in map(clamp_point, (fc, gc)) if x is not None and lo <= x <= top)
            points = sorted(points)
            x1, x2 = sorted(rng.sample(points, 2))
            if hi is None and rng.random() < 0.5:
                x1, x2 = rng.choice(points), None
            got = _covers(gc, fc, x1, x2)
            assert got == (violation_point_subsets(fc, [gc], x1, x2) is None), (fc, gc, x1, x2)
            covered += got
            x0 = clamp_point(fc)
            inside += x0 is not None and x1 < x0 and (x2 is None or x0 < x2)
            negative += x0 is not None and x0 < (x1 if x2 is None else x2)
        assert covered > 300 and inside > 300 and negative > 300, (covered, inside, negative)

    def test_clamp_point_inside_the_strip(self):
        # f waits 2 - x, zero at x0 = 2; below its bound 4, g waits 1 - x/4.
        # At both ends of the strip [0, 4) g is defined by f's first time
        # and at least f there, but at x0 f is 2 at t = 0 and g is bottom.
        # The second g has the same cell from 0 up to inf
        f = rtef(lin((1, 0, 2)))
        for g in (rtef(lin((4, 0, 4), (5, 0, 4))), rtef(lin((4, 0, 4)))):
            assert ev(g, 0, 2) >= ev(f, 0, 2) == Energy.of(2)
            assert ev(g, 4, 0) >= ev(f, 4, 0) == Energy.of(4)
            assert ev(f, 2, 0) == Energy.of(2) and ev(g, 2, 0) == BOTTOM
            (lhs,), (rhs,) = f.components, g.components
            assert leq_linear.__wrapped__(lhs, rhs) is False
            assert leq_linear_every_bound(lhs, rhs) is False
            x, t = order_witness(f, g)
            assert f.eval(x, t) > g.eval(x, t)

    def test_wait_below_zero_at_a_strip_end(self, monkeypatch):
        # g's cell edges cut f's one cell at 1 and 3, and f's wait 2 - x is
        # -1 at 3; the top cell of x + 2t covers f on every strip only with
        # f's wait clamped at 0 there, so no strip goes to the sweep
        f = lin((1, 0, 2))
        steps = lin((1, 0, 1), (2, 0, 3), (3, 0, 5))
        assert [c.lo for c in component_cells(steps)] == [0, 1, 3]
        assert leq_linear.__wrapped__(f, steps) is False
        assert leq_linear_every_bound(f, steps) is False
        sweeps = []
        sweep = rtenergy.algebra._violation_point
        monkeypatch.setattr(rtenergy.algebra, "_violation_point", lambda *args: sweeps.append(args) or sweep(*args))
        g = rtef(steps, lin((2, 0, 0)))
        assert order_witness(rtef(f), g) is None and order_holds_every_bound(rtef(f), g)
        assert sweeps == []
