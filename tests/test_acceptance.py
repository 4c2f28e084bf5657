"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact rational arithmetic; no tolerances anywhere except
the stated grid-resolution bound in the oracle sandwich.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
from fractions import Fraction

from rtenergy import (
    BOTTOM,
    Energy,
    LinearRtef,
    Rtef,
    RtefMatrix,
    TIME_INF,
    Time,
    buchi_behavior,
    finite_behavior,
    mat_star,
    normalize,
    parse_model,
    to_matrix_rep,
)
from rtenergy.algebra import component_cells
from rtenergy.omega import act, omega_of
from rtenergy.oracles import DpConfig, buchi_unroll, dp_lower_bound

from helpers import (
    A,
    F1,
    F2,
    SAT_TOP_RAW,
    lin,
    load_model,
    rand_linear,
    rand_model_text,
    rand_rtef,
    rtef,
    sample_points,
)
from references import coefficients, dense, truncated_path_sum


def ok(number: int, text: str):
    print(f"[criterion {number}] PASS - {text}")


def test_criterion_1_normal_form_golden():
    got = normalize(SAT_TOP_RAW)
    assert got == lin((0, 0, 20), (2, 0, 40), (5, -50, 50))
    ok(1, "three-step deployment path rewrites to its exact staircase form")


def test_criterion_2_closed_form_grid():
    f = normalize(SAT_TOP_RAW)

    def reference(x: Fraction, t: Fraction) -> Energy:
        # four-case closed form of the worked example
        if x < 20:
            return BOTTOM
        if x < 40:
            return Energy.of(Fraction(5, 2) * x + 5 * t - 110) if x + 2 * t >= 44 else BOTTOM
        return Energy.of(x + 5 * t - 50) if x + 5 * t >= 50 else BOTTOM

    for i in range(50):
        for j in range(50):
            x = Fraction(60 * i, 49)
            t = Fraction(20 * j, 49)
            assert f.eval(Energy.of(x), Time(t)) == reference(x, t)
    ok(2, "closed-form formula matches on the full 50x50 rational grid, exactly")


def test_criterion_3_star_golden():
    star = rtef(F1, F2).star()
    want = Rtef.of([LinearRtef(), F1, F2, normalize(F1.atoms + F2.atoms)])
    assert star.leq(want) and want.leq(star)
    comp = normalize(F1.atoms + F2.atoms)
    assert comp == lin((0, 0, 30), (4, 0, 50), (5, -60, 60))
    pieces = [p for p in component_cells(comp) if p.feasible]
    assert [coefficients(p)[2:] for p in pieces] == [
        (Fraction(5), Fraction(5, 4), Fraction(-145, 2)),
        (Fraction(5), Fraction(1), Fraction(-60)),
    ]
    ok(3, "closure of the two-loop supremum is 1 v f1 v f2 v f1.f2 with exact pieces")


def test_criterion_4_satellite_end_to_end():
    behavior = finite_behavior(to_matrix_rep(load_model("satellite.rtea")))
    cases = [
        (Fraction(50), Fraction(0), Energy.of(0)),
        (Fraction(40), Fraction(2), Energy.of(0)),
        (Fraction(20), Fraction(10), Energy.of(0)),
        (Fraction(20), Fraction(39, 4), BOTTOM),
        (Fraction(19), Fraction(10**6), BOTTOM),
    ]
    for x, t, want in cases:
        assert behavior.eval(Energy.of(x), Time(t)) == want
    ok(4, "all five narrative energy/time points decide exactly as told")


def test_criterion_5_order_counterexample():
    f = rtef(lin((4, 0, 0)))
    fp = rtef(lin((1, 0, 1), (5, 0, 2)))
    assert f.eval(Energy.of(0), Time.of(1)) == Energy.of(4)
    assert fp.eval(Energy.of(0), Time.of(1)) == BOTTOM
    assert f.leq(fp) is False
    assert fp.compose(f).leq(fp) is True
    ok(5, "rate order does not imply pointwise order, yet trailing passes never help")


def test_criterion_6_buchi_triple():
    pump = load_model("pump.rtea")
    v = buchi_behavior(to_matrix_rep(pump))
    assert v.eval(Energy.of(3), Time.of(2)) is True
    assert buchi_unroll(pump, Fraction(3), Fraction(2), 50) is True
    assert v.eval(Energy.of(3), Time.of(1)) is False
    assert v.eval(Energy.of(0), TIME_INF) is True

    leak = buchi_behavior(to_matrix_rep(load_model("pump_leak.rtea")))
    rng = random.Random(606)
    for _ in range(100):
        x = Energy.of(Fraction(rng.randint(0, 400), 4))
        t = Time(Fraction(rng.randint(0, 400), 4))
        assert leak.eval(x, t) is False
    assert leak.eval(Energy.of(0), TIME_INF) is True

    flat = buchi_behavior(to_matrix_rep(load_model("pump_flat.rtea")))
    assert not any(flat.eval(x, t) for x, t in sample_points(with_inf=True))
    assert flat.eval(Energy.of(100), TIME_INF) is False
    ok(6, "pump loop, leaking loop and flat leak decide exactly; unroller confirms")


def test_criterion_7_property_suites():
    grid = [
        (Energy.of(Fraction(x, 2)), Time(Fraction(t, 2)))
        for x in (0, 3, 10, 41)
        for t in (0, 1, 9, 30)
    ]

    rng = random.Random(71)
    for _ in range(200):  # monotonicity
        f = rand_rtef(rng)
        xs = sorted(Fraction(rng.randint(0, 60), 2) for _ in range(2))
        ts = sorted(Fraction(rng.randint(0, 40), 2) for _ in range(2))
        lo = f.eval(Energy.of(xs[0]), Time(ts[0]))
        hi = f.eval(Energy.of(xs[1]), Time(ts[1]))
        assert not lo > hi
        assert not f.eval(Energy.of(xs[1]), Time(ts[1])) > f.eval(Energy.of(xs[1]), TIME_INF)

    rng = random.Random(72)
    for _ in range(200):  # energy slope >= 1
        f = rand_rtef(rng)
        x1, x2 = sorted(Fraction(rng.randint(0, 60), 2) for _ in range(2))
        t = Time(Fraction(rng.randint(0, 40), 2))
        lo, hi = f.eval(Energy.of(x1), t), f.eval(Energy.of(x2), t)
        if lo.is_finite and hi.is_finite:
            assert hi.value - lo.value >= x2 - x1

    rng = random.Random(73)
    for _ in range(200):  # semiring laws at sampled points
        f, g, h = (rand_rtef(rng, max_comps=2, max_atoms=2) for _ in range(3))
        fg_h, f_gh = f.compose(g).compose(h), f.compose(g.compose(h))
        dl, dl_parts = f.compose(g.sup(h)), f.compose(g).sup(f.compose(h))
        dr, dr_parts = f.sup(g).compose(h), f.compose(h).sup(g.compose(h))
        for x, t in grid:
            assert fg_h.eval(x, t) == f_gh.eval(x, t)
            assert dl.eval(x, t) == dl_parts.eval(x, t)
            assert dr.eval(x, t) == dr_parts.eval(x, t)
        assert Rtef.one().compose(f) == f.prune()
        assert Rtef.bottom().compose(f) == Rtef.bottom()

    rng = random.Random(74)
    for _ in range(200):  # local closure: powers stop growing at the size
        f = rand_rtef(rng, max_comps=2, max_atoms=2)
        acc = Rtef.one()
        power = Rtef.one()
        for _ in range(len(f.components)):
            power = power.compose(f)
            acc = acc.sup(power)
        more = acc.sup(power.compose(f))
        assert acc.leq(more) and more.leq(acc)
        star = f.star()
        assert star.leq(acc) and acc.leq(star)

    rng = random.Random(75)
    omega_grid = sample_points(with_inf=True)
    for _ in range(200):  # peeling one factor / pairing factors of iteration
        f = rand_rtef(rng, max_comps=2, max_atoms=2)
        v = omega_of(f)
        peeled = act(f, v)
        paired = omega_of(f.compose(f))
        for x, t in omega_grid:
            assert peeled.eval(x, t) == v.eval(x, t)
            assert paired.eval(x, t) == v.eval(x, t)

    rng = random.Random(76)
    for _ in range(200):  # matrix closure vs path-sum oracle on 3x3
        rows = []
        for _ in range(3):
            row = []
            for _ in range(3):
                if rng.random() < 0.6:
                    row.append(Rtef.of([rand_linear(rng, 2, allow_identity=False)]))
                else:
                    row.append(Rtef.bottom())
            rows.append(row)
        m = RtefMatrix.of(rows)
        star = mat_star(m)
        comps = max((len(f.components) for row in star.succ for f in row.values()), default=0)
        oracle = truncated_path_sum(m, 3 * max(1, comps) + 1)
        for got, want in zip(dense(star), dense(oracle)):
            for f, g in zip(got, want):
                assert f.leq(g) and g.leq(f)

    ok(7, "six property suites, 200 exact random cases each")


def test_criterion_8_oracle_sandwich():
    deltas = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]

    def check(model, points):
        behavior = finite_behavior(to_matrix_rep(model))
        max_rate = max(r for _, r in model.states)
        for x0, t in points:
            exact = behavior.eval(Energy.of(x0), Time(t))
            for delta in deltas:
                if t % delta != 0:
                    continue
                got = dp_lower_bound(model, x0, t, DpConfig(delta, int(t / delta)))
                assert got <= exact
                if exact.is_finite:
                    assert got.is_finite
                    assert exact.value - got.value <= max_rate * delta
                elif exact.is_bottom:
                    assert got.is_bottom

    sat_points = [
        (Fraction(50), Fraction(0)),
        (Fraction(40), Fraction(2)),
        (Fraction(20), Fraction(10)),
        (Fraction(19), Fraction(10)),
        (Fraction(25), Fraction(8)),
        (Fraction(30), Fraction(4)),
    ]
    check(load_model("satellite.rtea"), sat_points)

    rng = random.Random(81)
    rand_points = [(Fraction(x), Fraction(t)) for x in (0, 1, 2, 5, 8, 12) for t in (1, 2, 4, 8)]
    for _ in range(10):
        check(parse_model(rand_model_text(rng)), rand_points)
    ok(8, "grid program stays below the exact value and within max-rate * delta")
