"""The reference implementations themselves: bounds, convergence, examples."""

import random
from fractions import Fraction

import pytest

from rtenergy import BOTTOM, Energy, LinearRtef, Time, finite_behavior, parse_model, to_matrix_rep
from rtenergy.oracles import DpConfig, buchi_unroll, dp_lower_bound

from helpers import F1, F2, SAT_TOP_NF, load_model, rand_model_text
from references import compose_split_oracle, exact_schedule_value


class TestDpLowerBound:
    def test_satellite_on_grid(self):
        sat = load_model("satellite.rtea")
        assert dp_lower_bound(sat, Fraction(20), Fraction(10), DpConfig(Fraction(1), 10)) == Energy.of(0)

    def test_satellite_below_entry_threshold(self):
        sat = load_model("satellite.rtea")
        for delta, steps in ((Fraction(1), 10), (Fraction(1, 4), 40)):
            assert dp_lower_bound(sat, Fraction(19), Fraction(10), DpConfig(delta, steps)) == BOTTOM

    def test_no_time_below_bounds(self):
        m = parse_model(
            "rtea { state a rate 5 initial; state b rate 0 accepting; trans a -> b price -3 bound 7; }"
        )
        assert dp_lower_bound(m, Fraction(2), Fraction(0), DpConfig(Fraction(1), 0)) == BOTTOM

    def test_config_must_match_horizon(self):
        sat = load_model("satellite.rtea")
        with pytest.raises(ValueError):
            dp_lower_bound(sat, Fraction(20), Fraction(10), DpConfig(Fraction(1), 9))
        with pytest.raises(ValueError):
            DpConfig(Fraction(0), 3)

    def test_never_exceeds_exact_and_refines_monotonically(self):
        rng = random.Random(13)
        for _ in range(12):
            model = parse_model(rand_model_text(rng))
            behavior = finite_behavior(to_matrix_rep(model))
            for x0 in (Fraction(0), Fraction(3), Fraction(11)):
                t = Fraction(4)
                prev = BOTTOM
                for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                    got = dp_lower_bound(model, x0, t, DpConfig(delta, int(t / delta)))
                    assert got <= behavior.eval(Energy.of(x0), Time(t))
                    assert prev <= got
                    prev = got

    def test_post_arrival_waiting_not_credited(self):
        # accepting state earns fast, but a run ends on arrival
        m = parse_model(
            "rtea { state a rate 0 initial; state b rate 9 accepting; trans a -> b price 0 bound 0; }"
        )
        assert dp_lower_bound(m, Fraction(2), Fraction(4), DpConfig(Fraction(1), 4)) == Energy.of(2)
        behavior = finite_behavior(to_matrix_rep(m))
        assert behavior.eval(Energy.of(2), Time.of(4)) == Energy.of(2)


class TestComposeSplitOracle:
    def test_two_loop_point(self):
        got = compose_split_oracle(F1, F2, Energy.of(50), Fraction(2), 8)
        assert got == Energy.of(0)  # 5t + x - 60 at (50, 2)

    def test_identity_prefix(self):
        for x, t in ((Fraction(25), Fraction(4)), (Fraction(60), Fraction(0))):
            got = compose_split_oracle(LinearRtef(), SAT_TOP_NF, Energy.of(x), t, 6)
            assert got == SAT_TOP_NF.eval(Energy.of(x), Time(t))

    def test_bottom_input(self):
        assert compose_split_oracle(F1, F2, BOTTOM, Fraction(5), 4) == BOTTOM


class TestExactSchedule:
    def test_matches_greedy_on_normal_forms(self):
        rng = random.Random(14)
        for _ in range(60):
            x = Fraction(rng.randint(0, 120), 2)
            t = Fraction(rng.randint(0, 40), 2)
            assert exact_schedule_value(SAT_TOP_NF.atoms, x, t) == SAT_TOP_NF.eval(Energy.of(x), Time(t))

    def test_raw_sequence_infeasible(self):
        from helpers import A

        assert exact_schedule_value((A(0, -5, 20),), Fraction(3), Fraction(100)) == BOTTOM

    def test_empty_sequence_is_identity(self):
        assert exact_schedule_value((), Fraction(7), Fraction(3)) == Energy.of(7)


class TestBuchiUnroll:
    def test_pump_definitive_yes(self):
        pump = load_model("pump.rtea")
        assert buchi_unroll(pump, Fraction(3), Fraction(2), 50) is True

    def test_pump_short_horizon(self):
        pump = load_model("pump.rtea")
        assert buchi_unroll(pump, Fraction(3), Fraction(1), 50) is False

    def test_leaking_pump_never_certified(self):
        leak = load_model("pump_leak.rtea")
        for reps in (10, 50, 200):
            assert buchi_unroll(leak, Fraction(3), Fraction(2), reps) is False

    def test_no_accepting_state(self):
        m = parse_model("rtea { state a rate 1 initial; trans a -> a price 0 bound 0; }")
        assert buchi_unroll(m, Fraction(5), Fraction(5), 10) is False

    def test_true_implies_exact_buchi(self):
        from rtenergy import buchi_behavior

        rng = random.Random(15)
        models = [load_model("pump.rtea")] + [parse_model(rand_model_text(rng)) for _ in range(25)]
        hits = 0
        for model in models:
            exact = buchi_behavior(to_matrix_rep(model))
            for x0, t in ((Fraction(0), Fraction(2)), (Fraction(6), Fraction(4))):
                if buchi_unroll(model, x0, t, 16):
                    hits += 1
                    assert exact.eval(Energy.of(x0), Time(t)) is True
        assert hits > 0
