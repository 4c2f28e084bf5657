"""Matrix closure, infinite iteration, and automaton behaviors."""

import json
import random
from fractions import Fraction

import pytest

from rtenergy import (
    AutomatonRep,
    BOTTOM,
    Energy,
    OmegaVal,
    Rtef,
    RtefMatrix,
    TIME_INF,
    Time,
    buchi_behavior,
    finite_behavior,
    mat_mul,
    mat_omega_accepting,
    mat_star,
    mat_sup,
    omega_of,
    parse_model,
    to_matrix_rep,
)
import rtenergy.matrix
from rtenergy.oracles import (
    DpConfig,
    dp_lower_bound,
    mat_omega_lasso,
    mat_omega_recursive,
    mat_star_blocks,
    truncated_path_sum,
)
from rtenergy.regions import function_json

from helpers import (
    F1,
    F2,
    MODELS,
    lin,
    load_model,
    mat_star_half,
    rand_linear,
    rand_model_text,
    rtef,
    sample_points,
)


def rand_matrix(rng: random.Random, n: int, fill=0.6, max_atoms=2) -> RtefMatrix:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < fill:
                row.append(Rtef.of([rand_linear(rng, max_atoms, allow_identity=False)]))
            else:
                row.append(Rtef.bottom())
        rows.append(row)
    return RtefMatrix.of(rows)


def entries_equal(a: RtefMatrix, b: RtefMatrix) -> bool:
    return all(
        a.rows[i][j].leq(b.rows[i][j]) and b.rows[i][j].leq(a.rows[i][j])
        for i in range(a.n_rows)
        for j in range(a.n_cols)
    )


class TestMatMul:
    def test_identity_neutral(self):
        rng = random.Random(1)
        m = rand_matrix(rng, 3)
        eye = RtefMatrix.identity(3)
        assert mat_mul(eye, m) == m or entries_equal(mat_mul(eye, m), m)
        assert entries_equal(mat_mul(m, eye), m)
        # the dense rows are derived from the successor maps and back
        assert RtefMatrix.of(m.rows) == m
        assert RtefMatrix.of(eye.rows) == eye

    def test_bottom_annihilates(self):
        rng = random.Random(2)
        m = rand_matrix(rng, 3)
        z = RtefMatrix.zeros(3, 3)
        assert mat_mul(m, z) == z
        assert mat_mul(z, m) == z
        wide = RtefMatrix.zeros(2, 3)
        assert wide.succ == ({}, {}) and (wide.n_rows, wide.n_cols) == (2, 3)
        assert RtefMatrix.of(wide.rows) == wide

    def test_nilpotent_product(self):
        up = RtefMatrix.of([[Rtef.bottom(), rtef(F1)], [Rtef.bottom(), Rtef.bottom()]])
        z = RtefMatrix.zeros(2, 2)
        assert mat_mul(up, z) == z

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mat_mul(RtefMatrix.zeros(2, 3), RtefMatrix.zeros(2, 3))
        with pytest.raises(ValueError):
            mat_sup(RtefMatrix.zeros(2, 3), RtefMatrix.zeros(3, 3))
        with pytest.raises(ValueError):
            RtefMatrix.of([[rtef(F1), Rtef.bottom()], [rtef(F1)]])
        with pytest.raises(ValueError):
            RtefMatrix(2, ({}, {2: rtef(F1)}))
        with pytest.raises(ValueError):
            RtefMatrix(2, ({-1: rtef(F1)}, {}))
        with pytest.raises(ValueError):
            RtefMatrix(2, ({0: Rtef.bottom()}, {}))


class TestMatStar:
    def test_base_case(self):
        f = rtef(F1, F2)
        m = RtefMatrix.of([[f]])
        assert mat_star(m).rows[0][0] == f.star()

    def test_nilpotent(self):
        m = RtefMatrix.of([[Rtef.bottom(), rtef(F1)], [Rtef.bottom(), Rtef.bottom()]])
        star = mat_star(m)
        assert star.rows[0][0] == Rtef.one()
        assert star.rows[0][1] == rtef(F1)
        assert star.rows[1][0] == Rtef.bottom()
        assert star.rows[1][1] == Rtef.one()

    def test_fixed_point_equation(self):
        rng = random.Random(3)
        for _ in range(10):
            m = rand_matrix(rng, 3)
            star = mat_star(m)
            rhs = mat_sup(RtefMatrix.identity(3), mat_mul(m, star))
            for i in range(3):
                for j in range(3):
                    for x, t in sample_points():
                        assert star.rows[i][j].eval(x, t) == rhs.rows[i][j].eval(x, t)

    def test_against_truncated_path_sum(self):
        # truncation bound counts components per entry of the closure itself:
        # bounding by the input matrix is provably too short (stabilization
        # may need longer products of multi-step loop bodies)
        rng = random.Random(4)
        for n in (2, 3):
            for _ in range(15):
                m = rand_matrix(rng, n)
                star = mat_star(m)
                max_comps = max(
                    (len(star.rows[i][j].components) for i in range(n) for j in range(n)),
                    default=0,
                )
                oracle = truncated_path_sum(m, n * max(1, max_comps) + 1)
                assert entries_equal(star, oracle)

    def test_split_choice_is_irrelevant(self):
        # n = 5 at fill 0.9: large predecessor sets, folds into entries already set
        rng = random.Random(5)
        for n, fill in ((3, 0.5), (4, 0.5), (5, 0.9)):
            for _ in range(8):
                m = rand_matrix(rng, n, fill=fill)
                assert entries_equal(mat_star(m), mat_star_half(m))

    def test_solver_equals_block_recursion(self):
        # the six bundled models, then n = 1..8 random models
        reps = [to_matrix_rep(load_model(p.name)) for p in sorted(MODELS.glob("*.rtea"))]
        rng = random.Random(99)
        reps += [to_matrix_rep(parse_model(rand_model_text(rng, rng.randint(1, 8)))) for _ in range(120)]
        for rep in reps:
            assert mat_star(rep.matrix) == mat_star_blocks(rep.matrix)

    def test_satellite_entry(self):
        rep = to_matrix_rep(load_model("satellite.rtea"))
        star = mat_star(rep.matrix)
        i = rep.state_index("closed")
        j = rep.state_index("operational")
        got = star.rows[i][j].eval(Energy.of(20), Time.of(10))
        assert got == Energy.of(0)
        # grid dynamic program reaches the same value (waits 5 and 5 are on-grid)
        model = load_model("satellite.rtea")
        assert dp_lower_bound(model, Fraction(20), Fraction(10), DpConfig(Fraction(1), 10)) == Energy.of(0)


class TestMatOmega:
    def test_single_pump_state(self):
        m = RtefMatrix.of([[rtef(lin((1, 0, 5)))]])
        (v,) = mat_omega_accepting(m, 1)
        assert v.eval(Energy.of(3), Time.of(2)) is True
        assert v.eval(Energy.of(3), Time.of(1)) is False

    def test_no_accepting_states(self):
        m = RtefMatrix.of([[rtef(lin((1, 0, 5)))]])
        (v,) = mat_omega_accepting(m, 0)
        assert not any(v.eval(x, t) for x, t in sample_points(with_inf=True))

    def test_feeder_state_routes_into_loop(self):
        bot = Rtef.bottom()
        m = RtefMatrix.of(
            [
                [rtef(lin((1, 0, 5))), bot],
                [rtef(lin((0, 0, 0))), bot],
            ]
        )
        vec = mat_omega_accepting(m, 1)
        assert vec[1].eval(Energy.of(5), Time.of(0)) is True
        assert vec[1].eval(Energy.of(4), Time.of(0)) is False


class TestLassoOmega:
    """mat_omega_accepting against the block recursion, and one omega_of
    per accepting state."""

    def test_agrees_with_block_recursion(self):
        # every third model has one, two or all states accepting
        rng = random.Random(2024)
        for i in range(150):
            n = rng.randint(2, 6)
            accepting = (None, rng.sample(range(n), 2), range(n))[i % 3]
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
            k = rep.accepting_count
            got = mat_omega_accepting(rep.matrix, k)
            want = mat_omega_recursive(rep.matrix, k)
            assert len(got) == len(want) == n
            for g, w in zip(got, want):
                assert g.support.leq(w.support) and w.support.leq(g.support)
                assert g.threshold == w.threshold

    def test_one_omega_of_per_accepting_state(self, monkeypatch):
        n = 10
        calls = []

        def counting(f):
            calls.append(f)
            return omega_of(f)

        monkeypatch.setattr(rtenergy.matrix, "omega_of", counting)
        rep = to_matrix_rep(parse_model(rand_model_text(random.Random(10), n, accepting=range(n))))
        assert rep.accepting_count == n
        mat_omega_accepting(rep.matrix, n)
        assert len(calls) == n


def omega_agree(got, want) -> bool:
    return got.support.leq(want.support) and want.support.leq(got.support) and got.threshold == want.threshold


class TestBuchiElimination:
    """mat_omega_accepting by one elimination pass against both omega oracles."""

    def test_agrees_with_both_oracles(self):
        # n = 2..7; no, one, two or all states accepting in turn
        rng = random.Random(2029)
        for i in range(160):
            n = rng.randint(2, 7)
            accepting = ((), None, rng.sample(range(n), 2), range(n))[i % 4]
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
            k = rep.accepting_count
            got = mat_omega_accepting(rep.matrix, k)
            for oracle in (mat_omega_recursive, mat_omega_lasso):
                want = oracle(rep.matrix, k)
                assert len(got) == len(want) == n
                assert all(omega_agree(g, w) for g, w in zip(got, want))

    def test_several_initial_states(self):
        rng = random.Random(2030)
        for _ in range(30):
            n = rng.randint(3, 4)
            starts = rng.sample(range(n), rng.randint(2, 3))
            alpha = tuple(i in starts for i in range(n))
            rep = AutomatonRep(alpha, rand_matrix(rng, n, fill=0.4), rng.randint(1, n))
            vec = mat_omega_lasso(rep.matrix, rep.accepting_count)
            want = OmegaVal.false()
            for i in starts:
                want = want.sup(vec[i])
            assert omega_agree(buchi_behavior(rep), want)

    def test_loops_before_leaving_for_good(self):
        # the run from p gains energy on loops p -> q -> p, then leaves for
        # the free loop at a, which is eliminated before p
        rep = to_matrix_rep(parse_model("""rtea {
          state a rate 0 accepting;
          state p rate 0 initial accepting;
          state q rate 1;
          trans a -> a price 0 bound 0;
          trans p -> a price 0 bound 5;
          trans p -> q price 0 bound 0;
          trans q -> p price -1 bound 1;
        }"""))
        v = buchi_behavior(rep)
        assert v.eval(Energy.of(0), Time.of(6)) is True
        assert v.eval(Energy.of(0), Time.of(5)) is False
        want = mat_omega_recursive(rep.matrix, rep.accepting_count)[rep.alpha.index(True)]
        assert omega_agree(v, want)

    def test_degenerate_reps_are_false(self):
        m = rand_matrix(random.Random(2031), 3)
        assert buchi_behavior(AutomatonRep((False,) * 3, m, 2)) == OmegaVal.false()
        assert buchi_behavior(AutomatonRep((True, False, False), m, 0)) == OmegaVal.false()

    def test_one_pass_without_closure(self, monkeypatch):
        n = 10
        omegas, stars, composes = [], [], []
        real_compose = Rtef.compose

        def counting_omega(f):
            omegas.append(1)
            return omega_of(f)

        def counting_compose(f, g):
            composes.append(1)
            return real_compose(f, g)

        rep = to_matrix_rep(parse_model(rand_model_text(random.Random(10), n, accepting=range(n))))
        monkeypatch.setattr(rtenergy.matrix, "omega_of", counting_omega)
        monkeypatch.setattr(rtenergy.matrix, "mat_star", lambda m: stars.append(m))
        monkeypatch.setattr(Rtef, "compose", counting_compose)
        buchi_behavior(rep)
        print(f"buchi_behavior at n = {n}: {len(composes)} compose calls")
        assert len(omegas) == n
        assert stars == []
        assert len(composes) <= n**3


class TestBehaviors:
    def test_satellite_narrative(self):
        rep = to_matrix_rep(load_model("satellite.rtea"))
        behavior = finite_behavior(rep)
        cases = [
            (Fraction(50), Fraction(0), Energy.of(0)),
            (Fraction(40), Fraction(2), Energy.of(0)),
            (Fraction(20), Fraction(10), Energy.of(0)),
            (Fraction(20), Fraction(39, 4), BOTTOM),
            (Fraction(19), Fraction(10**6), BOTTOM),
        ]
        for x, t, want in cases:
            assert behavior.eval(Energy.of(x), Time(t)) == want

    def test_satellite_has_no_endless_run(self):
        rep = to_matrix_rep(load_model("satellite.rtea"))
        v = buchi_behavior(rep)
        assert v.eval(Energy.of(1000), TIME_INF) is False

    def test_pump_triple(self):
        v = buchi_behavior(to_matrix_rep(load_model("pump.rtea")))
        assert v.eval(Energy.of(3), Time.of(2)) is True
        assert v.eval(Energy.of(3), Time.of(1)) is False
        assert v.eval(Energy.of(0), TIME_INF) is True

    def test_leaking_pump(self):
        v = buchi_behavior(to_matrix_rep(load_model("pump_leak.rtea")))
        rng = random.Random(6)
        for _ in range(100):
            x = Energy.of(Fraction(rng.randint(0, 400), 4))
            t = Time(Fraction(rng.randint(0, 400), 4))
            assert v.eval(x, t) is False
        assert v.eval(Energy.of(0), TIME_INF) is True

    def test_flat_leak_false_everywhere(self):
        v = buchi_behavior(to_matrix_rep(load_model("pump_flat.rtea")))
        assert not any(v.eval(x, t) for x, t in sample_points(with_inf=True))

    def test_rep_validation(self):
        with pytest.raises(ValueError):
            AutomatonRep((True,), RtefMatrix.identity(2), 1)
        with pytest.raises(ValueError):
            AutomatonRep((True, False), RtefMatrix.identity(2), 3)
        rep = AutomatonRep((True, False), RtefMatrix.identity(2), 1)
        assert rep.kappa == (True, False)

    def test_matrix_layer_supports_several_initial_states(self):
        # the text format insists on one initial state; the matrix form does not
        bot = Rtef.bottom()
        m = RtefMatrix.of(
            [
                [bot, bot, bot],
                [rtef(lin((1, -1, 4))), bot, bot],
                [rtef(lin((2, -2, 2))), bot, bot],
            ]
        )
        both = finite_behavior(AutomatonRep((False, True, True), m, 1))
        second = finite_behavior(AutomatonRep((False, True, False), m, 1))
        third = finite_behavior(AutomatonRep((False, False, True), m, 1))
        for x, t in sample_points():
            assert both.eval(x, t) == max(second.eval(x, t), third.eval(x, t))


def closure_row(rep: AutomatonRep) -> Rtef:
    """The closure reading of finite behavior: sup of M*[i][j] over initial i
    and accepting j, with M* from the block recursion, which shares no code
    with the elimination solver."""
    star = mat_star_blocks(rep.matrix)
    out = Rtef.bottom()
    for i, init in enumerate(rep.alpha):
        if init:
            for j in range(rep.accepting_count):
                out = out.sup(star.rows[i][j])
    return out


class TestGoalReach:
    """finite_behavior by state elimination against the full closure row."""

    def test_agrees_with_closure_row(self):
        # n = 1..8; accepting count 0, 1 (the last state), some, all in turn
        rng = random.Random(2026)
        equal = 0
        for i in range(160):
            n = rng.randint(1, 8)
            accepting = ((), None, rng.sample(range(n), rng.randint(1, n)), range(n))[i % 4]
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
            got = finite_behavior(rep)
            want = closure_row(rep)
            assert got.leq(want) and want.leq(got)
            equal += got == want
        print(f"finite_behavior == closure row on {equal} of 160 models")
        assert equal == 160

    def test_several_initial_states(self):
        rng = random.Random(2027)
        for _ in range(30):
            n = rng.randint(3, 4)
            starts = rng.sample(range(n), rng.randint(2, 3))
            alpha = tuple(i in starts for i in range(n))
            rep = AutomatonRep(alpha, rand_matrix(rng, n, fill=0.4), rng.randint(1, n))
            got = finite_behavior(rep)
            want = closure_row(rep)
            assert got.leq(want) and want.leq(got)

    def test_degenerate_reps_are_bottom(self):
        m = rand_matrix(random.Random(2028), 3)
        assert finite_behavior(AutomatonRep((False,) * 3, m, 2)) == Rtef.bottom()
        assert finite_behavior(AutomatonRep((True, False, False), m, 0)) == Rtef.bottom()

    def test_bundled_models_export_identically(self):
        for path in sorted(MODELS.glob("*.rtea")):
            rep = to_matrix_rep(load_model(path.name))
            got = json.dumps(function_json(finite_behavior(rep)))
            assert got == json.dumps(function_json(closure_row(rep))), path.name

    def test_closes_only_the_initial_block(self, monkeypatch):
        n = 10
        dims = []
        composes = []
        real_star = rtenergy.matrix.mat_star
        real_compose = Rtef.compose

        def counting_star(m):
            dims.append(m.dim())
            return real_star(m)

        def counting_compose(f, g):
            composes.append(1)
            return real_compose(f, g)

        rep = to_matrix_rep(parse_model(rand_model_text(random.Random(10), n)))
        monkeypatch.setattr(rtenergy.matrix, "mat_star", counting_star)
        monkeypatch.setattr(Rtef, "compose", counting_compose)
        finite_behavior(rep)
        assert dims == []
        assert len(composes) < n**3 / 2


def rtef_agree(got: Rtef, want: Rtef) -> bool:
    return got.leq(want) and want.leq(got)


class TestSolverOrder:
    """The one elimination solver under random orders against the callers'
    own: any order for the finite part, and for the omega part any order
    inside "non-accepting first, then accepting"."""

    def reps(self):
        # n = 1..8 with no, one, some and all states accepting in turn, then
        # hand-built reps with 2 or 3 initial states
        rng = random.Random(2032)
        for i in range(160):
            n = rng.randint(1, 8)
            accepting = ((), None, rng.sample(range(n), rng.randint(1, n)), range(n))[i % 4]
            yield rng, to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
        for _ in range(30):
            n = rng.randint(3, 5)
            starts = rng.sample(range(n), rng.randint(2, 3))
            alpha = tuple(i in starts for i in range(n))
            yield rng, AutomatonRep(alpha, rand_matrix(rng, n, fill=0.4), rng.randint(1, n))

    def test_finite_part_in_any_order(self):
        early = 0
        for rng, rep in self.reps():
            n, k = rep.matrix.dim(), rep.accepting_count
            initial = [i for i in range(n) if rep.alpha[i]]
            order = rng.sample(range(n), n)
            early += order[0] in initial
            w = [OmegaVal(Rtef.one(), None) if j < k else OmegaVal.false() for j in range(n)]
            z = rtenergy.matrix._solve(rep.matrix, order, w, 0, initial)
            got = Rtef.bottom()
            for i in initial:
                alone = AutomatonRep(tuple(j == i for j in range(n)), rep.matrix, k)
                assert rtef_agree(z[i].support, finite_behavior(alone))
                assert z[i].threshold is None
                got = got.sup(z[i].support)
            assert rtef_agree(got, finite_behavior(rep))
        # an initial state eliminated first needs the states after it
        # back-substituted too
        assert early > 20

    def test_omega_part_in_any_order_inside_the_groups(self):
        for rng, rep in self.reps():
            n, k = rep.matrix.dim(), rep.accepting_count
            order = rng.sample(range(k, n), n - k) + rng.sample(range(k), k)
            want = rng.sample(range(n), rng.randint(1, n))
            z = rtenergy.matrix._solve(rep.matrix, order, [OmegaVal.false()] * n, k, want)
            ref = mat_omega_accepting(rep.matrix, k)
            assert all(omega_agree(z[i], ref[i]) for i in want)


class TestBuchiStructuralCrossCheck:
    """A positive finite-horizon answer needs a reachable all-free cycle
    through an accepting state in the underlying graph."""

    def _structural(self, model) -> bool:
        free = {}
        for tr in model.transitions:
            if tr.price == 0:
                free.setdefault(tr.src, []).append(tr.dst)
        reach = {model.initial}
        frontier = [model.initial]
        succ = {}
        for tr in model.transitions:
            succ.setdefault(tr.src, []).append(tr.dst)
        while frontier:
            cur = frontier.pop()
            for nxt in succ.get(cur, ()):
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        for s in model.accepting:
            if s not in reach:
                continue
            seen, stack = set(), list(free.get(s, ()))
            while stack:
                cur = stack.pop()
                if cur == s:
                    return True
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(free.get(cur, ()))
        return False

    def test_random_models(self):
        from rtenergy import parse_model

        from helpers import rand_model_text

        rng = random.Random(7)
        positives = 0
        for _ in range(40):
            model = parse_model(rand_model_text(rng))
            v = buchi_behavior(to_matrix_rep(model))
            if any(v.eval(x, t) for x, t in sample_points()):
                positives += 1
                assert self._structural(model)
        assert positives > 0

    def test_two_accepting_states_agree_with_unroller(self):
        # two accepting states make the significant block 2x2, driving both
        # branches of the omega recursion; on quarter-grid-friendly models the
        # unroller reproduces the exact answer in both directions
        from fractions import Fraction as F

        from rtenergy import parse_model
        from rtenergy.oracles import buchi_unroll

        from helpers import rand_model_text_two_accepting

        rng = random.Random(52)
        agreements = trues = 0
        for _ in range(60):
            model = parse_model(rand_model_text_two_accepting(rng))
            rep = to_matrix_rep(model)
            assert rep.accepting_count == 2
            v = buchi_behavior(rep)
            for x0 in (F(0), F(2), F(6), F(11)):
                for t in (F(2), F(5)):
                    exact = v.eval(Energy.of(x0), Time(t))
                    unrolled = buchi_unroll(model, x0, t, int(4 * t))
                    assert exact == unrolled
                    agreements += 1
                    trues += exact
        assert agreements == 480 and trues > 0
