"""Matrix closure, infinite iteration, and automaton behaviors."""

import inspect
import json
import random
import sys
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
    omega_of,
    parse_model,
    to_matrix_rep,
)
import rtenergy.matrix
from rtenergy.oracles import DpConfig, dp_lower_bound
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
from references import (
    identity,
    mat_omega_lasso,
    mat_omega_recursive,
    mat_star_blocks,
    mat_sup,
    truncated_path_sum,
    zeros,
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
        eye = identity(3)
        assert mat_mul(eye, m) == m or entries_equal(mat_mul(eye, m), m)
        assert entries_equal(mat_mul(m, eye), m)
        # the dense rows are derived from the successor maps and back
        assert RtefMatrix.of(m.rows) == m
        assert RtefMatrix.of(eye.rows) == eye

    def test_bottom_annihilates(self):
        rng = random.Random(2)
        m = rand_matrix(rng, 3)
        z = zeros(3, 3)
        assert mat_mul(m, z) == z
        assert mat_mul(z, m) == z
        wide = zeros(2, 3)
        assert wide.succ == ({}, {}) and (wide.n_rows, wide.n_cols) == (2, 3)
        assert RtefMatrix.of(wide.rows) == wide

    def test_nilpotent_product(self):
        up = RtefMatrix.of([[Rtef.bottom(), rtef(F1)], [Rtef.bottom(), Rtef.bottom()]])
        z = zeros(2, 2)
        assert mat_mul(up, z) == z

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mat_mul(zeros(2, 3), zeros(2, 3))
        with pytest.raises(ValueError):
            mat_sup(zeros(2, 3), zeros(3, 3))
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
            rhs = mat_sup(identity(3), mat_mul(m, star))
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

        def counting(f, star=None):
            calls.append(f)
            return omega_of(f, star)

        monkeypatch.setattr(rtenergy.matrix, "omega_of", counting)
        rep = to_matrix_rep(parse_model(rand_model_text(random.Random(10), n, accepting=range(n))))
        assert rep.accepting_count == n
        mat_omega_accepting(rep.matrix, n)
        assert len(calls) == n

    def test_one_star_per_loop(self, monkeypatch):
        # the omega step of an accepting pivot reuses the loop's star
        rng = random.Random(12)
        stars = 0
        star = Rtef.star

        def counting(f):
            nonlocal stars
            stars += 1
            return star(f)

        monkeypatch.setattr(Rtef, "star", counting)
        for _ in range(20):
            n = rng.randint(2, 8)
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=range(n))))
            stars = 0
            steps = rtenergy.matrix._factor(rep.matrix, list(range(n)), n)
            assert stars == sum(s is not None for _, s, *_ in steps)


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

        def counting_omega(f, star=None):
            omegas.append(1)
            return omega_of(f, star)

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
            AutomatonRep((True,), identity(2), 1)
        with pytest.raises(ValueError):
            AutomatonRep((True, False), identity(2), 3)
        AutomatonRep((True, False), identity(2), 1)

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


def reaches(m: RtefMatrix, i: int) -> set[int]:
    seen, stack = {i}, [i]
    while stack:
        for j in m.succ[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def scc_labels(m: RtefMatrix) -> list[int]:
    """The strongly connected component of each state, by brute force: the
    least state that it reaches and that reaches it."""
    reach = [reaches(m, i) for i in range(m.dim())]
    return [min(j for j in reach[i] if i in reach[j]) for i in range(m.dim())]


def per_scc_rule_holds(order, comp, k) -> bool:
    """No accepting state (index < k) before a non-accepting state of its
    own strongly connected component."""
    seen_accepting = set()
    for p in order:
        if p < k:
            seen_accepting.add(comp[p])
        elif comp[p] in seen_accepting:
            return False
    return True


def ring_and_chain(n: int):
    f = Rtef.of([lin((1, -1, 1))])
    ring = RtefMatrix(n, tuple({(i + 1) % n: f} for i in range(n)))
    chain = RtefMatrix(n, tuple({i + 1: f} if i + 1 < n else {} for i in range(n)))
    return ring, chain


class TestEliminationOrder:
    """The minimum-degree order and the late states it holds to the end."""

    def reps(self):
        # n = 1..12 random automata with random accepting sets, then
        # hand-built reps with 2 or 3 initial states
        rng = random.Random(2033)
        for _ in range(120):
            n = rng.randint(1, 12)
            accepting = rng.sample(range(n), rng.randint(0, n))
            yield to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
        for _ in range(30):
            n = rng.randint(3, 6)
            starts = rng.sample(range(n), rng.randint(2, 3))
            alpha = tuple(i in starts for i in range(n))
            yield AutomatonRep(alpha, rand_matrix(rng, n, fill=0.4), rng.randint(0, n))

    def test_permutation_with_initial_states_last(self):
        for rep in self.reps():
            n = rep.matrix.dim()
            order = rtenergy.matrix._order(rep.matrix, rep.alpha)
            assert sorted(order) == list(range(n))
            initial = {i for i in range(n) if rep.alpha[i]}
            assert set(order[n - len(initial):]) == initial
            free = rtenergy.matrix._order(rep.matrix, [False] * n)
            assert sorted(free) == list(range(n))

    def test_late_states_last_and_determinism(self):
        # the accepting states of mat_omega_accepting, then a random late
        # set that need not be a leading block
        rng = random.Random(2034)
        for rep in self.reps():
            m, k = rep.matrix, rep.accepting_count
            n = m.dim()
            for late in ([p < k for p in range(n)], [rng.random() < 0.3 for _ in range(n)]):
                order = rtenergy.matrix._order(m, late)
                assert sorted(order) == list(range(n))
                count = sum(late)
                assert all(late[p] for p in order[n - count:])
                assert order == rtenergy.matrix._order(m, late)

    def test_least_degree_first(self):
        # a hub 0 with five spokes in and out: index order fills the whole
        # 5 x 5 block, the minimum-degree order none of it; once four spokes
        # are gone, the hub and the last spoke tie and the hub goes first
        f = Rtef.of([lin((1, -1, 1))])
        hub = RtefMatrix(6, ({j: f for j in range(1, 6)},) + tuple({0: f} for _ in range(5)))
        assert rtenergy.matrix._order(hub, [False] * 6) == [1, 2, 3, 4, 0, 5]
        # a late state waits for every state that is not late
        assert rtenergy.matrix._order(hub, [True] + [False] * 5) == [1, 2, 3, 4, 5, 0]

    def test_no_recursion_on_10000_states(self):
        n = 10_000
        ring, chain = ring_and_chain(n)
        limit = sys.getrecursionlimit()
        # far below the depth a recursive pass over either graph would need
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            ring_order = rtenergy.matrix._order(ring, [p < 1 for p in range(n)])
            chain_order = rtenergy.matrix._order(chain, [False] * n)
        finally:
            sys.setrecursionlimit(limit)
        assert ring_order[-1] == 0 and sorted(ring_order) == list(range(n))
        assert sorted(chain_order) == list(range(n))


def per_scc_order(rng: random.Random, comp, k: int, accepting_first=False) -> list[int]:
    """A random order in which, within each strongly connected component,
    the non-accepting states (index >= k) go first, or, with
    ``accepting_first``, last: shuffle, then refill the places each
    component holds with its own states in that arrangement."""
    n = len(comp)
    order = rng.sample(range(n), n)
    places, members = {}, {}
    for t, p in enumerate(order):
        places.setdefault(comp[p], []).append(t)
        members.setdefault(comp[p], []).append(p)
    for c, ps in members.items():
        rng.shuffle(ps)
        ps.sort(key=lambda p: (p < k) != accepting_first)
        for t, p in zip(places[c], ps):
            order[t] = p
    return order


class TestSolverOrder:
    """The one elimination solver under random orders against the callers'
    own: any order for the finite part, and for the omega part any order
    in which, within each strongly connected component, the non-accepting
    states go first."""

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
            z = rtenergy.matrix._solve(rtenergy.matrix._factor(rep.matrix, order, 0), w, initial)
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
            steps = rtenergy.matrix._factor(rep.matrix, order, k)
            z = rtenergy.matrix._solve(steps, [OmegaVal.false()] * n, want)
            ref = mat_omega_accepting(rep.matrix, k)
            assert all(omega_agree(z[i], ref[i]) for i in want)

    def omega_as_references(self, rep, order, oracles) -> bool:
        n, k = rep.matrix.dim(), rep.accepting_count
        steps = rtenergy.matrix._factor(rep.matrix, order, k)
        z = rtenergy.matrix._solve(steps, [OmegaVal.false()] * n, range(n))
        return all(all(omega_agree(g, r) for g, r in zip(z, oracle(rep.matrix, k))) for oracle in oracles)

    def test_omega_part_in_any_order_inside_each_component(self):
        # an order that also keeps the global rule is checked against
        # mat_omega_accepting alone; one that breaks it against the block
        # recursion as well
        beyond_global = 0
        for rng, rep in self.reps():
            k = rep.accepting_count
            comp = scc_labels(rep.matrix)
            order = per_scc_order(rng, comp, k)
            assert per_scc_rule_holds(order, comp, k)
            oracles = [mat_omega_accepting]
            if not per_scc_rule_holds(order, [0] * len(comp), k):
                beyond_global += 1
                oracles.append(mat_omega_recursive)
            assert self.omega_as_references(rep, order, oracles)
        print(f"{beyond_global} of 190 per-component orders break the global rule")
        assert beyond_global > 40

    def test_accepting_before_non_accepting_misses_runs(self):
        # negative control: accepting states first within each component
        # must make the check above fail somewhere
        broken = missed = 0
        for rng, rep in self.reps():
            k = rep.accepting_count
            comp = scc_labels(rep.matrix)
            order = per_scc_order(rng, comp, k, accepting_first=True)
            if not per_scc_rule_holds(order, comp, k):
                broken += 1
                missed += not self.omega_as_references(rep, order, [mat_omega_accepting])
        print(f"{missed} of {broken} rule-breaking orders miss a run")
        assert missed > 0


class TestFactorOnce:
    """One factorization serves every right-hand side."""

    def test_star_factors_once_and_stars_each_pivot_once(self, monkeypatch):
        factor, star, calls = rtenergy.matrix._factor, Rtef.star, {"factor": 0, "star": 0}

        def counted_factor(*args):
            calls["factor"] += 1
            return factor(*args)

        def counted_star(f):
            calls["star"] += 1
            return star(f)

        monkeypatch.setattr(rtenergy.matrix, "_factor", counted_factor)
        monkeypatch.setattr(Rtef, "star", counted_star)
        # a ring with a self-loop on every state, so every pivot has a loop
        # and a solver that eliminates once per column stars n^2 times
        rng = random.Random(19)
        for n in (2, 3, 5, 8):
            ring = RtefMatrix(n, tuple({i: rtef(F1), (i + 1) % n: rtef(F2)} for i in range(n)))
            for m in (ring, rand_matrix(rng, n)):
                calls.update(factor=0, star=0)
                mat_star(m)
                assert calls["factor"] == 1
                assert calls["star"] == n if m is ring else calls["star"] <= n

    def test_solves_leave_the_steps_unchanged(self):
        # two different right-hand sides on one factorization, then the
        # first again, against a fresh factorization for each
        rng = random.Random(1919)
        for _ in range(60):
            n = rng.randint(1, 8)
            accepting = rng.sample(range(n), rng.randint(0, n))
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
            k = rep.accepting_count
            order = rtenergy.matrix._order(rep.matrix, [p < k for p in range(n)])
            goal, false = OmegaVal(Rtef.one(), None), OmegaVal.false()
            j = rng.randrange(n)
            w1 = [goal if i < k else false for i in range(n)]
            w2 = [OmegaVal(Rtef.one(), Fraction(rng.randint(0, 9))) if i == j else false for i in range(n)]
            steps = rtenergy.matrix._factor(rep.matrix, order, k)
            got = [rtenergy.matrix._solve(steps, w, range(n)) for w in (w1, w2, w1)]
            fresh = [
                rtenergy.matrix._solve(rtenergy.matrix._factor(rep.matrix, order, k), w, range(n))
                for w in (w1, w2, w1)
            ]
            assert got == fresh
            assert got[0] == got[2]


def reverse_index_order(rep: AutomatonRep) -> list[int]:
    """The order of ``finite_behavior`` before the minimum-degree order:
    the non-initial states in reverse index order, then the initial ones."""
    n = rep.matrix.dim()
    return [p for p in reversed(range(n)) if not rep.alpha[p]] + [i for i in range(n) if rep.alpha[i]]


def finite_in_reverse_index_order(rep: AutomatonRep) -> Rtef:
    n, k = rep.matrix.dim(), rep.accepting_count
    initial = [i for i in range(n) if rep.alpha[i]]
    w = [OmegaVal(Rtef.one(), None) if j < k else OmegaVal.false() for j in range(n)]
    steps = rtenergy.matrix._factor(rep.matrix, reverse_index_order(rep), 0)
    z = rtenergy.matrix._solve(steps, w, initial)
    out = Rtef.bottom()
    for i in initial:
        out = out.sup(z[i].support)
    return out


def omega_non_accepting_first(m: RtefMatrix, k: int) -> list[OmegaVal]:
    """``mat_omega_accepting`` in its former order: every non-accepting
    state, then every accepting one, each group in index order."""
    n = m.dim()
    steps = rtenergy.matrix._factor(m, [*range(k, n), *range(k)], k)
    return rtenergy.matrix._solve(steps, [OmegaVal.false()] * n, range(n))


def star_in_index_order(m: RtefMatrix) -> RtefMatrix:
    """``mat_star`` in its former order: the states eliminated in index
    order."""
    n = m.dim()
    steps = rtenergy.matrix._factor(m, list(range(n)), 0)
    goal, false = OmegaVal(Rtef.one(), None), OmegaVal.false()
    cols = [rtenergy.matrix._solve(steps, [goal if i == j else false for i in range(n)], range(n)) for j in range(n)]
    return RtefMatrix.of([[col[i].support for col in cols] for i in range(n)])


class TestMinimumDegreeAgainstFormerOrders:
    """The minimum-degree order against the orders it replaced, on the
    bundled models and seeded random automata up to 16 states."""

    def reps(self):
        reps = [to_matrix_rep(load_model(p.name)) for p in sorted(MODELS.glob("*.rtea"))]
        rng = random.Random(2035)
        for i in range(60):
            n = rng.randint(2, 16)
            accepting = (None, rng.sample(range(n), max(1, n // 5)), rng.sample(range(n), rng.randint(1, n)))[i % 3]
            reps.append(to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting))))
        return reps

    def test_finite_and_buchi_behaviors(self):
        differ = 0
        for rep in self.reps():
            m, k = rep.matrix, rep.accepting_count
            n = m.dim()
            got, want = finite_behavior(rep), finite_in_reverse_index_order(rep)
            assert rtef_agree(got, want)
            vec, ref = mat_omega_accepting(m, k), omega_non_accepting_first(m, k)
            assert all(omega_agree(g, r) for g, r in zip(vec, ref))
            initial = [i for i in range(n) if rep.alpha[i]]
            want_buchi = OmegaVal.false()
            for i in initial:
                want_buchi = want_buchi.sup(ref[i])
            assert omega_agree(buchi_behavior(rep), want_buchi)
            differ += rtenergy.matrix._order(m, rep.alpha) != reverse_index_order(rep)
        # the orders themselves differ on most of the corpus
        print(f"reach order differs on {differ} of 66 reps")
        assert differ > 30

    def test_closure(self):
        equal = 0
        for rep in self.reps()[:24]:
            got, want = mat_star(rep.matrix), star_in_index_order(rep.matrix)
            assert entries_equal(got, want)
            equal += got == want
        print(f"mat_star == index-order closure on {equal} of 24 reps")


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
