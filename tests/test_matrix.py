"""Matrix closure, infinite iteration, and automaton behaviors."""

import hashlib
import inspect
import json
import random
import sys
from fractions import Fraction
from functools import reduce

import pytest

from rtenergy import (
    AutomatonRep,
    BOTTOM,
    Energy,
    LinearRtef,
    OmegaVal,
    Rtef,
    RtefMatrix,
    TIME_INF,
    Time,
    buchi_behavior,
    finite_behavior,
    mat_star,
    parse_model,
    to_matrix_rep,
)
import rtenergy.matrix
from rtenergy.matrix import mat_mul, mat_omega_accepting
from rtenergy.omega import act, omega_of
from rtenergy.algebra import leq_linear
from rtenergy.oracles import DpConfig, dp_lower_bound
from rtenergy.regions import function_json

from helpers import (
    F1,
    F2,
    MODELS,
    lin,
    load_model,
    mat_star_half,
    rand_coprime_linear,
    rand_linear,
    rand_mixed_model_text,
    rand_model_text,
    rtef,
    sample_points,
)
from references import (
    compose_two_step,
    dense,
    identity,
    mat_mul_dense,
    mat_omega_lasso,
    mat_star_blocks,
    mat_sup,
    min_degree_order,
    rtef_of_hashed,
    sup_two_step,
    truncated_path_sum,
    zeros,
)


def rand_matrix(rng: random.Random, n: int, fill=0.6, max_atoms=2, cols=None) -> RtefMatrix:
    """n x n, or n x ``cols``."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n if cols is None else cols):
            if rng.random() < fill:
                row.append(Rtef.of([rand_linear(rng, max_atoms, allow_identity=False)]))
            else:
                row.append(Rtef.bottom())
        rows.append(row)
    return RtefMatrix.of(rows)


def factor_in_order(m: RtefMatrix, order: list[int], k: int) -> list[tuple]:
    """``_factor`` with the pivots in ``order``: each state's place in the
    order is its ``late`` rank, which leads the heap key."""
    rank = [0] * len(order)
    for t, p in enumerate(order):
        rank[p] = t
    steps = rtenergy.matrix._factor(m, rank, k)
    assert [p for p, *_ in steps] == order
    return steps


def pivots(m: RtefMatrix, late) -> list[int]:
    """The order in which ``_factor`` picks its pivots."""
    return [p for p, *_ in rtenergy.matrix._factor(m, late, 0)]


def entries_equal(a: RtefMatrix, b: RtefMatrix) -> bool:
    return all(f.leq(g) and g.leq(f) for ra, rb in zip(dense(a), dense(b)) for f, g in zip(ra, rb))


def vector(z: dict, n: int) -> list[OmegaVal]:
    """A map that ``_solve`` returns, as the list of its n values, false
    where no state is set."""
    return [z.get(i, OmegaVal.false()) for i in range(n)]


def accepting_vector(m: RtefMatrix, k: int) -> list[OmegaVal]:
    """``mat_omega_accepting``'s map as the list of its values."""
    return vector(mat_omega_accepting(m, k), m.dim())


class TestMatMul:
    def test_identity_neutral(self):
        rng = random.Random(1)
        m = rand_matrix(rng, 3)
        eye = identity(3)
        assert mat_mul(eye, m) == m
        assert mat_mul(m, eye) == m
        # the grid is derived from the successor maps and back
        assert RtefMatrix.of(dense(m)) == m
        assert RtefMatrix.of(dense(eye)) == eye

    def test_bottom_annihilates(self):
        rng = random.Random(2)
        m = rand_matrix(rng, 3)
        z = zeros(3, 3)
        assert mat_mul(m, z) == z
        assert mat_mul(z, m) == z
        wide = zeros(2, 3)
        assert wide.succ == ({}, {}) and (len(wide.succ), wide.n_cols) == (2, 3)
        assert RtefMatrix.of(dense(wide)) == wide
        assert dense(wide) == ((Rtef.bottom(),) * 3,) * 2

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

    def test_equals_the_dense_product(self):
        # square products, then rectangular ones, each at a random fill, so
        # that whole rows and columns go empty too
        rng = random.Random(2041)
        for _ in range(60):
            n = rng.randint(1, 5)
            a, b = rand_matrix(rng, n, fill=rng.random()), rand_matrix(rng, n, fill=rng.random())
            assert mat_mul(a, b) == mat_mul_dense(a, b)
        for _ in range(60):
            r, c, d = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, r, fill=rng.random(), cols=c)
            b = rand_matrix(rng, c, fill=rng.random(), cols=d)
            assert mat_mul(a, b) == mat_mul_dense(a, b)
            assert (len(a.succ), a.n_cols, b.n_cols) == (r, c, d)


class TestMatStar:
    def test_base_case(self):
        f = rtef(F1, F2)
        m = RtefMatrix.of([[f]])
        assert mat_star(m) == RtefMatrix.of([[f.star()]])

    def test_nilpotent(self):
        m = RtefMatrix.of([[Rtef.bottom(), rtef(F1)], [Rtef.bottom(), Rtef.bottom()]])
        assert mat_star(m) == RtefMatrix.of([[Rtef.one(), rtef(F1)], [Rtef.bottom(), Rtef.one()]])

    def test_fixed_point_equation(self):
        rng = random.Random(3)
        for _ in range(10):
            m = rand_matrix(rng, 3)
            star = mat_star(m)
            rhs = mat_sup(identity(3), mat_mul(m, star))
            for got, want in zip(dense(star), dense(rhs)):
                for f, g in zip(got, want):
                    for x, t in sample_points():
                        assert f.eval(x, t) == g.eval(x, t)

    def test_against_truncated_path_sum(self):
        # truncation bound counts components per entry of the closure itself:
        # bounding by the input matrix is provably too short (stabilization
        # may need longer products of multi-step loop bodies)
        rng = random.Random(4)
        for n in (2, 3):
            for _ in range(15):
                m = rand_matrix(rng, n)
                star = mat_star(m)
                max_comps = max((len(f.components) for row in star.succ for f in row.values()), default=0)
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
        i = rep.state_names.index("closed")
        j = rep.state_names.index("operational")
        got = star.succ[i][j].eval(Energy.of(20), Time.of(10))
        assert got == Energy.of(0)
        # grid dynamic program reaches the same value (waits 5 and 5 are on-grid)
        model = load_model("satellite.rtea")
        assert dp_lower_bound(model, Fraction(20), Fraction(10), DpConfig(Fraction(1), 10)) == Energy.of(0)


class TestMatOmega:
    def test_single_pump_state(self):
        m = RtefMatrix.of([[rtef(lin((1, 0, 5)))]])
        (v,) = accepting_vector(m, 1)
        assert v.eval(Energy.of(3), Time.of(2)) is True
        assert v.eval(Energy.of(3), Time.of(1)) is False

    def test_no_accepting_states(self):
        m = RtefMatrix.of([[rtef(lin((1, 0, 5)))]])
        (v,) = accepting_vector(m, 0)
        assert not any(v.eval(x, t) for x, t in sample_points(with_inf=True))

    def test_feeder_state_routes_into_loop(self):
        bot = Rtef.bottom()
        m = RtefMatrix.of(
            [
                [rtef(lin((1, 0, 5))), bot],
                [rtef(lin((0, 0, 0))), bot],
            ]
        )
        vec = accepting_vector(m, 1)
        assert vec[1].eval(Energy.of(5), Time.of(0)) is True
        assert vec[1].eval(Energy.of(4), Time.of(0)) is False


def counting_omega_and_star(monkeypatch) -> dict:
    """Counts ``omega_of`` calls from the matrix layer and ``Rtef.star``
    calls, as they happen."""
    calls = {"omega_of": 0, "star": 0}
    star = Rtef.star

    def counting_omega(f, s=None):
        calls["omega_of"] += 1
        return omega_of(f, s)

    def counting_star(f):
        calls["star"] += 1
        return star(f)

    monkeypatch.setattr(rtenergy.matrix, "omega_of", counting_omega)
    monkeypatch.setattr(Rtef, "star", counting_star)
    return calls


class TestLassoOmega:
    """One omega_of per accepting pivot with a loop, one star per loop."""

    def test_one_omega_of_per_accepting_state(self, monkeypatch):
        # every state accepts, so every star is an accepting pivot's, and
        # omega_of runs once for each: a pivot without a loop has none
        n = 10
        calls = counting_omega_and_star(monkeypatch)
        rep = to_matrix_rep(parse_model(rand_model_text(random.Random(10), n, accepting=range(n))))
        assert rep.accepting_count == n
        mat_omega_accepting(rep.matrix, n)
        assert calls["omega_of"] == calls["star"] == 4

    def test_loopless_accepting_pivot_records_no_omega(self, monkeypatch):
        # a accepts and never comes back: it goes last with no self-loop,
        # and its omega is false without an omega_of call; b's free loop
        # is the only one, and b does not accept
        rep = to_matrix_rep(parse_model("""rtea {
          state a rate 0 initial accepting;
          state b rate 0;
          trans a -> b price 0 bound 0;
          trans b -> b price 0 bound 0;
        }"""))
        calls = counting_omega_and_star(monkeypatch)
        steps = rtenergy.matrix._factor(rep.matrix, [True, False], 1)
        assert [(p, s is None, omega) for p, s, omega, *_ in steps] == [(1, False, None), (0, True, None)]
        assert calls == {"omega_of": 0, "star": 1}
        # the run a -> b -> b ... never visits a again
        assert buchi_behavior(rep) == OmegaVal.false()

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
            steps = factor_in_order(rep.matrix, list(range(n)), n)
            assert stars == sum(s is not None for _, s, *_ in steps)


def omega_agree(got, want) -> bool:
    return got.support.leq(want.support) and want.support.leq(got.support) and got.threshold == want.threshold


def degenerate_reps(rng: random.Random):
    """A random 3 x 3 matrix and the matrices of the bundled models and of
    20 random automata at n = 1..8, each with no initial state (and some
    accepting ones) and with no accepting state (and every state initial)."""
    mats = [rand_matrix(rng, 3)]
    mats += [to_matrix_rep(load_model(path.name)).matrix for path in sorted(MODELS.glob("*.rtea"))]
    mats += [to_matrix_rep(parse_model(rand_model_text(rng, rng.randint(1, 8)))).matrix for _ in range(20)]
    for m in mats:
        n = m.dim()
        yield AutomatonRep((False,) * n, m, rng.randint(1, n))
        yield AutomatonRep((True,) * n, m, 0)


class TestBuchiElimination:
    """mat_omega_accepting by one elimination pass against the lasso form."""

    def test_agrees_with_lasso_oracle(self):
        # n = 2..7 with no, one, two or all states accepting in turn, then
        # n = 2..6 with one, two or all states accepting in turn
        rng = random.Random(2029)
        reps = []
        for i in range(160):
            n = rng.randint(2, 7)
            accepting = ((), None, rng.sample(range(n), 2), range(n))[i % 4]
            reps.append(to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting))))
        rng = random.Random(2024)
        for i in range(150):
            n = rng.randint(2, 6)
            accepting = (None, rng.sample(range(n), 2), range(n))[i % 3]
            reps.append(to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting))))
        for rep in reps:
            k = rep.accepting_count
            got = accepting_vector(rep.matrix, k)
            want = mat_omega_lasso(rep.matrix, k)
            assert len(got) == len(want) == rep.matrix.dim()
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

    def test_accepting_count_in_range(self):
        # k counts the leading accepting states: 0..n, nothing outside
        m = to_matrix_rep(load_model("satellite.rtea")).matrix
        n = m.dim()
        for k in (0, n):
            mat_omega_accepting(m, k)
        for k in (-1, n + 1):
            with pytest.raises(ValueError, match="accepting count out of range"):
                mat_omega_accepting(m, k)

    def test_initial_states_alone_equal_the_full_vector(self):
        # buchi_behavior back-substitutes only the initial states; the sup of
        # the full vector over them must be the same value, not just agree
        rng = random.Random(2032)
        for i in range(180):
            n = rng.randint(1, 8)
            accepting = (None, rng.sample(range(n), rng.randint(1, n)), range(n))[i % 3]
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
            if i % 2:
                starts = rng.sample(range(n), rng.randint(1, n))
                rep = AutomatonRep(tuple(j in starts for j in range(n)), rep.matrix, rep.accepting_count)
            vec = accepting_vector(rep.matrix, rep.accepting_count)
            want = OmegaVal.false()
            for j in range(n):
                if rep.alpha[j]:
                    want = want.sup(vec[j])
            got = buchi_behavior(rep)
            assert (got.support, got.threshold) == (want.support, want.threshold)

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
        want = mat_omega_lasso(rep.matrix, rep.accepting_count)[rep.alpha.index(True)]
        assert omega_agree(v, want)

    def test_degenerate_reps_are_false(self):
        m = rand_matrix(random.Random(2031), 3)
        assert buchi_behavior(AutomatonRep((False,) * 3, m, 2)) == OmegaVal.false()
        assert buchi_behavior(AutomatonRep((True, False, False), m, 0)) == OmegaVal.false()
        for rep in degenerate_reps(random.Random(2037)):
            assert buchi_behavior(rep) == OmegaVal.false()

    def test_one_pass_without_closure(self, monkeypatch):
        n = 10
        closures, composes = [], []
        real_compose = Rtef.compose

        def counting_compose(f, g):
            composes.append(1)
            return real_compose(f, g)

        rep = to_matrix_rep(parse_model(rand_model_text(random.Random(10), n, accepting=range(n))))
        calls = counting_omega_and_star(monkeypatch)
        monkeypatch.setattr(rtenergy.matrix, "mat_star", lambda m: closures.append(m))
        monkeypatch.setattr(Rtef, "compose", counting_compose)
        buchi_behavior(rep)
        print(f"buchi_behavior at n = {n}: {len(composes)} compose calls")
        # one omega_of per star of an accepting pivot, and every state accepts
        assert calls["omega_of"] == calls["star"] == 4
        assert closures == []
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
    star = dense(mat_star_blocks(rep.matrix))
    out = Rtef.bottom()
    for i, init in enumerate(rep.alpha):
        if init:
            for j in range(rep.accepting_count):
                out = out.sup(star[i][j])
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
        for rep in degenerate_reps(random.Random(2036)):
            assert finite_behavior(rep) == Rtef.bottom()

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
            order = pivots(rep.matrix, rep.alpha)
            assert sorted(order) == list(range(n))
            initial = {i for i in range(n) if rep.alpha[i]}
            assert set(order[n - len(initial):]) == initial
            free = pivots(rep.matrix, [False] * n)
            assert sorted(free) == list(range(n))

    def test_late_states_last_and_determinism(self):
        # the accepting states of mat_omega_accepting, then a random late
        # set that need not be a leading block
        rng = random.Random(2034)
        for rep in self.reps():
            m, k = rep.matrix, rep.accepting_count
            n = m.dim()
            for late in ([p < k for p in range(n)], [rng.random() < 0.3 for _ in range(n)]):
                order = pivots(m, late)
                assert sorted(order) == list(range(n))
                count = sum(late)
                assert all(late[p] for p in order[n - count:])
                assert order == pivots(m, late)

    def test_least_degree_first(self):
        # a hub 0 with five spokes in and out: index order fills the whole
        # 5 x 5 block, the minimum-degree order none of it; once four spokes
        # are gone, the hub and the last spoke tie and the hub goes first
        f = Rtef.of([lin((1, -1, 1))])
        hub = RtefMatrix(6, ({j: f for j in range(1, 6)},) + tuple({0: f} for _ in range(5)))
        assert pivots(hub, [False] * 6) == [1, 2, 3, 4, 0, 5]
        # a late state waits for every state that is not late
        assert pivots(hub, [True] + [False] * 5) == [1, 2, 3, 4, 5, 0]

    def test_orders_pinned(self):
        # the pivot orders of each bundled model, and of 240 random automata
        # at n = 3..20, every other one with random initial states, each
        # with the initial, the accepting and no states late; pinned apart,
        # so that a new model adds its own pin and moves no other.  The
        # orders are those of the one digest over all of them that was
        # recorded before the late rule became part of the heap key and
        # before the factorization picked its own pivots; a changed order
        # may change the dump bytes
        def digest(reps):
            out = hashlib.sha256()
            for rep in reps:
                n, k = rep.matrix.dim(), rep.accepting_count
                for late in (rep.alpha, [p < k for p in range(n)], [False] * n):
                    out.update(repr(pivots(rep.matrix, late)).encode())
            return out.hexdigest()[:16]

        models = {path.stem: digest([to_matrix_rep(load_model(path.name))]) for path in sorted(MODELS.glob("*.rtea"))}
        assert models == {
            "flower": "484d4af1b15d75d0",
            "keeper": "de856628bf6f4ba3",
            "pump": "de856628bf6f4ba3",
            "pump_flat": "de856628bf6f4ba3",
            "pump_leak": "de856628bf6f4ba3",
            "pump_ratio": "f65a72d4dfcd36c6",
            "satellite": "0e0603436ba0b489",
            "satellite_top_path": "f65a72d4dfcd36c6",
            "two_loops": "87d5bffaa05715a6",
        }
        rng = random.Random(2035)
        reps = []
        for i in range(240):
            n = rng.randint(3, 20)
            accepting = rng.sample(range(n), rng.randint(0, n))
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
            if i % 2:
                starts = rng.sample(range(n), rng.randint(1, n))
                rep = AutomatonRep(tuple(j in starts for j in range(n)), rep.matrix, rep.accepting_count)
            reps.append(rep)
        assert digest(reps) == "a5085dda0c14be8e"

    def test_no_recursion_on_10000_states(self):
        n = 10_000
        ring, chain = ring_and_chain(n)
        limit = sys.getrecursionlimit()
        # far below the depth a recursive pass over either graph would need
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            ring_order = pivots(ring, [p < 1 for p in range(n)])
            chain_order = pivots(chain, [False] * n)
        finally:
            sys.setrecursionlimit(limit)
        assert ring_order[-1] == 0 and sorted(ring_order) == list(range(n))
        assert sorted(chain_order) == list(range(n))

    def test_pivots_equal_the_order_on_sets(self):
        # min_degree_order plays the elimination on the sparsity pattern
        # alone; the pivots read off the live maps must be the same, on this
        # corpus and on 12 random automata at n = 50..150
        rng = random.Random(2036)
        reps = list(self.reps())
        for _ in range(12):
            n = rng.randint(50, 150)
            reps.append(to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=rng.sample(range(n), n // 10)))))
        for rep in reps:
            n, k = rep.matrix.dim(), rep.accepting_count
            for late in (rep.alpha, [p < k for p in range(n)], [False] * n):
                assert pivots(rep.matrix, late) == min_degree_order(rep.matrix, late)


@pytest.fixture
def counted(monkeypatch):
    """Runs a behavior and returns its pivots, ``Rtef.compose`` calls and
    ``act`` calls, the folds of the solve."""
    calls = {"pivots": 0, "compose": 0, "act": 0}
    factor, compose, act = rtenergy.matrix._factor, Rtef.compose, rtenergy.matrix.act

    def counting_factor(*args):
        steps = factor(*args)
        calls["pivots"] += len(steps)
        return steps

    def counting_compose(f, g):
        calls["compose"] += 1
        return compose(f, g)

    def counting_act(f, v):
        calls["act"] += 1
        return act(f, v)

    monkeypatch.setattr(rtenergy.matrix, "_factor", counting_factor)
    monkeypatch.setattr(Rtef, "compose", counting_compose)
    monkeypatch.setattr(rtenergy.matrix, "act", counting_act)

    def run(behavior, rep):
        calls.update(pivots=0, compose=0, act=0)
        behavior(rep)
        return calls["pivots"], calls["compose"], calls["act"]

    return run


class TestGrowthCounted:
    """Growth in operations, which do not depend on the host's speed."""

    def test_chains_and_rings_are_linear(self, counted):
        f = Rtef.of([lin((1, -1, 1))])
        for n in (1200, 2400, 4800):
            ring, _ = ring_and_chain(n)
            # n - 1 -> n - 2 -> ... -> 0, the goal
            chain = RtefMatrix(n, tuple({i - 1: f} if i else {} for i in range(n)))
            start = tuple(i == n - 1 for i in range(n))
            # act calls: the chain carries the goal back one state per
            # pivot; the ring makes two for reach and one for Buchi,
            # whatever n, and none on a state that holds no value
            assert counted(finite_behavior, AutomatonRep(start, chain, 1)) == (n, n - 1, n - 1)
            assert counted(finite_behavior, AutomatonRep(start, ring, 1)) == (n, n + 2, 2)
            assert counted(buchi_behavior, AutomatonRep(start, ring, 1)) == (n, n + 1, 1)

    def test_random_automata_pinned(self, counted):
        # pivots and compose calls recorded while the order was still played
        # on the sparsity pattern before the factorization, and the compose
        # calls re-recorded lower once the solve stopped acting on false
        # values; reach fills in past n = 100.  Strip walks (leq_linear cache misses) recorded with
        # the tail-order dominance scan, each at most its count with the
        # all-pairs scan and _leq's atom rules, and that below its count with
        # the tail test alone
        rng = random.Random(2036)
        cases = (
            (50, (66, 0, 0, 9), (91, 5, 5, 14)),
            (100, (180, 4, 4, 49), (347, 22, 27, 170)),
            (200, (5450, 1868, 2643, 11542), (10504, 5682, 7976, 30152)),
        )
        for n, (reach, *reach_walks), (buchi, *buchi_walks) in cases:
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n)))
            leq_linear.cache_clear()
            assert counted(finite_behavior, rep)[:2] == (n, reach)
            walks, all_pairs, tail = reach_walks
            assert leq_linear.cache_info().misses == walks <= all_pairs < tail
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=rng.sample(range(n), n // 10))))
            leq_linear.cache_clear()
            assert counted(buchi_behavior, rep)[:2] == (n, buchi)
            walks, all_pairs, tail = buchi_walks
            assert leq_linear.cache_info().misses == walks <= all_pairs < tail

    def test_values_built_pinned(self, monkeypatch):
        # Rtef constructions of one query, the scaling into integer units
        # and back included: each sup and general compose builds one value
        # and bottom none (80 / 78 and 236 / 218 when each built two)
        built = []
        init = Rtef.__init__

        def counting(f, components=()):
            built.append(1)
            init(f, components)

        rng = random.Random(2045)
        flower = to_matrix_rep(load_model("flower.rtea"))
        wide = to_matrix_rep(parse_model(rand_model_text(rng, 50, accepting=rng.sample(range(50), 5))))
        monkeypatch.setattr(Rtef, "__init__", counting)
        for rep, pins in ((flower, (58, 57)), (wide, (171, 148))):
            for behavior, pin in zip((finite_behavior, buchi_behavior), pins):
                built.clear()
                behavior(rep)
                assert len(built) == pin, (behavior.__name__, len(built))

    def test_of_hashes_nothing(self, monkeypatch):
        # the components are sorted and equal neighbours dropped: no set
        rng = random.Random(2046)
        comps = [rand_linear(rng) for _ in range(40)]
        comps += [LinearRtef(c.atoms) for c in comps[:20]]

        def no_hash(c):
            raise AssertionError("LinearRtef hashed")

        monkeypatch.setattr(LinearRtef, "__hash__", no_hash)
        f = Rtef.of(comps)
        assert len(f.components) == len({c.atoms for c in comps}) < len(comps)
        bottom = Rtef.bottom()
        assert f.compose(bottom) is bottom.compose(f) is bottom.sup(bottom) is bottom


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
            w = dict.fromkeys(range(k), OmegaVal(Rtef.one(), None))
            z = vector(rtenergy.matrix._solve(factor_in_order(rep.matrix, order, 0), w, initial), n)
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
            steps = factor_in_order(rep.matrix, order, k)
            z = vector(rtenergy.matrix._solve(steps, {}, want), n)
            ref = accepting_vector(rep.matrix, k)
            assert all(omega_agree(z[i], ref[i]) for i in want)

    def omega_as_references(self, rep, order, oracles) -> bool:
        n, k = rep.matrix.dim(), rep.accepting_count
        steps = factor_in_order(rep.matrix, order, k)
        z = vector(rtenergy.matrix._solve(steps, {}, range(n)), n)
        return all(all(omega_agree(g, r) for g, r in zip(z, oracle(rep.matrix, k))) for oracle in oracles)

    def test_omega_part_in_any_order_inside_each_component(self):
        # an order that also keeps the global rule is checked against
        # mat_omega_accepting alone; one that breaks it against the lasso
        # form as well
        beyond_global = 0
        for rng, rep in self.reps():
            k = rep.accepting_count
            comp = scc_labels(rep.matrix)
            order = per_scc_order(rng, comp, k)
            assert per_scc_rule_holds(order, comp, k)
            oracles = [accepting_vector]
            if not per_scc_rule_holds(order, [0] * len(comp), k):
                beyond_global += 1
                oracles.append(mat_omega_lasso)
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
                missed += not self.omega_as_references(rep, order, [accepting_vector])
        print(f"{missed} of {broken} rule-breaking orders miss a run")
        assert missed > 0


class TestOwnEquations:
    """The solutions satisfy the equations they solve, row by row, read
    off the matrix alone: y = kappa v M y for reach, z = M z for Buchi."""

    def test_each_row_balances(self):
        rng = random.Random(2040)
        rows = finite = 0
        false, goal = OmegaVal.false(), OmegaVal(Rtef.one(), None)
        for _ in range(200):
            n = rng.randint(1, 9)
            accepting = rng.sample(range(n), rng.randint(0, n))
            rep = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=accepting)))
            m, k = rep.matrix, rep.accepting_count
            kappa = dict.fromkeys(range(k), goal)
            y = rtenergy.matrix._solve(rtenergy.matrix._factor(m, rep.alpha, 0), kappa, range(n))
            z = accepting_vector(m, k)
            for i, row in enumerate(m.succ):
                reach = reduce(OmegaVal.sup, [act(f, y.get(j, false)) for j, f in row.items()], kappa.get(i, false))
                assert omega_agree(reach, y.get(i, false)), (rep, i)
                buchi = reduce(OmegaVal.sup, [act(f, z[j]) for j, f in row.items()], false)
                assert omega_agree(buchi, z[i]), (rep, i)
                rows += 1
                finite += z[i].threshold is not None
        print(f"{rows} rows, {finite} with a finite Buchi threshold")
        assert finite > 400


class TestStoredValues:
    """What the solver stores: no false value and no unpruned function."""

    def cases(self):
        # 400 automata, n = 1..9, each at every accepting count k
        rng = random.Random(2041)
        for _ in range(400):
            n = rng.randint(1, 9)
            m = to_matrix_rep(parse_model(rand_model_text(rng, n, accepting=range(n)))).matrix
            for k in range(n + 1):
                yield m, k

    def test_no_false_value_is_stored(self):
        stored = 0
        for m, k in self.cases():
            z = mat_omega_accepting(m, k)
            assert OmegaVal.false() not in z.values(), (m, k)
            stored += len(z)
        print(f"{stored} values stored")
        assert stored > 5000

    def test_every_stored_function_is_pruned(self):
        # so a sup with a bottom operand, which re-prunes the other one,
        # returns an equal value
        entries = 0
        for m, k in self.cases():
            funcs = [v.support for v in mat_omega_accepting(m, k).values()]
            for _, _, _, row, folds in rtenergy.matrix._factor(m, [p < k for p in range(m.dim())], k):
                funcs += [*row.values(), *(f for _, f in folds)]
            assert all(f == f.prune() for f in funcs), (m, k)
            entries += len(funcs)
        print(f"{entries} stored functions")
        assert entries > 20000


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
            order = min_degree_order(rep.matrix, [p < k for p in range(n)])
            j = rng.randrange(n)
            w1 = dict.fromkeys(range(k), OmegaVal(Rtef.one(), None))
            w2 = {j: OmegaVal(Rtef.one(), Fraction(rng.randint(0, 9)))}
            steps = factor_in_order(rep.matrix, order, k)
            got = [rtenergy.matrix._solve(steps, w, range(n)) for w in (w1, w2, w1)]
            fresh = [
                rtenergy.matrix._solve(factor_in_order(rep.matrix, order, k), w, range(n))
                for w in (w1, w2, w1)
            ]
            assert got == fresh
            assert got[0] == got[2]


def solved_as_given(rep: AutomatonRep) -> tuple:
    """``finite_behavior``, ``buchi_behavior``, ``mat_star`` and
    ``mat_omega_accepting`` of ``rep``, each as ``_solve(_factor(m, ...))``
    on the matrix in its given units."""
    m, n, k = rep.matrix, rep.matrix.dim(), rep.accepting_count
    factor, solve = rtenergy.matrix._factor, rtenergy.matrix._solve
    initial = [i for i in range(n) if rep.alpha[i]]
    goal, late = OmegaVal(Rtef.one(), None), [p < k for p in range(n)]

    def initial_sup(z):
        return reduce(OmegaVal.sup, [z[i] for i in initial if i in z] or [OmegaVal.false()])

    steps = factor(m, [False] * n, 0)
    cols = [solve(steps, {j: goal}, range(n)) for j in range(n)]
    return (
        initial_sup(solve(factor(m, rep.alpha, 0), dict.fromkeys(range(k), goal), initial)).support,
        initial_sup(solve(factor(m, late, k), {}, initial)),
        RtefMatrix(n, tuple({j: col[i].support for j, col in enumerate(cols) if i in col} for i in range(n))),
        solve(factor(m, late, k), {}, range(n)),
    )


def solved(rep: AutomatonRep) -> tuple:
    m, k = rep.matrix, rep.accepting_count
    return finite_behavior(rep), buchi_behavior(rep), mat_star(m), mat_omega_accepting(m, k)


def atom_fields(m: RtefMatrix) -> list:
    return [v for row in m.succ for f in row.values() for c in f.components for a in c.atoms for v in a]


class TestIntegerUnits:
    """The matrix layer solves in the least units in which every atom is an
    int and maps the answer back: the same values as solving as given."""

    def reps(self):
        rng = random.Random(2041)
        for path in sorted(MODELS.glob("*.rtea")):
            yield to_matrix_rep(load_model(path.name))
        for _ in range(160):
            yield to_matrix_rep(parse_model(rand_mixed_model_text(rng, rng.randint(2, 9))))
        # denominators up to 97, so e and l run into the thousands
        for _ in range(80):
            n = rng.randint(1, 5)
            rows = []
            for _ in range(n):
                row = {j: Rtef.of(rand_coprime_linear(rng) for _ in range(2)).prune() for j in range(n) if rng.random() < 0.5}
                rows.append({j: f for j, f in row.items() if f.components})
            m = RtefMatrix(n, tuple(rows))
            yield AutomatonRep(tuple(rng.random() < 0.6 for _ in range(n)), m, rng.randint(0, n))

    def test_equal_to_solving_as_given(self):
        scaled = fractional_thresholds = 0
        for rep in self.reps():
            got, want = solved(rep), solved_as_given(rep)
            assert got == want, rep
            scaled += any(type(v) is not int for v in atom_fields(rep.matrix))
            thresholds = [got[1].threshold] + [v.threshold for v in got[3].values()]
            fractional_thresholds += any(type(t) is Fraction for t in thresholds)
        # most of the corpus is solved in scaled units, and thresholds that
        # are not integers come back through the division by e
        assert scaled > 200 and fractional_thresholds > 20, (scaled, fractional_thresholds)

    def test_factor_sees_only_ints(self, monkeypatch):
        factor, seen = rtenergy.matrix._factor, []

        def recording_factor(m, *args):
            seen.append(m)
            return factor(m, *args)

        monkeypatch.setattr(rtenergy.matrix, "_factor", recording_factor)
        for name in ("flower.rtea", "pump_ratio.rtea"):
            rep = to_matrix_rep(load_model(name))
            assert any(type(v) is not int for v in atom_fields(rep.matrix))
            seen.clear()
            solved(rep)
            assert len(seen) == 4
            assert all(type(v) is int for m in seen for v in atom_fields(m)), name
        # a model in integers already is factored as it is, not copied
        rep = to_matrix_rep(load_model("satellite.rtea"))
        seen.clear()
        solved(rep)
        assert len(seen) == 4 and all(m is rep.matrix for m in seen)


class TestFormerKernel:
    """The behaviors and the closure on the one-step kernel are the values
    the former kernel built, which sorted a set and pruned as a second
    value (``references``), patched back in: equal component tuples."""

    def test_behaviors_and_closure_equal(self):
        rng = random.Random(2047)
        reps = [to_matrix_rep(load_model(path.name)) for path in sorted(MODELS.glob("*.rtea"))]
        reps += [to_matrix_rep(parse_model(rand_mixed_model_text(rng, rng.randint(2, 9)))) for _ in range(120)]
        for rep in reps:
            got = finite_behavior(rep), buchi_behavior(rep), mat_star(rep.matrix)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Rtef, "of", staticmethod(rtef_of_hashed))
                mp.setattr(Rtef, "sup", sup_two_step)
                mp.setattr(Rtef, "compose", compose_two_step)
                want = finite_behavior(rep), buchi_behavior(rep), mat_star(rep.matrix)
            assert got == want, rep


def reverse_index_order(rep: AutomatonRep) -> list[int]:
    """The order of ``finite_behavior`` before the minimum-degree order:
    the non-initial states in reverse index order, then the initial ones."""
    n = rep.matrix.dim()
    return [p for p in reversed(range(n)) if not rep.alpha[p]] + [i for i in range(n) if rep.alpha[i]]


def finite_in_reverse_index_order(rep: AutomatonRep) -> Rtef:
    n, k = rep.matrix.dim(), rep.accepting_count
    initial = [i for i in range(n) if rep.alpha[i]]
    w = dict.fromkeys(range(k), OmegaVal(Rtef.one(), None))
    steps = factor_in_order(rep.matrix, reverse_index_order(rep), 0)
    z = vector(rtenergy.matrix._solve(steps, w, initial), n)
    out = Rtef.bottom()
    for i in initial:
        out = out.sup(z[i].support)
    return out


def omega_non_accepting_first(m: RtefMatrix, k: int) -> list[OmegaVal]:
    """``mat_omega_accepting`` in its former order: every non-accepting
    state, then every accepting one, each group in index order."""
    n = m.dim()
    steps = factor_in_order(m, [*range(k, n), *range(k)], k)
    return vector(rtenergy.matrix._solve(steps, {}, range(n)), n)


def star_in_index_order(m: RtefMatrix) -> RtefMatrix:
    """``mat_star`` in its former order: the states eliminated in index
    order."""
    n = m.dim()
    steps = factor_in_order(m, list(range(n)), 0)
    goal = OmegaVal(Rtef.one(), None)
    cols = [vector(rtenergy.matrix._solve(steps, {j: goal}, range(n)), n) for j in range(n)]
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
            vec, ref = accepting_vector(m, k), omega_non_accepting_first(m, k)
            assert all(omega_agree(g, r) for g, r in zip(vec, ref))
            initial = [i for i in range(n) if rep.alpha[i]]
            want_buchi = OmegaVal.false()
            for i in initial:
                want_buchi = want_buchi.sup(ref[i])
            assert omega_agree(buchi_behavior(rep), want_buchi)
            differ += pivots(m, rep.alpha) != reverse_index_order(rep)
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


class TestUnboundedTimeReference:
    """At t = inf the behaviors equal the label search of
    ``references.unbounded_labels`` on random models."""

    @staticmethod
    def _free_flat_cycle(model) -> bool:
        # some accepting state lies on a cycle of price-0 transitions out of
        # rate-0 states: a free loop that no threshold counts, only the support
        rates = dict(model.states)
        free = {}
        for tr in model.transitions:
            if tr.price == 0 and rates[tr.src] == 0:
                free.setdefault(tr.src, []).append(tr.dst)
        for a in model.accepting:
            seen, stack = set(), list(free.get(a, ()))
            while stack:
                cur = stack.pop()
                if cur == a:
                    return True
                if cur not in seen:
                    seen.add(cur)
                    stack.extend(free.get(cur, ()))
        return False

    def test_random_models(self):
        from helpers import rand_mixed_model_text, rand_model_text
        from references import unbounded_buchi, unbounded_reach

        reach_kinds, buchi_trues, free_flat = set(), 0, 0
        for seed in range(3000):
            rng = random.Random(seed)
            n = rng.randint(2, 8)
            if seed % 2:
                text = rand_mixed_model_text(rng, n)
            else:
                text = rand_model_text(rng, n, accepting=rng.sample(range(n), rng.randint(1, 2)))
            model = parse_model(text)
            free_flat += self._free_flat_cycle(model)
            rep = to_matrix_rep(model)
            reach, buchi = finite_behavior(rep), buchi_behavior(rep)
            for x0 in (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(4), Fraction(9)):
                x = Energy.of(x0)
                want = unbounded_reach(model, x)
                assert reach.eval(x, TIME_INF) == want, (seed, x0)
                endless = buchi.eval(x, TIME_INF)
                assert endless == unbounded_buchi(model, x), (seed, x0)
                reach_kinds.add(want.rank)
                buchi_trues += endless
        # bottom, finite and infinite reach values all occur, and Büchi
        # answers both ways
        assert reach_kinds == {0, 1, 2} and 0 < buchi_trues < 15000
        # the Büchi answers of free zero-rate loops come from the support
        # alone; 40 of the 3,000 models have one
        assert free_flat >= 40


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
        # two accepting states, so an accepting pivot folds into another
        # one's loop; on quarter-grid-friendly models the unroller
        # reproduces the exact answer in both directions
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
