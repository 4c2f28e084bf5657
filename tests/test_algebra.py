import copy
import dataclasses
import fractions
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from rtenergy import (
    Atom,
    BOTTOM,
    Energy,
    INFINITY,
    LinearRtef,
    Rtef,
    TIME_INF,
    Time,
    buchi_behavior,
    finite_behavior,
    normalize,
    parse_model,
    to_matrix_rep,
)
from rtenergy import algebra
from rtenergy.regions import extract_regions

from helpers import (
    A,
    F1,
    F2,
    SAMPLE_TS,
    SAMPLE_XS,
    SAT_TOP_NF,
    SAT_TOP_RAW,
    as_parsed,
    ev,
    lin,
    precedes,
    rand_atom,
    rand_coprime_atom,
    rand_coprime_linear,
    rand_linear,
    rand_mixed_model_text,
    rand_model_text,
    rand_near_pair,
    rand_rtef,
    rtef,
)
from references import (
    component_cells_fractions,
    compose_split_oracle,
    exact_schedule_value,
    greedy_eval,
    greedy_wait,
    normalize_two_pass,
    star_subsets,
    undominated_all_pairs,
)


class TestValues:
    def test_energy_order(self):
        assert BOTTOM < Energy.of(0) < Energy.of(Fraction(1, 3)) < Energy.of(7) < INFINITY

    def test_value_protocol(self):
        assert Energy(1, Fraction(3)) == Energy.of(3)
        assert hash(Energy(1, Fraction(3))) == hash(Energy.of(3))
        assert Energy(0) == BOTTOM
        assert Energy.of(3) != Fraction(3)
        ladder = [BOTTOM, Energy.of(0), Energy.of(Fraction(1, 3)), Energy.of(7), INFINITY]
        shuffled = ladder[:]
        random.Random(5).shuffle(shuffled)
        assert shuffled != ladder and sorted(shuffled) == ladder
        assert BOTTOM <= BOTTOM and INFINITY >= INFINITY
        assert max(Energy.of(2), Energy(1, Fraction(2))) == Energy.of(2)
        assert Time.of("5/2") == Time(Fraction(5, 2))
        assert hash(Time.of("5/2")) == hash(Time(Fraction(5, 2)))
        assert Time(1) < TIME_INF
        assert not TIME_INF < TIME_INF and TIME_INF <= TIME_INF
        for v in (Energy.of(1), Time(1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                v.value = Fraction(2)

    def test_energy_rejects_negative(self):
        with pytest.raises(ValueError):
            Energy.of(-1)

    def test_time_parsing(self):
        assert Time.of("inf").is_infinite
        assert Time.of("5/2") == Time(Fraction(5, 2))
        with pytest.raises(ValueError):
            Time.of(-2)

    def test_atom_invariants(self):
        with pytest.raises(ValueError):
            A(-1, 0, 0)
        with pytest.raises(ValueError):
            A(1, 1, 1)
        with pytest.raises(ValueError):
            A(1, -10, 3)
        # the same three checks on every path that makes an Atom
        good = algebra.atom(1, -2, 3)
        assert copy.copy(good) == good and type(copy.copy(good)) is algebra.Atom
        assert pickle.loads(pickle.dumps(good)) == good
        for name, value in (("rate", -1), ("price", 1), ("bound", 1)):
            fields = tuple(value if f == name else v for f, v in zip(algebra.Atom._fields, good))
            unchecked = tuple.__new__(algebra.Atom, fields)
            makers = (
                lambda: algebra.Atom(*fields),
                lambda: algebra.atom(*fields),
                lambda: algebra.Atom._make(fields),
                lambda: good._replace(**{name: value}),
                lambda: copy.copy(unchecked),
                lambda: pickle.loads(pickle.dumps(unchecked)),
            )
            for make in makers:
                with pytest.raises(ValueError):
                    make()

    def test_linear_normal_form_enforced(self):
        with pytest.raises(ValueError):
            LinearRtef((A(2, 0, 0), A(1, 0, 1)))
        with pytest.raises(ValueError):
            LinearRtef((A(0, 0, 5), A(1, 0, 3)))
        with pytest.raises(ValueError):
            LinearRtef((A(0, -1, 1), A(1, 0, 1)))

    def test_rtef_sorted_unique_enforced(self):
        first, second = Rtef.of([F1, F2]).components
        assert Rtef((first, second)).components == (first, second)
        with pytest.raises(ValueError):
            Rtef((second, first))
        with pytest.raises(ValueError):
            Rtef((first, first))
        with pytest.raises(ValueError):
            Rtef((first, second, second))
        with pytest.raises(ValueError):
            Rtef((LinearRtef(), LinearRtef()))

    def test_hash_computed_once(self, monkeypatch):
        calls = 0
        fraction_hash = Fraction.__hash__

        def counted(q):
            nonlocal calls
            calls += 1
            return fraction_hash(q)

        monkeypatch.setattr(fractions.Fraction, "__hash__", counted)
        c = lin((1, 0, 2), (3, -1, 4))
        h = hash(c)
        assert calls == 6  # three fields of each of the two atoms
        assert hash(c) == h
        assert calls == 6
        # an Atom hashes as the tuple of its fields: it is hashed about once
        for a in c.atoms:
            assert hash(a) == hash((a.rate, a.price, a.bound))
        # equality is still field equality, cached hash or not
        twin = lin((1, 0, 2), (3, -1, 4))
        assert twin == c and hash(twin) == h
        assert lin((1, 0, 2), (3, -1, 5)) != c


def field_key(c: LinearRtef):
    """The component sort key as an explicit tuple of atom field tuples."""
    return tuple((a.rate, a.price, a.bound) for a in c.atoms)


class TestRecords:
    """``Atom``, ``Cell`` and ``Constraint`` are tuples of their fields, and
    an ``Rtef`` orders its components by their atoms."""

    def test_tuples_of_their_fields(self):
        a = algebra.atom(1, -2, Fraction(5, 2))
        rate, price, bound = a
        assert (rate, price, bound) == a == (1, -2, Fraction(5, 2))
        assert hash(a) == hash((1, -2, Fraction(5, 2)))
        cell = algebra.Cell(0, 3, True, (2, -1, 6, 2, 1, 0))
        assert cell == (0, 3, True, (2, -1, 6, 2, 1, 0))
        assert (cell.wait_x, cell.wait_c) == (Fraction(-1, 2), 3)
        lo, hi, feasible, ints = cell._replace(hi=None)
        assert (lo, hi, feasible, ints) == (0, None, True, cell.ints)
        assert algebra.Constraint(1, 2, 3) == (1, 2, 3, False)

    def test_component_order_is_field_order(self):
        # seeded functions with Fraction atoms, int atoms as the parser gives
        # them, and the identity, as built and after each operation
        rng = random.Random(89)
        mixed = identities = 0
        for _ in range(300):
            pair = []
            for _ in range(2):
                comps = [rand_linear(rng) for _ in range(rng.randint(0, 5))]
                comps = [as_parsed(c) if rng.random() < 0.5 else c for c in comps]
                if rng.random() < 0.3:
                    comps.append(LinearRtef())
                f = Rtef.of(comps)
                assert f.components == tuple(sorted(set(comps), key=field_key))
                values = {type(v) for c in comps for a in c.atoms for v in a}
                mixed += values == {int, Fraction}
                identities += LinearRtef() in f.components
                pair.append(f)
            f, g = pair
            for h in (f, f.prune(), f.sup(g), f.compose(g), f.star()):
                keys = [field_key(c) for c in h.components]
                assert keys == sorted(set(keys)), h
        assert mixed > 100 and identities > 100


class TestNormalize:
    def test_satellite_top_path(self):
        assert normalize(SAT_TOP_RAW) == SAT_TOP_NF

    def test_merge_rule(self):
        got = normalize([A(2, -5, 5), A(2, -5, 5)])
        assert got == lin((2, -10, 10))
        # schedule-enumeration oracle agrees everywhere sampled
        rng = random.Random(11)
        for _ in range(40):
            x = Fraction(rng.randint(0, 30), 2)
            t = Fraction(rng.randint(0, 24), 2)
            assert got.eval(Energy.of(x), Time(t)) == exact_schedule_value([A(2, -5, 5), A(2, -5, 5)], x, t)

    def test_already_normal(self):
        assert normalize([A(3, -1, 1)]) == lin((3, -1, 1))

    def test_identity(self):
        assert normalize([]) == LinearRtef()

    def test_idempotent_on_normal_forms(self):
        assert normalize(SAT_TOP_NF.atoms) == SAT_TOP_NF


FLOWER_RATES = tuple(Fraction(2) ** e for e in range(-3, 6))  # 1/8 .. 32


def flower_atom(rng: random.Random) -> Atom:
    """A step at a power-of-two rate, or at rate 0, over small integers."""
    rate = rng.choice((Fraction(0),) + FLOWER_RATES)
    price = -rng.randint(0, 3)
    return Atom(rate, price, -price + rng.randint(0, 3))


def raw_atom_pool(rng: random.Random) -> list[Atom]:
    """Steps over halves, over coprime denominators and at flower rates."""
    return (
        [rand_atom(rng) for _ in range(100)]
        + [rand_coprime_atom(rng) for _ in range(100)]
        + [flower_atom(rng) for _ in range(100)]
    )


def staircase_pool(rng: random.Random) -> list[LinearRtef]:
    """Distinct staircases of up to four steps, built by the two-pass
    reference: the identity, many led by a zero-rate step, and ones whose
    leading steps sit at or below a fast final rate of another."""
    steps = raw_atom_pool(rng)
    pool = {LinearRtef(): None}
    while len(pool) < 330:
        pool.setdefault(normalize_two_pass(rng.sample(steps, rng.randint(1, 4))), None)
    return list(pool)


class TestSplice:
    """``algebra._splice`` and ``normalize``, its fold over one-step
    components, against the two-pass concatenation they replaced."""

    def test_against_two_pass(self):
        pool = staircase_pool(random.Random(2501))
        identities = 0
        seen = dict.fromkeys(("zero_first", "absorb_two", "equal_rate", "absorb_all"), 0)
        for a in pool:
            for b in pool:
                assert algebra._splice(a, b) == normalize_two_pass(a.atoms + b.atoms), (a, b)
                if not (a.atoms and b.atoms):
                    identities += 1
                    continue
                top = a.atoms[-1].rate
                absorbed = [x for x in b.atoms if x.rate <= top]
                seen["zero_first"] += a.atoms[0].rate == 0 and b.atoms[0].rate == 0
                seen["absorb_two"] += len(absorbed) >= 2
                seen["equal_rate"] += any(x.rate == top for x in absorbed)
                seen["absorb_all"] += len(absorbed) == len(b.atoms) >= 2
        assert len(pool) ** 2 >= 100_000
        # the identity against every staircase, on either side
        assert identities == 2 * len(pool) - 1
        assert min(seen.values()) > 1000, seen

    def test_normalize_against_two_pass(self):
        rng = random.Random(2502)
        steps = raw_atom_pool(rng)
        for _ in range(100_000):
            seq = rng.choices(steps, k=rng.randint(0, 6))
            assert normalize(seq) == normalize_two_pass(seq), seq

    def test_compose_against_two_pass(self):
        rng = random.Random(2503)
        pool = staircase_pool(rng)
        singles = 0
        for case in range(1500):
            f = Rtef.of(rng.sample(pool, 1 + case % 3)).prune()
            g = Rtef.of(rng.sample(pool, 1 + case // 3 % 3)).prune()
            want = Rtef.of(normalize_two_pass(a.atoms + b.atoms) for a in f.components for b in g.components)
            assert f.compose(g) == want.prune(), (f, g)
            singles += len(f.components) == len(g.components) == 1
        assert singles > 100

    def test_reuses_head_and_builds_few_atoms(self, monkeypatch):
        pool = staircase_pool(random.Random(2504))
        built = 0

        def counted(*fields):
            nonlocal built
            built += 1
            return Atom(*fields)

        monkeypatch.setattr(algebra, "Atom", counted)
        for a in pool[:60]:
            for b in pool:
                built = 0
                out = algebra._splice(a, b)
                if not a.atoms or not b.atoms:
                    assert out is (b if not a.atoms else a) and built == 0
                    continue
                assert all(x is y for x, y in zip(out.atoms, a.atoms[:-1]))
                assert built <= len(b.atoms) + 1, (a, b)


class TestEvalLinear:
    def test_worked_closed_form_points(self):
        assert SAT_TOP_NF.eval(Energy.of(30), Time.of(7)) == Energy.of(0)
        assert SAT_TOP_NF.eval(Energy.of(10), Time.of(100)) == BOTTOM
        assert SAT_TOP_NF.eval(Energy.of(60), Time.of(0)) == Energy.of(10)

    def test_identity_eval(self):
        one = LinearRtef()
        for x in (Energy.of(0), Energy.of(7), INFINITY, BOTTOM):
            assert one.eval(x, Time.of(3)) == x
            assert one.eval(x, TIME_INF) == x

    def test_bottom_and_infinity_inputs(self):
        assert SAT_TOP_NF.eval(BOTTOM, Time.of(5)) == BOTTOM
        assert SAT_TOP_NF.eval(INFINITY, Time.of(0)) == INFINITY

    def test_unbounded_time_limit_semantics(self):
        # positive top rate: level grows without bound once unblocked
        assert SAT_TOP_NF.eval(Energy.of(20), TIME_INF) == INFINITY
        # blocked zero-rate entry stays blocked forever
        assert SAT_TOP_NF.eval(Energy.of(19), TIME_INF) == BOTTOM
        # a lone zero-rate step can only collect its price
        leak = lin((0, -1, 1))
        assert leak.eval(Energy.of(5), TIME_INF) == Energy.of(4)
        assert leak.eval(Energy.of(0), TIME_INF) == BOTTOM
        # the free zero-threshold atom behaves exactly like the identity
        free = lin((0, 0, 0))
        for x in (Energy.of(0), Energy.of(3)):
            for t in (Time.of(0), Time.of(2), TIME_INF):
                assert free.eval(x, t) == x

    def test_infinite_time_is_the_supremum(self):
        # the order decision searches finite times only and relies on this
        rng = random.Random(31)
        level = Energy.of(1000)
        for _ in range(300):
            c = rand_linear(rng)
            for xv in SAMPLE_XS:
                x = Energy.of(xv)
                limit = c.eval(x, TIME_INF)
                if limit.is_finite:
                    assert c.eval(x, Time(0)) == limit, (c, x)
                    assert all(c.eval(x, Time(t)) <= limit for t in SAMPLE_TS)
                elif limit.is_infinite:
                    t = Fraction(1)
                    while not c.eval(x, Time(t)) > level:
                        t *= 2
                        assert t < 2**40, (c, x)
                else:
                    assert all(c.eval(x, Time(t)) == BOTTOM for t in SAMPLE_TS), (c, x)


def reader_points(f: Rtef):
    """x = 0, every bound and bound +- 1/7; at each x, t = 0, every
    component's total greedy wait W(x), W(x) +- 1/11 and t = inf; then
    x = bot and x = inf."""
    xs = {Fraction(0)}
    for c in f.components:
        for a in c.atoms:
            xs.update(x for x in (a.bound - Fraction(1, 7), a.bound, a.bound + Fraction(1, 7)) if x >= 0)
    for x in sorted(xs):
        ts = {Fraction(0)}
        for c in f.components:
            w = greedy_wait(c, x)
            if w is not None:
                ts.update(t for t in (w - Fraction(1, 11), w, w + Fraction(1, 11)) if t >= 0)
        for t in sorted(ts):
            yield Energy.of(x), Time(t)
        yield Energy.of(x), TIME_INF
    for t in (Time(0), Time(Fraction(5, 3)), TIME_INF):
        yield BOTTOM, t
        yield INFINITY, t


class TestCellReader:
    """``Rtef.eval`` and ``LinearRtef.eval`` read the integer strip table;
    the step-by-step greedy schedule (``references.greedy_eval``) and the
    schedule polytope (``exact_schedule_value``) are the oracles."""

    def test_against_greedy(self):
        # the 1,000-draw stream of TestCellIntegers, as functions: random
        # ones, coprime components, and int/Fraction mixes as parsed
        rng = random.Random(61)
        cases = [Rtef()]  # bottom everywhere, at x = inf too
        for i in range(1000):
            if i % 3 == 0:
                f = rand_rtef(rng)
            elif i % 3 == 1:
                f = Rtef.of(rand_coprime_linear(rng) for _ in range(rng.randint(1, 3)))
            else:
                comps = [rand_linear(rng) for _ in range(rng.randint(1, 3))]
                f = Rtef.of(as_parsed(c) if rng.random() < 0.5 else c for c in comps)
            cases.append(f)
        waits = 0
        for f in cases:
            for x, t in reader_points(f):
                want = [greedy_eval(c, x, t) for c in f.components]
                for c, w in zip(f.components, want):
                    assert c.eval(x, t) == w, (c, x, t)
                assert f.eval(x, t) == max(want, default=BOTTOM), (f, x, t)
                waits += any(x.is_finite and t.value == greedy_wait(c, x.value) for c in f.components)
        assert waits > 1000

    def test_against_schedule_polytope(self):
        # pairs of raw step sequences of up to three steps, the size of
        # test_properties' raw_seqs, at finite points; vertex enumeration is
        # slow, so 60 pairs
        rng = random.Random(11)
        for i in range(60):
            seqs = [[rand_coprime_atom(rng) if i % 2 else rand_atom(rng) for _ in range(rng.randint(0, 3))] for _ in range(2)]
            f = Rtef.of(normalize(s) for s in seqs)
            for x, t in reader_points(f):
                if not x.is_finite or t.is_infinite:
                    continue
                want = [exact_schedule_value(s, x.value, t.value) for s in seqs]
                for s, w in zip(seqs, want):
                    assert normalize(s).eval(x, t) == w, (s, x, t)
                assert f.eval(x, t) == max(want), (seqs, x, t)


class TestCompose:
    def test_worked_example(self):
        got = rtef(F1).compose(rtef(F2))
        assert got == rtef(lin((0, 0, 30), (4, 0, 50), (5, -60, 60)))
        # value is 5t + x - 60 on the outer strip
        for x, t in ((50, 2), (60, 0), (80, 10)):
            assert ev(got, x, t) == Energy.of(5 * t + x - 60)

    def test_identity_neutral(self):
        for f in (rtef(F1), rtef(F1, F2), Rtef.bottom()):
            assert Rtef.one().compose(f) == f
            assert f.compose(Rtef.one()) == f

    def test_bottom_absorbing(self):
        assert Rtef.bottom().compose(rtef(F1)) == Rtef.bottom()
        assert rtef(F1).compose(Rtef.bottom()) == Rtef.bottom()


class TestSup:
    def test_units(self):
        f = rtef(F1, F2)
        assert f.sup(Rtef.bottom()) == f
        assert f.sup(f) == f

    def test_pointwise_max_golden(self):
        f = rtef(F1).sup(rtef(F2))
        assert ev(f, 35, 10) == Energy.of(65)
        assert ev(rtef(F1), 35, 10) == Energy.of(65)
        assert ev(rtef(F2), 35, 10) == Energy.of(15)


def _free_led(c: LinearRtef) -> LinearRtef:
    """A pointwise-equal copy of ``c`` led by the no-op step Atom(0, 0, 0);
    it sorts before ``c``."""
    assert c.is_identity or c.atoms[0].rate > 0
    return LinearRtef((A(0, 0, 0),) + c.atoms)


def recorded(note, decide):
    """``decide``, passing each pair it is asked about to ``note`` first."""

    def record(lhs, rhs):
        note((lhs, rhs))
        return decide(lhs, rhs)

    return record


class TestMergeSup:
    """``Rtef.sup`` merges two pruned operands, comparing only across them."""

    @staticmethod
    def _pairs(seed, count):
        rng = random.Random(seed)
        for case in range(count):
            a = rand_rtef(rng, max_comps=5).prune()
            b = rand_rtef(rng, max_comps=5)
            if case % 3 == 1 and a.components:
                # share components of a, and a distinct pointwise-equal copy
                shared = rng.sample(a.components, rng.randint(1, len(a.components)))
                extra = [_free_led(c) for c in a.components if c.is_identity or c.atoms[0].rate > 0]
                b = Rtef.of(b.components + tuple(shared) + tuple(extra[:1]))
            elif case % 3 == 2:
                a = Rtef.of(a.components + (LinearRtef(),)).prune()
                b = Rtef.of(b.components + (_free_led(LinearRtef()),))
            yield a, b.prune()

    def test_equals_prune_of_union(self):
        shared = ties = 0
        for a, b in self._pairs(2031, 600):
            want = Rtef.of(a.components + b.components).prune()
            assert a.sup(b) == want, (a, b)
            assert b.sup(a) == want, (a, b)
            union = set(a.components) | set(b.components)
            shared += bool(set(a.components) & set(b.components))
            ties += any(
                _free_led(c) in union for c in union if c.is_identity or c.atoms[0].rate > 0
            )
        assert shared > 100 and ties > 100

    def test_free_led_copy_wins_the_tie(self):
        one, free = LinearRtef(), _free_led(LinearRtef())
        c = lin((2, -1, 3))
        assert Rtef((one,)).sup(Rtef((free,))) == Rtef((one,))
        assert Rtef((c,)).sup(Rtef((_free_led(c),))) == Rtef((_free_led(c),))

    def test_unpruned_operands_pointwise_equal(self):
        rng = random.Random(2032)
        for _ in range(150):
            a, b = rand_rtef(rng, max_comps=5), rand_rtef(rng, max_comps=5)
            got = a.sup(b)
            want = Rtef.of(a.components + b.components)
            assert got.leq(want) and want.leq(got), (a, b)
            assert set(got.components) <= set(want.components)

    def test_compares_only_across_operands(self, monkeypatch):
        # recorded where the dominance scan decides a pair past the tail
        # test: from the atoms (_atom_leq) or by a walk (leq_linear)
        asked = []
        for name in ("_atom_leq", "leq_linear"):
            monkeypatch.setattr(algebra, name, recorded(asked.append, getattr(algebra, name)))
        total = 0
        for a, b in self._pairs(2033, 200):
            left, right = set(a.components), set(b.components)
            asked.clear()
            a.sup(b)
            total += len(asked)
            for lhs, rhs in asked:
                assert not {lhs, rhs} <= left and not {lhs, rhs} <= right, (a, b, lhs, rhs)
        assert total > 100


class TestTailRejection:
    """``algebra._leq``: the O(1) tail test in front of ``leq_linear``."""

    def test_never_rejects_a_pair_that_holds(self):
        rng = random.Random(2035)
        holds = rate_gap = price_gap = rejected = 0
        for _ in range(1500):
            c, d = rand_linear(rng), rand_linear(rng)
            want = algebra.leq_linear(c, d)
            assert algebra._leq(c, d) == want, (c, d)
            (rc, pc), (rd, pd) = algebra._tail(c), algebra._tail(d)
            if want:
                assert rc <= rd and pc <= pd, (c, d)
                holds += 1
                rate_gap += rc < rd
                price_gap += pc < pd
            else:
                rejected += not (rc <= rd and pc <= pd)
        # the corpus exercises both comparisons on pairs that hold
        assert holds > 100 and rate_gap > 50 and price_gap > 50 and rejected > 100

    def test_identity_and_lone_zero_rate_step(self, monkeypatch):
        one, leak = LinearRtef(), lin((0, -1, 1))
        assert algebra._tail(one) == (0, 0)
        assert algebra._tail(leak) == (0, -1)
        assert algebra._leq(leak, one) and algebra.leq_linear(leak, one)
        assert not algebra.leq_linear(one, leak)

        def refuse(lhs, rhs):
            raise AssertionError("the tail should have decided")

        monkeypatch.setattr(algebra, "leq_linear", refuse)
        assert not algebra._leq(one, leak)  # price 0 above -1
        assert not algebra._leq(lin((2, 0, 0)), one)  # rate 2 above 0
        assert not algebra._leq(lin((2, -1, 1)), lin((1, 0, 0)))


def _decided_by(c, d, holds, fell_back) -> str:
    """Which step of ``algebra._leq`` answered: its tail test, one of its
    three atom rules, or ``leq_linear`` (with the answer it gave)."""
    if fell_back:
        return "walk holds" if holds else "walk fails"
    if holds:
        return "climb rates"
    (rc, pc), (rd, pd) = algebra._tail(c), algebra._tail(d)
    if not (rc <= rd and pc <= pd):
        return "tail"
    return "last bound" if d.atoms[-1].bound > c.atoms[-1].bound else "first bound"


class TestAtomRules:
    """``algebra._leq``'s atom rules against the strip walk they stand in
    front of, ``leq_linear`` without its cache."""

    @staticmethod
    def _decide(monkeypatch, pairs) -> Counter:
        exact = algebra.leq_linear.__wrapped__
        walked = []

        def walk(lhs, rhs):
            walked.append((lhs, rhs))
            return exact(lhs, rhs)

        monkeypatch.setattr(algebra, "leq_linear", walk)
        seen = Counter()
        for c, d in pairs:
            walked.clear()
            holds = algebra._leq(c, d)
            assert holds == exact(c, d), (c, d)
            seen[_decided_by(c, d, holds, bool(walked))] += 1
        return seen

    def test_near_dominance(self, monkeypatch):
        rng = random.Random(2037)
        pairs = [rand_near_pair(rng) for _ in range(1500)]
        seen = self._decide(monkeypatch, pairs + [(d, c) for c, d in pairs])
        # near copies that hold almost all pass the climb-rate rule: the
        # walk is left mostly with pairs that fail
        assert seen["climb rates"] > 700 and seen["last bound"] > 100 and seen["first bound"] > 25, seen
        assert seen["walk fails"] > 60, seen

    def test_random_components(self, monkeypatch):
        rng = random.Random(2038)
        seen = self._decide(monkeypatch, [(rand_linear(rng, 4), rand_linear(rng, 4)) for _ in range(2000)])
        assert seen["climb rates"] > 100 and seen["last bound"] > 30 and seen["first bound"] > 10, seen
        assert seen["walk holds"] > 50 and seen["walk fails"] > 20, seen

    def test_pairs_that_pruning_compares(self, monkeypatch):
        # every pair the dominance scan takes past the tail test, to decide
        # it from the atoms or by a walk, while solving reach and Buchi on
        # random automata
        asked = set()
        with monkeypatch.context() as patched:
            for name in ("_atom_leq", "leq_linear"):
                patched.setattr(algebra, name, recorded(asked.add, getattr(algebra, name)))
            rng = random.Random(2039)
            for n in range(3, 41):
                for text in (rand_model_text(rng, n), rand_mixed_model_text(rng, n)):
                    rep = to_matrix_rep(parse_model(text))
                    finite_behavior(rep)
                    buchi_behavior(rep)
        seen = self._decide(monkeypatch, asked)
        assert seen["climb rates"] > 600 and seen["last bound"] > 75 and seen["first bound"] > 90, seen
        assert seen["walk holds"] > 50 and seen["walk fails"] > 45, seen

    def test_single_atoms_never_reach_the_walk(self, monkeypatch):
        # one atom a side: c <= d iff r <= r', p <= p' and b' <= b
        exact = algebra.leq_linear.__wrapped__
        rng = random.Random(2040)
        pairs = [(LinearRtef((rand_atom(rng),)), LinearRtef((rand_atom(rng),))) for _ in range(1000)]
        pairs += [(c, d) for c, d in (rand_near_pair(rng, 1) for _ in range(1000)) if len(c.atoms) == len(d.atoms) == 1]
        want = [exact(c, d) for c, d in pairs]

        def refuse(lhs, rhs):
            raise AssertionError("the atom rules should have decided")

        monkeypatch.setattr(algebra, "leq_linear", refuse)
        for (c, d), holds in zip(pairs, want):
            assert algebra._leq(c, d) == holds, (c, d)
            (r, p, b), (r2, p2, b2) = c.atoms[0], d.atoms[0]
            assert holds == (r <= r2 and p <= p2 and b2 <= b), (c, d)
        assert 100 < sum(want) < len(want) - 100


class TestPrune:
    def test_subsumed_composition_dropped(self):
        # F1 precedes F2, so running F1 after F2 cannot beat F2 alone
        extra = normalize(F2.atoms + F1.atoms)
        assert rtef(extra, F2).prune() == rtef(F2)

    def test_singleton(self):
        assert rtef(F1).prune() == rtef(F1)

    def test_duplicates_collapse(self):
        assert Rtef.of([LinearRtef(), LinearRtef()]) == Rtef.one()


class TestTailOrderScan:
    """``algebra._undominated``'s tail-order scan against the all-pairs scan
    it replaced, ``references.undominated_all_pairs``."""

    @staticmethod
    def _agree(lists) -> Counter:
        seen = Counter()
        for comps, side in lists:
            got = algebra._undominated(comps, side)
            assert got == undominated_all_pairs(comps, side), (comps, side)
            seen["two" if len(comps) == 2 else "ranked" if len(comps) > 2 else "one"] += 1
            seen["dropped"] += len(got) < len(comps)
        return seen

    def test_merge_unions(self):
        # ties, shared components and free-led copies; with sup's side
        # masks and as plain prune lists
        lists = []
        for a, b in TestMergeSup._pairs(2031, 600):
            left, right = set(a.components), set(b.components)
            comps = sorted(left | right, key=lambda c: c.atoms)
            lists.append((comps, [(c in left) | (c in right) << 1 for c in comps]))
            lists.append((comps, None))
        seen = self._agree(lists)
        assert seen["two"] > 100 and seen["ranked"] > 500 and seen["dropped"] > 300, seen

    def test_lists_that_solving_prunes(self, monkeypatch):
        # solved with the reference, so the lists do not depend on the scan
        lists = []

        def record(comps, side=None):
            lists.append((tuple(comps), side))
            return undominated_all_pairs(comps, side)

        rng = random.Random(2041)
        with monkeypatch.context() as patched:
            patched.setattr(algebra, "_undominated", record)
            for n in range(3, 41):
                for text in (rand_model_text(rng, n), rand_mixed_model_text(rng, n)):
                    finite_behavior(to_matrix_rep(parse_model(text)))
        seen = self._agree(lists)
        assert seen["two"] > 300 and seen["ranked"] > 100 and seen["dropped"] > 300, seen

    def test_random_lists(self):
        rng = random.Random(2042)
        lists = []
        for case in range(600):
            comps = list(rand_rtef(rng, max_comps=12).components)
            if case % 2 and comps:
                # a pointwise-equal copy, which sorts first
                c = rng.choice(comps)
                if c.is_identity or c.atoms[0].rate > 0:
                    comps.append(_free_led(c))
            lists.append((tuple(sorted(set(comps), key=lambda c: c.atoms)), None))
        seen = self._agree(lists)
        assert seen["two"] > 20 and seen["ranked"] > 400 and seen["dropped"] > 300, seen


class TestStar:
    def test_worked_example(self):
        star = rtef(F1, F2).star()
        want = Rtef.of([LinearRtef(), F1, F2, normalize(F1.atoms + F2.atoms)])
        assert star.leq(want) and want.leq(star)
        assert star == want.prune()

    def test_bottom_star(self):
        assert Rtef.bottom().star() == Rtef.one()

    def test_identity_star(self):
        assert Rtef.one().star() == Rtef.one()

    def test_equals_bounded_powers(self):
        f = rtef(F1, F2)
        powers = Rtef.one()
        acc = Rtef.one()
        for _ in range(2):
            powers = powers.compose(f)
            acc = acc.sup(powers)
        star = f.star()
        assert star.leq(acc) and acc.leq(star)


class TestStarProduct:
    """``Rtef.star`` as a product of (1 ∨ c) against the subset expansion."""

    def test_against_subset_oracle(self):
        rng = random.Random(2017)
        for case in range(320):
            k = 1 + case % 8
            f = Rtef.of([rand_linear(rng) for _ in range(k)])
            if case % 2:
                f = f.prune()
            star, want = f.star(), star_subsets(f)
            # equal as functions, not always as representatives: a pointwise
            # equal copy led by a no-op Atom(0, 0, 0) can survive in the oracle
            assert star.leq(want) and want.leq(star), (case, f)

    def test_splice_calls_polynomial(self, monkeypatch):
        k = 12
        frontier = Rtef.of([lin((i, -i, i)) for i in range(1, k + 1)])
        assert frontier.prune() == frontier
        calls = 0
        splice = algebra._splice

        def counted(a, b):
            # fail at the first excess call: a 2^k expansion would go on to
            # spend minutes pruning
            nonlocal calls
            calls += 1
            assert calls <= k * k, "_splice called more than k^2 times"
            return splice(a, b)

        monkeypatch.setattr(algebra, "_splice", counted)
        star = frontier.star()
        assert calls > 0
        assert frontier.leq(star) and Rtef.one().leq(star)


class TestCacheBounds:
    def test_memo_caches_are_bounded(self):
        assert algebra.leq_linear.cache_info().maxsize is not None
        assert algebra.component_cells.cache_info().maxsize is not None


class TestCellIntegers:
    """``Cell.ints`` is the one stored form of a cell's affine data: integers
    over a common denominator.  The five ``Fraction`` coefficients are
    computed from it on each read and take no part in equality, hashing or
    the repr."""

    def test_ignored_by_eq_hash_repr(self):
        cell = algebra.component_cells.__wrapped__(F2)[1]
        twin = algebra.Cell(cell.lo, cell.hi, cell.feasible, cell.ints)
        before = (hash(cell), repr(cell))
        assert cell.wait_x == Fraction(-1)
        assert twin == cell and hash(twin) == hash(cell) == before[0]
        assert repr(twin) == repr(cell) == before[1]
        assert "fractions" not in repr(cell) and "wait_x" not in repr(cell)
        assert algebra.Cell(cell.lo, cell.hi, cell.feasible, (1, 0, 0, 0, 0, 0)) != cell

    def test_matches_fraction_oracle(self):
        # the same 1,000 components, each also in the form the parser gives
        # (integral values as ints); uncached, so each is built afresh
        rng = random.Random(61)
        build = algebra.component_cells.__wrapped__
        reduced = {False: 0, True: 0}  # cells with d > 1, by coprime draw
        for i in range(1000):
            l = rand_coprime_linear(rng) if i % 2 else rand_linear(rng)
            want = component_cells_fractions(l)
            for comp in (l, as_parsed(l)):
                got = build(comp)
                assert len(got) == len(want), comp
                for c, (lo, hi, feasible, coeffs, ints) in zip(got, want):
                    assert (c.lo, c.hi, c.feasible, c.ints) == (lo, hi, feasible, ints), comp
                    assert (c.wait_x, c.wait_c, c.value_t, c.value_x, c.value_c) == coeffs, comp
                    reduced[bool(i % 2)] += c.ints[0] > 1
        assert min(reduced.values()) > 300

    def test_matches_fraction_fields(self):
        # the exported cells, whose last two strips may be merged into the
        # first of them, against the Fraction construction
        rng = random.Random(61)
        merged = 0
        for i in range(1000):
            l = rand_coprime_linear(rng) if i % 2 else rand_linear(rng)
            want = component_cells_fractions(l)
            exported = extract_regions(l)
            merged += len(exported) < len(want)
            assert len(exported) in (len(want), len(want) - 1), l
            for c, (lo, hi, feasible, coeffs, ints) in zip(exported, want):
                if c is exported[-1]:
                    hi = None
                assert c.ints[0] > 0
                assert (c.lo, c.hi, c.feasible, c.ints) == (lo, hi, feasible, ints), c
                assert (c.wait_x, c.wait_c, c.value_t, c.value_x, c.value_c) == coeffs, c
        assert merged > 100

    def test_feasible_waits_are_non_negative(self):
        # the same 1,000 components; this is why _covers needs no clamp at 0
        rng = random.Random(61)
        for i in range(1000):
            l = rand_coprime_linear(rng) if i % 2 else rand_linear(rng)
            for c in algebra.component_cells(l):
                if c.feasible:
                    for x in (c.lo,) if c.hi is None else (c.lo, c.hi):
                        assert c.wait_x * x + c.wait_c >= 0, c


class TestPrecedes:
    def test_worked_example(self):
        assert precedes(F1, F2)
        assert not precedes(F2, F1)

    def test_reflexive(self):
        assert precedes(F1, F1)

    def test_identity_has_no_rate(self):
        with pytest.raises(ValueError):
            precedes(LinearRtef(), F1)


class TestSplitOracleAgreement:
    def test_compose_against_split_search(self):
        # grid multiples of 1/8 hit every breakpoint of these operands
        comp = rtef(F1).compose(rtef(F2))
        for x in (30, 40, 50, 64):
            for t in (0, 2, 8, 16):
                direct = ev(comp, x, t)
                split = compose_split_oracle(F1, F2, Energy.of(x), Fraction(t), 64)
                assert split == direct

    def test_split_oracle_is_lower_bound(self):
        rng = random.Random(5)
        comp = rtef(F1).compose(rtef(F2))
        for _ in range(50):
            x = Energy.of(Fraction(rng.randint(0, 120), 2))
            t = Fraction(rng.randint(0, 40), 2)
            assert compose_split_oracle(F1, F2, x, t, rng.choice([3, 5, 7])) <= comp.eval(x, Time(t))
