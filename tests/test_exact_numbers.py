"""Exact numbers end to end: integral values are ints, everything else a
``Fraction``, and no float reaches the decision path.

Values a model gives are stored as ints when integral (the parser and
``algebra.atom``), so ``int / int``, which is a float, is a trap wherever
two such values meet.  The guard below fails any ``Fraction`` operation
with a float operand and checks the type of every value the decision path
stores or returns.
"""

import json
import random
from fractions import Fraction

import pytest

from rtenergy import (
    Energy,
    RteaModel,
    Rtef,
    TIME_INF,
    Time,
    atom,
    buchi_behavior,
    finite_behavior,
    mat_star,
    parse_model,
    to_matrix_rep,
)
from rtenergy import algebra, linear2d, omega
from rtenergy.regions import function_json

from helpers import (
    MODELS,
    SAMPLE_TS,
    SAMPLE_XS,
    as_parsed,
    rand_coprime_linear,
    rand_linear,
    rand_mixed_model_text,
    rand_model_text,
)
from references import dense
from test_order import order_pair

_FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__",
)


def _exact(v) -> bool:
    return type(v) is int or type(v) is Fraction


def _check(ok: bool, what: str, value):
    if not ok:
        raise AssertionError(f"{what}: {value!r}")


@pytest.fixture
def exact_only(monkeypatch):
    """Fail on a float meeting a ``Fraction`` and on any stored value that
    is not exact: atom fields, cell bounds and integers, constraint
    coefficients (ints), solver points, energies, times and thresholds."""
    algebra.leq_linear.cache_clear()
    algebra.component_cells.cache_clear()

    def no_float(name):
        op = getattr(Fraction, name)

        def checked(self, other):
            _check(not isinstance(other, float), f"Fraction.{name} with a float", other)
            return op(self, other)

        return checked

    for name in _FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, no_float(name))

    def built(cls, check):
        # the tuple records: every field is set in __new__
        new = cls.__new__

        def checked(klass, *args, **kwargs):
            record = new(klass, *args, **kwargs)
            check(record)
            return record

        monkeypatch.setattr(cls, "__new__", checked)

    built(algebra.Atom, lambda a: _check(all(map(_exact, (a.rate, a.price, a.bound))), "atom", a))
    built(
        algebra.Cell,
        lambda c: _check(
            _exact(c.lo) and (c.hi is None or _exact(c.hi)) and all(type(v) is int for v in c.ints), "cell", c
        ),
    )
    # the order test clears every denominator: its constraints are ints
    built(
        linear2d.Constraint,
        lambda cn: _check(all(type(v) is int for v in (cn.a, cn.b, cn.c)), "constraint", cn),
    )
    built(algebra.Energy, lambda e: _check(e.value is None or type(e.value) is Fraction, "energy", e.value))
    built(omega.OmegaVal, lambda v: _check(v.threshold is None or _exact(v.threshold), "threshold", v))
    built(algebra.Time, lambda t: _check(t.value is None or type(t.value) is Fraction, "time", t.value))
    time_new = algebra.Time.__new__

    def time_from(cls, value=None):
        _check(not isinstance(value, float), "time from a float", value)
        return time_new(cls, value)

    monkeypatch.setattr(algebra.Time, "__new__", time_from)
    energy_new = algebra.Energy.__new__

    def energy_from(cls, rank, value=None):
        _check(not isinstance(value, float), "energy from a float", value)
        return energy_new(cls, rank, value)

    monkeypatch.setattr(algebra.Energy, "__new__", energy_from)
    # every point the solver returns, to the sweep and to feasible_point alike
    solve = linear2d.Elimination.point

    def checked_solve(self, extra=None):
        point = solve(self, extra)
        _check(point is None or all(map(_exact, point)), "feasible point", point)
        return point

    monkeypatch.setattr(linear2d.Elimination, "point", checked_solve)
    yield
    algebra.leq_linear.cache_clear()
    algebra.component_cells.cache_clear()


def parsed_rtef(f: Rtef) -> Rtef:
    return Rtef.of(as_parsed(c) for c in f.components)


POINTS = [(Energy.of(x), Time(t)) for x in SAMPLE_XS for t in SAMPLE_TS] + [
    (Energy.of(x), TIME_INF) for x in SAMPLE_XS
]


def exercise(f: Rtef, g: Rtef):
    """Evaluate, export, close and compare both ways; return the witnesses."""
    for h in (f, g):
        for x, t in POINTS:
            h.eval(x, t)
        function_json(h)
    f.compose(g).sup(g.star())
    witnesses = [algebra.order_witness(f, g), algebra.order_witness(g, f)]
    for (lhs, rhs), w in zip(((f, g), (g, f)), witnesses):
        if w is not None:
            assert lhs.eval(*w) > rhs.eval(*w)
    return witnesses


def exercise_model(text: str):
    rep = to_matrix_rep(parse_model(text))
    behavior = finite_behavior(rep)
    live = buchi_behavior(rep)
    for x, t in POINTS:
        behavior.eval(x, t)
        live.eval(x, t)
    function_json(behavior)
    for row in dense(mat_star(rep.matrix)):
        for f in row:
            function_json(f)
    return behavior


class TestNoFloat:
    def test_guard_trips_on_each_record(self, exact_only):
        # a float planted in any stored value of a record fails the guard
        algebra.Atom(1, -1, 2)
        algebra.Cell(0, 1, True, (2, -1, 6, 2, 1, 0))
        linear2d.Constraint(1, -2, 3, strict=True)
        planted = [
            ("atom", lambda: algebra.Atom(1.5, -1, 2)),
            ("atom", lambda: algebra.Atom(1, -1.0, 2)),
            ("atom", lambda: algebra.Atom(1, -1, 2.5)),
            ("atom", lambda: algebra.Atom(1, -1, 2)._replace(rate=0.5)),
            ("cell", lambda: algebra.Cell(0.5, 1, True, (2, -1, 6, 2, 1, 0))),
            ("cell", lambda: algebra.Cell(0, 1.5, True, (2, -1, 6, 2, 1, 0))),
            ("cell", lambda: algebra.Cell(0, 1, True, (2, -1, 6, 2.0, 1, 0))),
            ("constraint", lambda: linear2d.Constraint(1.0, -2, 3)),
            ("constraint", lambda: linear2d.Constraint(1, -2.0, 3)),
            ("constraint", lambda: linear2d.Constraint(1, -2, 3.0)),
            ("energy from a float", lambda: algebra.Energy(1, 0.5)),
            ("time from a float", lambda: algebra.Time(0.5)),
            ("threshold", lambda: omega.OmegaVal(Rtef.bottom(), 0.5)),
        ]
        for what, make in planted:
            with pytest.raises(AssertionError, match=f"^{what}: "):
                make()
        # an int energy is stored as a Fraction, so the guard has nothing to trip on
        assert type(algebra.Energy(1, 2).value) is Fraction and algebra.Energy(1, 2).value == Fraction(2)

    def test_seeded_component_corpus(self, exact_only):
        # the 1,000 components of TestCellIntegers, in parsed form, as pairs
        rng = random.Random(61)
        comps = [as_parsed(rand_coprime_linear(rng) if i % 2 else rand_linear(rng)) for i in range(1000)]
        for f, g in zip(comps[::2], comps[1::2]):
            exercise(Rtef.of([f]), Rtef.of([g]))

    def test_seeded_order_corpus(self, exact_only):
        # the line-sweep corpus of test_order, in parsed form
        rng = random.Random(41)
        found = 0
        for case in range(300):
            f, g = order_pair(rng, case)
            found += sum(w is not None for w in exercise(parsed_rtef(f), parsed_rtef(g)))
        assert found > 100

    def test_order_constraints_are_ints(self, exact_only, monkeypatch):
        # the same corpus as given, with Fraction atoms where the generators
        # make them: every constraint the line sweep builds passes the int
        # check of the fixture, and there are many
        built = 0
        new = linear2d.Constraint.__new__

        def counted(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(linear2d.Constraint, "__new__", counted)
        rng = random.Random(41)
        for case in range(300):
            f, g = order_pair(rng, case)
            algebra.order_witness(f, g)
            algebra.order_witness(g, f)
        assert built > 1000

    def test_seeded_models(self, exact_only):
        rng = random.Random(41)
        for n in (2, 3, 4, 5, 6):
            for _ in range(6):
                exercise_model(rand_model_text(rng, n, accepting=rng.sample(range(n), 2 if n > 2 else 1)))

    def test_bundled_models(self, exact_only):
        behaviors = [exercise_model(path.read_text(encoding="utf-8")) for path in sorted(MODELS.glob("*.rtea"))]
        for f in behaviors:
            for g in behaviors:
                exercise(f, g)

    def test_mixed_literal_models(self, exact_only):
        rng = random.Random(71)
        behaviors = [exercise_model(rand_mixed_model_text(rng, rng.randint(2, 5))) for _ in range(40)]
        for f, g in zip(behaviors, behaviors[1:]):
            exercise(f, g)


def as_fractions(model: RteaModel) -> RteaModel:
    """``model`` with every value forced to ``Fraction``."""
    return model._replace(
        states=tuple((name, Fraction(rate)) for name, rate in model.states),
        transitions=tuple(tr._replace(price=Fraction(tr.price), bound=Fraction(tr.bound)) for tr in model.transitions),
    )


class TestMixedLiterals:
    def test_parsed_values_are_canonical(self):
        model = parse_model((MODELS / "pump_ratio.rtea").read_text(encoding="utf-8"))
        values = [r for _, r in model.states] + [v for tr in model.transitions for v in (tr.price, tr.bound)]
        assert all(type(v) is int if v.denominator == 1 else type(v) is Fraction for v in values)
        assert {type(v) for v in values} == {int, Fraction}
        assert atom("3/1", "-2.0", Fraction(5, 2)) == algebra.Atom(3, -2, Fraction(5, 2))
        assert type(atom("3/1", "-2.0", Fraction(5, 2)).rate) is int

    def test_same_behaviors_as_all_fractions(self):
        rng = random.Random(73)
        texts = [rand_mixed_model_text(rng, rng.randint(2, 6)) for _ in range(60)]
        texts += [path.read_text(encoding="utf-8") for path in sorted(MODELS.glob("*.rtea"))]
        mixed = 0
        for text in texts:
            model = parse_model(text)
            forced = as_fractions(model)
            values = [r for _, r in model.states] + [tr.bound for tr in model.transitions]
            mixed += {type(v) for v in values} == {int, Fraction}
            results = []
            for m in (model, forced):
                algebra.leq_linear.cache_clear()
                algebra.component_cells.cache_clear()
                rep = to_matrix_rep(m)
                behavior = finite_behavior(rep)
                results.append((behavior, buchi_behavior(rep), json.dumps(function_json(behavior))))
            assert results[0] == results[1], text
        assert mixed > 30
