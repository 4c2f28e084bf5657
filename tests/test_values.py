"""The value types: validated named tuples and two slotted classes.

Every way of making a value runs its checks: the constructor, ``_make``,
``_replace`` (named tuples), copies and a pickle round trip.  Equal values
hash alike, ``==`` on ``LinearRtef`` and ``Rtef`` is type-strict, and the
reprs are the ones the library has always printed.
"""

import copy
import pickle
from fractions import Fraction

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
    Transition,
    atom,
    finite_behavior,
    parse_model,
    to_matrix_rep,
)
from rtenergy.oracles import DpConfig
from rtenergy.rational import rational

from helpers import A, F1, F2, lin

F = Rtef.of([F1])
SQUARE = RtefMatrix.of([[F, Rtef.bottom()], [Rtef.bottom(), F]])
REP = AutomatonRep((True, False), SQUARE, 1, ("a", "b"))
TEXT = (
    "rtea { state a rate 1/2 initial; state b rate 0 accepting;"
    " trans a -> b price -5/2 bound 3; trans b -> b price 0 bound 1; }"
)

# (check, a good value, fields that fail that check, the error)
NAMED = [
    ("energy rank below", Energy.of(3), (-1, None), ValueError),
    ("energy rank above", Energy.of(3), (3, None), ValueError),
    ("value on bottom", Energy.of(3), (0, Fraction(3)), ValueError),
    ("value on infinity", Energy.of(3), (2, Fraction(3)), ValueError),
    ("finite energy without a value", Energy.of(3), (1, None), ValueError),
    ("negative energy", Energy.of(3), (1, Fraction(-3)), ValueError),
    ("energy from a float", Energy.of(3), (1, 0.5), TypeError),
    ("negative time", Time(1), (-1,), ValueError),
    ("time from a float", Time(1), (0.5,), TypeError),
    ("negative threshold", OmegaVal(F, 1), (F, Fraction(-1, 2)), ValueError),
    ("column past the end", RtefMatrix(1, ({0: F},)), (1, ({1: F},)), ValueError),
    ("negative column", RtefMatrix(1, ({0: F},)), (1, ({-1: F},)), ValueError),
    ("bottom entry", RtefMatrix(1, ({0: F},)), (1, ({0: Rtef.bottom()},)), ValueError),
    ("matrix not square", REP, ((True,), RtefMatrix(2, ({0: F},)), 0, ()), ValueError),
    ("initial vector length", REP, ((True,), SQUARE, 1, ("a", "b")), ValueError),
    ("accepting count below", REP, ((True, False), SQUARE, -1, ("a", "b")), ValueError),
    ("accepting count above", REP, ((True, False), SQUARE, 3, ("a", "b")), ValueError),
    ("state name count", REP, ((True, False), SQUARE, 1, ("a",)), ValueError),
    ("zero delta", DpConfig(Fraction(1, 4), 4), (0, 4), ValueError),
    ("negative steps", DpConfig(Fraction(1, 4), 4), (Fraction(1, 4), -1), ValueError),
]

# (check, a good value, the one field that fails that check)
SLOTTED = [
    ("unsorted components", Rtef.of([F1, F2]), tuple(reversed(Rtef.of([F1, F2]).components))),
    ("duplicate components", Rtef.of([F1, F2]), (F1, F1)),
    ("rates not increasing", F2, (A(2, 0, 0), A(1, 0, 1))),
    ("bounds decreasing", F2, (A(0, 0, 5), A(1, 0, 3))),
    ("price before the last step", F2, (A(0, -1, 1), A(1, 0, 1))),
]


def named_makers(good, fields):
    cls = type(good)
    unchecked = tuple.__new__(cls, fields)
    return {
        "constructor": lambda: cls(*fields),
        "_make": lambda: cls._make(fields),
        "_replace": lambda: good._replace(**dict(zip(cls._fields, fields))),
        "copy": lambda: copy.copy(unchecked),
        "deepcopy": lambda: copy.deepcopy(unchecked),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
    }


def slotted_makers(good, field):
    cls = type(good)
    unchecked = object.__new__(cls)
    object.__setattr__(unchecked, cls.__slots__[0], field)
    return {
        "constructor": lambda: cls(field),
        "copy": lambda: copy.copy(unchecked),
        "deepcopy": lambda: copy.deepcopy(unchecked),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
    }


@pytest.mark.parametrize("check, good, fields, error", NAMED, ids=[c[0] for c in NAMED])
def test_named_tuples_check_on_every_path(check, good, fields, error):
    for path, make in named_makers(good, tuple(good)).items():
        made = make()
        assert made == good and type(made) is type(good), path
    for path, make in named_makers(good, fields).items():
        with pytest.raises(error):
            make()
            pytest.fail(f"{check} passed through {path}")


@pytest.mark.parametrize("check, good, field", SLOTTED, ids=[c[0] for c in SLOTTED])
def test_slotted_classes_check_on_every_path(check, good, field):
    for path, make in slotted_makers(good, getattr(good, type(good).__slots__[0])).items():
        made = make()
        assert made == good and type(made) is type(good) and hash(made) == hash(good), path
    for path, make in slotted_makers(good, field).items():
        with pytest.raises(ValueError):
            make()
            pytest.fail(f"{check} passed through {path}")


def test_equal_values_hash_alike():
    twins = [
        (Energy(1, Fraction(3)), Energy.of(3)),
        (Time.of("5/2"), Time(Fraction(5, 2))),
        (lin((1, 0, 2), (3, -1, 4)), lin((1, 0, 2), (3, -1, 4))),
        (Rtef.of([F1, F2]), Rtef.of([F2, F1, F2])),
        (OmegaVal(F, Fraction(1)), OmegaVal(Rtef.of([F1]), 1)),
        (Transition("a", -1, 2, "b"), Transition("a", Fraction(-1), Fraction(2), "b")),
        (parse_model(TEXT), parse_model(TEXT)),
        (DpConfig(Fraction(1, 4), 4), DpConfig(Fraction(1, 4), 4)),
    ]
    for a, b in twins:
        for c in (b, copy.copy(b), pickle.loads(pickle.dumps(b))):
            assert a is not c and a == c and hash(a) == hash(c), a
    # the matrix types hold dicts: equal, and as unhashable as their rows
    assert pickle.loads(pickle.dumps(REP)) == REP and copy.copy(SQUARE) == SQUARE
    with pytest.raises(TypeError):
        hash(SQUARE)


def test_energy_values_are_fractions():
    # an int or a literal is stored as the Fraction it names, on every path
    for made in (Energy(1, 7), Energy(1, "7"), Energy.of(7), Energy.of(3)._replace(value=7)):
        assert made == Energy(1, Fraction(7)) and type(made.value) is Fraction, made
    assert Energy(1, 7).text() == "7" and Energy(0).is_bottom and Energy(2).is_infinite


def test_slotted_equality_is_type_strict():
    # as one-field tuples both would be (()), equal and hashing alike
    assert Rtef.bottom() != LinearRtef() and LinearRtef() != Rtef.bottom()
    assert len({Rtef.bottom(), LinearRtef()}) == 2
    assert Rtef.bottom() != () and LinearRtef() != () and F1 != F1.atoms
    assert F1 != Rtef.of([F1]) and Rtef.of([F1]) != (F1,)


def test_reprs_unchanged():
    model = parse_model(TEXT)
    assert repr(model) == (
        "RteaModel(states=(('a', Fraction(1, 2)), ('b', 0)), initial='a', accepting=('b',), "
        "transitions=(Transition(src='a', price=Fraction(-5, 2), bound=3, dst='b'), "
        "Transition(src='b', price=0, bound=1, dst='b')))"
    )
    assert repr(model.transitions[0]) == "Transition(src='a', price=Fraction(-5, 2), bound=3, dst='b')"
    behavior = finite_behavior(to_matrix_rep(model))
    assert repr(OmegaVal(behavior, Fraction(1, 2))) == (
        "OmegaVal(support=Rtef{LinearRtef(Atom(1/2, -5/2, 3))}, threshold=Fraction(1, 2))"
    )
    assert repr(OmegaVal(Rtef.bottom(), None)) == "OmegaVal(support=Rtef{}, threshold=None)"
    assert repr(BOTTOM) == "Energy(bot)"
    assert repr(Energy.of(Fraction(5, 2))) == "Energy(5/2)"
    assert repr(TIME_INF) == "Time(inf)"
    assert repr(Time(3)) == "Time(3)"


FLOAT_ENTRIES = {
    "Energy.of": (Energy.of, 0.1, "1/10"),
    "Time": (Time, 0.1, "1/10"),
    "Time.of": (Time.of, 0.1, "1/10"),
    "rational": (rational, 0.1, "1/10"),
    "atom rate": (lambda v: atom(v, 0, 1), 0.1, "1/10"),
    "atom price": (lambda v: atom(1, v, 1), -0.1, "-1/10"),
    "atom bound": (lambda v: atom(1, 0, v), 0.1, "1/10"),
}


@pytest.mark.parametrize("make, inexact, text", FLOAT_ENTRIES.values(), ids=FLOAT_ENTRIES)
def test_floats_refused(make, inexact, text):
    # 0.1 would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match=f"float {inexact}: "):
        make(inexact)
    assert make(text) == make(Fraction(text))


def test_staircase_check_reports_the_first_failing_pair():
    # one pass over adjacent steps: the first pair fails on its price
    # before the second pair's equal rates are read
    with pytest.raises(ValueError, match="only the final step may carry a price"):
        LinearRtef((A(1, -1, 2), A(2, 0, 3), A(2, 0, 4)))


def test_rtef_methods_replace_on_the_class(monkeypatch):
    # how a tracer wraps them from outside
    calls = 0
    compose = Rtef.compose

    def counted(self, other):
        nonlocal calls
        calls += 1
        return compose(self, other)

    monkeypatch.setattr(Rtef, "compose", counted)
    assert F.compose(F) == compose(F, F) and calls == 1
