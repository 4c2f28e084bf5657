"""The division-free two-variable solver, one-shot and incremental, against
the ``Fraction`` oracle."""

import itertools
import math
import random
from fractions import Fraction

from rtenergy.linear2d import Constraint, Elimination, feasible_point
from rtenergy.oracles import feasible_point_fractions

DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


def rand_rational(rng, span):
    return Fraction(rng.randint(-span, span), rng.choice(DENOMINATORS))


def rand_system(rng):
    """1-7 rows over coprime denominators, strict and non-strict mixed:
    rows without x (a = 0), rows without t (b = 0), the odd constant row,
    now and then a row paired with its negation, which pins a line, and
    positive multiples of some rows, which tie bounds."""
    rows = []
    for _ in range(rng.randint(1, 7)):
        kind = rng.random()
        a = 0 if kind < 0.2 or kind > 0.95 else rand_rational(rng, 9)
        b = 0 if 0.2 <= kind < 0.4 or kind > 0.95 else rand_rational(rng, 9)
        c = rand_rational(rng, 30)
        strict = rng.random() < 0.5
        rows.append(Constraint(a, b, c, strict))
        if rng.random() < 0.15:
            rows.append(Constraint(-a, -b, -c, strict and rng.random() < 0.5))
    for cn in rng.sample(rows, min(len(rows), rng.choice((0, 0, 1, 2)))):
        k = Fraction(rng.randint(1, 5), rng.choice(DENOMINATORS))
        rows.append(Constraint(k * cn.a, k * cn.b, k * cn.c, rng.random() < 0.5))
    return rows


def cleared(cn: Constraint) -> Constraint:
    """``cn`` multiplied through by the lcm of its denominators: integers."""
    m = math.lcm(*(Fraction(v).denominator for v in (cn.a, cn.b, cn.c)))
    a, b, c = ((v * m).numerator for v in map(Fraction, (cn.a, cn.b, cn.c)))
    return Constraint(a, b, c, cn.strict)


def holds(cn: Constraint, x: Fraction, t: Fraction) -> bool:
    v = cn.a * x + cn.b * t + cn.c
    return v > 0 if cn.strict else v >= 0


class TestAgainstFractionSolver:
    def test_random_systems(self):
        rng = random.Random(83)
        feasible = infeasible = open_t = 0
        for _ in range(4000):
            rows = rand_system(rng)
            ints = [cleared(cn) for cn in rows]
            assert all(type(v) is int for cn in ints for v in (cn.a, cn.b, cn.c))
            want = feasible_point_fractions(rows)
            got = feasible_point(ints)
            # the same point from integer rows and from the rational ones
            assert got == want and feasible_point(rows) == want, rows
            if got is None:
                infeasible += 1
                continue
            feasible += 1
            assert all(type(v) is Fraction for v in got)
            assert all(holds(cn, *got) for cn in rows), (rows, got)
            # t is free above or below
            open_t += all(cn.b >= 0 for cn in rows) or all(cn.b <= 0 for cn in rows)
        assert feasible > 1000 and infeasible > 1000
        assert open_t > 500

    def test_pinned_and_open_bounds(self):
        # x = 3/2 exactly, with t free, bounded below or bounded above;
        # a strict bound at 3/2 leaves nothing
        x_line = [Constraint(2, 0, -3), Constraint(-2, 0, 3)]
        assert feasible_point(x_line) == (Fraction(3, 2), Fraction(0))
        assert feasible_point(x_line + [Constraint(0, 3, -1, strict=True)]) == (Fraction(3, 2), Fraction(4, 3))
        assert feasible_point(x_line + [Constraint(0, -3, 1)]) == (Fraction(3, 2), Fraction(-2, 3))
        assert feasible_point([Constraint(2, 0, -3, strict=True), Constraint(-2, 0, 3)]) is None
        # a strict bound tied with a non-strict one stays strict, whichever comes first
        for tie in (Constraint(-4, 0, 6, strict=True), Constraint(4, 0, -6, strict=True)):
            for rows in itertools.permutations(x_line + [tie]):
                assert feasible_point(rows) is None, rows
        assert feasible_point([Constraint(0, 0, 0, strict=True)]) is None
        assert feasible_point([Constraint(0, 0, 0)]) == (0, 0)
        # x + t > 0 and x - t > 0: the open wedge right of the origin
        x, t = feasible_point([Constraint(1, 1, 0, strict=True), Constraint(1, -1, 0, strict=True)])
        assert x + t > 0 and x - t > 0


def rand_int_row(rng, earlier):
    """One integer row: strict or not, now and then without t (b = 0), with
    neither variable (a = b = 0), or a positive multiple of an ``earlier``
    row, which ties its bound."""
    strict = rng.random() < 0.5
    if earlier and rng.random() < 0.2:
        cn = rng.choice(earlier)
        k = rng.randint(1, 4)
        return Constraint(k * cn.a, k * cn.b, k * cn.c, strict)
    kind = rng.random()
    a = 0 if kind < 0.15 or kind > 0.95 else rng.randint(-6, 6)
    b = 0 if 0.15 <= kind < 0.35 or kind > 0.95 else rng.randint(-6, 6)
    return Constraint(a, b, rng.randint(-20, 20), strict)


class TestIncrementalElimination:
    def test_against_fraction_solver(self):
        # after every add, and for three one-row extensions of each system,
        # the same point as the oracle on the same rows; once empty, every
        # extension stays empty
        rng = random.Random(89)
        feasible = empty = 0
        for _ in range(600):
            elim = Elimination()
            rows = []
            was_empty = False
            for _ in range(rng.randint(1, 10)):
                row = rand_int_row(rng, rows)
                elim.add(row)
                rows.append(row)
                want = feasible_point_fractions(rows)
                assert elim.point() == want, rows
                assert elim.empty() == (want is None), rows
                assert not (was_empty and want is not None), rows
                was_empty = want is None
                for _ in range(3):
                    extra = rand_int_row(rng, rows)
                    got = elim.point(extra)
                    assert got == feasible_point_fractions(rows + [extra]), (rows, extra)
                    assert not (was_empty and got is not None), (rows, extra)
                    if got is None:
                        empty += 1
                    else:
                        feasible += 1
                        assert all(holds(cn, *got) for cn in rows + [extra]), (rows, extra, got)
                # an extension is not kept
                assert elim.point() == want, rows
        assert feasible > 1000 and empty > 1000
