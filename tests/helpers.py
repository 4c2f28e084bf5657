"""Shared builders and seeded generators for the test suite."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from rtenergy import (
    Atom,
    Energy,
    LinearRtef,
    Rtef,
    TIME_INF,
    Time,
    atom,
    normalize,
    parse_model,
)
from rtenergy.matrix import RtefMatrix, mat_mul

from references import _assemble, _blocks, mat_sup

MODELS = Path(__file__).resolve().parent.parent / "models"


def A(rate, price, bound) -> Atom:
    return Atom(Fraction(rate), Fraction(price), Fraction(bound))


def lin(*triples) -> LinearRtef:
    return LinearRtef(tuple(A(*t) for t in triples))


def as_parsed(l: LinearRtef) -> LinearRtef:
    """``l`` with its values in the form the parser gives them: ints where
    integral."""
    return LinearRtef(tuple(atom(a.rate, a.price, a.bound) for a in l.atoms))


def rtef(*components) -> Rtef:
    return Rtef.of(components)


def ev(f: Rtef, x, t) -> Energy:
    return f.eval(Energy.of(x), Time.of(t))


def load_model(name: str):
    return parse_model((MODELS / name).read_text(encoding="utf-8"))


def precedes(lhs: LinearRtef, rhs: LinearRtef) -> bool:
    """Scheduling preorder on nonempty components: by final rate."""
    if lhs.is_identity or rhs.is_identity:
        raise ValueError("the identity component has no final rate")
    return lhs.atoms[-1].rate <= rhs.atoms[-1].rate


def mat_star_half(m: RtefMatrix) -> RtefMatrix:
    """The block closure of ``references.mat_star_blocks`` pivoting on
    the upper half instead of the first row; the pivot must not change the
    result."""
    n = m.dim()
    if n == 1:
        return RtefMatrix.of([[m.rows[0][0].star()]])
    a, b, c, d = _blocks(m, max(1, n // 2))
    dstar = mat_star_half(d)
    bds = mat_mul(b, dstar)
    estar = mat_star_half(mat_sup(a, mat_mul(bds, c)))
    tr = mat_mul(estar, bds)
    bl = mat_mul(mat_mul(dstar, c), estar)
    br = mat_sup(dstar, mat_mul(bl, bds))
    return _assemble(estar, tr, bl, br)


# the two loop functions from the worked closure example
F1 = lin((0, 0, 30), (4, -10, 30))
F2 = lin((0, 0, 20), (1, 0, 40), (5, -50, 50))

SAT_TOP_RAW = (A(0, -20, 20), A(2, -20, 20), A(5, -10, 10))
SAT_TOP_NF = lin((0, 0, 20), (2, 0, 40), (5, -50, 50))


# --- seeded random generators -------------------------------------------------

def rand_frac(rng: random.Random, lo, hi, den=2) -> Fraction:
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def rand_atom(rng: random.Random) -> Atom:
    rate = rng.choice([Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2)])
    price = -rand_frac(rng, 0, 3)
    bound = -price + rand_frac(rng, 0, 4)
    return Atom(rate, price, bound)


def rand_linear(rng: random.Random, max_atoms=3, allow_identity=True) -> LinearRtef:
    lo = 0 if allow_identity else 1
    return normalize([rand_atom(rng) for _ in range(rng.randint(lo, max_atoms))])


def rand_rtef(rng: random.Random, max_comps=3, max_atoms=3, allow_empty=True) -> Rtef:
    lo = 0 if allow_empty else 1
    return Rtef.of([rand_linear(rng, max_atoms) for _ in range(rng.randint(lo, max_comps))])


# Coprime denominators for the integer strip kernel: with only halves and a
# few small rates, a dropped cross-multiplication rarely changes an answer.
COPRIME_DENS = (1, 2, 3, 5, 7, 11, 97)
COPRIME_RATES = (Fraction(7, 3), Fraction(11, 5), Fraction(1, 97), Fraction(3, 7), Fraction(97, 11))


def rand_coprime_frac(rng: random.Random, hi) -> Fraction:
    """A fraction in [0, hi] over a denominator drawn from COPRIME_DENS."""
    den = rng.choice(COPRIME_DENS)
    return Fraction(rng.randint(0, hi * den), den)


def rand_coprime_atom(rng: random.Random) -> Atom:
    roll = rng.random()
    if roll < 0.15:
        rate = Fraction(0)
    elif roll < 0.45:
        rate = rng.choice(COPRIME_RATES)
    else:
        rate = rand_coprime_frac(rng, 4) or Fraction(1, 97)
    price = -rand_coprime_frac(rng, 3)
    bound = -price + rng.choice((Fraction(1, 97), Fraction(0), rand_coprime_frac(rng, 4)))
    return Atom(rate, price, bound)


def rand_coprime_linear(rng: random.Random, max_atoms=3) -> LinearRtef:
    return normalize([rand_coprime_atom(rng) for _ in range(rng.randint(0, max_atoms))])


SAMPLE_XS = [Fraction(v) for v in (0, 1, Fraction(5, 2), 5, 10, Fraction(35, 2), 20, 31, 50)]
SAMPLE_TS = [Fraction(v) for v in (0, Fraction(1, 2), 1, 3, 7, Fraction(25, 2), 30)]


def sample_points(with_inf=False):
    points = [(Energy.of(x), Time(t)) for x in SAMPLE_XS for t in SAMPLE_TS]
    if with_inf:
        points += [(Energy.of(x), TIME_INF) for x in SAMPLE_XS]
    return points


def rand_model_text(rng: random.Random, n_states=3, accepting=None) -> str:
    """Small automaton with grid-friendly numbers: rates in {0,1,2,4} so all
    greedy waits have power-of-two denominators."""
    names = [f"s{i}" for i in range(n_states)]
    rates = [rng.choice([0, 1, 2, 4]) for _ in names]
    accepting = {n_states - 1} if accepting is None else set(accepting)
    lines = ["rtea {"]
    for i, name in enumerate(names):
        flags = " initial" if i == 0 else ""
        if i in accepting:
            flags += " accepting"
        lines.append(f"  state {name} rate {rates[i]}{flags};")
    # capped at the n^2 distinct edges, or one state could never reach 2 edges
    n_edges = min(rng.randint(n_states - 1, 2 * n_states), n_states * n_states)
    edges = set()
    # guarantee a path to the accepting state
    for i in range(n_states - 1):
        edges.add((i, i + 1))
    while len(edges) < n_edges:
        edges.add((rng.randrange(n_states), rng.randrange(n_states)))
    for i, j in sorted(edges):
        price = -rng.randint(0, 3)
        bound = -price + rng.randint(0, 4)
        lines.append(f"  trans {names[i]} -> {names[j]} price {price} bound {bound};")
    lines.append("}")
    return "\n".join(lines)


def rand_model_text_two_accepting(rng: random.Random, n_states=4) -> str:
    accepting = rng.sample(range(n_states), 2)
    return rand_model_text(rng, n_states, accepting=accepting)


def mixed_literal(rng: random.Random, value: Fraction) -> str:
    """``value`` as one of the literal forms the parser reads exactly: an
    integer, a ratio (also an unreduced one) or a decimal."""
    p, q = value.numerator, value.denominator
    forms = [f"{p}/{q}", f"{2 * p}/{2 * q}"]
    if q == 1:
        forms += [str(p), f"{p}.0"]
    if 10**4 % q == 0:  # a terminating decimal
        forms.append(str(Decimal(p) / Decimal(q)))
    return rng.choice(forms)


def rand_mixed_model_text(rng: random.Random, n_states=4) -> str:
    """``rand_model_text`` with rates, prices and bounds over denominators
    1, 2, 3 and 4, written in mixed literal forms, and random accepting
    states; most values stay integral."""

    def value(lo, hi):
        q = rng.choice((1, 1, 1, 2, 3, 4))
        return Fraction(rng.randint(lo * q, hi * q), q)

    names = [f"s{i}" for i in range(n_states)]
    accepting = set(rng.sample(range(n_states), rng.randint(1, 2)))
    lines = ["rtea {"]
    for i, name in enumerate(names):
        flags = (" initial" if i == 0 else "") + (" accepting" if i in accepting else "")
        lines.append(f"  state {name} rate {mixed_literal(rng, value(0, 4))}{flags};")
    edges = {(i, i + 1) for i in range(n_states - 1)}
    while len(edges) < min(rng.randint(n_states - 1, 2 * n_states), n_states * n_states):
        edges.add((rng.randrange(n_states), rng.randrange(n_states)))
    for i, j in sorted(edges):
        price = -value(0, 3)
        bound = -price + value(0, 4)
        lines.append(
            f"  trans {names[i]} -> {names[j]} price {mixed_literal(rng, price)} bound {mixed_literal(rng, bound)};"
        )
    lines.append("}")
    return "\n".join(lines)
