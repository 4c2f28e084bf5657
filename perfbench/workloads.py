"""Seeded corpora, timed queries and untimed checks for the four workloads.

The generators live here rather than in ``tests/`` so that a test refactor
cannot change the corpus.  Every query goes from its raw input (model text,
or a pair of functions) to verdicts through public entry points, called as
module attributes so that the span recorder in ``tracing.py`` sees them.

For ``reach_random`` and ``buchi_random`` the graph, the state rates and the
multisets of transition prices and bound slacks of corpus slot i come from a
fixed shape seed; ``--seed`` deals the prices and slacks out to the edges.
Query cost on random automata is dominated by the graph (edge count alone
explains about two thirds of its log-variance), and drawing fresh numbers
rather than dealing a fixed multiset doubles the variance that remains, so a
fully seeded corpus would make a 25-second run measure which automata the
seed happened to draw.  Where the prices and bounds sit still changes the
closure and the pruning, so each seed is a different corpus.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from rtenergy import algebra, matrix, model, oracles, regions
from rtenergy.algebra import Atom, Energy, LinearRtef, Rtef, TIME_INF, Time

SHAPE_SEED = "rtenergy-perfbench-shapes-v1"

INF = None  # a time budget of None means t = inf

# (x0, t, cover target); every finite t is a multiple of REACH_DELTA
REACH_POINTS = ((0, Fraction(1), 2), (2, Fraction(2), 6), (5, Fraction(1, 2), 6), (8, Fraction(4), 12), (3, INF, 10))
REACH_DELTA = Fraction(1, 4)  # rates are 0, 1, 2 or 4, so optimal waits are multiples of 1/4

# (x0, t)
BUCHI_POINTS = ((0, Fraction(1)), (2, Fraction(2)), (5, Fraction(4)), (0, INF), (4, INF))
BUCHI_REPETITIONS = 32

FLOWER_RATES = tuple(Fraction(2) ** e for e in range(-3, 6))  # 1/8 .. 32
FLOWER_POINTS = ((0, Fraction(1), 4), (2, Fraction(2), 12), (5, Fraction(1, 2), 8), (1, INF, 50))
FLOWER_DELTA = Fraction(1, 32)  # optimal waits are integers over a rate in FLOWER_RATES


@dataclass(frozen=True)
class Query:
    qid: int
    size: int
    payload: object


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]  # one round of the corpus; a size may repeat
    rounds: int
    make: Callable[[random.Random, int, int], object]  # (rng, size, slot) -> payload
    run: Callable[[object], tuple]  # payload -> answer, the timed query
    check: Callable[[object, tuple], list[str]]  # untimed; returns the problems found

    def corpus(self, seed: int, sizes: Optional[tuple[int, ...]] = None, rounds: Optional[int] = None) -> list[Query]:
        """Queries in a fixed order: rounds of the size pattern, so a partial
        pass still covers every size evenly."""
        sizes = sizes or self.sizes
        rounds = rounds or self.rounds
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for slot in range(rounds):
            for size in sizes:
                out.append(Query(len(out), size, self.make(rng, size, slot)))
        return out


# --- random automata ----------------------------------------------------------

def _shape(name: str, n: int, slot: int):
    """Graph, rates and the multisets of transition prices and bound slacks of
    one corpus slot, in the style of the test suite's ``rand_model_text``: a
    chain to the last state plus random extra edges."""
    rng = random.Random(f"{SHAPE_SEED}:{name}:{n}:{slot}")
    rates = [rng.choice((0, 1, 2, 4)) for _ in range(n)]
    n_edges = rng.randint(n - 1, 2 * n)
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < n_edges:
        edges.add((rng.randrange(n), rng.randrange(n)))
    prices = [-rng.randint(0, 3) for _ in edges]
    slacks = [rng.randint(0, 4) for _ in edges]
    return rates, sorted(edges), prices, slacks


def _automaton_text(shape, accepting, rng: random.Random) -> str:
    """The seed deals the slot's prices and bound slacks out to its edges."""
    rates, edges, prices, slacks = shape
    prices, slacks = prices[:], slacks[:]
    rng.shuffle(prices)
    rng.shuffle(slacks)
    lines = ["rtea {"]
    for i, rate in enumerate(rates):
        flags = " initial" if i == 0 else ""
        if i in accepting:
            flags += " accepting"
        lines.append(f"  state s{i} rate {rate}{flags};")
    for (i, j), price, slack in zip(edges, prices, slacks):
        lines.append(f"  trans s{i} -> s{j} price {price} bound {slack - price};")
    lines.append("}")
    return "\n".join(lines)


def make_reach(rng: random.Random, n: int, slot: int) -> str:
    return _automaton_text(_shape("reach", n, slot), {n - 1}, rng)


def make_buchi(rng: random.Random, n: int, slot: int) -> str:
    return _automaton_text(_shape("buchi", n, slot), set(range(n)), rng)


def _time(t) -> Time:
    return TIME_INF if t is INF else Time(t)


def _decide(behavior: Rtef, points) -> tuple:
    """Reach and cover verdicts, with the exact value behind them."""
    out = []
    for x0, t, target in points:
        value = behavior.eval(Energy.of(x0), _time(t))
        cover = value.is_infinite or (value.is_finite and value.value >= target)
        out.append((value.text(), not value.is_bottom, cover))
    return tuple(out)


def run_reach(text: str) -> tuple:
    rep = model.to_matrix_rep(model.parse_model(text))
    return _decide(matrix.finite_behavior(rep), REACH_POINTS)


def run_buchi(text: str) -> tuple:
    rep = model.to_matrix_rep(model.parse_model(text))
    verdict = matrix.buchi_behavior(rep)
    return tuple(verdict.eval(Energy.of(x0), _time(t)) for x0, t in BUCHI_POINTS)


def _energy(text: str) -> Energy:
    if text == "bot":
        return algebra.BOTTOM
    if text == "inf":
        return algebra.INFINITY
    return Energy.of(Fraction(text))


def _sandwich(text: str, decided: tuple, points, delta: Fraction) -> list[str]:
    """The grid program never beats the exact value, trails it by at most
    max rate * delta, and is bottom exactly where the exact value is."""
    m = model.parse_model(text)
    max_rate = max(r for _, r in m.states)
    problems = []
    for (x0, t, _target), (value_text, _reach, _cover) in zip(points, decided):
        if t is INF:
            continue
        exact = _energy(value_text)
        grid = oracles.dp_lower_bound(m, Fraction(x0), t, oracles.DpConfig(delta, int(t / delta)))
        if exact < grid:
            problems.append(f"grid {grid.text()} above exact {value_text} at x0={x0} t={t}")
        elif exact.is_finite and not grid.is_finite:
            problems.append(f"grid bottom but exact {value_text} at x0={x0} t={t}")
        elif exact.is_finite and exact.value - grid.value > max_rate * delta:
            problems.append(f"grid {grid.text()} trails exact {value_text} by more than {max_rate * delta}")
        elif exact.is_bottom and not grid.is_bottom:
            problems.append(f"exact bottom but grid {grid.text()} at x0={x0} t={t}")
    return problems


def check_reach(text: str, answer: tuple) -> list[str]:
    return _sandwich(text, answer, REACH_POINTS, REACH_DELTA)


def check_buchi(text: str, answer: tuple) -> list[str]:
    m = model.parse_model(text)
    problems = []
    for (x0, t), exact in zip(BUCHI_POINTS, answer):
        if t is INF:
            continue
        if oracles.buchi_unroll(m, Fraction(x0), t, BUCHI_REPETITIONS) and not exact:
            problems.append(f"unrolling finds an accepting run at x0={x0} t={t}, exact says no")
    return problems


# --- flower automata ----------------------------------------------------------

def make_flower(rng: random.Random, k: int, slot: int) -> str:
    """A hub with k petal cycles hub -> p_i -> hub.

    Petal rates are distinct powers of two.  Along the k - 2 frontier petals
    a faster rate costs a higher price and a higher return bound, so none of
    them dominates another.  Each of the other two petals is slower than the
    next frontier petal above it and no cheaper or lower-bounded, so the hub loop
    passed to ``Rtef.star`` always has k - 2 components: the cost of a query
    depends on k, not on which prices the seed drew.
    """
    rates = sorted(rng.sample(FLOWER_RATES, k))
    dominated = set(rng.sample(range(k - 1), 2))
    price, bound = [0] * k, [0] * k
    cost = 0
    for i in range(k):
        if i not in dominated:
            cost += rng.randint(1, 3)
            price[i], bound[i] = cost, cost + rng.randint(0, 3)
    for i in sorted(dominated):
        j = next(j for j in range(i + 1, k) if j not in dominated)
        price[i] = price[j] + rng.randint(0, 2)
        bound[i] = max(bound[j], price[i]) + rng.randint(0, 2)
    lines = ["rtea {", "  state hub rate 0 initial accepting;"]
    lines += [f"  state p{i} rate {rate};" for i, rate in enumerate(rates)]
    for i in range(k):
        lines.append(f"  trans hub -> p{i} price 0 bound 0;")
        lines.append(f"  trans p{i} -> hub price {-price[i]} bound {bound[i]};")
    lines.append("}")
    return "\n".join(lines)


def run_flower(text: str) -> tuple:
    behavior = matrix.finite_behavior(model.to_matrix_rep(model.parse_model(text)))
    export = json.dumps(regions.function_json(behavior), sort_keys=True)
    return _decide(behavior, FLOWER_POINTS) + (hashlib.sha256(export.encode()).hexdigest(),)


def check_flower(text: str, answer: tuple) -> list[str]:
    return _sandwich(text, answer[:-1], FLOWER_POINTS, FLOWER_DELTA)


# --- order pairs --------------------------------------------------------------

@dataclass(frozen=True)
class OrderPair:
    f: Rtef
    g: Rtef
    f_leq_g: bool  # the generator's known answer; g <= f never holds


def _line(rate: Fraction, price: Fraction) -> LinearRtef:
    # bound = -price: the component is defined exactly where its value is >= 0
    return LinearRtef((Atom(rate, price, -price),))


def make_order(rng: random.Random, m: int, slot: int) -> OrderPair:
    """g: m tangents (a s, -a s^2/2) of a parabola, so every pair of lines
    crosses; f: a line through the kink between two neighbouring tangents
    with a slope strictly between theirs.  f <= g then holds although no
    single component of g covers f, which forces the full case split.  In
    every odd round f is lifted above the kink so the order fails."""
    holds = slot % 2 == 0
    a = Fraction(rng.randint(1, 4), 2)
    s = [Fraction(v, 2) for v in sorted(rng.sample(range(1, 4 * m), m))]
    g = Rtef.of(_line(a * si, -a * si * si / 2) for si in s)
    i = rng.randrange(m - 1)
    kink = (s[i] + s[i + 1]) / 2
    envelope = a * s[i] * kink - a * s[i] * s[i] / 2
    rate = a * s[i] + a * (s[i + 1] - s[i]) * Fraction(rng.randint(1, 7), 8)
    price = envelope - rate * kink
    if not holds:
        price -= price * Fraction(rng.randint(1, 4), 16)  # lifted, still a non-positive price
    return OrderPair(Rtef.of([_line(rate, price)]), g, holds)


def _witness_text(w) -> Optional[tuple[str, str]]:
    return None if w is None else (w[0].text(), w[1].text())


def run_order(pair: OrderPair) -> tuple:
    return (
        _witness_text(algebra.order_witness(pair.f, pair.g)),
        _witness_text(algebra.order_witness(pair.g, pair.f)),
    )


def _beats(hi: Rtef, lo: Rtef, w: tuple[str, str]) -> bool:
    x = _energy(w[0])
    t = TIME_INF if w[1] == "inf" else Time(Fraction(w[1]))
    return lo.eval(x, t) < hi.eval(x, t)


def check_order(pair: OrderPair, answer: tuple) -> list[str]:
    fg, gf = answer
    problems = []
    if (fg is None) != pair.f_leq_g:
        problems.append(f"f <= g decided {fg is None}, generator says {pair.f_leq_g}")
    if gf is None:
        problems.append("g <= f decided true, generator says false")
    if fg is not None and not _beats(pair.f, pair.g, fg):
        problems.append(f"f does not beat g at witness {fg}")
    if gf is not None and not _beats(pair.g, pair.f, gf):
        problems.append(f"g does not beat f at witness {gf}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reach_random",
            (8, 10, 12, 14), 21, make_reach, run_reach, check_reach,
        ),
        Workload(
            "buchi_random",
            (6, 7, 8, 9), 10, make_buchi, run_buchi, check_buchi,
        ),
        Workload(
            "flower_closure",
            # k = 7 twice per round: the median then falls inside one size
            # class instead of on the edge between k = 7 and k = 8
            (6, 7, 7, 8, 9), 8, make_flower, run_flower, check_flower,
        ),
        Workload(
            "order_compare",
            # an odd round count: 13 pairs of each size hold and 12 fail, so
            # the median falls among the holding pairs, not between the two kinds
            (5, 6, 7, 8), 25, make_order, run_order, check_order,
        ),
    )
}


def digest(answers: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()[:16]
