"""Law-level properties of the algebra, driven by hypothesis.

The acceptance suite re-runs seeded 200-case versions of these; here the
emphasis is on shrinking power, so example counts stay moderate.  The
Kleene laws and the omega laws are also checked with the exact order on
seeded triples.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from rtenergy import Atom, BOTTOM, Energy, LinearRtef, OmegaVal, Rtef, TIME_INF, Time, normalize
from rtenergy.algebra import leq_linear
from rtenergy.omega import act, omega_of

from helpers import precedes, rand_coprime_linear, rand_rtef, sample_points
from references import exact_schedule_value

RATES = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2)]
rates = st.sampled_from(RATES)
atoms = st.builds(
    lambda r, p, e: Atom(r, -Fraction(p, 2), Fraction(p, 2) + Fraction(e, 2)),
    rates,
    st.integers(0, 6),
    st.integers(0, 8),
)
raw_seqs = st.lists(atoms, min_size=0, max_size=3)
linears = raw_seqs.map(normalize)
rtefs = st.lists(linears, min_size=0, max_size=3).map(Rtef.of)
energies = st.integers(0, 60).map(lambda n: Energy.of(Fraction(n, 2)))
times = st.integers(0, 40).map(lambda n: Time(Fraction(n, 2)))
times_inf = st.one_of(times, st.just(TIME_INF))

GRID = [(Energy.of(Fraction(x, 2)), Time(Fraction(t, 2))) for x in (0, 3, 10, 41) for t in (0, 1, 9, 30)]


@settings(max_examples=100, deadline=None)
@given(rtefs, energies, energies, times_inf, times_inf)
def test_monotone_in_energy_and_time(f, x1, x2, t1, t2):
    if x2 < x1:
        x1, x2 = x2, x1
    if t2 < t1:
        t1, t2 = t2, t1
    assert not f.eval(x1, t1) > f.eval(x2, t2)


@settings(max_examples=100, deadline=None)
@given(rtefs, energies, energies, times)
def test_energy_slope_at_least_one(f, x1, x2, t):
    if x2 < x1:
        x1, x2 = x2, x1
    lo = f.eval(x1, t)
    hi = f.eval(x2, t)
    if lo.is_finite and hi.is_finite:
        assert hi.value - lo.value >= x2.value - x1.value


@settings(max_examples=100, deadline=None)
@given(rtefs, energies, times)
def test_outputs_never_negative(f, x, t):
    v = f.eval(x, t)
    assert v.is_bottom or v.is_infinite or v.value >= 0


@settings(max_examples=100, deadline=None)
@given(raw_seqs, st.integers(0, 40), st.integers(0, 30))
def test_normalize_matches_schedule_enumeration(seq, x2, t2):
    x, t = Fraction(x2, 2), Fraction(t2, 2)
    assert normalize(seq).eval(Energy.of(x), Time(t)) == exact_schedule_value(seq, x, t)


@settings(max_examples=60, deadline=None)
@given(rtefs, rtefs, rtefs)
def test_semiring_laws_at_sampled_points(f, g, h):
    fg_h = f.compose(g).compose(h)
    f_gh = f.compose(g.compose(h))
    left_dist = f.compose(g.sup(h))
    left_parts = f.compose(g).sup(f.compose(h))
    right_dist = f.sup(g).compose(h)
    right_parts = f.compose(h).sup(g.compose(h))
    for x, t in GRID:
        assert fg_h.eval(x, t) == f_gh.eval(x, t)
        assert left_dist.eval(x, t) == left_parts.eval(x, t)
        assert right_dist.eval(x, t) == right_parts.eval(x, t)
        assert f.sup(g).eval(x, t) == g.sup(f).eval(x, t)
    # composition prunes, so the unit laws are structural up to pruning
    assert Rtef.one().compose(f) == f.prune() and f.compose(Rtef.one()) == f.prune()
    assert Rtef.bottom().compose(f) == Rtef.bottom() and f.compose(Rtef.bottom()) == Rtef.bottom()


@settings(max_examples=50, deadline=None)
@given(rtefs)
def test_star_is_locally_closed(f):
    m = len(f.components)
    powers = Rtef.one()
    acc = Rtef.one()
    for _ in range(m):
        powers = powers.compose(f)
        acc = acc.sup(powers)
    more = acc.sup(powers.compose(f))
    assert acc.leq(more) and more.leq(acc)
    star = f.star()
    assert star.leq(acc) and acc.leq(star)


def random_rtef(rng: random.Random) -> Rtef:
    """A draw of ``rtefs`` from a seeded generator."""

    def atom() -> Atom:
        p, e = rng.randint(0, 6), rng.randint(0, 8)
        return Atom(rng.choice(RATES), -Fraction(p, 2), Fraction(p, 2) + Fraction(e, 2))

    return Rtef.of([normalize([atom() for _ in range(rng.randint(0, 3))]) for _ in range(rng.randint(0, 3))])


def test_kleene_laws_hold_exactly():
    # each law as two sides that the exact order must put below each other;
    # then leastness, h v f.x <= x implies f*.h <= x, on x = f*.(h v g),
    # which always meets the premise, and on x with one component dropped,
    # which meets it only at times
    rng = random.Random(7)
    one = Rtef.one()
    dropped = 0
    for _ in range(500):
        f, g, h = (random_rtef(rng) for _ in range(3))
        fs = f.star()
        laws = {
            "associativity": (f.compose(g).compose(h), f.compose(g.compose(h))),
            "left distributivity": (f.compose(g.sup(h)), f.compose(g).sup(f.compose(h))),
            "right distributivity": (f.sup(g).compose(h), f.compose(h).sup(g.compose(h))),
            "left unfolding": (one.sup(f.compose(fs)), fs),
            "right unfolding": (one.sup(fs.compose(f)), fs),
            "f*f* = f*": (fs.compose(fs), fs),
            "f** = f*": (fs.star(), fs),
            "denesting": (f.sup(g).star(), fs.compose(g.compose(fs).star())),
            "sliding": (f.compose(g).star().compose(f), f.compose(g.compose(f).star())),
            "fixpoint": (h.sup(f.compose(fs.compose(h))), fs.compose(h)),
        }
        for law, (lhs, rhs) in laws.items():
            assert lhs.leq(rhs) and rhs.leq(lhs), (law, f, g, h)
        x = fs.compose(h.sup(g))
        assert h.sup(f.compose(x)).leq(x), (f, g, h)
        assert fs.compose(h).leq(x), (f, g, h)
        for i in range(len(x.components)):
            y = Rtef(x.components[:i] + x.components[i + 1 :])
            if h.sup(f.compose(y)).leq(y):
                dropped += 1
                assert fs.compose(h).leq(y), ("leastness", f, g, h, y)
    # the premise must hold often enough that the law is tested at all
    assert dropped > 400


def test_omega_laws_hold_exactly():
    # the supports put below each other by the exact order, the thresholds
    # equal; v and w are omega powers, since act only meets those
    rng = random.Random(7)
    for _ in range(500):
        f, g, h = (random_rtef(rng) for _ in range(3))
        v, w = omega_of(h), omega_of(g)
        laws = {
            "omega unfolding": (omega_of(f), act(f, omega_of(f))),
            "omega rotation": (omega_of(f.compose(g)), act(f, omega_of(g.compose(f)))),
            "act of a product": (act(f.compose(g), v), act(f, act(g, v))),
            "act of a supremum": (act(f.sup(g), v), act(f, v).sup(act(g, v))),
            "act on a supremum": (act(f, v.sup(w)), act(f, v).sup(act(f, w))),
        }
        for law, (lhs, rhs) in laws.items():
            assert lhs.support.leq(rhs.support) and rhs.support.leq(lhs.support), (law, f, g, h)
            assert lhs.threshold == rhs.threshold, (law, f, g, h)


@settings(max_examples=80, deadline=None)
@given(linears, linears)
def test_subcommutation(l1, l2):
    if not l1.atoms or not l2.atoms:
        return
    if not precedes(l1, l2):
        l1, l2 = l2, l1
    assert leq_linear(normalize(l2.atoms + l1.atoms), l2)


@settings(max_examples=80, deadline=None)
@given(st.lists(linears, min_size=0, max_size=4))
def test_prune_and_dedup_preserve_values(comps):
    raw = Rtef.of(comps)
    pruned = raw.prune()
    for x, t in GRID + [(Energy.of(5), TIME_INF), (BOTTOM, Time(Fraction(1)))]:
        assert raw.eval(x, t) == pruned.eval(x, t)


# energy scaled by e and time by 1/l: (1, 1) is the identity, the integer
# pairs are units the matrix layer may pick, the last pair shrinks energy
UNIT_SCALES = [(1, 1), (2, 1), (1, 3), (4, 8), (6, 35), (97, 11), (Fraction(1, 2), Fraction(3, 7))]


def in_units(f: Rtef, e, l) -> Rtef:
    """Each atom (r, p, b) of ``f`` as (r*e*l, p*e, b*e), in Fraction
    arithmetic, apart from the matrix layer's integer scaling."""
    return Rtef.of(LinearRtef(tuple(Atom(r * e * l, p * e, b * e) for r, p, b in c.atoms)) for c in f.components)


def omega_in_units(v: OmegaVal, e, l) -> OmegaVal:
    return OmegaVal(in_units(v.support, e, l), None if v.threshold is None else v.threshold * e)


def test_unit_scaling_commutes_with_the_algebra():
    # the premise of solving in integer units: scaling is an isomorphism,
    # so every operation commutes with it exactly, as a representation, and
    # the scaled function at (e*x, t/l) is e times the value at (x, t)
    rng = random.Random(41)
    points = sample_points(with_inf=True)
    for case in range(240):
        e, l = UNIT_SCALES[case % len(UNIT_SCALES)]
        if case % 2:
            f, g = (Rtef.of(rand_coprime_linear(rng) for _ in range(rng.randint(0, 3))).prune() for _ in range(2))
        else:
            f, g = rand_rtef(rng), rand_rtef(rng)
        sf, sg = in_units(f, e, l), in_units(g, e, l)
        assert in_units(f.compose(g), e, l) == sf.compose(sg), (f, g, e, l)
        assert in_units(f.sup(g), e, l) == sf.sup(sg), (f, g, e, l)
        assert in_units(f.star(), e, l) == sf.star(), (f, e, l)
        v = omega_of(g)
        assert omega_in_units(v, e, l) == omega_of(sg), (g, e, l)
        assert omega_in_units(act(f, v), e, l) == act(sf, omega_in_units(v, e, l)), (f, g, e, l)
        for x, t in points:
            got = sf.eval(Energy.of(x.value * e), t if t.is_infinite else Time(t.value / l))
            want = f.eval(x, t)
            assert got == (Energy.of(want.value * e) if want.is_finite else want), (f, x, t, e, l)
