"""Law-level properties of the algebra, driven by hypothesis.

The acceptance suite re-runs seeded 200-case versions of these; here the
emphasis is on shrinking power, so example counts stay moderate.
"""

from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from rtenergy import Atom, BOTTOM, Energy, Rtef, TIME_INF, Time, normalize
from rtenergy.algebra import leq_linear

from helpers import precedes
from references import exact_schedule_value

rates = st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2)])
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


@settings(max_examples=80, deadline=None)
@given(linears, linears)
def test_subcommutation(l1, l2):
    if l1.is_identity or l2.is_identity:
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
