"""Model text format, validation diagnostics, matrix conversion, regions."""

import random
import re
from fractions import Fraction

import pytest

from rtenergy import (
    Energy,
    LinearRtef,
    ModelError,
    Rtef,
    RteaModel,
    TIME_INF,
    Time,
    finite_behavior,
    parse_model,
    serialize_model,
    atom,
    to_matrix_rep,
)
from rtenergy import algebra, regions
from rtenergy import rational as rational_module
from rtenergy.oracles import DpConfig, dp_lower_bound
from rtenergy.rational import parse_rational, rational
from rtenergy.regions import function_json

from helpers import (
    MODELS,
    A,
    SAT_TOP_NF,
    as_parsed,
    lin,
    load_model,
    rand_coprime_linear,
    rand_linear,
    rand_mixed_model_text,
    rand_model_text,
    rtef,
)
from references import (
    bound_cells_fractions,
    cells_eval_fractions,
    coefficients,
    dense,
    function_json_fractions,
    greedy_eval,
    token_parse_model,
)


def err_code(text: str) -> str:
    with pytest.raises(ModelError) as info:
        parse_model(text)
    return info.value.code


def summary(m) -> tuple:
    return (
        tuple((n, str(r)) for n, r in m.states),
        m.initial,
        m.accepting,
        tuple((t.src, t.dst, str(t.price), str(t.bound)) for t in m.transitions),
    )


# Each input with its parse summary or (code, str(error), line, column),
# recorded from the parser that tracked line and column per token; the rows
# after the first 34 from the token parser (``references.token_parse_model``).
DIAGNOSTICS = [
    ('', ('syntax', "syntax: expected 'rtea', found '' at 1:1", 1, 1)),
    ('rtea {', ('syntax', "syntax: expected 'state', 'trans' or '}', found '' at 1:7", 1, 7)),
    ('rtea { state a rate5 initial; }', ('syntax', "syntax: expected 'rate', found 'rate5' at 1:16", 1, 16)),
    ('rtea { state a rate 5initial accepting; }', ((('a', '5'),), 'a', ('a',), ())),
    ('rtea { state a rate 0 initial accepting; trans a - > a price 0 bound 0; }', ('syntax', "syntax: unexpected character '-' at 1:50", 1, 50)),
    ('rtea { state café rate 0 initial accepting; }', ('syntax', "syntax: unexpected character 'é' at 1:17", 1, 17)),
    ('rtea { state a rate initial; } $', ('syntax', "syntax: unexpected character '$' at 1:32", 1, 32)),
    ('rtea {\r\n\tstate a rate 0 initial;\r\n\tstate b rate 1 accepting;\r\n\ttrans a -> b price -1 bound 2;\r\n}\r\n', ((('a', '0'), ('b', '1')), 'a', ('b',), (('a', 'b', '-1', '2'),))),
    ('rtea {\r\n\tstate a rate 0 initial;\r\n\tstate b rate 1 accepting\r\n}', ('syntax', "syntax: expected ';', found '}' at 4:1", 4, 1)),
    ('rtea # head\n{ state # name next\n a rate 0 initial accepting; } # no newline at the end', ((('a', '0'),), 'a', ('a',), ())),
    ('rtea { state a rate 0 initial accepting; # no newline at the end', ('syntax', "syntax: expected 'state', 'trans' or '}', found '' at 1:65", 1, 65)),
    ('rtea { state a rate 0 initial accepting; } }', ('syntax', "syntax: trailing input '}' at 1:44", 1, 44)),
    ('rtea { state a rate 0 initial accepting; }\nrtea', ('syntax', "syntax: trailing input 'rtea' at 2:1", 2, 1)),
    ('rtea { state a rate 1/0 initial accepting; }', ('syntax', "syntax: bad number literal '1/0' at 1:21", 1, 21)),
    ('rtea { state a rate 0 accepting initial; }', ('syntax', "syntax: expected ';', found 'initial' at 1:33", 1, 33)),
    ('rtea { state state rate 0 initial; state trans rate 1 accepting; trans state -> trans price 0 bound 0; }', ((('state', '0'), ('trans', '1')), 'state', ('trans',), (('state', 'trans', '0', '0'),))),
    ('rtea { 5 }', ('syntax', "syntax: expected 'state', 'trans' or '}', found '5' at 1:8", 1, 8)),
    ('rtea { stat a rate 0; }', ('syntax', "syntax: expected 'state' or 'trans', found 'stat' at 1:8", 1, 8)),
    ('rtea { state 5 rate 0; }', ('syntax', "syntax: expected a name, found '5' at 1:14", 1, 14)),
    ('rtea { state a rate x; }', ('syntax', "syntax: expected a number, found 'x' at 1:21", 1, 21)),
    ('rtea { state a rate 0 initial accepting; trans a a price 0 bound 0; }', ('syntax', "syntax: expected '->', found 'a' at 1:50", 1, 50)),
    ('rtea { state a rate 0 initial accepting;\n  trans a -> a price 0 bound; }', ('syntax', "syntax: expected a number, found ';' at 2:29", 2, 29)),
    ('{ }', ('syntax', "syntax: expected 'rtea', found '{' at 1:1", 1, 1)),
    ('rtea {\n  state a rate 0 initial;\n  state a rate 1 accepting;\n}', ('duplicate-state', "duplicate-state: state 'a' declared twice at 3:9", 3, 9)),
    ('rtea {\n  state a rate -1/2 initial accepting;\n}', ('negative-rate', "negative-rate: state 'a' has rate -1/2 at 2:16", 2, 16)),
    ('rtea {\n  state a rate 0 initial accepting;\n  trans a -> a price 5 bound 5;\n}', ('positive-price', 'positive-price: transition price 5 is positive at 3:22', 3, 22)),
    ('rtea {\n  state a rate 0 initial accepting;\n  trans a -> a price -10 bound 3;\n}', ('bound-below-price', 'bound-below-price: bound 3 cannot cover price -10 at 3:32', 3, 32)),
    ('rtea {\n  state a rate 0 initial accepting;\n  trans a -> a price 0 bound 0;\n  trans a -> b price 0 bound 0;\n}', ('undeclared-state', "undeclared-state: transition endpoint 'b' not declared at 4:9", 4, 9)),
    ('rtea {\n  trans b -> a price 0 bound 0;\n  state a rate 0 initial accepting;\n}', ('undeclared-state', "undeclared-state: transition endpoint 'b' not declared at 2:9", 2, 9)),
    ('rtea {\n  state a rate 0 initial;\n  state b rate 0 initial accepting;\n}', ('multiple-initial', "multiple-initial: second initial state 'b' at 3:9", 3, 9)),
    ('rtea {\n  state a rate 0 accepting;\n}', ('missing-initial', 'missing-initial: no state is marked initial', None, None)),
    ('\ufeffrtea { state a rate 0 initial accepting; }', ('syntax', "syntax: unexpected character '\\ufeff' at 1:1", 1, 1)),
    ('rtea { state a rate 0 initial accepting; trans a->a price 0 bound 0; }', ((('a', '0'),), 'a', ('a',), (('a', 'a', '0', '0'),))),
    ('rtea {\n  #state s0 rate 1 initial accepting;\n}', ('missing-initial', 'missing-initial: no state is marked initial', None, None)),
    # a head without '{', a missing keyword, name or number in a transition,
    # a semantic error and a bad character each ahead of a later syntax
    # error, a bad bound literal, the missing initial state ahead of an
    # undeclared endpoint, and two pitfalls of a regex reader: a word split
    # before a keyword, and two keywords run together
    ('rtea state a rate 0 initial accepting; }', ('syntax', "syntax: expected '{', found 'state' at 1:6", 1, 6)),
    ('rtea { state a rate 0 initial accepting; trans a -> a bound 0; }', ('syntax', "syntax: expected 'price', found 'bound' at 1:55", 1, 55)),
    ('rtea { state a rate 0 initial accepting; trans a -> a price 0 0; }', ('syntax', "syntax: expected 'bound', found '0' at 1:63", 1, 63)),
    ('rtea { state a rate 0 initial accepting; trans 5 -> a price 0 bound 0; }', ('syntax', "syntax: expected a name, found '5' at 1:48", 1, 48)),
    ('rtea { state a rate 0 initial accepting; trans a -> ; }', ('syntax', "syntax: expected a name, found ';' at 1:53", 1, 53)),
    ('rtea { state a rate -1 x; }', ('negative-rate', "negative-rate: state 'a' has rate -1 at 1:21", 1, 21)),
    ('rtea { state a rate 0 initial; state b rate 0 initial x; }', ('multiple-initial', "multiple-initial: second initial state 'b' at 1:38", 1, 38)),
    ('rtea { state a rate -1 initial accepting; } $', ('syntax', "syntax: unexpected character '$' at 1:45", 1, 45)),
    ('rtea { state a rate 0 initial accepting; trans a -> a price 0 bound 1/0; }', ('syntax', "syntax: bad number literal '1/0' at 1:69", 1, 69)),
    ('rtea { state a rate 0 accepting; trans a -> b price 0 bound 0; }', ('missing-initial', 'missing-initial: no state is marked initial', None, None)),
    ('rtea { state arate 0 initial; }', ('syntax', "syntax: expected 'rate', found '0' at 1:20", 1, 20)),
    ('rtea { state a rate 0 initialaccepting; }', ('syntax', "syntax: expected ';', found 'initialaccepting' at 1:23", 1, 23)),
    # a state's rate is checked ahead of its initial flag
    ('rtea { state a rate 0 initial; state b rate -1 initial; }', ('negative-rate', "negative-rate: state 'b' has rate -1 at 1:45", 1, 45)),
]


class TestParse:
    def test_satellite(self):
        m = load_model("satellite.rtea")
        assert len(m.states) == 6
        assert len(m.transitions) == 7
        assert m.initial == "closed"
        assert m.accepting == ("operational",)
        rates = dict(m.states)
        assert rates["half"] == 2
        assert rates["half_r"] == 4
        prices = sorted(tr.price for tr in m.transitions)
        assert prices.count(Fraction(-20)) == 4 and prices.count(Fraction(-10)) == 3

    def test_number_forms(self):
        m = parse_model("rtea { state a rate 5/2 initial accepting; trans a -> a price -2.5 bound 5/2; }")
        assert m.states == (("a", Fraction(5, 2)),)
        assert m.transitions[0].price == Fraction(-5, 2)

    def test_non_ascii_digits_rejected(self):
        # numbers are ASCII decimals; \d would also take Arabic-Indic digits
        assert err_code("rtea { state a rate \u0663 initial accepting; }") == "syntax"
        text = "rtea { state a rate 0 initial accepting; trans a -> a price 0 bound 1\u0660; }"
        assert err_code(text) == "syntax"

    def test_integer_literal_fast_path(self, monkeypatch):
        texts = ["-0", "+7", "007", "2.50", "4/2", "5/2"]
        # the slow path: through a Fraction, then canonical
        slow = [rational(parse_rational(text)) for text in texts]
        assert slow == [0, 7, 7, Fraction(5, 2), 2, Fraction(5, 2)]
        assert [type(v) for v in slow] == [int, int, int, Fraction, int, Fraction]
        fast = [rational(text) for text in texts]
        assert fast == slow and [type(v) for v in fast] == [type(v) for v in slow]
        # the first three build no Fraction at all
        monkeypatch.setattr(rational_module, "Fraction", None)
        assert [rational(text) for text in texts[:3]] == slow[:3]

    def test_text_held_to_the_literal_grammar(self):
        # exponents and digit separators are no .rtea literals: rejected by
        # rational as by parse_rational, before any arithmetic
        for text in ("1e3", "1_000", "2.5e1", "1_0/2"):
            with pytest.raises(ValueError, match="not a rational literal"):
                atom(text, 0, 0)
            with pytest.raises(ValueError):
                rational(text)
        assert atom("5/2", "-2.5", " 3 ") == atom(Fraction(5, 2), Fraction(-5, 2), 3)

    def test_energy_and_time_text_held_to_the_literal_grammar(self):
        # Fraction itself reads exponents and digit separators, so text
        # must pass the literal grammar first
        for text in ("1e3", "1_000", "1e999999999"):
            for make in (Energy.of, Time, Time.of):
                with pytest.raises(ValueError, match="not a rational literal"):
                    make(text)
        assert Energy.of(" 5/2 ") == Energy.of(Fraction(5, 2))
        assert Time("2.5") == Time.of("5/2") == Time(Fraction(5, 2))

    def test_comments_and_whitespace(self):
        m = parse_model("rtea{state a rate 0 initial accepting;#x\n}")
        assert m.state_names == ("a",)

    def test_duplicate_state(self):
        assert err_code("rtea { state a rate 0 initial; state a rate 1 accepting; }") == "duplicate-state"

    def test_missing_initial(self):
        assert err_code("rtea { state a rate 0 accepting; }") == "missing-initial"

    def test_multiple_initial(self):
        assert err_code("rtea { state a rate 0 initial; state b rate 0 initial accepting; }") == "multiple-initial"

    def test_positive_price(self):
        text = "rtea { state a rate 0 initial accepting; trans a -> a price 5 bound 5; }"
        assert err_code(text) == "positive-price"

    def test_bound_below_price(self):
        text = "rtea { state a rate 0 initial accepting; trans a -> a price -10 bound 3; }"
        assert err_code(text) == "bound-below-price"

    def test_negative_rate(self):
        assert err_code("rtea { state a rate -1 initial accepting; }") == "negative-rate"

    def test_undeclared_endpoint(self):
        text = "rtea { state a rate 0 initial accepting; trans a -> b price 0 bound 0; }"
        assert err_code(text) == "undeclared-state"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ModelError) as info:
            parse_model("rtea {\n  state a rate 0 initial accepting\n}")
        assert info.value.code == "syntax"
        assert info.value.line == 3

    def test_round_trip(self):
        for name in ("satellite.rtea", "pump.rtea", "two_loops.rtea"):
            m = load_model(name)
            assert parse_model(serialize_model(m)) == m
        rng = random.Random(5)
        for _ in range(200):
            m = parse_model(rand_model_text(rng, rng.randint(1, 8)))
            assert parse_model(serialize_model(m)) == m

    def test_pinned_diagnostics(self):
        for text, want in DIAGNOSTICS:
            try:
                got = summary(parse_model(text))
            except ModelError as e:
                got = (e.code, str(e), e.line, e.column)
            assert got == want, text

    def test_single_state_random_models_terminate(self):
        # one state has a single possible edge, s0 -> s0, while seeds 1, 3,
        # 5, ... draw an edge count of 2
        for seed in range(32):
            model = parse_model(rand_model_text(random.Random(seed), 1))
            assert [name for name, _ in model.states] == ["s0"]
            assert len(model.transitions) <= 1


# what the mutations of TestItemParser insert: tokens, literals the grammar
# rejects, and characters that are whitespace or nothing the grammar knows
MUTATION_WORDS = (
    "rtea", "state", "trans", "rate", "price", "bound", "initial", "accepting", "s0", "s1", "x",
    "->", "-", ">", "{", "}", ";", "#", "0", "-1", "+3", "5/2", "2.5", "1/0", "1.", "1e3", "-0",
)
MUTATION_CHARS = " \t\n\r#;{}-></._+019aeinrstxz\u00e9\u00a0\u2028\ufeff"
MUTATION_SPACES = ("", " ", "  ", "\n", "\r\n", "\t", " # c\n", "#", "# state s9 rate 0;\n")


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to three random edits: a character or a word
    inserted, deleted or replaced, a gap respaced, a comment inserted or
    every newline made CRLF."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(1, 3))
        op = rng.randrange(8)
        if op == 0:
            text = text[:i] + rng.choice(MUTATION_CHARS) + text[i:]
        elif op == 1:
            text = text[:i] + text[j:]
        elif op == 2:
            text = text[:i] + rng.choice(MUTATION_CHARS) + text[i + 1 :]
        elif op == 3:
            text = text[:i] + rng.choice(("", " ")) + rng.choice(MUTATION_WORDS) + rng.choice(("", " ")) + text[i:]
        elif op == 4:
            words = list(re.finditer(r"[^\s;]+", text))
            if words:
                w = rng.choice(words)
                text = text[: w.start()] + rng.choice(MUTATION_WORDS) + text[w.end() :]
        elif op == 5:
            gaps = list(re.finditer(r"\s+|(?<=\w)(?=[;>-])|(?<=[;>])(?=\w)", text))
            if gaps:
                g = rng.choice(gaps)
                text = text[: g.start()] + rng.choice(MUTATION_SPACES) + text[g.end() :]
        elif op == 6:
            # a comment holding a piece of the text, which must not be read
            text = text[:i] + "#" + text[i : i + rng.randint(0, 40)] + rng.choice(("\n", "\r\n", "")) + text[i:]
        else:
            text = text.replace("\n", "\r\n")
    return text


def outcome(parse, text: str):
    """``parse(text)``, or its error as (code, str(error), line, column)."""
    try:
        return parse(text)
    except ModelError as e:
        return (e.code, str(e), e.line, e.column)


class TestItemParser:
    """``parse_model`` gives the token parser's full outcome: the same model,
    or the same first error with the same code, message, line and column."""

    def test_agrees_with_token_parser_on_mutated_texts(self):
        rng = random.Random(2323)
        sources = [rand_model_text(rng, rng.randint(1, 4)) for _ in range(30)]
        sources += [rand_mixed_model_text(rng, rng.randint(2, 4)) for _ in range(10)]
        sources += [path.read_text(encoding="utf-8") for path in sorted(MODELS.glob("*.rtea"))]
        # the first 34 rows only: each row added as a source would redraw all
        # 20,000 texts
        sources += [text for text, _ in DIAGNOSTICS[:34]]
        valid = 0
        for _ in range(20_000):
            text = mutate(rng, rng.choice(sources))
            want = outcome(token_parse_model, text)
            assert outcome(parse_model, text) == want, text
            valid += isinstance(want, RteaModel)
        # enough of the edits keep a valid document for the models to be compared
        assert valid >= 1_000

    def test_valid_texts_agree_with_token_parser(self):
        rng = random.Random(23)
        texts = [rand_model_text(rng, rng.randint(1, 12)) for _ in range(300)]
        texts += [rand_mixed_model_text(rng, rng.randint(2, 8)) for _ in range(100)]
        texts += [path.read_text(encoding="utf-8") for path in sorted(MODELS.glob("*.rtea"))]
        texts += [text for text, want in DIAGNOSTICS if isinstance(want[0], tuple)]
        for text in texts:
            assert parse_model(text) == token_parse_model(text), text


class TestToMatrixRep:
    def test_satellite_shape(self):
        rep = to_matrix_rep(load_model("satellite.rtea"))
        assert rep.matrix.dim() == 6
        assert rep.accepting_count == 1
        assert rep.state_names[0] == "operational"
        i, j = rep.state_names.index("closed"), rep.state_names.index("half")
        assert rep.matrix.succ[i][j] == rtef(lin((0, -20, 20)))
        assert rep.alpha[rep.state_names.index("closed")] is True
        assert sum(rep.alpha) == 1

    def test_no_transitions(self):
        rep = to_matrix_rep(parse_model("rtea { state a rate 1 initial accepting; }"))
        assert dense(rep.matrix) == ((Rtef.bottom(),),)
        assert rep.matrix.succ == ({},)

    def test_parallel_transitions_both_kept(self):
        states = "rtea { state a rate 2 initial; state b rate 0 accepting; "
        first, second = "trans a -> b price -1 bound 5; ", "trans a -> b price -3 bound 3; "
        rep = to_matrix_rep(parse_model(states + first + second + "}"))
        entry = rep.matrix.succ[rep.state_names.index("a")][rep.state_names.index("b")]
        assert len(entry.components) == 2
        # the entry does not depend on the order the transitions are listed in
        assert to_matrix_rep(parse_model(states + second + first + "}")).matrix == rep.matrix


class TestRegions:
    def test_satellite_path_pieces(self):
        pieces = algebra.component_cells(SAT_TOP_NF)
        assert [(p.lo, p.hi, p.feasible) for p in pieces] == [
            (Fraction(0), Fraction(20), False),
            (Fraction(20), Fraction(40), True),
            (Fraction(40), None, True),
        ]
        mid, outer = coefficients(pieces[1]), coefficients(pieces[2])
        assert mid[2:] == (5, Fraction(5, 2), -110)
        assert (mid.wait_x, mid.wait_x * pieces[1].lo + mid.wait_c) == (Fraction(-1, 2), 12)
        assert outer[2:] == (5, 1, -50)
        assert outer.wait_x == Fraction(-1, 5)

    def test_composed_loop_pieces(self):
        comp = lin((0, 0, 30), (4, 0, 50), (5, -60, 60))
        pieces = algebra.component_cells(comp)
        inner = next(p for p in pieces if p.lo == 30)
        assert coefficients(inner)[2:] == (5, Fraction(5, 4), Fraction(-145, 2))
        outer = next(p for p in pieces if p.hi is None)
        assert outer.lo == 50
        assert coefficients(outer)[2:] == (5, 1, -60)

    def test_single_atom_piece(self):
        pieces = algebra.component_cells(lin((3, -1, 1)))
        assert len(pieces) == 1
        (p,) = pieces
        assert (p.lo, p.hi) == (0, None)
        k = coefficients(p)
        assert k[2:] == (3, 1, -1)
        assert max(0, k.wait_x * Fraction(0) + k.wait_c) == Fraction(1, 3)
        assert max(0, k.wait_x * Fraction(10) + k.wait_c) == 0

    def test_coef_t_is_final_rate(self):
        rng = random.Random(17)
        from helpers import rand_linear

        for _ in range(50):
            l = rand_linear(rng, allow_identity=False)
            for p in algebra.component_cells(l):
                if p.feasible:
                    assert coefficients(p).value_t == l.atoms[-1].rate

    def test_region_eval_matches_greedy_at_random_points(self):
        # the exported cells read in Fractions against the step-by-step
        # greedy schedule, which reads no cell
        rep = to_matrix_rep(load_model("satellite.rtea"))
        comps = list(finite_behavior(rep).components)
        comps += [SAT_TOP_NF, lin((3, -1, 1)), LinearRtef()]
        rng = random.Random(99)
        for comp in comps:
            pieces = algebra.component_cells(comp)
            for _ in range(1000):
                x = Energy.of(Fraction(rng.randint(0, 280), 4))
                t = Time(Fraction(rng.randint(0, 200), 4)) if rng.random() > 0.05 else TIME_INF
                assert cells_eval_fractions(pieces, x, t) == greedy_eval(comp, x, t)

    def test_export_matches_fraction_oracle(self):
        # 2,000 components, coprime rates and int/Fraction mixes included,
        # against the export printed from the Fraction strip tables; the
        # merged last steps are counted against one cell per bound
        rng = random.Random(61)
        merged = reduced = 0
        for i in range(2000):
            l = rand_coprime_linear(rng) if i % 2 else rand_linear(rng)
            if i % 4 >= 2:
                l = as_parsed(l)
            f = Rtef((l,))
            assert function_json(f) == function_json_fractions(f), l
            merged += len(algebra.component_cells(l)) < len(bound_cells_fractions(l))
            reduced += any(c.ints[0] > 1 for c in algebra.component_cells(l))
        assert merged > 300 and reduced > 500

    def test_ratio_prints_like_fraction(self):
        for n in range(-40, 41):
            for d in range(1, 13):
                assert regions._ratio(n, d) == str(Fraction(n, d)), (n, d)

    def test_eval_and_export_share_the_cells(self):
        # counts, not times: evaluating builds each component's cells once,
        # and the export then reads the same cached table
        algebra.component_cells.cache_clear()
        behavior = finite_behavior(to_matrix_rep(load_model("flower.rtea")))
        info = algebra.component_cells.cache_info
        before = info().misses
        for x, t in ((0, 1), (Fraction(1, 3), Fraction(7, 8)), (Fraction(9, 4), Fraction(5, 3)), (1, "inf")):
            behavior.eval(Energy.of(x), Time.of(t))
        built = info().misses - before
        assert built <= len(behavior.components)
        function_json(behavior)
        assert info().misses - before == built
        function_json(behavior)
        assert info().misses - before == built


class TestSemanticsPreserved:
    def test_matrix_form_agrees_with_grid_dp(self):
        rng = random.Random(41)
        sat = load_model("satellite.rtea")
        models = [sat] + [parse_model(rand_model_text(rng)) for _ in range(10)]
        for model in models:
            behavior = finite_behavior(to_matrix_rep(model))
            max_rate = max(r for _, r in model.states)
            for x0, t in ((Fraction(0), Fraction(4)), (Fraction(5), Fraction(2)), (Fraction(20), Fraction(8))):
                exact = behavior.eval(Energy.of(x0), Time(t))
                delta = Fraction(1, 8)
                approx = dp_lower_bound(model, x0, t, DpConfig(delta, int(t / delta)))
                assert approx <= exact
                if exact.is_finite and approx.is_finite:
                    assert exact.value - approx.value <= max_rate * delta
                elif exact.is_finite:
                    pytest.fail(f"grid dp missed a feasible point: {model} {x0} {t}")
