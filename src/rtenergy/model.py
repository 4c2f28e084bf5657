"""Automaton text format: parsing, validation, serialization, matrix form.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    model := "rtea" "{" item* "}"
    item  := "state" IDENT "rate" NUM ("initial")? ("accepting")? ";"
           | "trans" IDENT "->" IDENT "price" NUM "bound" NUM ";"
    NUM   := optionally signed decimal ("2.5", "-20") or ratio ("5/2")

Semantic rules: states are unique, exactly one is initial, rates are
non-negative, prices non-positive, and every bound covers its price.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import Atom, LinearRtef, Rtef
from .matrix import AutomatonRep, RtefMatrix
from .rational import NUMBER, format_rational


class ModelError(ValueError):
    """Parse or validation failure, carrying a machine-readable code."""

    def __init__(self, code: str, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.code = code
        self.line = line
        self.column = column
        where = f" at {line}:{column}" if line is not None else ""
        super().__init__(f"{code}: {message}{where}")


@dataclass(frozen=True)
class Transition:
    src: str
    price: Fraction
    bound: Fraction
    dst: str


@dataclass(frozen=True)
class RteaModel:
    """States with earn rates, one initial state, accepting subset, and
    priced/bounded transitions; tuples keep declaration order."""

    states: tuple[tuple[str, Fraction], ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def rate_of(self, name: str) -> Fraction:
        for n, r in self.states:
            if n == name:
                return r
        raise KeyError(name)

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.states)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<num>""" + NUMBER + r""")
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<arrow>->)
      | (?P<punct>[{};])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # word | num | arrow | punct | eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ModelError("syntax", f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ModelError("syntax", message, tok.line, tok.column)

    def expect_word(self, word: str):
        tok = self.take()
        if tok.kind != "word" or tok.text != word:
            raise ModelError("syntax", f"expected {word!r}, found {tok.text!r}", tok.line, tok.column)

    def expect_punct(self, punct: str):
        tok = self.take()
        if tok.text != punct:
            raise ModelError("syntax", f"expected {punct!r}, found {tok.text!r}", tok.line, tok.column)

    def ident(self) -> _Token:
        tok = self.take()
        if tok.kind != "word":
            raise ModelError("syntax", f"expected a name, found {tok.text!r}", tok.line, tok.column)
        return tok

    def number(self) -> tuple[Fraction, _Token]:
        tok = self.take()
        if tok.kind != "num":
            raise ModelError("syntax", f"expected a number, found {tok.text!r}", tok.line, tok.column)
        try:
            return Fraction(tok.text), tok
        except (ValueError, ZeroDivisionError):
            raise ModelError("syntax", f"bad number literal {tok.text!r}", tok.line, tok.column) from None

    def parse(self) -> RteaModel:
        self.expect_word("rtea")
        self.expect_punct("{")
        states: list[tuple[str, Fraction]] = []
        seen: set[str] = set()
        initial: Optional[str] = None
        accepting: list[str] = []
        transitions: list[tuple[Transition, _Token]] = []
        while True:
            tok = self.peek()
            if tok.text == "}":
                self.take()
                break
            if tok.kind != "word":
                self.fail(f"expected 'state', 'trans' or '}}', found {tok.text!r}")
            if tok.text == "state":
                self.take()
                name = self.ident()
                if name.text in seen:
                    raise ModelError("duplicate-state", f"state {name.text!r} declared twice", name.line, name.column)
                seen.add(name.text)
                self.expect_word("rate")
                rate, rate_tok = self.number()
                if rate < 0:
                    raise ModelError("negative-rate", f"state {name.text!r} has rate {rate}", rate_tok.line, rate_tok.column)
                if self.peek().text == "initial":
                    self.take()
                    if initial is not None:
                        raise ModelError("multiple-initial", f"second initial state {name.text!r}", name.line, name.column)
                    initial = name.text
                if self.peek().text == "accepting":
                    self.take()
                    accepting.append(name.text)
                self.expect_punct(";")
                states.append((name.text, rate))
            elif tok.text == "trans":
                self.take()
                src = self.ident()
                arrow = self.take()
                if arrow.kind != "arrow":
                    raise ModelError("syntax", f"expected '->', found {arrow.text!r}", arrow.line, arrow.column)
                dst = self.ident()
                self.expect_word("price")
                price, price_tok = self.number()
                if price > 0:
                    raise ModelError("positive-price", f"transition price {price} is positive", price_tok.line, price_tok.column)
                self.expect_word("bound")
                bound, bound_tok = self.number()
                if bound < -price:
                    raise ModelError(
                        "bound-below-price",
                        f"bound {bound} cannot cover price {price}",
                        bound_tok.line,
                        bound_tok.column,
                    )
                self.expect_punct(";")
                transitions.append((Transition(src.text, price, bound, dst.text), src))
            else:
                self.fail(f"expected 'state' or 'trans', found {tok.text!r}")
        tok = self.take()
        if tok.kind != "eof":
            raise ModelError("syntax", f"trailing input {tok.text!r}", tok.line, tok.column)
        if initial is None:
            raise ModelError("missing-initial", "no state is marked initial")
        for tr, tok in transitions:
            for endpoint in (tr.src, tr.dst):
                if endpoint not in seen:
                    raise ModelError("undeclared-state", f"transition endpoint {endpoint!r} not declared", tok.line, tok.column)
        return RteaModel(tuple(states), initial, tuple(accepting), tuple(tr for tr, _ in transitions))


def parse_model(text: str) -> RteaModel:
    """Parse and validate one model document."""
    return _Parser(text).parse()


def serialize_model(model: RteaModel) -> str:
    lines = ["rtea {"]
    for name, rate in model.states:
        flags = ""
        if name == model.initial:
            flags += " initial"
        if name in model.accepting:
            flags += " accepting"
        lines.append(f"  state {name} rate {format_rational(rate)}{flags};")
    for tr in model.transitions:
        lines.append(
            f"  trans {tr.src} -> {tr.dst} price {format_rational(tr.price)}"
            f" bound {format_rational(tr.bound)};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_matrix_rep(model: RteaModel) -> AutomatonRep:
    """Matrix form with accepting states first.

    Entry (i, j) is the supremum of one atom per transition i -> j; the atom
    earns at the source state's rate.  The accepting state's own rate never
    influences finite behavior (runs end on arrival), but is kept for
    uniformity.
    """
    accepting = set(model.accepting)
    names = list(model.state_names)
    order = [n for n in names if n in accepting] + [n for n in names if n not in accepting]
    index = {n: i for i, n in enumerate(order)}
    rate = dict(model.states)
    buckets: dict[tuple[int, int], list[LinearRtef]] = {}
    for tr in model.transitions:
        a = Atom(rate[tr.src], tr.price, tr.bound)
        buckets.setdefault((index[tr.src], index[tr.dst]), []).append(LinearRtef((a,)))
    rows = [[Rtef.bottom()] * len(order) for _ in order]
    for (i, j), cell in buckets.items():
        rows[i][j] = Rtef.of(cell).prune()
    alpha = tuple(name == model.initial for name in order)
    return AutomatonRep(alpha, RtefMatrix.of(rows), len(accepting), tuple(order))
