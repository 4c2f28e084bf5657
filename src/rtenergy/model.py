"""Automaton text format: parsing, validation, serialization, matrix form.

Grammar::

    model := "rtea" "{" item* "}"
    item  := "state" IDENT "rate" NUM ("initial")? ("accepting")? ";"
           | "trans" IDENT "->" IDENT "price" NUM "bound" NUM ";"
    IDENT := [A-Za-z_][A-Za-z0-9_]*   (keywords included: "state state" is fine)
    NUM   := optionally signed decimal ("2.5", "-20") or ratio ("5/2"), no exponent

Whitespace may stand between any two tokens, and ``#`` starts a comment that
runs to the end of the line.  Each token is the first of NUM, IDENT, "->" and
"{", "}", ";" that matches where the last one ended, so a number may be
directly followed by a word ("rate 5initial") while "rate5" is one IDENT.

Semantic rules: states are unique, exactly one is initial, rates are
non-negative, prices non-positive, and every bound covers its price.
Numbers are kept exact: an ``int`` when integral, a ``Fraction`` otherwise
(``rational.rational``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .algebra import Atom, LinearRtef, Rtef
from .matrix import AutomatonRep, RtefMatrix
from .rational import NUMBER, Rational, rational


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
    price: Rational
    bound: Rational
    dst: str


@dataclass(frozen=True)
class RteaModel:
    """States with earn rates, one initial state, accepting subset, and
    priced/bounded transitions; tuples keep declaration order."""

    states: tuple[tuple[str, Rational], ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: tuple[Transition, ...]

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.states)


_TOKEN_RE = re.compile(
    r"""\s*(?:\#[^\n]*\s*)*  # whitespace and comments in front of every token
    (?: (?P<num>""" + NUMBER + r""")
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>->|[{};])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE,
)


def _position(text: str, off: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset ``off``; only errors need it."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


class _Parser:
    """Recursive descent over ``(kind, text, offset)`` tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # the whole text is tokenized first, so a bad character is reported
        # ahead of any grammar error in front of it; the parser stops at the
        # first "eof" (finditer repeats it after trailing whitespace)
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN_RE.finditer(text)]
        bad = next((tok for tok in self.tokens if tok[0] == "bad"), None)
        if bad is not None:
            raise self.error("syntax", f"unexpected character {bad[1]!r}", bad[2])

    def error(self, code: str, message: str, off: int) -> ModelError:
        return ModelError(code, message, *_position(self.text, off))

    def take(self, kind: Optional[str] = None, text: Optional[str] = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        if text is not None and tok[1] != text:
            raise self.error("syntax", f"expected {text!r}, found {tok[1]!r}", tok[2])
        if kind is not None and tok[0] != kind:
            what = "a name" if kind == "word" else "a number"
            raise self.error("syntax", f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos][1] != text:
            return False
        self.pos += 1
        return True

    def number(self) -> tuple[Rational, int]:
        _, text, off = self.take("num")
        try:
            return rational(text), off
        except (ValueError, ZeroDivisionError):
            raise self.error("syntax", f"bad number literal {text!r}", off) from None

    def parse(self) -> RteaModel:
        self.take(text="rtea")
        self.take(text="{")
        states: list[tuple[str, Rational]] = []
        seen: set[str] = set()
        initial: Optional[str] = None
        accepting: list[str] = []
        transitions: list[tuple[Transition, int]] = []  # with the source's offset
        while not self.accept("}"):
            kind, word, off = self.take()
            if word == "state":
                _, name, name_off = self.take("word")
                if name in seen:
                    raise self.error("duplicate-state", f"state {name!r} declared twice", name_off)
                seen.add(name)
                self.take(text="rate")
                rate, rate_off = self.number()
                if rate < 0:
                    raise self.error("negative-rate", f"state {name!r} has rate {rate}", rate_off)
                if self.accept("initial"):
                    if initial is not None:
                        raise self.error("multiple-initial", f"second initial state {name!r}", name_off)
                    initial = name
                if self.accept("accepting"):
                    accepting.append(name)
                self.take(text=";")
                states.append((name, rate))
            elif word == "trans":
                _, src, src_off = self.take("word")
                self.take(text="->")
                dst = self.take("word")[1]
                self.take(text="price")
                price, price_off = self.number()
                if price > 0:
                    raise self.error("positive-price", f"transition price {price} is positive", price_off)
                self.take(text="bound")
                bound, bound_off = self.number()
                if bound < -price:
                    raise self.error("bound-below-price", f"bound {bound} cannot cover price {price}", bound_off)
                self.take(text=";")
                transitions.append((Transition(src, price, bound, dst), src_off))
            elif kind == "word":
                raise self.error("syntax", f"expected 'state' or 'trans', found {word!r}", off)
            else:
                raise self.error("syntax", f"expected 'state', 'trans' or '}}', found {word!r}", off)
        kind, text, off = self.take()
        if kind != "eof":
            raise self.error("syntax", f"trailing input {text!r}", off)
        if initial is None:
            raise ModelError("missing-initial", "no state is marked initial")
        for tr, off in transitions:
            for endpoint in (tr.src, tr.dst):
                if endpoint not in seen:
                    raise self.error("undeclared-state", f"transition endpoint {endpoint!r} not declared", off)
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
        lines.append(f"  state {name} rate {rate!s}{flags};")
    for tr in model.transitions:
        lines.append(
            f"  trans {tr.src} -> {tr.dst} price {tr.price!s}"
            f" bound {tr.bound!s};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_matrix_rep(model: RteaModel) -> AutomatonRep:
    """Matrix form with accepting states first, stored as successor maps.

    Entry (i, j) is the supremum of one atom per transition i -> j; the atom
    earns at the source state's rate.  Only the pairs with a transition get
    an entry, so the matrix costs the transitions, not n^2.  The accepting
    state's own rate never influences finite behavior (runs end on arrival),
    but is kept for uniformity.
    """
    accepting = set(model.accepting)
    names = list(model.state_names)
    order = [n for n in names if n in accepting] + [n for n in names if n not in accepting]
    index = {n: i for i, n in enumerate(order)}
    rate = dict(model.states)
    succ = tuple({} for _ in order)
    for tr in model.transitions:
        row, j = succ[index[tr.src]], index[tr.dst]
        row[j] = row.get(j, Rtef.bottom()).sup(Rtef((LinearRtef((Atom(rate[tr.src], tr.price, tr.bound),)),)))
    alpha = tuple(name == model.initial for name in order)
    return AutomatonRep(alpha, RtefMatrix(len(order), succ), len(accepting), tuple(order))
