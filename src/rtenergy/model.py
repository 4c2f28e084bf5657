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

A document is read in one pass, one regex match per item, and each item's
fields are checked as they are read.  Where the head or an item is cut
short, a regex built from the same table of steps takes its longest
well-formed prefix, whose fields get the same checks; the error names the
first missing step and the token in its place, with line and column.  A
character that starts no token is reported first, wherever it stands.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

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


class Transition(NamedTuple):
    src: str
    price: Rational
    bound: Rational
    dst: str


class RteaModel(NamedTuple):
    """States with earn rates, one initial state, accepting subset, and
    priced/bounded transitions; tuples keep declaration order."""

    states: tuple[tuple[str, Rational], ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: tuple[Transition, ...]

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.states)


# Whitespace and comments.  A comment must run to the end of its line: with
# a bare \#[^\n]* backtracking could end it early and read the rest of the
# line as an item.  No possessive quantifiers or atomic groups (Python 3.11+).
_SEP = r"\s*(?:\#[^\n]*(?:\n\s*|\Z))*"
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"
# a name or keyword is the whole word, as the tokenizer reads it
_END = r"(?![A-Za-z0-9_])"
_NAME = _WORD + _END

# the token grammar, compiled through re's cache on the first error: where a
# diagnostic stands and what it says was found there
_TOKEN = rf"""{_SEP}  # whitespace and comments in front of every token
    (?: (?P<num>{NUMBER})
      | (?P<word>{_WORD})
      | (?P<punct>->|[{{}};])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )"""


# The head and each item kind as steps: a pattern, which whitespace and
# comments follow, and what a diagnostic expects when the step is missing
# (None for an optional step).  A field is a named group.
_HEAD = (("rtea" + _END, "'rtea'"), (r"\{", "'{'"))
_STATE = (
    ("state" + _END, "'state'"),
    (f"(?P<name>{_NAME})", "a name"),
    ("rate" + _END, "'rate'"),
    (f"(?P<rate>{NUMBER})", "a number"),
    (f"(?P<initial>initial{_END})", None),
    (f"(?P<accepting>accepting{_END})", None),
    (";", "';'"),
)
_TRANS = (
    ("trans" + _END, "'trans'"),
    (f"(?P<src>{_NAME})", "a name"),
    ("->", "'->'"),
    (f"(?P<dst>{_NAME})", "a name"),
    ("price" + _END, "'price'"),
    (f"(?P<price>{NUMBER})", "a number"),
    ("bound" + _END, "'bound'"),
    (f"(?P<bound>{NUMBER})", "a number"),
    (";", "';'"),
)


def _joined(steps) -> str:
    """The whole of ``steps``, the optional ones in optional groups."""
    return "".join(p + _SEP if expected else f"(?:{p}{_SEP})?" for p, expected in steps)


def _chained(steps) -> str:
    """The longest well-formed prefix of ``steps``: each step is optional only
    after the one before it and is a group of its own (a field is one
    already), so a match's ``lastindex`` is the last step it took."""
    chain = ""
    for p, expected in reversed(steps):
        step = (p if p[0] == "(" else f"({p})") + _SEP
        chain = f"(?:{step}{chain})?" if expected else f"(?:{step})?{chain}"
    return chain


_HEAD_RE = re.compile(_SEP + _joined(_HEAD))
_ITEM_RE = re.compile(f"(?:{_joined(_STATE)}|{_joined(_TRANS)})")
_TAIL_RE = re.compile(r"\}" + _SEP + r"\Z")
# in group order: name, rate, initial, accepting, src, dst, price, bound
_FIELDS = tuple(_ITEM_RE.groupindex)
# compiled through re's cache on the first error.  An item's keyword is not
# optional ([:-1] drops its "?"): a first branch that matched empty would
# hide the second.
_HEAD_PREFIX = _SEP + _chained(_HEAD)
_ITEM_PREFIX = f"(?:{_chained(_STATE)[:-1]}|{_chained(_TRANS)[:-1]})?"


def _position(text: str, off: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset ``off``; only errors need it."""
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


def _token(text: str, pos: int) -> tuple[str, str, int]:
    """Kind, text and offset of the token at ``pos``."""
    m = re.compile(_TOKEN, re.VERBOSE).match(text, pos)
    return m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)


def _error(text: str, code: str, message: str, off: Optional[int] = None) -> ModelError:
    """The diagnostic of ``text``: the first character that starts no token,
    wherever it stands, or else ``code: message`` at offset ``off``."""
    for tok in re.finditer(_TOKEN, text, re.VERBOSE):
        if tok.lastgroup == "bad":
            code, message, off = "syntax", f"unexpected character {tok['bad']!r}", tok.start("bad")
            break
    return ModelError(code, message) if off is None else ModelError(code, message, *_position(text, off))


def _expected(text: str, m: re.Match, steps) -> ModelError:
    """The error of prefix match ``m`` over ``steps``: the first step it
    lacks, and the token found in its place."""
    expected = next(e for _, e in steps[m.lastindex or 0 :] if e)
    _, found, off = _token(text, m.end())
    return _error(text, "syntax", f"expected {expected}, found {found!r}", off)


def parse_model(text: str) -> RteaModel:
    """Parse and validate one model document."""
    m = _HEAD_RE.match(text)
    if m is None:
        raise _expected(text, re.compile(_HEAD_PREFIX).match(text), _HEAD)
    pos = m.end()
    rates: dict[str, Rational] = {}  # the declared states, in order
    initial: Optional[str] = None
    accepting: list[str] = []
    transitions: list[Transition] = []
    pending: list[re.Match] = []  # transitions read before a state they name
    whole = True
    while whole:
        m = _ITEM_RE.match(text, pos)
        whole = m is not None
        if whole:
            fields = m.groups()
        else:  # the longest well-formed prefix, whose fields get the same checks
            m = re.compile(_ITEM_PREFIX).match(text, pos)
            fields = m.group(*_FIELDS)
        name, rate, is_initial, is_accepting, src, dst, price, bound = fields
        if name is not None:
            if name in rates:
                raise _error(text, "duplicate-state", f"state {name!r} declared twice", m.start("name"))
            if rate is not None:
                try:
                    rate = rational(rate)
                except ValueError:
                    raise _error(text, "syntax", f"bad number literal {rate!r}", m.start("rate")) from None
                if rate < 0:
                    raise _error(text, "negative-rate", f"state {name!r} has rate {rate}", m.start("rate"))
                if is_initial:
                    if initial is not None:
                        raise _error(text, "multiple-initial", f"second initial state {name!r}", m.start("name"))
                    initial = name
                if is_accepting:
                    accepting.append(name)
                rates[name] = rate
        elif price is not None:
            try:
                price = rational(price)
            except ValueError:
                raise _error(text, "syntax", f"bad number literal {price!r}", m.start("price")) from None
            if price > 0:
                raise _error(text, "positive-price", f"transition price {price} is positive", m.start("price"))
            if bound is not None:
                try:
                    bound = rational(bound)
                except ValueError:
                    raise _error(text, "syntax", f"bad number literal {bound!r}", m.start("bound")) from None
                if bound < -price:
                    raise _error(text, "bound-below-price", f"bound {bound} cannot cover price {price}", m.start("bound"))
                transitions.append(Transition(src, price, bound, dst))
                if src not in rates or dst not in rates:
                    pending.append(m)
        pos = m.end()
    if m.lastindex is not None:  # an item that stops short
        raise _expected(text, m, _STATE + _TRANS)
    if _TAIL_RE.match(text, pos) is None:
        kind, found, off = _token(text, pos)
        if found == "}":
            _, found, off = _token(text, off + 1)
            raise _error(text, "syntax", f"trailing input {found!r}", off)
        expected = "'state' or 'trans'" if kind == "word" else "'state', 'trans' or '}'"
        raise _error(text, "syntax", f"expected {expected}, found {found!r}", off)
    if initial is None:
        raise _error(text, "missing-initial", "no state is marked initial")
    for m in pending:
        endpoint = m["src"] if m["src"] not in rates else m["dst"]
        if endpoint not in rates:
            raise _error(text, "undeclared-state", f"transition endpoint {endpoint!r} not declared", m.start("src"))
    return RteaModel(tuple(rates.items()), initial, tuple(accepting), tuple(transitions))


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
        f = Rtef((LinearRtef((Atom(rate[tr.src], tr.price, tr.bound),)),))
        row[j] = row[j].sup(f) if j in row else f
    alpha = tuple(name == model.initial for name in order)
    return AutomatonRep(alpha, RtefMatrix(len(order), succ), len(accepting), tuple(order))
