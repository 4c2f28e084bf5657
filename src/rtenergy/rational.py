"""Parsing and canonical formatting of exact rational literals."""

import re
from fractions import Fraction
from typing import Union

# an exact rational: an int when integral, a Fraction otherwise
Rational = Union[int, Fraction]

# optionally signed decimal or ratio; shared with the .rtea tokenizer.  ASCII
# digits only: in a str pattern \d would match every Unicode decimal digit.
NUMBER = r"[+-]?[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?"
_NUMBER_RE = re.compile(NUMBER)
# the integer literals, which need no Fraction on the way to an int
_INTEGER = re.compile(r"[+-]?[0-9]+").fullmatch


def parse_rational(text: str) -> Fraction:
    """Parse a decimal ("2.5", "-20") or ratio ("5/2") literal exactly.

    Only the ``.rtea`` number grammar is accepted: exponents ("1e999999999")
    and digit separators ("1_000") are rejected before any arithmetic, so
    the cost stays linear in the length of the text.
    """
    text = text.strip()
    if _NUMBER_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def rational(value) -> Rational:
    """``value`` as an exact rational, stored as an ``int`` when integral.

    Integer arithmetic is several times cheaper than ``Fraction``'s, and
    ``Fraction(3) == 3`` with equal hashes, so the two forms mix freely in
    comparisons, sets and sort keys; ``str`` prints both alike.  Text must
    be a ``parse_rational`` literal; integer literal text skips ``Fraction``.
    """
    if type(value) is str and _INTEGER(value):
        return int(value)
    q = parse_rational(value) if type(value) is str else Fraction(value)
    return q.numerator if q.denominator == 1 else q
