"""Algebraic terms with iteration as star or as plus, and the maps between them.

One AST covers both term families: star terms never contain Sharp, plus
terms never contain Star.  Concrete syntax: `+`, `.`, postfix `*` (star) and
`^` (plus-iteration), constants `1`/`0`; postfix operators bind tightest,
then `.`, then `+`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    Formula,
    Fuse,
    LogicId,
    One as FOne,
    Or,
    Query,
    Sequent,
    Var as FVar,
    Zero as FZero,
)


class Term:
    """Base class for term AST nodes. Instances are immutable."""


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Dot(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Star(Term):
    body: Term


@dataclass(frozen=True)
class Sharp(Term):
    body: Term


def term_size(t: Term) -> int:
    if isinstance(t, (Var, Zero, One)):
        return 1
    if isinstance(t, (Star, Sharp)):
        return 1 + term_size(t.body)
    if isinstance(t, (Plus, Dot)):
        return 1 + term_size(t.left) + term_size(t.right)
    raise TypeError(f"not a term: {t!r}")


def term_variables(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, (Zero, One)):
        return frozenset()
    if isinstance(t, (Star, Sharp)):
        return term_variables(t.body)
    return term_variables(t.left) | term_variables(t.right)


def is_star_term(t: Term) -> bool:
    """True if t belongs to the star family (contains no Sharp)."""
    if isinstance(t, (Var, Zero, One)):
        return True
    if isinstance(t, Star):
        return is_star_term(t.body)
    if isinstance(t, (Plus, Dot)):
        return is_star_term(t.left) and is_star_term(t.right)
    return False


def is_plus_term(t: Term) -> bool:
    """True if t belongs to the plus family (contains no Star)."""
    if isinstance(t, (Var, Zero, One)):
        return True
    if isinstance(t, Sharp):
        return is_plus_term(t.body)
    if isinstance(t, (Plus, Dot)):
        return is_plus_term(t.left) and is_plus_term(t.right)
    return False


# --- interpretation of formulas ---------------------------------------------


def interpret(f: Formula, logic: LogicId) -> Term:
    """Homomorphic image of a formula with the identity valuation on variables.

    `?` becomes Star under kl and Sharp under kl+; everything else maps
    one-to-one.
    """
    if isinstance(f, FVar):
        return Var(f.name)
    if isinstance(f, FZero):
        return Zero()
    if isinstance(f, FOne):
        return One()
    if isinstance(f, Or):
        return Plus(interpret(f.left, logic), interpret(f.right, logic))
    if isinstance(f, Fuse):
        return Dot(interpret(f.left, logic), interpret(f.right, logic))
    if isinstance(f, Query):
        body = interpret(f.body, logic)
        return Star(body) if logic is LogicId.KL else Sharp(body)
    raise TypeError(f"not a formula: {f!r}")


def interpret_sequent(s: Sequent, logic: LogicId) -> tuple[Term, Term]:
    """(left, right) terms of a sequent: the antecedent sequence is folded
    with Dot exactly like fusion, and the empty antecedent is the unit."""
    if s.antecedent:
        lhs = interpret(s.antecedent[0], logic)
        for f in s.antecedent[1:]:
            lhs = Dot(lhs, interpret(f, logic))
    else:
        lhs = One()
    return lhs, interpret(s.succedent, logic)


# --- change of basis between star and plus terms ----------------------------


def map_i(t: Term) -> Term:
    """Star-to-plus translation: star terms become plus terms, sending
    x* to 1 + x^ and acting homomorphically elsewhere."""
    if isinstance(t, (Var, Zero, One)):
        return t
    if isinstance(t, Plus):
        return Plus(map_i(t.left), map_i(t.right))
    if isinstance(t, Dot):
        return Dot(map_i(t.left), map_i(t.right))
    if isinstance(t, Star):
        return Plus(One(), Sharp(map_i(t.body)))
    raise TypeError(f"not a star term: {t!r}")


def map_j(t: Term) -> Term:
    """Plus-to-star translation: x^ becomes x . x* and the rest is
    homomorphic."""
    if isinstance(t, (Var, Zero, One)):
        return t
    if isinstance(t, Plus):
        return Plus(map_j(t.left), map_j(t.right))
    if isinstance(t, Dot):
        return Dot(map_j(t.left), map_j(t.right))
    if isinstance(t, Sharp):
        body = map_j(t.body)
        return Dot(body, Star(body))
    raise TypeError(f"not a plus term: {t!r}")


# --- concrete term syntax ----------------------------------------------------

_PREC_PLUS = 1
_PREC_DOT = 2
_PREC_POSTFIX = 3


def _fmt(t: Term, min_prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, One):
        return "1"
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Star):
        return _fmt(t.body, _PREC_POSTFIX) + "*"
    if isinstance(t, Sharp):
        return _fmt(t.body, _PREC_POSTFIX) + "^"
    if isinstance(t, Plus):
        prec, op = _PREC_PLUS, "+"
    elif isinstance(t, Dot):
        prec, op = _PREC_DOT, "."
    else:
        raise TypeError(f"not a term: {t!r}")
    text = _fmt(t.left, prec) + op + _fmt(t.right, prec + 1)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_term(t: Term) -> str:
    """Compact rendering (no spaces); the term parsers invert it exactly."""
    return _fmt(t, 0)


class TermParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_TERM_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


class _TermParser:
    """Recursive-descent parser; `postfix` selects '*' or '^'."""

    def __init__(self, text: str, postfix: str):
        self.text = text
        self.postfix = postfix
        self.pos = 0
        self._skip_ws()

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _eat(self, char: str) -> bool:
        if self.pos < len(self.text) and self.text[self.pos] == char:
            self.pos += 1
            self._skip_ws()
            return True
        return False

    def term(self) -> Term:
        t = self.product()
        while self._eat("+"):
            t = Plus(t, self.product())
        return t

    def product(self) -> Term:
        t = self.iterated()
        while self._eat("."):
            t = Dot(t, self.iterated())
        return t

    def iterated(self) -> Term:
        t = self.atom()
        while True:
            if self._eat(self.postfix):
                t = Star(t) if self.postfix == "*" else Sharp(t)
            elif self.pos < len(self.text) and self.text[self.pos] in "*^":
                raise TermParseError(
                    f"operator {self.text[self.pos]!r} is not part of this term family",
                    self.pos,
                )
            else:
                return t

    def atom(self) -> Term:
        if self.pos >= len(self.text):
            raise TermParseError("expected a term, found end of input", self.pos)
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            self._skip_ws()
            t = self.term()
            if not self._eat(")"):
                raise TermParseError("expected ')'", self.pos)
            return t
        if c == "1" or c == "0":
            self.pos += 1
            self._skip_ws()
            return One() if c == "1" else Zero()
        m = _TERM_IDENT_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            self._skip_ws()
            return Var(m.group())
        raise TermParseError(f"unexpected character {c!r}", self.pos)

    def finish(self) -> None:
        if self.pos < len(self.text):
            raise TermParseError(
                f"unexpected trailing input {self.text[self.pos]!r}", self.pos
            )


def parse_star_term(text: str) -> Term:
    """Parse syntax with `*`; the result contains no Sharp."""
    if not text.strip():
        raise TermParseError("empty input", 0)
    p = _TermParser(text, "*")
    t = p.term()
    p.finish()
    return t


def parse_plus_term(text: str) -> Term:
    """Parse syntax with `^`; the result contains no Star."""
    if not text.strip():
        raise TermParseError("empty input", 0)
    p = _TermParser(text, "^")
    t = p.term()
    p.finish()
    return t
