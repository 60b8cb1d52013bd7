"""Terms: formulas read in a logic, and the maps between the two readings.

A term is a formula together with the logic that reads it.  The logics
differ only in `?`, which kl reads as star (zero or more passes) and kl+ as
plus (one or more passes), so terms share the formula AST of `syntax`.
Concrete term syntax: `+`, `.`, postfix `*` in kl and `^` in kl+,
constants `1`/`0`; postfix operators bind tightest, then `.`, then `+`.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .syntax import Formula, Fuse, LogicId, One, Or, Query, Sequent, Var, Zero


class Term(NamedTuple):
    """A formula read in a logic: `?` is star in kl and plus in kl+."""

    formula: Formula
    logic: LogicId


def interpret_sequent(s: Sequent, logic: LogicId) -> tuple[Term, Term]:
    """(left, right) terms of a sequent: the antecedent sequence is folded
    with fusion, and the empty antecedent is the unit."""
    if s.antecedent:
        lhs = s.antecedent[0]
        for f in s.antecedent[1:]:
            lhs = Fuse(lhs, f)
    else:
        lhs = One()
    return Term(lhs, logic), Term(s.succedent, logic)


# --- change of basis between star and plus terms ----------------------------


def _map_queries(f: Formula, query: Callable[[Formula], Formula]) -> Formula:
    """Image of f sending each `?` with mapped body g to query(g),
    homomorphic elsewhere."""
    if isinstance(f, Query):
        return query(_map_queries(f.body, query))
    if isinstance(f, Or):
        return Or(_map_queries(f.left, query), _map_queries(f.right, query))
    if isinstance(f, Fuse):
        return Fuse(_map_queries(f.left, query), _map_queries(f.right, query))
    if isinstance(f, (Var, Zero, One)):
        return f
    raise TypeError(f"not a formula: {f!r}")


def map_i(t: Term) -> Term:
    """Star-to-plus translation: a kl term becomes a kl+ term, sending
    x* to 1 + x^ and acting homomorphically elsewhere."""
    if t.logic is not LogicId.KL:
        raise TypeError(f"not a star term: {t!r}")
    return Term(_map_queries(t.formula, lambda body: Or(One(), Query(body))), LogicId.KL_PLUS)


def map_j(t: Term) -> Term:
    """Plus-to-star translation: a kl+ term becomes a kl term, sending
    x^ to x . x* and acting homomorphically elsewhere."""
    if t.logic is not LogicId.KL_PLUS:
        raise TypeError(f"not a plus term: {t!r}")
    return Term(_map_queries(t.formula, lambda body: Fuse(body, Query(body))), LogicId.KL)


# --- concrete term syntax ----------------------------------------------------

_PREC_PLUS = 1
_PREC_DOT = 2
_PREC_POSTFIX = 3

_POSTFIX = {LogicId.KL: "*", LogicId.KL_PLUS: "^"}


def _fmt(f: Formula, min_prec: int, postfix: str) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, One):
        return "1"
    if isinstance(f, Zero):
        return "0"
    if isinstance(f, Query):
        return _fmt(f.body, _PREC_POSTFIX, postfix) + postfix
    if isinstance(f, Or):
        prec, op = _PREC_PLUS, "+"
    elif isinstance(f, Fuse):
        prec, op = _PREC_DOT, "."
    else:
        raise TypeError(f"not a formula: {f!r}")
    text = _fmt(f.left, prec, postfix) + op + _fmt(f.right, prec + 1, postfix)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_term(t: Term) -> str:
    """Compact rendering (no spaces); the term parsers invert it exactly."""
    return _fmt(t.formula, 0, _POSTFIX[t.logic])


class TermParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_TERM_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


class _TermParser:
    """Recursive-descent parser; `postfix` is '*' or '^'."""

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

    def term(self) -> Formula:
        f = self.product()
        while self._eat("+"):
            f = Or(f, self.product())
        return f

    def product(self) -> Formula:
        f = self.iterated()
        while self._eat("."):
            f = Fuse(f, self.iterated())
        return f

    def iterated(self) -> Formula:
        f = self.atom()
        while True:
            if self._eat(self.postfix):
                f = Query(f)
            elif self.pos < len(self.text) and self.text[self.pos] in "*^":
                raise TermParseError(
                    f"operator {self.text[self.pos]!r} is not part of this term family",
                    self.pos,
                )
            else:
                return f

    def atom(self) -> Formula:
        if self.pos >= len(self.text):
            raise TermParseError("expected a term, found end of input", self.pos)
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            self._skip_ws()
            f = self.term()
            if not self._eat(")"):
                raise TermParseError("expected ')'", self.pos)
            return f
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


def _parse_term(text: str, logic: LogicId) -> Term:
    if not text.strip():
        raise TermParseError("empty input", 0)
    p = _TermParser(text, _POSTFIX[logic])
    f = p.term()
    p.finish()
    return Term(f, logic)


def parse_star_term(text: str) -> Term:
    """Parse syntax with `*` into a kl term."""
    return _parse_term(text, LogicId.KL)


def parse_plus_term(text: str) -> Term:
    """Parse syntax with `^` into a kl+ term."""
    return _parse_term(text, LogicId.KL_PLUS)
