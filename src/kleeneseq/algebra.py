"""Terms: formulas read in a logic, and the maps between the two readings.

A term is a formula together with the logic that reads it.  The logics
differ only in `?`, which kl reads as star (zero or more passes) and kl+ as
plus (one or more passes), so terms share the formula AST of `syntax`.
Concrete term syntax: `+`, `.`, postfix `*` in kl and `^` in kl+,
constants `1`/`0`; postfix operators bind tightest, then `.`, then `+`.
The two term spellings are defined here and read and written by the one
parser and printer of `syntax`, so a malformed term is reported as a
malformed formula is; the term functions only pick the spelling and the
logic.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import syntax
from .syntax import Formula, Fuse, LogicId, One, Or, Query, Sequent, Spelling, Var, Zero


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
    homomorphic elsewhere.

    Built in post-order, so depth costs no recursion: `images` holds the
    images of the subformulas whose parent is still to come.
    """
    images: list[Formula] = []
    for g in syntax._postorder(f):
        cls = g.__class__
        if cls is Query:
            images[-1] = query(images[-1])
        elif cls is Or or cls is Fuse:
            right = images.pop()
            images[-1] = cls(images[-1], right)
        else:
            images.append(g)
    return images[0]


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

# Each spelling knows the other family's postfix operator, so that it can
# name it in its error.
_TERM_OPS = {Or: "+", Fuse: ".", One: "1", Zero: "0"}
STAR_TERMS = Spelling("term", {**_TERM_OPS, Query: "*"}, {"^": "foreign"})
PLUS_TERMS = Spelling("term", {**_TERM_OPS, Query: "^"}, {"*": "foreign"})
_SPELLINGS = {LogicId.KL: STAR_TERMS, LogicId.KL_PLUS: PLUS_TERMS}


def _tree_size(f: Formula) -> int:
    """Node occurrences of `f` read as a tree, counted on its shared DAG:
    `sizes` keeps each distinct node's count by identity, and the explicit
    stack keeps a node until its children (its fields but a name) are counted."""
    sizes: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        children = () if g.__class__ is Var else g._values()
        todo = [c for c in children if id(c) not in sizes]
        if todo:
            stack += todo
        else:
            sizes[id(stack.pop())] = 1 + sum([sizes[id(c)] for c in children])
    return sizes[id(f)]


def print_term(t: Term) -> str:
    """Compact rendering (no spaces); the term parsers invert it exactly.

    `map_j` writes the image of each `^` body twice, as shared nodes, so a
    term can be exponentially longer as text than as a DAG: a term of more
    than `DEFAULT_STATE_CAP` nodes raises `StateLimitError` before printing.
    """
    size, cap = _tree_size(t.formula), syntax.DEFAULT_STATE_CAP
    if size > cap:
        raise syntax.StateLimitError(f"term has {size} nodes, more than {cap} to print")
    return syntax.print_as(t.formula, _SPELLINGS[t.logic])


def parse_star_term(text: str) -> Term:
    """Parse syntax with `*` into a kl term."""
    return Term(syntax.parse_as(text, STAR_TERMS), LogicId.KL)


def parse_plus_term(text: str) -> Term:
    """Parse syntax with `^` into a kl+ term."""
    return Term(syntax.parse_as(text, PLUS_TERMS), LogicId.KL_PLUS)
