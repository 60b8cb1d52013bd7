"""Formulas and sequents: AST types, parser, and printer.

Concrete syntax: `|` for disjunction, `.` for fusion, postfix `?`, the
constants `1` and `0`, variables `[a-z][a-zA-Z0-9_]*`, `|-` as turnstile and
`,` separating antecedent formulas.  `?` binds tightest, then `.`, then `|`;
the binary operators associate to the left.  `LogicId` names the two logics,
which differ in how `?` is read: as star (kl) or as plus (kl+).
"""

from __future__ import annotations

import re
from enum import Enum


class LogicId(Enum):
    KL = "kl"
    KL_PLUS = "kl+"


class ParseError(ValueError):
    """Malformed input; `position` is the 0-based offset of the offence."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in `_fields` (and in `__slots__`) and sets
    them in `__init__` with `object.__setattr__`; after that, assigning or
    deleting an attribute raises `AttributeError`.  Instances are equal when
    they have the same class and equal field tuples, and hash as that tuple.
    The formula and sequent classes, whose hashing and comparison the prover
    runs on every table lookup, spell out `__eq__` and `__hash__` on their
    own fields instead of going through `_values`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # rebuild through __init__, which takes the fields in order
        return self.__class__, self._values()


# The formula node classes derive from `Value` directly, and each spells out
# its own `__eq__`/`__hash__`.  A deeper hierarchy measured slower: with a
# `Formula` base class between the nodes and `Value`, the prover-heavy sweep
# benchmark ran ~5% fewer queries per second.  A method shared by two classes
# reads its fields at call sites that see both, which the interpreter's
# per-site attribute caches handle more slowly (~20% slower `==` on formulas).


class Var(Value):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Zero(Value):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(())


class One(Value):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(())


class Or(Value):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class Fuse(Value):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class Query(Value):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula):
        object.__setattr__(self, "body", body)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.body,) == (other.body,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.body,))


# A formula AST node; `isinstance(x, Formula)` tests for one.
Formula = Var | Zero | One | Or | Fuse | Query


class Sequent(Value):
    """An ordered antecedent entailing one succedent.

    Antecedent order and multiplicity matter: there is no exchange,
    weakening or contraction.  An empty antecedent is legal and is not the
    same thing as an antecedent holding `1`.
    """

    __slots__ = _fields = ("antecedent", "succedent")

    def __init__(self, antecedent: tuple[Formula, ...], succedent: Formula):
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "succedent", succedent)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.antecedent, self.succedent) == (other.antecedent, other.succedent)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.antecedent, self.succedent))


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    if isinstance(f, (Var, Zero, One)):
        return 1
    if isinstance(f, Query):
        return 1 + formula_size(f.body)
    if isinstance(f, (Or, Fuse)):
        return 1 + formula_size(f.left) + formula_size(f.right)
    raise TypeError(f"not a formula: {f!r}")


def sequent_size(s: Sequent) -> int:
    return sum(formula_size(f) for f in s.antecedent) + formula_size(s.succedent)


def formula_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (Zero, One)):
        return frozenset()
    if isinstance(f, Query):
        return formula_variables(f.body)
    return formula_variables(f.left) | formula_variables(f.right)


def sequent_variables(s: Sequent) -> frozenset[str]:
    vs = formula_variables(s.succedent)
    for f in s.antecedent:
        vs |= formula_variables(f)
    return vs


# --- tokenizer -------------------------------------------------------------

_PUNCT = {
    "|": "or",
    ".": "dot",
    "?": "query",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
}


_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "|" and i + 1 < n and text[i + 1] == "-":
            tokens.append(("turnstile", "|-", i))
            i += 2
            continue
        if c in _PUNCT:
            tokens.append((_PUNCT[c], c, i))
            i += 1
            continue
        if c == "1" or c == "0":
            tokens.append(("const", c, i))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            found = repr(tok[1]) if tok[1] else "end of input"
            raise ParseError(f"expected {kind}, found {found}", tok[2])
        return self.advance()

    # formula := fuse ('|' fuse)*      (left-associated)
    def formula(self) -> Formula:
        f = self.fuse()
        while self.peek()[0] == "or":
            self.advance()
            f = Or(f, self.fuse())
        return f

    # fuse := query ('.' query)*
    def fuse(self) -> Formula:
        f = self.query()
        while self.peek()[0] == "dot":
            self.advance()
            f = Fuse(f, self.query())
        return f

    # query := atom '?'*
    def query(self) -> Formula:
        f = self.atom()
        while self.peek()[0] == "query":
            self.advance()
            f = Query(f)
        return f

    def atom(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "ident":
            self.advance()
            return Var(value)
        if kind == "const":
            self.advance()
            return One() if value == "1" else Zero()
        if kind == "lparen":
            self.advance()
            f = self.formula()
            self.expect("rparen")
            return f
        found = repr(value) if value else "end of input"
        raise ParseError(f"expected a formula, found {found}", pos)

    def sequent(self) -> Sequent:
        antecedent: list[Formula] = []
        if self.peek()[0] != "turnstile":
            antecedent.append(self.formula())
            while self.peek()[0] == "comma":
                self.advance()
                antecedent.append(self.formula())
        self.expect("turnstile")
        succedent = self.formula()
        return Sequent(tuple(antecedent), succedent)

    def finish(self) -> None:
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)


def parse_formula(text: str) -> Formula:
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    f = p.formula()
    p.finish()
    return f


def parse_sequent(text: str) -> Sequent:
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    s = p.sequent()
    p.finish()
    return s


# --- printer ---------------------------------------------------------------

_PREC_OR = 1
_PREC_FUSE = 2
_PREC_QUERY = 3


def _fmt(f: Formula, min_prec: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, One):
        return "1"
    if isinstance(f, Zero):
        return "0"
    if isinstance(f, Query):
        return _fmt(f.body, _PREC_QUERY) + "?"
    if isinstance(f, Or):
        prec, op = _PREC_OR, " | "
    elif isinstance(f, Fuse):
        prec, op = _PREC_FUSE, " . "
    else:
        raise TypeError(f"not a formula: {f!r}")
    # left-associated: the right child needs parens at equal precedence
    text = _fmt(f.left, prec) + op + _fmt(f.right, prec + 1)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse_formula inverts it exactly."""
    return _fmt(f, 0)


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_formula(f) for f in s.antecedent)
    return (left + " " if left else "") + "|- " + print_formula(s.succedent)
