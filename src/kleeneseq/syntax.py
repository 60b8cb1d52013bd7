"""Formulas and sequents: AST types, the concrete syntax that reads and
writes them, and the two errors a command reports as bad input or as an
exhausted bound.

Formulas: `|` for disjunction, `.` for fusion, postfix `?`, the constants
`1` and `0`, variables `[a-z][a-zA-Z0-9_]*`, `|-` as turnstile and `,`
separating antecedent formulas.  `?` binds tightest, then `.`, then `|`; the
binary operators associate to the left.  `LogicId` names the two logics,
which differ in how `?` is read: as star (kl) or as plus (kl+).  One
tokenizer, one parser and one printer serve every `Spelling` of the AST:
formulas here, and the two term spellings in `algebra`.  All spellings
report malformed input alike, as a `ParseError`.
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


class StateLimitError(RuntimeError):
    """A search exceeded its configured state cap."""


# The cap the CLI gives a search when no `--state-cap` is passed: product
# states of an inclusion check, or sequents of one proof-search region.
DEFAULT_STATE_CAP = 10**6


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in `_fields` (and in `__slots__`) and sets
    them in `__init__` with `object.__setattr__`; after that, assigning or
    deleting an attribute raises `AttributeError`.  Instances are equal when
    they have the same class and equal field tuples, and equal instances hash
    equal.  The formula and sequent classes, whose hashing and comparison the
    prover runs on every table lookup, spell out `__eq__` and `__hash__` on
    their own fields instead of going through `_values`; all but `Zero` and
    `One` keep the hash of their field tuple in a slot.  A subclass may add
    derived slots after its fields in `__slots__`; they take no part in
    equality, `repr` or pickling.
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
# its own `__eq__`/`__hash__`, hashing the tuple of its fields.  A deeper
# hierarchy measured slower: with a `Formula` base class between the nodes and
# `Value`, the prover-heavy sweep benchmark ran ~5% fewer queries per second.
# A method shared by two classes reads its fields at call sites that see both,
# which the interpreter's per-site attribute caches handle more slowly (~20%
# slower `==` on formulas).  `Var`, `Or`, `Fuse` and `Query` store the hash of
# their field tuple in the derived slot `_hash` when they are built: the
# children's hashes are stored already, so a node's costs O(1) and hashing
# never recurses on depth.  `Zero` and `One` have no fields to hash.  The
# parser, `interpret_sequent` and the sequent enumeration build nodes in bulk,
# so their `__init__`s call `object.__setattr__` through one module-level name
# (a `Fuse` build measured ~14% faster than through the attribute lookup).

_set = object.__setattr__


class Var(Value):
    _fields = ("name",)
    __slots__ = _fields + ("_hash",)

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


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
    _fields = ("left", "right")
    __slots__ = _fields + ("_hash",)

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((left, right)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


class Fuse(Value):
    _fields = ("left", "right")
    __slots__ = _fields + ("_hash",)

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((left, right)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


class Query(Value):
    _fields = ("body",)
    __slots__ = _fields + ("_hash",)

    def __init__(self, body: Formula):
        _set(self, "body", body)
        _set(self, "_hash", hash((body,)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.body,) == (other.body,)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash


# A formula AST node; `isinstance(x, Formula)` tests for one.
Formula = Var | Zero | One | Or | Fuse | Query


class Sequent(Value):
    """An ordered antecedent entailing one succedent.

    Antecedent order and multiplicity matter: there is no exchange,
    weakening or contraction.  An empty antecedent is legal and is not the
    same thing as an antecedent holding `1`.

    Hashing reads the stored hash of each formula, so it costs one step per
    antecedent formula; proof search looks each sequent up in several
    tables, so the first `hash` stores the value in the slot `_hash`, which
    is derived and not a field.  It is filled lazily, not in `__init__`:
    most of the sequents built while enumerating a space are never hashed.
    """

    _fields = ("antecedent", "succedent")
    __slots__ = _fields + ("_hash",)

    def __init__(self, antecedent: tuple[Formula, ...], succedent: Formula):
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "succedent", succedent)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.antecedent, self.succedent) == (other.antecedent, other.succedent)
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.antecedent, self.succedent))
            object.__setattr__(self, "_hash", h)
            return h


def _postorder(*roots: Formula) -> list[Formula]:
    """Every node occurrence under `roots`, each after its children and left
    before right.  One explicit stack walks the occurrences parent first and
    right before left, which is the post-order reversed."""
    out: list[Formula] = []
    stack = list(roots)
    while stack:
        f = stack.pop()
        out.append(f)
        if isinstance(f, Query):
            stack.append(f.body)
        elif isinstance(f, (Or, Fuse)):
            stack += (f.left, f.right)
        elif not isinstance(f, (Var, Zero, One)):
            raise TypeError(f"not a formula: {f!r}")
    out.reverse()
    return out


def formula_size(f: Formula) -> int:
    """Number of AST nodes."""
    return len(_postorder(f))


def sequent_size(s: Sequent) -> int:
    return len(_postorder(*s.antecedent, s.succedent))


def formula_variables(f: Formula) -> frozenset[str]:
    return frozenset([g.name for g in _postorder(f) if isinstance(g, Var)])


def sequent_variables(s: Sequent) -> frozenset[str]:
    return frozenset([g.name for g in _postorder(*s.antecedent, s.succedent) if isinstance(g, Var)])


# --- concrete syntax ---------------------------------------------------------
#
# One tokenizer, one parser and one printer serve three spellings of the
# formula AST: formulas, and (in `algebra`) terms with `*` or with `^` for `?`.


class Spelling:
    """How one concrete syntax spells the formula AST.

    `noun` is the word for what the parser expects ("formula" or "term") in
    its message for a missing operand.  `ops` gives the printed form of each
    node class but `Var`; the parser reads the same symbols without their
    spaces.  `roles` maps each symbol the syntax knows to what it is to the
    parser: a node class, a parenthesis, or a symbol of its own (`,` and
    `|-` in sequents, `foreign` for the other term family's postfix
    operator, which the parser names in its error).  Every spelling reports
    malformed input by the same rules.
    """

    __slots__ = ("noun", "ops", "roles")

    def __init__(self, noun: str, ops: dict[type, str], extra: dict[str, str]):
        self.noun = noun
        self.ops = ops
        self.roles = {text.strip(): cls for cls, text in ops.items()}
        self.roles |= {"(": "(", ")": ")"} | extra


FORMULAS = Spelling(
    "formula", {Or: " | ", Fuse: " . ", Query: "?", One: "1", Zero: "0"}, {",": ",", "|-": "|-"}
)

# Binding strength of each operator node; None marks an open parenthesis.
_PREC = {None: 0, Or: 1, Fuse: 2, Query: 3}

# A token is an identifier, the turnstile (the one two-character symbol) or
# any other single character but a space; spaces only separate tokens.
_TOKEN_RE = re.compile(r"\s*([a-z][a-zA-Z0-9_]*|\|-|\S)")


class _Tokens:
    """The tokens of one text, ending with an end-of-input token "".

    `values[i]` is the text of token i, and `kinds[i]` what it is to the
    parser: its entry in `spelling.roles` or `Var` for an identifier.  The
    first symbol the spelling lacks is rejected here, before parsing.
    Positions are found again only for an error.
    """

    __slots__ = ("text", "spelling", "kinds", "values")

    def __init__(self, text: str, spelling: Spelling):
        values = _TOKEN_RE.findall(text)
        if not values:
            raise ParseError("empty input", 0)
        roles = spelling.roles
        kinds = [roles.get(v) or ("a" <= v[0] <= "z" and Var) for v in values]
        self.text = text
        self.spelling = spelling
        if False in kinds:
            i = kinds.index(False)
            raise self.error(f"unexpected character {values[i]!r}", i)
        self.kinds = kinds + [""]
        self.values = values + [""]

    def error(self, message: str, i: int) -> ParseError:
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, starts[i] if i < len(starts) else len(self.text))

    def expected(self, what: str, i: int) -> ParseError:
        found = repr(self.values[i]) if self.values[i] else "end of input"
        return self.error(f"expected {what}, found {found}", i)

    def finish(self, i: int) -> None:
        if self.values[i]:
            raise self.error(f"unexpected trailing input {self.values[i]!r}", i)


def _reduce(operands: list[Formula], pending: list, prec: int) -> None:
    """Apply the pending infix nodes that bind at least as tightly as `prec`."""
    while _PREC[pending[-1]] >= prec:
        right = operands.pop()
        operands[-1] = pending.pop()(operands[-1], right)


def _parse(tokens: _Tokens, i: int) -> tuple[Formula, int]:
    """Parse the formula that starts at token `i`; return it and the index of
    the first token after it.

    Operator precedence on explicit stacks (Pratt, POPL 1973), so nesting
    depth costs no recursion: `operands` holds the subformulas read so far,
    `pending` the infix node classes not yet applied, with a None for each
    open parenthesis and one at the bottom.  The outer loop reads an operand,
    the inner one what may follow it.
    """
    kinds, values = tokens.kinds, tokens.values
    operands: list[Formula] = []
    pending: list = [None]
    depth = 0
    while True:
        kind = kinds[i]
        if kind is Var:
            operands.append(Var(values[i]))
        elif kind is One or kind is Zero:
            operands.append(kind())
        elif kind == "(":
            pending.append(None)
            depth += 1
            i += 1
            continue
        else:
            raise tokens.expected(f"a {tokens.spelling.noun}", i)
        i += 1
        while True:
            kind = kinds[i]
            if kind is Query:
                operands[-1] = Query(operands[-1])
            elif kind == ")" and depth:
                _reduce(operands, pending, 1)
                pending.pop()
                depth -= 1
            elif kind is Or or kind is Fuse:
                _reduce(operands, pending, _PREC[kind])
                pending.append(kind)
                i += 1
                break
            elif kind == "foreign":
                raise tokens.error(f"operator {values[i]!r} is not part of this term family", i)
            elif depth:
                raise tokens.expected("rparen", i)
            else:
                _reduce(operands, pending, 1)
                return operands[0], i
            i += 1


def parse_as(text: str, spelling: Spelling) -> Formula:
    """Parse the whole of `text` as one formula written in `spelling`."""
    tokens = _Tokens(text, spelling)
    f, i = _parse(tokens, 0)
    tokens.finish(i)
    return f


def parse_formula(text: str) -> Formula:
    return parse_as(text, FORMULAS)


def parse_sequent(text: str) -> Sequent:
    tokens = _Tokens(text, FORMULAS)
    kinds = tokens.kinds
    antecedent: list[Formula] = []
    i = 0
    if kinds[0] != "|-":
        f, i = _parse(tokens, 0)
        antecedent.append(f)
        while kinds[i] == ",":
            f, i = _parse(tokens, i + 1)
            antecedent.append(f)
    if kinds[i] != "|-":
        raise tokens.expected("turnstile", i)
    succedent, i = _parse(tokens, i + 1)
    tokens.finish(i)
    return Sequent(tuple(antecedent), succedent)


def _fmt(f: Formula, ops: dict[type, str]) -> str:
    """Minimal-parenthesis text of `f` with the symbols `ops`, on an explicit
    stack: the loop descends left spines directly and keeps on `stack`, right
    to left, the text and the right operands still to write."""
    out: list[str] = []
    stack: list = []  # strings and (formula, min_prec) pairs
    min_prec = 0
    while True:
        cls = f.__class__
        if cls is Query:
            stack.append(ops[Query])
            f, min_prec = f.body, _PREC[Query]
            continue
        if cls is Or or cls is Fuse:
            prec = _PREC[cls]
            if prec < min_prec:
                out.append("(")
                stack.append(")")
            # left-associated: the right child needs parens at equal precedence
            right = f.right
            if right.__class__ is Var:  # its text, without a round trip
                stack += (right.name, ops[cls])
            else:
                stack += ((right, prec + 1), ops[cls])
            f, min_prec = f.left, prec
            continue
        if cls is Var:
            out.append(f.name)
        elif cls is One or cls is Zero:
            out.append(ops[cls])
        else:
            raise TypeError(f"not a formula: {f!r}")
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
            else:
                f, min_prec = item
                break
        else:
            return "".join(out)


def print_as(f: Formula, spelling: Spelling) -> str:
    """Minimal-parenthesis rendering in `spelling`; `parse_as` inverts it
    exactly."""
    return _fmt(f, spelling.ops)


def print_formula(f: Formula) -> str:
    return print_as(f, FORMULAS)


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_formula(f) for f in s.antecedent)
    return (left + " " if left else "") + "|- " + print_formula(s.succedent)
