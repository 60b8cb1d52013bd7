"""Finite automata over variable alphabets and the semantic decision procedure.

Terms compile to epsilon-NFAs by the standard structural construction;
inclusion is checked by a breadth-first product of the left automaton with
the subsets of right-automaton states reachable on the same word, which
yields a shortest (and letter-order least) counterexample word when
inclusion fails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .algebra import (
    Dot,
    One,
    Plus,
    Sharp,
    Star,
    Term,
    Var,
    Zero,
    interpret_sequent,
    is_plus_term,
    is_star_term,
    term_variables,
)
from .calculus import LogicId
from .syntax import Sequent, sequent_variables

EPSILON = None

DEFAULT_STATE_CAP = 10**6


class AlphabetMismatchError(ValueError):
    """The two automata do not share one alphabet."""


class StateLimitError(RuntimeError):
    """The product construction exceeded the configured state cap."""


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; labels are variable names or EPSILON."""

    states: frozenset[int]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[int, str | None, int]]
    start: int
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        if self.start not in self.states:
            raise ValueError("start state missing from state set")
        if not self.accepting <= self.states:
            raise ValueError("accepting states missing from state set")
        for src, label, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError("transition endpoint missing from state set")
            if label is not EPSILON and label not in self.alphabet:
                raise ValueError(f"transition label {label!r} missing from alphabet")


# --- compilation -------------------------------------------------------------


class _Builder:
    def __init__(self) -> None:
        self.count = 0
        self.transitions: list[tuple[int, str | None, int]] = []

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def edge(self, src: int, label: str | None, dst: int) -> None:
        self.transitions.append((src, label, dst))

    def build(self, t: Term) -> tuple[int, int]:
        """(start, accept) fragment for a term; single accept state."""
        start, accept = self.fresh(), self.fresh()
        if isinstance(t, Zero):
            pass  # accept unreachable: empty language
        elif isinstance(t, One):
            self.edge(start, EPSILON, accept)
        elif isinstance(t, Var):
            self.edge(start, t.name, accept)
        elif isinstance(t, Plus):
            ls, la = self.build(t.left)
            rs, ra = self.build(t.right)
            self.edge(start, EPSILON, ls)
            self.edge(start, EPSILON, rs)
            self.edge(la, EPSILON, accept)
            self.edge(ra, EPSILON, accept)
        elif isinstance(t, Dot):
            ls, la = self.build(t.left)
            rs, ra = self.build(t.right)
            self.edge(start, EPSILON, ls)
            self.edge(la, EPSILON, rs)
            self.edge(ra, EPSILON, accept)
        elif isinstance(t, Star):
            bs, ba = self.build(t.body)
            self.edge(start, EPSILON, bs)
            self.edge(start, EPSILON, accept)
            self.edge(ba, EPSILON, bs)
            self.edge(ba, EPSILON, accept)
        elif isinstance(t, Sharp):
            # like Star but without the skip edge: at least one pass
            bs, ba = self.build(t.body)
            self.edge(start, EPSILON, bs)
            self.edge(ba, EPSILON, bs)
            self.edge(ba, EPSILON, accept)
        else:
            raise TypeError(f"not a term: {t!r}")
        return start, accept


def _compile_term(t: Term, alphabet: Iterable[str]) -> Nfa:
    alpha = frozenset(alphabet)
    missing = term_variables(t) - alpha
    if missing:
        raise ValueError(f"term mentions variables outside the alphabet: {sorted(missing)}")
    b = _Builder()
    start, accept = b.build(t)
    return Nfa(
        states=frozenset(range(b.count)),
        alphabet=alpha,
        transitions=frozenset(b.transitions),
        start=start,
        accepting=frozenset((accept,)),
    )


def compile(t: Term, alphabet: Iterable[str]) -> Nfa:
    """Automaton for a star term: iteration means zero or more passes."""
    if not is_star_term(t):
        raise TypeError("expected a star term (no '^' operator)")
    return _compile_term(t, alphabet)


def compile_plus(t: Term, alphabet: Iterable[str]) -> Nfa:
    """Automaton for a plus term: iteration means one or more passes."""
    if not is_plus_term(t):
        raise TypeError("expected a plus term (no '*' operator)")
    return _compile_term(t, alphabet)


# --- simulation ---------------------------------------------------------------


def _epsilon_closures(nfa: Nfa) -> dict[int, frozenset[int]]:
    eps: dict[int, list[int]] = {}
    for src, label, dst in nfa.transitions:
        if label is EPSILON:
            eps.setdefault(src, []).append(dst)
    closures: dict[int, frozenset[int]] = {}
    for q in nfa.states:
        seen = {q}
        queue = deque((q,))
        while queue:
            cur = queue.popleft()
            for nxt in eps.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        closures[q] = frozenset(seen)
    return closures


class _ClosedView:
    """Epsilon-free reading of an NFA: letter moves already start from the
    closure of a state, and acceptance looks through the closure."""

    def __init__(self, nfa: Nfa):
        closures = _epsilon_closures(nfa)
        moves: dict[int, dict[str, set[int]]] = {q: {} for q in nfa.states}
        by_src: dict[int, list[tuple[str, int]]] = {}
        for src, label, dst in nfa.transitions:
            if label is not EPSILON:
                by_src.setdefault(src, []).append((label, dst))
        for q in nfa.states:
            table = moves[q]
            for p in closures[q]:
                for label, dst in by_src.get(p, ()):
                    table.setdefault(label, set()).add(dst)
        self.moves = moves
        self.accepting = frozenset(
            q for q in nfa.states if closures[q] & nfa.accepting
        )
        self.start = nfa.start


def accepts(nfa: Nfa, word: Iterable[str]) -> bool:
    """Direct membership check (used to re-verify counterexamples)."""
    view = _ClosedView(nfa)
    current = {view.start}
    for letter in word:
        nxt: set[int] = set()
        for q in current:
            nxt |= view.moves[q].get(letter, set())
        if not nxt:
            return False
        current = nxt
    return bool(current & view.accepting)


# --- inclusion ---------------------------------------------------------------


@dataclass(frozen=True)
class InclusionResult:
    holds: bool
    counterexample: tuple[str, ...] | None

    def __bool__(self) -> bool:
        return self.holds


def includes(left: Nfa, right: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> InclusionResult:
    """Whether every word of `left` is a word of `right`.

    When not, the counterexample is a shortest word accepted by `left` and
    rejected by `right` (ties broken by sorted letter order).
    """
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(left.alphabet)} vs {sorted(right.alphabet)}"
        )
    lview = _ClosedView(left)
    rview = _ClosedView(right)
    letters = sorted(left.alphabet)

    start = (lview.start, frozenset((rview.start,)))
    # parent links reconstruct the witness word
    seen: dict[tuple[int, frozenset[int]], tuple[tuple[int, frozenset[int]] | None, str | None]] = {
        start: (None, None)
    }
    queue = deque((start,))
    while queue:
        pair = queue.popleft()
        lstate, rsubset = pair
        if lstate in lview.accepting and not (rsubset & rview.accepting):
            word: list[str] = []
            cursor: tuple[int, frozenset[int]] | None = pair
            while cursor is not None:
                parent, letter = seen[cursor]
                if letter is not None:
                    word.append(letter)
                cursor = parent
            return InclusionResult(False, tuple(reversed(word)))
        for letter in letters:
            ltargets = lview.moves[lstate].get(letter)
            if not ltargets:
                continue
            rtarget: set[int] = set()
            for q in rsubset:
                rtarget |= rview.moves[q].get(letter, set())
            rsub = frozenset(rtarget)
            for lnext in sorted(ltargets):
                nxt = (lnext, rsub)
                if nxt not in seen:
                    if len(seen) >= state_cap:
                        raise StateLimitError(
                            f"inclusion check exceeded {state_cap} product states"
                        )
                    seen[nxt] = (pair, letter)
                    queue.append(nxt)
    return InclusionResult(True, None)


def equivalent(x: Nfa, y: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Mutual inclusion."""
    return bool(includes(x, y, state_cap)) and bool(includes(y, x, state_cap))


# --- the decision procedure ---------------------------------------------------


@dataclass(frozen=True)
class DecisionResult:
    derivable: bool
    counterexample: tuple[str, ...] | None

    def __bool__(self) -> bool:
        return self.derivable


def decide(logic: LogicId, s: Sequent, state_cap: int = DEFAULT_STATE_CAP) -> DecisionResult:
    """Semantic derivability: interpret both sides over the sequent's own
    variables (each variable a distinct letter) and test language inclusion.

    For kl this agrees with cut-free proof search on every sequent we can
    enumerate; for kl+ it is strictly stronger on sequents with an
    empty-language query in an interior antecedent position (see README).
    """
    left, right = decision_automata(logic, s)
    result = includes(left, right, state_cap)
    return DecisionResult(result.holds, result.counterexample)


def decision_automata(logic: LogicId, s: Sequent) -> tuple[Nfa, Nfa]:
    """The two automata `decide` compares, for inspection/dumping."""
    lhs, rhs = interpret_sequent(s, logic)
    alphabet = frozenset(sequent_variables(s))
    if logic is LogicId.KL:
        return compile(lhs, alphabet), compile(rhs, alphabet)
    return compile_plus(lhs, alphabet), compile_plus(rhs, alphabet)


def to_dot(nfa: Nfa, name: str = "nfa") -> str:
    """GraphViz rendering for debugging."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for q in sorted(nfa.states):
        shape = "doublecircle" if q in nfa.accepting else "circle"
        lines.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
    lines.append(f"  hidden -> q{nfa.start};")
    for src, label, dst in sorted(
        nfa.transitions, key=lambda e: (e[0], e[1] or "", e[2])
    ):
        text = "ε" if label is EPSILON else label
        lines.append(f'  q{src} -> q{dst} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines)
