"""Finite automata over variable alphabets and the semantic decision procedure.

Terms (formulas read in a logic, see `algebra`) compile to position
automata (Glushkov 1961; McNaughton and Yamada 1960): one start state plus
one state per letter occurrence, entered only on that letter, so there are
no epsilon-moves; the logic decides only whether a `?` is nullable.
Inclusion is checked by a breadth-first product of the left automaton with
the subsets of right-automaton states reachable on the same word, which
yields a shortest (and letter-order least) counterexample word when
inclusion fails.  The product is pruned by antichains: a pair whose right
subset contains that of an earlier pair with the same left state is never
explored, which keeps both the verdict and that counterexample (see
`includes`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .algebra import Term, interpret_sequent
from .syntax import Formula, Fuse, LogicId, One, Or, Query, Sequent, Var, Zero, sequent_variables

DEFAULT_STATE_CAP = 10**6


class AlphabetMismatchError(ValueError):
    """The two automata do not share one alphabet."""


class StateLimitError(RuntimeError):
    """The product construction exceeded the configured state cap."""


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton; every label is a letter of the alphabet."""

    states: frozenset[int]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[int, str, int]]
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
            if label not in self.alphabet:
                raise ValueError(f"transition label {label!r} missing from alphabet")


# --- compilation -------------------------------------------------------------


def compile(t: Term, alphabet: Iterable[str]) -> Nfa:
    """Position automaton: state 0 starts, state p is the p-th letter
    occurrence of `t` and is entered only on that letter.  A `?` iterates
    its body zero or more times in kl and one or more times in kl+."""
    alpha = frozenset(alphabet)
    star = t.logic is LogicId.KL
    letters: list[str] = []  # letters[p - 1] labels position p
    transitions: set[tuple[int, str, int]] = set()

    def link(sources: Iterable[int], targets: Iterable[int]) -> None:
        transitions.update((p, letters[q - 1], q) for p in sources for q in targets)

    def walk(f: Formula) -> tuple[bool, frozenset[int], frozenset[int]]:
        """(nullable, first, last) of `f`; links the positions that follow
        one another inside `f`."""
        if isinstance(f, Zero):
            return False, frozenset(), frozenset()
        if isinstance(f, One):
            return True, frozenset(), frozenset()
        if isinstance(f, Var):
            letters.append(f.name)
            here = frozenset((len(letters),))
            return False, here, here
        if isinstance(f, Or):
            lnull, lfirst, llast = walk(f.left)
            rnull, rfirst, rlast = walk(f.right)
            return lnull or rnull, lfirst | rfirst, llast | rlast
        if isinstance(f, Fuse):
            lnull, lfirst, llast = walk(f.left)
            rnull, rfirst, rlast = walk(f.right)
            link(llast, rfirst)
            return (
                lnull and rnull,
                lfirst | rfirst if lnull else lfirst,
                llast | rlast if rnull else rlast,
            )
        if isinstance(f, Query):
            # plus is star without the empty pass
            null, first, last = walk(f.body)
            link(last, first)
            return null or star, first, last
        raise TypeError(f"not a formula: {f!r}")

    nullable, first, last = walk(t.formula)
    missing = set(letters) - alpha
    if missing:
        raise ValueError(f"term mentions variables outside the alphabet: {sorted(missing)}")
    link((0,), first)
    return Nfa(
        states=frozenset(range(len(letters) + 1)),
        alphabet=alpha,
        transitions=frozenset(transitions),
        start=0,
        accepting=last | {0} if nullable else last,
    )


# --- simulation ---------------------------------------------------------------


_NO_MOVES: frozenset[int] = frozenset()


def _moves(nfa: Nfa) -> dict[int, dict[str, set[int]]]:
    """Successor sets per state and letter."""
    moves: dict[int, dict[str, set[int]]] = {q: {} for q in nfa.states}
    for src, label, dst in nfa.transitions:
        moves[src].setdefault(label, set()).add(dst)
    return moves


def accepts(nfa: Nfa, word: Iterable[str]) -> bool:
    """Direct membership check (used to re-verify counterexamples)."""
    moves = _moves(nfa)
    current = {nfa.start}
    for letter in word:
        nxt: set[int] = set()
        for q in current:
            nxt |= moves[q].get(letter, _NO_MOVES)
        if not nxt:
            return False
        current = nxt
    return bool(current & nfa.accepting)


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

    The search is breadth-first over pairs (left state, set of right states
    reached on the same word), discovered in shortlex order of their words,
    and it keeps for each left state an antichain of the least right sets
    admitted so far (De Wulf, Doyen, Henzinger and Raskin, CAV 2006).  A new
    pair (l, S) is dropped when some earlier pair (l, S') has S' <= S: every
    suffix that leads (l, S) to a counterexample leads (l, S') to one too,
    from a word no later in shortlex order, so pruning changes neither the
    verdict nor the counterexample.  `state_cap` bounds the number of admitted pairs.
    """
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(left.alphabet)} vs {sorted(right.alphabet)}"
        )
    lmoves, rmoves = _moves(left), _moves(right)
    letters = sorted(left.alphabet)

    start = (left.start, frozenset((right.start,)))
    # parent links of the admitted pairs reconstruct the witness word
    seen: dict[tuple[int, frozenset[int]], tuple[tuple[int, frozenset[int]] | None, str | None]] = {
        start: (None, None)
    }
    # per left state, the minimal right sets among the admitted pairs
    least: dict[int, list[frozenset[int]]] = {left.start: [start[1]]}
    queue = deque((start,))
    while queue:
        pair = queue.popleft()
        lstate, rsubset = pair
        if lstate in left.accepting and not (rsubset & right.accepting):
            word: list[str] = []
            cursor: tuple[int, frozenset[int]] | None = pair
            while cursor is not None:
                parent, letter = seen[cursor]
                if letter is not None:
                    word.append(letter)
                cursor = parent
            return InclusionResult(False, tuple(reversed(word)))
        for letter in letters:
            ltargets = lmoves[lstate].get(letter)
            if not ltargets:
                continue
            rtarget: set[int] = set()
            for q in rsubset:
                rtarget |= rmoves[q].get(letter, _NO_MOVES)
            rsub = frozenset(rtarget)
            for lnext in sorted(ltargets):
                nxt = (lnext, rsub)
                if nxt in seen:
                    continue
                kept = least.setdefault(lnext, [])
                if any(smaller <= rsub for smaller in kept):
                    continue
                if len(seen) >= state_cap:
                    raise StateLimitError(
                        f"inclusion check exceeded {state_cap} product states"
                    )
                kept[:] = [larger for larger in kept if not rsub <= larger]
                kept.append(rsub)
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
    alphabet = sequent_variables(s)
    return compile(lhs, alphabet), compile(rhs, alphabet)


def to_dot(nfa: Nfa, name: str = "nfa") -> str:
    """GraphViz rendering for debugging."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for q in sorted(nfa.states):
        shape = "doublecircle" if q in nfa.accepting else "circle"
        lines.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
    lines.append(f"  hidden -> q{nfa.start};")
    for src, label, dst in sorted(nfa.transitions):
        lines.append(f'  q{src} -> q{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
