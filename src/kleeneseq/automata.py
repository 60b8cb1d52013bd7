"""Finite automata over variable alphabets and the semantic decision procedure.

Terms (formulas read in a logic, see `algebra`) compile to position
automata (Glushkov 1961; McNaughton and Yamada 1960): one start state plus
one state per letter occurrence, entered only on that letter, so there are
no epsilon-moves; the logic decides only whether a `?` is nullable.
Because every state is entered on one letter, an automaton is stored as bit
sets (see `Nfa`): one int per state for its successors and one for the
accepting states, and a set of states is an int too.  Compilation ORs these
masks together, and a step of a set of states on a letter is an OR of
successor masks and one AND.
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
from typing import Iterable

from .algebra import Term, interpret_sequent
from .syntax import (
    Formula,
    Fuse,
    LogicId,
    One,
    Or,
    Query,
    Sequent,
    Value,
    Var,
    Zero,
    sequent_variables,
)

DEFAULT_STATE_CAP = 10**6


class AlphabetMismatchError(ValueError):
    """The two automata do not share one alphabet."""


class StateLimitError(RuntimeError):
    """The product construction exceeded the configured state cap."""


class Nfa(Value):
    """Position automaton over `alphabet`, stored as bit sets.

    State 0 starts; state p > 0 is entered only on `letters[p - 1]`, so a
    state's letter is a property of the state, not of its incoming edges.
    Bit q of `follow[p]` is the edge p -> q (on `letters[q - 1]`), and bit q
    of `accept` makes q accepting.  `entered_on[x]` is the mask of the states
    entered on x, so the x-successors of a set S of states are the OR of
    `follow[p]` over p in S, ANDed with `entered_on[x]`.

    `includes` discovers pairs in shortlex order of their words because it
    is breadth-first and takes letters in sorted order; that is all its
    pruning argument needs, since pairs reached on one word have the same
    word whatever their order.  It takes the states of a mask in ascending
    bit order, i.e. ascending state number, which fixes that order too, so
    the pairs admitted and the count `state_cap` bounds are those of a
    search over sorted state numbers.

    `states`, `start`, `accepting` and `transitions` give the same automaton
    as sets, for inspection and rendering.
    """

    _fields = ("alphabet", "letters", "follow", "accept")
    __slots__ = _fields + ("entered_on",)  # entered_on is derived: not compared

    def __init__(
        self,
        alphabet: frozenset[str],
        letters: tuple[str, ...],
        follow: tuple[int, ...],
        accept: int,
    ):
        n = len(letters) + 1
        if len(follow) != n:
            raise ValueError(f"{len(follow)} successor masks for {n} states")
        entered_on = dict.fromkeys(alphabet, 0)
        for p, letter in enumerate(letters, 1):
            if letter not in entered_on:
                raise ValueError(f"state {p} letter {letter!r} missing from alphabet")
            entered_on[letter] |= 1 << p
        limit = 1 << n
        for p, succ in enumerate(follow):
            if not 0 <= succ < limit:
                raise ValueError(f"state {p} has a successor past the last state")
            if succ & 1:
                raise ValueError(f"state {p} has an edge into the start state")
        if not 0 <= accept < limit:
            raise ValueError("accepting state past the last state")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "follow", follow)
        object.__setattr__(self, "accept", accept)
        object.__setattr__(self, "entered_on", entered_on)

    # neither `compile` nor the inclusion search reads the set views

    @property
    def states(self) -> frozenset[int]:
        return frozenset(range(len(self.follow)))

    @property
    def start(self) -> int:
        return 0

    @property
    def accepting(self) -> frozenset[int]:
        return frozenset(_bits(self.accept))

    @property
    def transitions(self) -> frozenset[tuple[int, str, int]]:
        return frozenset(
            (p, self.letters[q - 1], q) for p, succ in enumerate(self.follow) for q in _bits(succ)
        )


def _bits(mask: int) -> list[int]:
    """The set bits of `mask`, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _successors(follow: tuple[int, ...], mask: int) -> int:
    """The OR of `follow[p]` over the states p in `mask`."""
    succ = 0
    for p in _bits(mask):
        succ |= follow[p]
    return succ


# --- compilation -------------------------------------------------------------


def compile(t: Term, alphabet: Iterable[str]) -> Nfa:
    """Position automaton: state 0 starts, state p is the p-th letter
    occurrence of `t` and is entered only on that letter.  A `?` iterates
    its body zero or more times in kl and one or more times in kl+."""
    alpha = frozenset(alphabet)
    star = t.logic is LogicId.KL
    letters: list[str] = []  # letters[p - 1] labels position p
    follow: list[int] = [0]  # bit q of follow[p]: q may follow p

    def link(last: int, first: int) -> None:
        if first:
            for p in _bits(last):
                follow[p] |= first

    def walk(f: Formula) -> tuple[bool, int, int]:
        """(nullable, first, last) of `f`, as masks of positions; links the
        positions that follow one another inside `f`."""
        if isinstance(f, Zero):
            return False, 0, 0
        if isinstance(f, One):
            return True, 0, 0
        if isinstance(f, Var):
            letters.append(f.name)
            follow.append(0)
            here = 1 << len(letters)
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
    follow[0] = first
    return Nfa(alpha, tuple(letters), tuple(follow), last | 1 if nullable else last)


# --- simulation ---------------------------------------------------------------


def accepts(nfa: Nfa, word: Iterable[str]) -> bool:
    """Direct membership check (used to re-verify counterexamples)."""
    current = 1
    for letter in word:
        current = _successors(nfa.follow, current) & nfa.entered_on.get(letter, 0)
        if not current:
            return False
    return bool(current & nfa.accept)


# --- inclusion ---------------------------------------------------------------


class InclusionResult(Value):
    __slots__ = _fields = ("holds", "counterexample")

    def __init__(self, holds: bool, counterexample: tuple[str, ...] | None):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "counterexample", counterexample)

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
    verdict nor the counterexample.  A pair is tested at most once: an
    antichain member is only ever replaced by a subset of it, so a pruned
    pair stays prunable, and for each right set a mask of the left states
    already tried with it drops the repeats with one AND.  `state_cap`
    bounds the number of admitted pairs.
    """
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(left.alphabet)} vs {sorted(right.alphabet)}"
        )
    lfollow, laccept = left.follow, left.accept
    rfollow, raccept = right.follow, right.accept
    steps = [(x, left.entered_on[x], right.entered_on[x]) for x in sorted(left.alphabet)]

    start = (0, 1)  # both start states: left 0, right {0}
    # parent links of the admitted pairs reconstruct the witness word
    seen: dict[tuple[int, int], tuple[tuple[int, int] | None, str | None]] = {start: (None, None)}
    # per left state, the minimal right sets among the admitted pairs
    least: dict[int, list[int]] = {0: [1]}
    # per right set, the left states already paired with it, admitted or pruned
    tried: dict[int, int] = {1: 1}
    queue = deque((start,))
    while queue:
        pair = queue.popleft()
        lstate, rsubset = pair
        if laccept >> lstate & 1 and not rsubset & raccept:
            word: list[str] = []
            cursor: tuple[int, int] | None = pair
            while cursor is not None:
                parent, letter = seen[cursor]
                if letter is not None:
                    word.append(letter)
                cursor = parent
            return InclusionResult(False, tuple(reversed(word)))
        lsucc = lfollow[lstate]
        rsucc = _successors(rfollow, rsubset)  # on every letter at once
        for letter, lentered, rentered in steps:
            rsub = rsucc & rentered
            done = tried.get(rsub, 0)
            lnexts = lsucc & lentered & ~done
            if not lnexts:
                continue
            tried[rsub] = done | lnexts
            outside = ~rsub
            for lnext in _bits(lnexts):  # ascending state order (see `Nfa`)
                # One pass over lnext's antichain: an S' with S' & ~rsub == 0
                # (S' <= rsub) prunes the pair; otherwise the S' that do not
                # contain rsub stay and rsub joins them.
                keep = []
                for other in least.get(lnext, ()):
                    if not other & outside:
                        break
                    if rsub & ~other:
                        keep.append(other)
                else:
                    if len(seen) >= state_cap:
                        raise StateLimitError(
                            f"inclusion check exceeded {state_cap} product states"
                        )
                    keep.append(rsub)
                    least[lnext] = keep
                    nxt = (lnext, rsub)
                    seen[nxt] = (pair, letter)
                    queue.append(nxt)
    return InclusionResult(True, None)


def equivalent(x: Nfa, y: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Mutual inclusion."""
    return bool(includes(x, y, state_cap)) and bool(includes(y, x, state_cap))


# --- the decision procedure ---------------------------------------------------


class DecisionResult(Value):
    __slots__ = _fields = ("derivable", "counterexample")

    def __init__(self, derivable: bool, counterexample: tuple[str, ...] | None):
        object.__setattr__(self, "derivable", derivable)
        object.__setattr__(self, "counterexample", counterexample)

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
    accepting = nfa.accepting
    for q in sorted(nfa.states):
        shape = "doublecircle" if q in accepting else "circle"
        lines.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
    lines.append(f"  hidden -> q{nfa.start};")
    for src, label, dst in sorted(nfa.transitions):
        lines.append(f'  q{src} -> q{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
