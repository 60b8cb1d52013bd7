"""Finite automata over the letters of their terms and the semantic decision
procedure.

Terms (formulas read in a logic, see `algebra`) compile to position
automata (Glushkov 1961; McNaughton and Yamada 1960): one start state plus
one state per letter occurrence, entered only on that letter, so there are
no epsilon-moves; the logic decides only whether a `?` is nullable.
Because every state is entered on one letter, an automaton is stored as bit
sets (see `Nfa`): one int per state for its successors and one for the
accepting states, and a set of states is an int too.  A step of a set of
states on a letter is an OR of successor masks and one AND.
Compilation is two walks over the formula: one numbers the positions and
computes each subterm's first and last positions, the other assigns each
position its follow set once, so it costs O(size) mask ORs rather than a
step per (last position, fuse or query) pair (see `compile`).
Inclusion is checked by a breadth-first product of the left automaton with
the subsets of right-automaton states reachable on the same word, which
yields the shortlex-least counterexample word (a shortest one, least in
letter order among those) when inclusion fails.  The product is pruned by
antichains: a pair whose right subset contains that of an earlier pair with
the same left state is never explored, which keeps both the verdict and
that counterexample (see `includes`).
"""

from __future__ import annotations

from typing import Iterable

from .algebra import Term, interpret_sequent
from .syntax import (
    DEFAULT_STATE_CAP,
    Formula,
    Fuse,
    LogicId,
    One,
    Or,
    Query,
    Sequent,
    StateLimitError,  # raised by `includes`; defined in `syntax` for `cli`
    Value,
    Var,
    Zero,
)


class Nfa(Value):
    """Position automaton, stored as bit sets.

    State 0 starts; state p > 0 is entered only on `letters[p - 1]`, so a
    state's letter is a property of the state, not of its incoming edges.
    Bit q of `follow[p]` is the edge p -> q (on `letters[q - 1]`), and bit q
    of `accept` makes q accepting.  `entered_on[x]` is the mask of the states
    entered on x, for exactly the letters x that occur in `letters`, so the
    x-successors of a set S of states are the OR of `follow[p]` over p in S,
    ANDed with `entered_on[x]`.  There is no alphabet beyond `letters`: a
    word with any other letter is not accepted.

    `includes` discovers the words of its pairs in shortlex order because
    it is breadth-first over words and takes letters in sorted order.  Among
    the pairs first reached on one word it takes the states of a mask in
    ascending bit order, i.e. ascending state number, so the pairs admitted
    and the count `state_cap` bounds are those of a search over sorted
    state numbers.
    """

    _fields = ("letters", "follow", "accept")
    __slots__ = _fields + ("entered_on",)  # entered_on is derived: not compared

    def __init__(self, letters: tuple[str, ...], follow: tuple[int, ...], accept: int):
        n = len(letters) + 1
        if len(follow) != n:
            raise ValueError(f"{len(follow)} successor masks for {n} states")
        entered_on: dict[str, int] = {}
        for p, letter in enumerate(letters, 1):
            entered_on[letter] = entered_on.get(letter, 0) | 1 << p
        limit = 1 << n
        for p, succ in enumerate(follow):
            if not 0 <= succ < limit:
                raise ValueError(f"state {p} has a successor past the last state")
            if succ & 1:
                raise ValueError(f"state {p} has an edge into the start state")
        if not 0 <= accept < limit:
            raise ValueError("accepting state past the last state")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "follow", follow)
        object.__setattr__(self, "accept", accept)
        object.__setattr__(self, "entered_on", entered_on)

    # the same automaton as sets; bench/tracing.py `_count_automata` reads
    # these two (ROADMAP item 7), no `src/` code does

    @property
    def states(self) -> frozenset[int]:
        return frozenset(range(len(self.follow)))

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
    while mask:
        low = mask & -mask
        succ |= follow[low.bit_length() - 1]
        mask ^= low
    return succ


# --- compilation -------------------------------------------------------------


def compile(t: Term) -> Nfa:
    """Position automaton of `t` over the letters `t` mentions: state 0
    starts, state p is the p-th letter occurrence of `t` and is entered only
    on that letter.  A `?` iterates its body zero or more times in kl and one
    or more times in kl+.

    Two recursive walks over the formula build it (Brüggemann-Klein, TCS
    1993).  The first numbers the positions left to right and computes
    (nullable, first, last) of each subterm bottom-up.  The second goes
    right to left and carries `after`, the first positions of whatever may
    follow the current subterm; a letter's position gets `after` as its
    follow set, once.  Both sides of an `Or` get `after`.  In a `Fuse` the
    right part gets `after`, and the left part gets the right part's first
    positions, plus `after` when the right part is nullable.  A `Query`'s
    body gets its own first positions plus `after`.  That is O(size) mask
    ORs in all, where linking every last position of each fuse and query to
    a first set, bit by bit, would take Θ(Σ|last|) steps: quadratic on the
    kl chain `a?.….a?.a`.

    The walks meet in `firsts`, one entry per `Fuse` and `Query` in the
    first walk's post-order, which the second walk pops in reverse.  It is
    keyed by walk order, not by node, because a formula may share subtrees
    (`map_j` does) and positions belong to occurrences."""
    star = t.logic is LogicId.KL
    letters: list[str] = []  # letters[p - 1] labels position p
    # per Fuse, (first, nullable) of its right part; per Query, its body's first
    firsts: list[tuple[int, bool] | int] = []

    def walk(f: Formula) -> tuple[bool, int, int]:
        """(nullable, first, last) of `f`, as masks of positions."""
        if isinstance(f, Zero):
            return False, 0, 0
        if isinstance(f, One):
            return True, 0, 0
        if isinstance(f, Var):
            letters.append(f.name)
            here = 1 << len(letters)
            return False, here, here
        if isinstance(f, Or):
            lnull, lfirst, llast = walk(f.left)
            rnull, rfirst, rlast = walk(f.right)
            return lnull or rnull, lfirst | rfirst, llast | rlast
        if isinstance(f, Fuse):
            lnull, lfirst, llast = walk(f.left)
            rnull, rfirst, rlast = walk(f.right)
            firsts.append((rfirst, rnull))
            return (
                lnull and rnull,
                lfirst | rfirst if lnull else lfirst,
                llast | rlast if rnull else rlast,
            )
        if isinstance(f, Query):
            # plus is star without the empty pass
            null, first, last = walk(f.body)
            firsts.append(first)
            return null or star, first, last
        raise TypeError(f"not a formula: {f!r}")

    nullable, first, last = walk(t.formula)
    # bit q of follow[p]: q may follow p; the start is followed by `first`
    follow = [first] + [0] * len(letters)
    position = len(letters)

    def assign(f: Formula, after: int) -> None:
        """Set the follow set of each position of `f`, given what may
        follow `f`; visits the positions last to first."""
        nonlocal position
        if isinstance(f, Var):
            follow[position] = after
            position -= 1
        elif isinstance(f, Or):
            assign(f.right, after)
            assign(f.left, after)
        elif isinstance(f, Fuse):
            rfirst, rnull = firsts.pop()
            assign(f.right, after)
            assign(f.left, rfirst | after if rnull else rfirst)
        elif isinstance(f, Query):
            assign(f.body, firsts.pop() | after)

    assign(t.formula, 0)
    return Nfa(tuple(letters), tuple(follow), last | 1 if nullable else last)


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

    When not, the counterexample is the least word in shortlex order (a
    shortest one, least in sorted letter order among those) accepted by
    `left` and rejected by `right`.  Only `left`'s letters are stepped on,
    in sorted order: a word with any other letter is not in `left`'s
    language, and `right` reads a letter it lacks as the empty mask.

    The search is breadth-first over pairs (left state, set of right states
    reached on the same word), and it keeps for each left state an antichain
    of the least right sets admitted so far (De Wulf, Doyen, Henzinger and
    Raskin, CAV 2006).  A new pair (l, S) is dropped when some earlier pair
    (l, S') has S' <= S: every suffix that leads (l, S) to a counterexample
    leads (l, S') to one too, from a word no later in shortlex order, so
    pruning changes neither the verdict nor the counterexample.  That needs
    pairs discovered in shortlex order of their words.  Since the left
    automaton is nondeterministic, several pairs share a word, and they
    share its right set too; the queue holds one group per word, the mask
    of left states first admitted on it, and expands a group letter by
    letter, so the children on each letter form the next group and groups
    come off the queue in shortlex order.  A pair is tested at most once:
    an antichain member is only ever replaced by a subset of it, so a pruned
    pair stays prunable, and for each right set a mask of the left states
    already tried with it drops the repeats with one AND.  `state_cap`
    bounds the number of admitted pairs.
    """
    lfollow, laccept = left.follow, left.accept
    rfollow, raccept = right.follow, right.accept
    steps = [(x, mask, right.entered_on.get(x, 0)) for x, mask in sorted(left.entered_on.items())]

    # per word, in shortlex order: (left states first admitted on it, its
    # right set, and the parent link (group index, letter) that spells it)
    groups: list[tuple[int, int, int, str | None]] = [(1, 1, -1, None)]  # both starts
    admitted = 1
    # per left state, the minimal right sets among the admitted pairs
    least: dict[int, list[int]] = {0: [1]}
    # per right set, the left states already paired with it, admitted or pruned
    tried: dict[int, int] = {1: 1}
    for index, (lstates, rsubset, _, _) in enumerate(groups):  # grows as it goes
        if lstates & laccept and not rsubset & raccept:
            word: list[str] = []
            while index > 0:
                _, _, index, letter = groups[index]
                word.append(letter)
            return InclusionResult(False, tuple(reversed(word)))
        lsucc = _successors(lfollow, lstates)  # on every letter at once
        rsucc = _successors(rfollow, rsubset)
        for letter, lentered, rentered in steps:
            rsub = rsucc & rentered
            done = tried.get(rsub, 0)
            lnexts = lsucc & lentered & ~done
            if not lnexts:
                continue
            tried[rsub] = done | lnexts
            outside = ~rsub
            child = 0
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
                    if admitted >= state_cap:
                        raise StateLimitError(
                            f"inclusion check exceeded {state_cap} product states"
                        )
                    admitted += 1
                    keep.append(rsub)
                    least[lnext] = keep
                    child |= 1 << lnext
            if child:
                groups.append((child, rsub, index, letter))
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
    """Semantic derivability: interpret both sides, each variable a
    distinct letter, and test language inclusion.  No alphabet is needed
    beyond the left side's letters, because a word with a letter the left
    side never mentions is not in the left language.

    For kl this agrees with cut-free proof search on every sequent we can
    enumerate; for kl+ it is strictly stronger on sequents with an
    empty-language query in an interior antecedent position (see README).
    """
    left, right = decision_automata(logic, s)
    result = includes(left, right, state_cap)
    return DecisionResult(result.holds, result.counterexample)


def decision_automata(logic: LogicId, s: Sequent) -> tuple[Nfa, Nfa]:
    """The two automata `decide` compares, each over its own side's
    letters, for inspection/dumping."""
    lhs, rhs = interpret_sequent(s, logic)
    return compile(lhs), compile(rhs)


def to_dot(nfa: Nfa, name: str = "nfa") -> str:
    """GraphViz rendering for debugging."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for q in range(len(nfa.follow)):
        shape = "doublecircle" if nfa.accept >> q & 1 else "circle"
        lines.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
    lines.append("  hidden -> q0;")
    entered = sorted(nfa.entered_on.items())
    for p, succ in enumerate(nfa.follow):  # edges by (source, letter, target)
        for letter, mask in entered:
            lines.extend(f'  q{p} -> q{q} [label="{letter}"];' for q in _bits(succ & mask))
    lines.append("}")
    return "\n".join(lines)
