"""Independent brute-force ground truth for the automata and the prover.

Everything here is deliberately naive: languages are enumerated word by
word from a term's formula, reading `?` as its logic says and using none of
the automata; sequents are generated exhaustively by size, and the
depth-bounded search below re-states the inference rules in a second,
plain-loop form so discrepancies with the calculus module point at real
transcription bugs.
"""

from __future__ import annotations

from typing import Iterator

from .algebra import Term
from .syntax import Formula, Fuse, LogicId, One, Or, Query, Sequent, Var, Zero

Word = tuple[str, ...]


def _concat(xs: set[Word], ys: set[Word], max_len: int) -> set[Word]:
    out: set[Word] = set()
    for u in xs:
        room = max_len - len(u)
        if room < 0:
            continue
        for v in ys:
            if len(v) <= room:
                out.add(u + v)
    return out


def _star_words(base: set[Word], max_len: int) -> set[Word]:
    # finite word-set lattice: each pass adds words of bounded length or stops
    acc: set[Word] = {()}
    while True:
        grown = _concat(base, acc, max_len) - acc
        if not grown:
            return acc
        acc |= grown


def _words(f: Formula, logic: LogicId, max_len: int) -> set[Word]:
    if isinstance(f, Var):
        return {(f.name,)} if max_len >= 1 else set()
    if isinstance(f, Zero):
        return set()
    if isinstance(f, One):
        return {()}
    if isinstance(f, Or):
        return _words(f.left, logic, max_len) | _words(f.right, logic, max_len)
    if isinstance(f, Fuse):
        return _concat(_words(f.left, logic, max_len), _words(f.right, logic, max_len), max_len)
    if isinstance(f, Query):
        base = _words(f.body, logic, max_len)
        if logic is LogicId.KL:
            return _star_words(base, max_len)
        return _concat(base, _star_words(base, max_len), max_len)
    raise TypeError(f"not a formula: {f!r}")


def enumerate_language(t: Term, max_len: int) -> frozenset[Word]:
    """{ w in the language of t : |w| <= max_len }, by structural recursion
    with truncated concatenation and iteration to a fixpoint."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    return frozenset(_words(t.formula, t.logic, max_len))


def bounded_inclusion(x: Term, y: Term, max_len: int) -> bool:
    """Necessary (not sufficient) condition for language inclusion; used to
    cross-check the automata, never as the decision itself."""
    return enumerate_language(x, max_len) <= enumerate_language(y, max_len)


# --- exhaustive sequent generation -------------------------------------------


def _formula_pool(variables: tuple[str, ...], max_size: int) -> list[list[Formula]]:
    """pool[n] lists every formula of exactly n AST nodes, deterministically."""
    pool: list[list[Formula]] = [[] for _ in range(max_size + 1)]
    if max_size >= 1:
        pool[1] = [Var(v) for v in variables] + [One(), Zero()]
    for n in range(2, max_size + 1):
        layer: list[Formula] = [Query(f) for f in pool[n - 1]]
        for binary in (Or, Fuse):
            for left_size in range(1, n - 1):
                for left in pool[left_size]:
                    for right in pool[n - 1 - left_size]:
                        layer.append(binary(left, right))
        pool[n] = layer
    return pool


def enumerate_sequents(variables: set[str] | frozenset[str], max_total_size: int) -> Iterator[Sequent]:
    """Every sequent whose antecedent plus succedent node count is at most
    max_total_size, over the given variables and the constants; ordered by
    total size, without duplicates."""
    if not variables:
        raise ValueError("need at least one variable")
    names = tuple(sorted(variables))
    pool = _formula_pool(names, max_total_size)
    seqs: list[list[tuple[Formula, ...]]] = [[()]]
    for n in range(1, max_total_size + 1):
        layer: list[tuple[Formula, ...]] = []
        for head_size in range(1, n + 1):
            for head in pool[head_size]:
                for rest in seqs[n - head_size]:
                    layer.append((head,) + rest)
        seqs.append(layer)
    for total in range(1, max_total_size + 1):
        for succ_size in range(1, total + 1):
            for succ in pool[succ_size]:
                for ante in seqs[total - succ_size]:
                    yield Sequent(ante, succ)


def count_sequents(variables: set[str] | frozenset[str], max_total_size: int) -> int:
    """Size of the enumeration, recounted arithmetically (no generation)."""
    m = max_total_size
    f = [0] * (m + 1)
    if m >= 1:
        f[1] = len(variables) + 2
    for n in range(2, m + 1):
        f[n] = f[n - 1] + 2 * sum(f[i] * f[n - 1 - i] for i in range(1, n - 1))
    a = [0] * (m + 1)
    a[0] = 1
    for n in range(1, m + 1):
        a[n] = sum(f[k] * a[n - k] for k in range(1, n + 1))
    return sum(
        f[s] * a[t - s] for t in range(1, m + 1) for s in range(1, t + 1)
    )


# --- naive depth-bounded proof search -----------------------------------------


def _expansions(logic: LogicId, s: Sequent) -> Iterator[list[Sequent]]:
    """Premise lists of every rule instance concluding s, restated plainly.

    The query-on-the-right splits skip the empty prefix/suffix: that
    instance has the conclusion itself as a premise, so it can never close
    a proof that would not close without it.
    """
    ante, succ = s.antecedent, s.succedent
    kl = logic is LogicId.KL

    if len(ante) == 1 and ante[0] == succ:
        yield []
    if kl and not ante and isinstance(succ, Query):
        yield []
    if not ante and isinstance(succ, One):
        yield []
    for f in ante:
        if isinstance(f, Zero):
            yield []
            break

    if isinstance(succ, Or):
        yield [Sequent(ante, succ.left)]
        yield [Sequent(ante, succ.right)]
        if (
            isinstance(succ.left, Fuse)
            and isinstance(succ.right, Fuse)
            and succ.left.left == succ.right.left
        ):
            shared = succ.left.left
            yield [Sequent(ante, Fuse(shared, Or(succ.left.right, succ.right.right)))]

    if isinstance(succ, Query):
        body = succ.body
        if not kl:
            yield [Sequent(ante, body)]
        for i in range(1, len(ante) + 1):
            yield [Sequent(ante[:i], body), Sequent(ante[i:], succ)]
        for i in range(len(ante)):
            yield [Sequent(ante[i:], body), Sequent(ante[:i], succ)]

    if isinstance(succ, Fuse):
        for i in range(len(ante) + 1):
            yield [Sequent(ante[:i], succ.left), Sequent(ante[i:], succ.right)]

    for k, f in enumerate(ante):
        before, after = ante[:k], ante[k + 1 :]
        if isinstance(f, One):
            yield [Sequent(before + after, succ)]
        elif isinstance(f, Fuse):
            yield [Sequent(before + (f.left, f.right) + after, succ)]
        elif isinstance(f, Or):
            yield [
                Sequent(before + (f.left,) + after, succ),
                Sequent(before + (f.right,) + after, succ),
            ]

    if ante and isinstance(ante[0], Query):
        body, rest = ante[0].body, ante[1:]
        if kl:
            yield [Sequent((body, succ), succ), Sequent(rest, succ)]
        else:
            yield [Sequent((body, succ), succ), Sequent((body,) + rest, succ)]
    if ante and isinstance(ante[-1], Query):
        body, rest = ante[-1].body, ante[:-1]
        if kl:
            yield [Sequent((succ, body), succ), Sequent(rest, succ)]
        else:
            yield [Sequent((succ, body), succ), Sequent(rest + (body,), succ)]


def brute_prove(logic: LogicId, s: Sequent, depth: int) -> bool:
    """True iff a cut-free proof of height <= depth exists. No memo."""
    if depth <= 0:
        return False
    for premises in _expansions(logic, s):
        if all(brute_prove(logic, p, depth - 1) for p in premises):
            return True
    return False
