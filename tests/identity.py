"""Compute the six identity hashes that pin the outputs of a change.

Run from the repository root:

    PYTHONPATH=src python tests/identity.py

It prints one line per hash and exits 0 when all six equal `EXPECTED`, or 1
after naming on stderr each one that differs.  `tests/test_identity.py`
asserts the same six values under pytest, which does not collect this file.
A change that alters one of these outputs on purpose updates `EXPECTED` and
says why.

Each line is a name and the SHA-256 of one output stream, logic outer:

- decide-size6: `repr((derivable, counterexample))` of `decide` on every
  sequent over {a, b} up to size 6;
- decide-scale: the same on the 54 decide-scale queries (subset family
  n = 2..12, for each n the `a` then the `b` sequent, then the a?-chains);
- dot-size5: `to_dot(left) + to_dot(right)` of `decision_automata` on every
  sequent up to size 5;
- proofs-size5: `tree_to_json` of the proof that one tabled `Prover` per
  logic finds for every sequent up to size 5, `null` where there is none;
- proofs-hard: the same for the four criterion-7 sequents, each proved by a
  fresh `Prover`, so that large search regions are pinned too;
- syntax: one line per input of each parser, the `repr` of what it returns or
  the `(message, position)` of its `ParseError`, for `parse_formula` and
  `parse_sequent` on every string of length <= 4 over `FORMULA_CHARS` and
  for `parse_star_term` and `parse_plus_term` on every such string over
  `TERM_CHARS`; then `print_formula` of every formula up to size 5, and
  `print_term` of the same formulas in each logic.

A change that keeps verdicts, counterexamples, automata, proof trees, parse
results, parse errors and printed text keeps all six hashes.  The whole run
takes about a minute.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import product

from kleeneseq.algebra import Term, parse_plus_term, parse_star_term, print_term
from kleeneseq.automata import decide, decision_automata, to_dot
from kleeneseq.calculus import Prover, tree_to_json
from kleeneseq.oracle import enumerate_sequents
from kleeneseq.syntax import LogicId, parse_formula, parse_sequent, print_formula

AB = {"a", "b"}

# The criterion-7 sequents of the acceptance suite.
HARD_TEXTS = (
    "(a.b.c.d)?, ((a|b).(c|d))?, (a?.b?.c?.d?)? |- ((a|b|c|d)? . (a|b|c|d)?)?",
    "(a?|b?)?, ((a|b)? . (c|d)?)?, ((a.b)? | (c.d)?)?, (d.c.b.a)? |- ((((a|b).(c|d))?)?)?",
    "((((a|b)?.c)?.d)?.(b|c))?, ((((a|b)?.c)?.d)?.(b|c))?, a? |- (a|b|c|d)?",
    "(a|b|c|d)?, (d?.c?.b?.a?)?, ((a.b)?.(c.d)?)? |- (((a|b|c|d)?)? . 1)?",
)

# Each syntax's symbols, a space, and characters foreign to it.
FORMULA_CHARS = "ab01|-.?,() *$"
TERM_CHARS = "ab01+.*^() ?|$"


def _decide_scale_texts() -> list[str]:
    texts = []
    for n in range(2, 13):
        for letter in "ab":
            ante = ", ".join(["(a|b)?", "a"] + ["(a|b)"] * n)
            succ = ".".join(["(a|b)?", letter] + ["(a|b)"] * n)
            texts.append(f"{ante} |- {succ}")
    for k in (25, 50, 100, 200, 400):
        texts.append(".".join(["a?"] * k + ["a"]) + " |- a?")
    return texts


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def decide_size6() -> str:
    return _digest(
        repr((d.derivable, d.counterexample))
        for logic in LogicId
        for s in enumerate_sequents(AB, 6)
        for d in (decide(logic, s),)
    )


def decide_scale() -> str:
    sequents = [parse_sequent(text) for text in _decide_scale_texts()]
    return _digest(
        repr((d.derivable, d.counterexample))
        for logic in LogicId
        for s in sequents
        for d in (decide(logic, s),)
    )


def dot_size5() -> str:
    return _digest(
        to_dot(left) + to_dot(right)
        for logic in LogicId
        for s in enumerate_sequents(AB, 5)
        for left, right in (decision_automata(logic, s),)
    )


def _tree_json(prover: Prover, s) -> str:
    tree = prover.prove(s)
    return "null" if tree is None else tree_to_json(tree)


def proofs_size5() -> str:
    def trees():
        for logic in LogicId:
            prover = Prover(logic)
            for s in enumerate_sequents(AB, 5):
                yield _tree_json(prover, s)

    return _digest(trees())


def proofs_hard() -> str:
    sequents = [parse_sequent(text) for text in HARD_TEXTS]
    return _digest(_tree_json(Prover(logic), s) for logic in LogicId for s in sequents)


def _parse_outcomes(parse, chars: str):
    for n in range(5):
        for letters in product(chars, repeat=n):
            try:
                outcome = parse("".join(letters))
            except ValueError as e:  # ParseError; older trees had a term error class too
                outcome = (e.message, e.position)
            yield repr(outcome) + "\n"


def syntax() -> str:
    formulas = [s.succedent for s in enumerate_sequents(AB, 5) if not s.antecedent]
    return _digest(
        [
            *_parse_outcomes(parse_formula, FORMULA_CHARS),
            *_parse_outcomes(parse_sequent, FORMULA_CHARS),
            *_parse_outcomes(parse_star_term, TERM_CHARS),
            *_parse_outcomes(parse_plus_term, TERM_CHARS),
            *(print_formula(f) + "\n" for f in formulas),
            *(print_term(Term(f, logic)) + "\n" for logic in LogicId for f in formulas),
        ]
    )


EXPECTED = {
    "decide-size6": "83b0706564dd2ceeaac1c907bff4ca7943a474a83072bdf5cc3216a2fb6496e2",
    "decide-scale": "9765545534643b83f1274d59f24074379e6c431de628b29c70fea1788ed788a5",
    "dot-size5": "7543739d358b7674869978d658bec09d09bd749762c5632354ddad28ac861b30",
    "proofs-size5": "aa5b6a97b89c62e5bbaeb2e8b22c92526f23c6524005fd5c29948f10a3ac94b3",
    "proofs-hard": "9a32944992a04354a5c14764cbedae6682ee64f8756cce44004587946cc2bf02",
    "syntax": "814335bffa9061aab8e31eec40fe85b7aebdbb861843880b714c3549029501d3",
}

HASHES = {
    "decide-size6": decide_size6,
    "decide-scale": decide_scale,
    "dot-size5": dot_size5,
    "proofs-size5": proofs_size5,
    "proofs-hard": proofs_hard,
    "syntax": syntax,
}


def main() -> int:
    differ = []
    for name, fn in HASHES.items():
        got = fn()
        print(name, got, flush=True)
        if got != EXPECTED[name]:
            differ.append(name)
    for name in differ:
        print(f"{name} differs: expected {EXPECTED[name]}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
