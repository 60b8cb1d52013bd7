"""Print the four identity hashes that pin the outputs of a change.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/identity.py

Each line is a name and the SHA-256 of one output stream, logic outer:

- decide-size6: `repr((derivable, counterexample))` of `decide` on every
  sequent over {a, b} up to size 6;
- decide-scale: the same on the 54 decide-scale queries (subset family
  n = 2..12, for each n the `a` then the `b` sequent, then the a?-chains);
- dot-size5: `to_dot(left) + to_dot(right)` of `decision_automata` on every
  sequent up to size 5;
- proofs-size5: `tree_to_json` of the proof that one tabled `Prover` per
  logic finds for every sequent up to size 5, `null` where there is none.

A change that keeps verdicts, counterexamples, automata and proof trees
keeps all four hashes.  The whole run takes a few seconds.
"""

from __future__ import annotations

import hashlib

from kleeneseq.automata import decide, decision_automata, to_dot
from kleeneseq.calculus import Prover, tree_to_json
from kleeneseq.oracle import enumerate_sequents
from kleeneseq.syntax import LogicId, parse_sequent

AB = {"a", "b"}


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


def proofs_size5() -> str:
    def trees():
        for logic in LogicId:
            prover = Prover(logic)
            for s in enumerate_sequents(AB, 5):
                tree = prover.prove(s)
                yield "null" if tree is None else tree_to_json(tree)

    return _digest(trees())


def main() -> None:
    for name, fn in (
        ("decide-size6", decide_size6),
        ("decide-scale", decide_scale),
        ("dot-size5", dot_size5),
        ("proofs-size5", proofs_size5),
    ):
        print(name, fn(), flush=True)


if __name__ == "__main__":
    main()
