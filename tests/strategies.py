"""Hypothesis strategies, a seeded term generator and a subformula walk
shared by the tests.

A term is a formula read in a logic, so the term strategies are the formula
strategies with the logic attached."""

from __future__ import annotations

import random
from typing import Iterator

from hypothesis import strategies as st

from kleeneseq import algebra, syntax

ATOMS = [syntax.Var("a"), syntax.Var("b"), syntax.One(), syntax.Zero()]


def formulas(max_leaves: int = 8) -> st.SearchStrategy[syntax.Formula]:
    return st.recursive(
        st.sampled_from(ATOMS),
        lambda inner: st.one_of(
            st.builds(syntax.Query, inner),
            st.builds(syntax.Or, inner, inner),
            st.builds(syntax.Fuse, inner, inner),
        ),
        max_leaves=max_leaves,
    )


def sequents(max_antecedent: int = 3, max_leaves: int = 5) -> st.SearchStrategy[syntax.Sequent]:
    return st.builds(
        syntax.Sequent,
        st.lists(formulas(max_leaves), max_size=max_antecedent).map(tuple),
        formulas(max_leaves),
    )


def star_terms(max_leaves: int = 8) -> st.SearchStrategy[algebra.Term]:
    return formulas(max_leaves).map(lambda f: algebra.Term(f, syntax.LogicId.KL))


def plus_terms(max_leaves: int = 8) -> st.SearchStrategy[algebra.Term]:
    return formulas(max_leaves).map(lambda f: algebra.Term(f, syntax.LogicId.KL_PLUS))


def subformulas(f: syntax.Formula) -> Iterator[syntax.Formula]:
    """All subformulas of f, including f itself."""
    yield f
    if isinstance(f, syntax.Query):
        yield from subformulas(f.body)
    elif isinstance(f, (syntax.Or, syntax.Fuse)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def seeded_formula(rng: random.Random, size: int) -> syntax.Formula:
    """Deterministic random formula with exactly `size` AST nodes."""
    if size <= 1:
        return rng.choice(ATOMS)
    if size == 2 or rng.random() < 0.3:
        return syntax.Query(seeded_formula(rng, size - 1))
    left_size = rng.randint(1, size - 2)
    left = seeded_formula(rng, left_size)
    right = seeded_formula(rng, size - 1 - left_size)
    op = rng.choice((syntax.Or, syntax.Fuse))
    return op(left, right)


def seeded_term_pairs(
    seed: int, count: int, max_size: int, plus_family: bool
) -> list[tuple[algebra.Term, algebra.Term]]:
    logic = syntax.LogicId.KL_PLUS if plus_family else syntax.LogicId.KL
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        pairs.append(
            (
                algebra.Term(seeded_formula(rng, rng.randint(1, max_size)), logic),
                algebra.Term(seeded_formula(rng, rng.randint(1, max_size)), logic),
            )
        )
    return pairs
