import random

import pytest

from kleeneseq import algebra as alg
from kleeneseq.calculus import LogicId, Prover
from kleeneseq.oracle import (
    bounded_inclusion,
    brute_prove,
    count_sequents,
    enumerate_language,
    enumerate_sequents,
)
from kleeneseq.syntax import parse_sequent, print_sequent, sequent_size

star, plus = alg.parse_star_term, alg.parse_plus_term
KL, KLP = LogicId.KL, LogicId.KL_PLUS


def words(term, max_len):
    return {"".join(w) for w in enumerate_language(term, max_len)}


def test_enumerate_star():
    lang = enumerate_language(star("a*"), 3)
    assert lang == enumerate_language(star("a*"), 3) != enumerate_language(star("a*"), 2)
    assert words(star("a*"), 3) == {"", "a", "aa", "aaa"}


def test_enumerate_sharp_has_no_epsilon():
    assert words(plus("a^"), 3) == {"a", "aa", "aaa"}


def test_enumerate_concat_distributes():
    assert words(star("a.(b+c)"), 2) == {"ab", "ac"}


def test_enumerate_zero_and_one():
    assert words(star("0"), 5) == set()
    assert words(star("0*"), 5) == {""}
    assert words(plus("0^"), 5) == set()
    assert words(star("1"), 0) == {""}


def test_enumerate_respects_bound():
    lang = enumerate_language(star("(a.b)*"), 5)
    assert all(len(w) <= 5 for w in lang)
    assert ("a", "b", "a", "b") in lang


def test_enumerate_rejects_negative_bound():
    with pytest.raises(ValueError):
        enumerate_language(star("a"), -1)


@pytest.mark.parametrize(
    "x,y,max_len,expected",
    [
        (star("a.a"), star("a*"), 4, True),
        (star("a*"), star("a"), 2, False),
        (star("0"), star("0"), 5, True),
        (plus("a^"), star("a*"), 6, True),
        (star("a*"), plus("a^"), 6, False),
    ],
)
def test_bounded_inclusion(x, y, max_len, expected):
    assert bounded_inclusion(x, y, max_len) == expected


# --- sequent enumeration ---------------------------------------------------


def test_enumeration_at_size_one_is_exactly_the_atoms():
    got = {print_sequent(s) for s in enumerate_sequents({"a", "b"}, 1)}
    assert got == {"|- a", "|- b", "|- 1", "|- 0"}


def test_enumeration_membership_by_size():
    at2 = {print_sequent(s) for s in enumerate_sequents({"a"}, 2)}
    assert "a |- a" in at2
    assert "|- a?" in at2
    assert "a |- a?" not in at2  # size 3
    at3 = {print_sequent(s) for s in enumerate_sequents({"a"}, 3)}
    assert "a |- a?" in at3


def test_enumeration_counts_match_arithmetic_recount():
    for names, bound, expected in [
        ({"a"}, 3, 81),
        ({"a"}, 4, None),
        ({"a", "b"}, 4, 1008),
        ({"a", "b"}, 6, 45704),
    ]:
        counted = count_sequents(names, bound)
        if expected is not None:
            assert counted == expected
        if bound <= 4:
            assert counted == sum(1 for _ in enumerate_sequents(names, bound))


def test_enumeration_is_deterministic_and_duplicate_free():
    first = list(enumerate_sequents({"a", "b"}, 3))
    second = list(enumerate_sequents({"a", "b"}, 3))
    assert first == second
    assert len(set(first)) == len(first)
    assert all(sequent_size(s) <= 3 for s in first)


def test_enumeration_needs_variables():
    with pytest.raises(ValueError):
        list(enumerate_sequents(set(), 3))


# --- brute-force proof search ------------------------------------------------


@pytest.mark.parametrize(
    "logic,text,depth,expected",
    [
        (KL, "a |- a", 1, True),
        (KL, "|- a?", 1, True),
        (KLP, "|- a?", 12, False),
        (KL, "a |- a", 0, False),
        (KLP, "a |- a?", 2, True),
        (KL, "1 | a.a? |- a?", 10, True),
    ],
)
def test_brute_prove(logic, text, depth, expected):
    assert brute_prove(logic, parse_sequent(text), depth) == expected


def test_brute_needs_enough_depth():
    s = parse_sequent("1 | a.a? |- a?")
    assert not brute_prove(KL, s, 2)
    assert brute_prove(KL, s, 2 * sequent_size(s))


def test_brute_agrees_with_prover_exhaustively_to_size_5():
    provers = {logic: Prover(logic) for logic in (KL, KLP)}
    for s in enumerate_sequents({"a", "b"}, 5):
        for logic in (KL, KLP):
            assert brute_prove(logic, s, 2 * sequent_size(s)) == provers[
                logic
            ].derivable(s), (logic, print_sequent(s))


def test_brute_agrees_with_prover_sampled_at_size_6():
    rng = random.Random(20240817)
    big = [s for s in enumerate_sequents({"a", "b"}, 6) if sequent_size(s) == 6]
    provers = {logic: Prover(logic) for logic in (KL, KLP)}
    for s in rng.sample(big, 150):
        for logic in (KL, KLP):
            assert brute_prove(logic, s, 2 * sequent_size(s)) == provers[
                logic
            ].derivable(s), (logic, print_sequent(s))
