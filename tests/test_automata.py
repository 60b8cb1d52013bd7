import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleeneseq import algebra as alg
from kleeneseq import automata, oracle
from kleeneseq.automata import (
    AlphabetMismatchError,
    Nfa,
    StateLimitError,
    accepts,
    compile,
    compile_plus,
    decide,
    equivalent,
    includes,
    to_dot,
)
from kleeneseq.calculus import LogicId
from kleeneseq.syntax import parse_sequent
from strategies import plus_terms, seeded_term_pairs, star_terms

a, b = alg.Var("a"), alg.Var("b")
AB = ("a", "b")


def words_up_to(nfa, max_len, alphabet=AB):
    found = set()
    for n in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            if accepts(nfa, w):
                found.add(w)
    return found


# --- compilation ---------------------------------------------------------


def test_compile_star():
    nfa = compile(alg.Star(a), AB)
    assert words_up_to(nfa, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_compile_zero_is_empty():
    nfa = compile(alg.Zero(), AB)
    assert words_up_to(nfa, 4) == set()


def test_compile_one_is_just_epsilon():
    assert words_up_to(compile_plus(alg.One(), AB), 3) == {()}


def test_star_unfolding_equivalence():
    # 1 + a.a* against a*: equal word sets by enumeration, equal automata
    lhs_term = alg.Plus(alg.One(), alg.Dot(a, alg.Star(a)))
    rhs_term = alg.Star(a)
    assert (
        oracle.enumerate_language(lhs_term, 6).words
        == oracle.enumerate_language(rhs_term, 6).words
    )
    assert equivalent(compile(lhs_term, AB), compile(rhs_term, AB))


def test_compile_plus_sharp():
    nfa = compile_plus(alg.Sharp(a), AB)
    assert not accepts(nfa, ())
    assert words_up_to(nfa, 3) == {("a",), ("a", "a"), ("a", "a", "a")}


def test_compile_plus_of_translated_star():
    t = alg.Star(a)
    assert equivalent(compile_plus(alg.map_i(t), AB), compile(t, AB))


def test_compile_rejects_unknown_variable():
    with pytest.raises(ValueError):
        compile(alg.Dot(a, alg.Var("z")), AB)


def test_compile_rejects_wrong_family():
    with pytest.raises(TypeError):
        compile(alg.Sharp(a), AB)
    with pytest.raises(TypeError):
        compile_plus(alg.Star(a), AB)


def test_nfa_validation():
    with pytest.raises(ValueError):
        Nfa(frozenset((0,)), frozenset(), frozenset(), 1, frozenset())
    with pytest.raises(ValueError):
        Nfa(frozenset((0, 1)), frozenset(), frozenset(((0, "a", 1),)), 0, frozenset())


# --- inclusion -----------------------------------------------------------


def test_empty_language_included_in_everything():
    zero = compile(alg.Zero(), AB)
    for text in ("0", "1", "a", "a*", "(a+b)*"):
        assert includes(zero, compile(alg.parse_star_term(text), AB)).holds


def test_inclusion_with_oracle_confirmation():
    lhs, rhs = alg.Dot(a, a), alg.Star(a)
    assert oracle.bounded_inclusion(lhs, rhs, 6)
    assert includes(compile(lhs, AB), compile(rhs, AB)).holds


def test_epsilon_counterexample():
    result = includes(compile_plus(alg.One(), AB), compile_plus(alg.Sharp(a), AB))
    assert not result.holds
    assert result.counterexample == ()


def test_counterexample_is_shortest_and_letter_ordered():
    # (a+b).(a+b) vs things starting with b: shortest lexicographic-least witness
    lhs = alg.parse_star_term("(a+b).(a+b)")
    rhs = alg.parse_star_term("b.(a+b)")
    result = includes(compile(lhs, AB), compile(rhs, AB))
    assert result.counterexample == ("a", "a")


def test_alphabet_mismatch_raises():
    with pytest.raises(AlphabetMismatchError):
        includes(compile(a, ("a",)), compile(a, AB))


def test_equivalent_examples():
    x = compile(alg.Dot(alg.Star(a), a), AB)
    y = compile(alg.Dot(a, alg.Star(a)), AB)
    assert oracle.enumerate_language(alg.Dot(alg.Star(a), a), 6).words == (
        oracle.enumerate_language(alg.Dot(a, alg.Star(a)), 6).words
    )
    assert equivalent(x, x)
    assert equivalent(x, y)
    assert not equivalent(compile(alg.Star(a), AB), compile_plus(alg.Sharp(a), AB))


def test_state_cap_exceeded():
    big = alg.parse_star_term("(a+b)*.a.(a+b).(a+b).(a+b)")
    with pytest.raises(StateLimitError):
        includes(compile(big, AB), compile(alg.Zero(), AB), state_cap=3)


# --- inclusion is a partial order on sampled languages ---------------------


@given(star_terms(max_leaves=6))
@settings(max_examples=60, deadline=None)
def test_inclusion_reflexive(t):
    nfa = compile(t, AB)
    assert includes(nfa, nfa).holds


@given(star_terms(max_leaves=4), star_terms(max_leaves=4), star_terms(max_leaves=4))
@settings(max_examples=60, deadline=None)
def test_inclusion_transitive(x, y, z):
    nx, ny, nz = (compile(t, AB) for t in (x, y, z))
    if includes(nx, ny).holds and includes(ny, nz).holds:
        assert includes(nx, nz).holds


@given(star_terms(max_leaves=5), star_terms(max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_inclusion_antisymmetric_up_to_equivalence(x, y):
    nx, ny = compile(x, AB), compile(y, AB)
    if includes(nx, ny).holds and includes(ny, nx).holds:
        assert equivalent(nx, ny)


@given(st.one_of(star_terms(max_leaves=6)), st.one_of(star_terms(max_leaves=6)))
@settings(max_examples=100, deadline=None)
def test_counterexample_membership(x, y):
    nx, ny = compile(x, AB), compile(y, AB)
    result = includes(nx, ny)
    if not result.holds:
        assert accepts(nx, result.counterexample)
        assert not accepts(ny, result.counterexample)


def test_counterexample_membership_plus_family_seeded():
    for x, y in seeded_term_pairs(seed=99, count=150, max_size=7, plus_family=True):
        nx, ny = compile_plus(x, AB), compile_plus(y, AB)
        result = includes(nx, ny)
        if not result.holds:
            assert accepts(nx, result.counterexample)
            assert not accepts(ny, result.counterexample)


# --- decide -----------------------------------------------------------------


@pytest.mark.parametrize(
    "logic,text,expected,cex",
    [
        (LogicId.KL, "1 | a.a? |- a?", True, None),
        (LogicId.KL_PLUS, "|- a?", False, ()),
        (LogicId.KL, "a? |- a", False, ()),
        (LogicId.KL, "a, b |- a . b", True, None),
        (LogicId.KL_PLUS, "a |- a?", True, None),
        (LogicId.KL, "|- 1", True, None),
        (LogicId.KL, "0 |- 0", True, None),
        (LogicId.KL_PLUS, "a, 0?, a |- a", True, None),
    ],
)
def test_decide(logic, text, expected, cex):
    result = decide(logic, parse_sequent(text))
    assert result.derivable == expected
    assert result.counterexample == cex


def test_decide_handles_variable_free_sequents():
    assert decide(LogicId.KL, parse_sequent("1 |- 1")).derivable
    assert not decide(LogicId.KL, parse_sequent("1 |- 0")).derivable


def test_to_dot_mentions_all_states():
    nfa = compile(alg.Dot(a, b), AB)
    dot = to_dot(nfa, "left")
    assert dot.startswith("digraph left {")
    for q in nfa.states:
        assert f"q{q}" in dot
    assert '"ε"' in dot
