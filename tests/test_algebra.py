import pytest
from hypothesis import given

from kleeneseq import algebra as alg
from kleeneseq import automata, oracle
from kleeneseq.calculus import LogicId, Prover
from kleeneseq.syntax import ParseError, Sequent, parse_formula, parse_sequent
from strategies import plus_terms, star_terms

KL, KLP = LogicId.KL, LogicId.KL_PLUS


def star(text):
    """The kl term of a formula written in formula syntax."""
    return alg.Term(parse_formula(text), KL)


def plus(text):
    """The kl+ term of a formula written in formula syntax."""
    return alg.Term(parse_formula(text), KLP)


@pytest.mark.parametrize(
    "formula,logic,expected",
    [
        ("a?", LogicId.KL, alg.parse_star_term("a*")),
        ("a?", LogicId.KL_PLUS, alg.parse_plus_term("a^")),
        ("1 | 0", LogicId.KL, alg.parse_star_term("1+0")),
        ("1 | 0", LogicId.KL_PLUS, alg.parse_plus_term("1+0")),
        ("a . b?", LogicId.KL, alg.parse_star_term("a.b*")),
    ],
)
def test_interpret(formula, logic, expected):
    # a formula read in a logic is the term written with that logic's `*`/`^`
    assert alg.Term(parse_formula(formula), logic) == expected


@pytest.mark.parametrize(
    "sequent,logic,lhs,rhs",
    [
        ("a, b |- c", LogicId.KL, star("a . b"), star("c")),
        ("|- a?", LogicId.KL, star("1"), star("a?")),
        ("a |- a", LogicId.KL, star("a"), star("a")),
        ("|- a?", LogicId.KL_PLUS, plus("1"), plus("a?")),
        ("a, b, a |- 1", LogicId.KL, star("a . b . a"), star("1")),
        ("a, b, c |- d", LogicId.KL, star("a . b . c"), star("d")),
        ("|- d", LogicId.KL, star("1"), star("d")),
        ("a |- d", LogicId.KL, star("a"), star("d")),
    ],
)
def test_interpret_sequent(sequent, logic, lhs, rhs):
    assert alg.interpret_sequent(parse_sequent(sequent), logic) == (lhs, rhs)


@pytest.mark.parametrize(
    "term,expected",
    [
        (star("a?"), plus("1 | a?")),
        (star("a"), plus("a")),
        (star("a . b?"), plus("a . (1 | b?)")),
        (star("0"), plus("0")),
        (star("1"), plus("1")),
    ],
)
def test_map_i(term, expected):
    assert alg.map_i(term) == expected


@pytest.mark.parametrize(
    "term,expected",
    [
        (plus("a?"), star("a . a?")),
        (plus("a"), star("a")),
        (plus("a??"), star("a . a? . (a . a?)?")),
        (plus("0"), star("0")),
        (plus("1"), star("1")),
    ],
)
def test_map_j(term, expected):
    assert alg.map_j(term) == expected


def test_map_i_rejects_plus_terms():
    with pytest.raises(TypeError):
        alg.map_i(plus("a?"))


def test_map_j_rejects_star_terms():
    with pytest.raises(TypeError):
        alg.map_j(star("a?"))


# --- term syntax ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,term",
    [
        ("a^", plus("a?")),
        ("a.a*", star("a . a?")),
        ("1+a^", plus("1 | a?")),
        ("(a+b)*", star("(a | b)?")),
        ("a + b . a", star("a | b . a")),
        ("0", star("0")),
    ],
)
def test_parse_terms(text, term):
    parse = alg.parse_plus_term if "^" in text else alg.parse_star_term
    assert parse(text) == term


def test_print_term():
    assert alg.print_term(star("a . a?")) == "a.a*"
    assert alg.print_term(plus("1 | a?")) == "1+a^"
    assert alg.print_term(star("(a | b) . a")) == "(a+b).a"


@pytest.mark.parametrize(
    "parse,text",
    [
        (alg.parse_star_term, ""),
        (alg.parse_star_term, "a^"),
        (alg.parse_plus_term, "a*"),
        (alg.parse_star_term, "a+"),
        (alg.parse_star_term, "(a"),
        (alg.parse_star_term, "a b"),
    ],
)
def test_parse_term_rejects(parse, text):
    with pytest.raises(ParseError):
        parse(text)


@given(star_terms(max_leaves=12))
def test_star_term_round_trip(t):
    assert alg.parse_star_term(alg.print_term(t)) == t


@given(plus_terms(max_leaves=12))
def test_plus_term_round_trip(t):
    assert alg.parse_plus_term(alg.print_term(t)) == t


# A term carries its logic, so "map_i lands in the plus family" is restated
# as: map_i's image is read in kl+ and has the language of its input.


@given(star_terms())
def test_map_i_lands_in_plus_family(t):
    image = alg.map_i(t)
    assert image.logic is KLP
    assert oracle.enumerate_language(image, 5) == oracle.enumerate_language(t, 5)


@given(plus_terms())
def test_map_j_lands_in_star_family(t):
    image = alg.map_j(t)
    assert image.logic is KL
    assert oracle.enumerate_language(image, 5) == oracle.enumerate_language(t, 5)


# --- semantic behaviour of the maps (spot checks; bulk runs in acceptance) ---


def test_map_i_preserves_language_on_examples():
    for text in ("a*", "(a+b)*", "a.b*+1", "0*", "(a.b)*.a"):
        t = alg.parse_star_term(text)
        lhs = automata.compile(alg.map_i(t))
        rhs = automata.compile(t)
        assert automata.equivalent(lhs, rhs)
        # independent word-level check
        assert oracle.enumerate_language(alg.map_i(t), 6) == oracle.enumerate_language(t, 6)


def test_map_j_preserves_language_on_examples():
    for text in ("a^", "(a+b)^", "a.b^+1", "0^", "a^^"):
        t = alg.parse_plus_term(text)
        lhs = automata.compile(alg.map_j(t))
        rhs = automata.compile(t)
        assert automata.equivalent(lhs, rhs)
        assert oracle.enumerate_language(alg.map_j(t), 6) == oracle.enumerate_language(t, 6)


def test_interpret_respects_logical_equivalence_small():
    """Inter-derivable formulas denote the same language (single variable,
    sizes <= 3, both logics)."""
    pool = [
        parse_formula(t)
        for t in ("a", "1", "0", "a?", "1?", "0?", "a??", "a.a", "a|a", "a|1", "a.1", "1.a", "a|0")
    ]
    for logic in LogicId:
        prover = Prover(logic)
        for f in pool:
            for g in pool:
                if prover.derivable(Sequent((f,), g)) and prover.derivable(Sequent((g,), f)):
                    x = automata.compile(alg.Term(f, logic))
                    y = automata.compile(alg.Term(g, logic))
                    assert automata.equivalent(x, y), (logic, f, g)
