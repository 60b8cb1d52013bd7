import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleeneseq import algebra as alg
from kleeneseq import automata, oracle
from kleeneseq.algebra import Term
from kleeneseq.automata import (
    Nfa,
    StateLimitError,
    accepts,
    compile,
    decide,
    equivalent,
    includes,
    to_dot,
)
from kleeneseq.calculus import LogicId
from kleeneseq.syntax import (
    Fuse,
    One,
    Or,
    Query,
    Var,
    Zero,
    parse_formula,
    parse_sequent,
)
from strategies import plus_terms, seeded_term_pairs, star_terms, subformulas

star, plus = alg.parse_star_term, alg.parse_plus_term
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
    nfa = compile(star("a*"))
    assert words_up_to(nfa, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_compile_zero_is_empty():
    nfa = compile(star("0"))
    assert words_up_to(nfa, 4) == set()


def test_compile_one_is_just_epsilon():
    assert words_up_to(compile(plus("1")), 3) == {()}


def test_star_unfolding_equivalence():
    # 1 + a.a* against a*: equal word sets by enumeration, equal automata
    lhs_term = star("1+a.a*")
    rhs_term = star("a*")
    assert (
        oracle.enumerate_language(lhs_term, 6)
        == oracle.enumerate_language(rhs_term, 6)
    )
    assert equivalent(compile(lhs_term), compile(rhs_term))


def test_compile_plus_sharp():
    nfa = compile(plus("a^"))
    assert not accepts(nfa, ())
    assert words_up_to(nfa, 3) == {("a",), ("a", "a"), ("a", "a", "a")}


def test_compile_plus_of_translated_star():
    t = star("a*")
    assert equivalent(compile(alg.map_i(t)), compile(t))


def _var_leaves(t):
    return sum(isinstance(f, Var) for f in subformulas(t.formula))


def _assert_position_automaton_of(nfa, t):
    assert nfa.states == frozenset(range(1 + _var_leaves(t)))
    # entered_on maps exactly the letters that occur, each to its states
    assert nfa.entered_on == {
        x: sum(1 << p for p, y in enumerate(nfa.letters, 1) if y == x) for x in nfa.letters
    }
    assert words_up_to(nfa, 5) == oracle.enumerate_language(t, 5)


@given(star_terms(max_leaves=6))
@settings(max_examples=100, deadline=None)
def test_compile_is_position_automaton(t):
    _assert_position_automaton_of(compile(t), t)


@given(plus_terms(max_leaves=6))
@settings(max_examples=100, deadline=None)
def test_compile_plus_is_position_automaton(t):
    _assert_position_automaton_of(compile(t), t)


def test_compile_plus_is_position_automaton_seeded():
    for pair in seeded_term_pairs(seed=7, count=60, max_size=7, plus_family=True):
        for t in pair:
            _assert_position_automaton_of(compile(t), t)


@pytest.mark.parametrize(
    "text", ["0*", "0^", "1^", "(1+a)^", "(0.a)*", "(a.0)^", "a*.b*"]
)
def test_compile_nullability_and_dead_positions(text):
    # iterations of 0 and 1, and letters that no word can reach or leave
    t = plus(text) if "^" in text else star(text)
    _assert_position_automaton_of(compile(t), t)


def _reference_automaton(t):
    """The position automaton by the textbook definitions, on Python sets of
    occurrence indices: position p is the p-th letter occurrence from the
    left, follow(p) holds q when some fuse has p last in its left part and q
    first in its right part, or some query has p last and q first in its
    body.  Returns (letters, follow, accept) in `Nfa`'s mask encoding."""
    star = t.logic is LogicId.KL
    letters = []
    follow = {}

    def walk(f):
        if isinstance(f, Zero):
            return False, set(), set()
        if isinstance(f, One):
            return True, set(), set()
        if isinstance(f, Var):
            letters.append(f.name)
            p = len(letters)
            follow[p] = set()
            return False, {p}, {p}
        if isinstance(f, Or):
            lnull, lfirst, llast = walk(f.left)
            rnull, rfirst, rlast = walk(f.right)
            return lnull or rnull, lfirst | rfirst, llast | rlast
        if isinstance(f, Fuse):
            lnull, lfirst, llast = walk(f.left)
            rnull, rfirst, rlast = walk(f.right)
            for p in llast:
                follow[p] |= rfirst
            first = lfirst | rfirst if lnull else lfirst
            last = llast | rlast if rnull else rlast
            return lnull and rnull, first, last
        assert isinstance(f, Query)
        null, first, last = walk(f.body)
        for p in last:
            follow[p] |= first
        return null or star, first, last

    nullable, first, last = walk(t.formula)
    follow[0] = first
    accepting = last | {0} if nullable else last

    def mask(positions):
        return sum(1 << q for q in positions)

    return tuple(letters), tuple(mask(follow[p]) for p in range(len(letters) + 1)), mask(accepting)


def _assert_matches_reference(t):
    nfa = compile(t)
    assert (nfa.letters, nfa.follow, nfa.accept) == _reference_automaton(t), alg.print_term(t)


@pytest.mark.parametrize("logic", list(LogicId))
def test_compile_matches_textbook_reference_to_size_4(logic):
    for s in oracle.enumerate_sequents({"a", "b"}, 4):
        for t in alg.interpret_sequent(s, logic):
            _assert_matches_reference(t)
            if logic is LogicId.KL_PLUS:
                # map_j shares each query body between two occurrences
                _assert_matches_reference(alg.map_j(t))


def test_compile_matches_textbook_reference_seeded():
    for plus_family in (False, True):
        for pair in seeded_term_pairs(seed=11, count=60, max_size=12, plus_family=plus_family):
            for t in pair:
                _assert_matches_reference(t)
                if plus_family:
                    _assert_matches_reference(alg.map_j(t))


def test_golden_kl_chain_follow_sets():
    # in kl each a? may be skipped: position p is followed by itself and by
    # every later position, and only the final a accepts
    chain = ".".join(["a?"] * 50 + ["a"])
    nfa = compile(Term(parse_formula(chain), LogicId.KL))
    assert nfa.letters == ("a",) * 51
    assert nfa.follow[0] == sum(1 << q for q in range(1, 52))
    for p in range(1, 51):
        assert nfa.follow[p] == sum(1 << q for q in range(p, 52)), p
    assert nfa.follow[51] == 0
    assert nfa.accept == 1 << 51


def test_nfa_validation():
    Nfa(("a", "b"), (0b010, 0b100, 0b110), 0b101)  # well formed
    malformed = [
        (("a",), (0b10,), 0),  # one successor mask for two states
        (("a",), (0b100, 0), 0),  # successor past the last state
        (("a",), (0b10, 0b01), 0),  # edge into the start state
        (("a",), (0b10, 0), 0b100),  # accepting state past the last state
        (("a",), (0b10, -2), 0),  # a negative mask has every high bit set
    ]
    for args in malformed:
        with pytest.raises(ValueError):
            Nfa(*args)


# Set views of one kl and one kl+ automaton, pinned so that deriving them from
# another representation can neither reorder nor drop an edge.
GOLDEN_KL_DOT = """digraph nfa {
  rankdir=LR;
  hidden [shape=point, label=""];
  q0 [shape=doublecircle, label="0"];
  q1 [shape=circle, label="1"];
  q2 [shape=doublecircle, label="2"];
  q3 [shape=doublecircle, label="3"];
  hidden -> q0;
  q0 -> q1 [label="a"];
  q0 -> q3 [label="a"];
  q1 -> q2 [label="b"];
  q2 -> q1 [label="a"];
  q2 -> q3 [label="a"];
  q3 -> q3 [label="a"];
}"""
GOLDEN_KLP_DOT = """digraph nfa {
  rankdir=LR;
  hidden [shape=point, label=""];
  q0 [shape=circle, label="0"];
  q1 [shape=circle, label="1"];
  q2 [shape=circle, label="2"];
  q3 [shape=doublecircle, label="3"];
  hidden -> q0;
  q0 -> q1 [label="a"];
  q1 -> q2 [label="b"];
  q2 -> q1 [label="a"];
  q2 -> q3 [label="a"];
}"""


@pytest.mark.parametrize(
    "logic,text,dot,transitions",
    [
        (
            LogicId.KL,
            "(a.b)?.a?",
            GOLDEN_KL_DOT,
            {(0, "a", 1), (0, "a", 3), (1, "b", 2), (2, "a", 1), (2, "a", 3), (3, "a", 3)},
        ),
        (
            LogicId.KL_PLUS,
            "(a.b)?.a",
            GOLDEN_KLP_DOT,
            {(0, "a", 1), (1, "b", 2), (2, "a", 1), (2, "a", 3)},
        ),
    ],
    ids=["kl", "kl+"],
)
def test_golden_set_views(logic, text, dot, transitions):
    nfa = compile(Term(parse_formula(text), logic))
    assert to_dot(nfa) == dot
    assert nfa.transitions == transitions
    assert nfa.states == {0, 1, 2, 3}


# --- inclusion -----------------------------------------------------------


def test_empty_language_included_in_everything():
    zero = compile(star("0"))
    for text in ("0", "1", "a", "a*", "(a+b)*"):
        assert includes(zero, compile(star(text))).derivable


def test_inclusion_with_oracle_confirmation():
    lhs, rhs = star("a.a"), star("a*")
    assert oracle.bounded_inclusion(lhs, rhs, 6)
    assert includes(compile(lhs), compile(rhs)).derivable


def test_epsilon_counterexample():
    result = includes(compile(plus("1")), compile(plus("a^")))
    assert not result.derivable
    assert result.counterexample == ()


def test_counterexample_is_shortest_and_letter_ordered():
    # (a+b).(a+b) vs things starting with b: shortest lexicographic-least witness
    lhs = star("(a+b).(a+b)")
    rhs = star("b.(a+b)")
    result = includes(compile(lhs), compile(rhs))
    assert result.counterexample == ("a", "a")


@pytest.mark.parametrize(
    "lhs,rhs,cex",
    [("a", "a+b", None), ("a+b", "a", ("b",)), ("1", "0", ())],
)
def test_inclusion_across_letter_sets(lhs, rhs, cex):
    # each automaton has only its own letters; no alphabet is shared
    result = includes(compile(star(lhs)), compile(star(rhs)))
    assert result.derivable is (cex is None)
    assert result.counterexample == cex


def test_equivalent_examples():
    x = compile(star("a*.a"))
    y = compile(star("a.a*"))
    assert oracle.enumerate_language(star("a*.a"), 6) == (
        oracle.enumerate_language(star("a.a*"), 6)
    )
    assert equivalent(x, x)
    assert equivalent(x, y)
    assert not equivalent(compile(star("a*")), compile(plus("a^")))


def test_state_cap_exceeded():
    big = star("(a+b)*.a.(a+b).(a+b).(a+b)")
    with pytest.raises(StateLimitError):
        includes(compile(big), compile(star("0")), state_cap=3)


# --- inclusion is a partial order on sampled languages ---------------------


@given(star_terms(max_leaves=6))
@settings(max_examples=60, deadline=None)
def test_inclusion_reflexive(t):
    nfa = compile(t)
    assert includes(nfa, nfa).derivable


@given(star_terms(max_leaves=4), star_terms(max_leaves=4), star_terms(max_leaves=4))
@settings(max_examples=60, deadline=None)
def test_inclusion_transitive(x, y, z):
    nx, ny, nz = (compile(t) for t in (x, y, z))
    if includes(nx, ny).derivable and includes(ny, nz).derivable:
        assert includes(nx, nz).derivable


@given(star_terms(max_leaves=5), star_terms(max_leaves=5))
@settings(max_examples=60, deadline=None)
def test_inclusion_antisymmetric_up_to_equivalence(x, y):
    nx, ny = compile(x), compile(y)
    if includes(nx, ny).derivable and includes(ny, nx).derivable:
        assert equivalent(nx, ny)


@given(st.one_of(star_terms(max_leaves=6)), st.one_of(star_terms(max_leaves=6)))
@settings(max_examples=100, deadline=None)
def test_counterexample_membership(x, y):
    nx, ny = compile(x), compile(y)
    result = includes(nx, ny)
    if not result.derivable:
        assert accepts(nx, result.counterexample)
        assert not accepts(ny, result.counterexample)


def test_counterexample_membership_plus_family_seeded():
    for x, y in seeded_term_pairs(seed=99, count=150, max_size=7, plus_family=True):
        nx, ny = compile(x), compile(y)
        result = includes(nx, ny)
        if not result.derivable:
            assert accepts(nx, result.counterexample)
            assert not accepts(ny, result.counterexample)


def _shortlex_least_difference(nx, ny, max_len=6):
    """The first word in shortlex order, up to `max_len`, in nx and not ny."""
    for n in range(max_len + 1):
        for w in itertools.product(AB, repeat=n):
            if accepts(nx, w) and not accepts(ny, w):
                return w
    return None


def _assert_least_counterexample(nx, ny):
    result = includes(nx, ny)
    reference = _shortlex_least_difference(nx, ny)
    if result.derivable:
        assert reference is None
    elif reference is None:
        assert len(result.counterexample) > 6
    else:
        assert result.counterexample == reference


@given(star_terms(max_leaves=6), star_terms(max_leaves=6))
@example(star("a.b+a.a"), star("a"))
@settings(max_examples=100, deadline=None)
def test_counterexample_is_shortlex_least(x, y):
    # the antichain pruning must keep the shortest, letter-least witness
    _assert_least_counterexample(compile(x), compile(y))


def test_counterexample_is_shortlex_least_plus_family_seeded():
    for x, y in seeded_term_pairs(seed=5, count=150, max_size=7, plus_family=True):
        _assert_least_counterexample(compile(x), compile(y))


# The n = 12 members of the subset family: the right-hand automaton reaches
# 2^12 subsets, of which the antichain keeps few.
SUBSET_12_ANTE = (
    "(a|b)?, a, (a|b), (a|b), (a|b), (a|b), (a|b), (a|b),"
    " (a|b), (a|b), (a|b), (a|b), (a|b), (a|b)"
)
SUBSET_12_A = (
    SUBSET_12_ANTE + " |- (a|b)?.a.(a|b).(a|b).(a|b).(a|b).(a|b).(a|b)"
    ".(a|b).(a|b).(a|b).(a|b).(a|b).(a|b)"
)
SUBSET_12_B = (
    SUBSET_12_ANTE + " |- (a|b)?.b.(a|b).(a|b).(a|b).(a|b).(a|b).(a|b)"
    ".(a|b).(a|b).(a|b).(a|b).(a|b).(a|b)"
)


@pytest.mark.parametrize("logic", list(LogicId))
def test_subset_family_holds_within_small_state_cap(logic):
    # without subsumption the search admits 61,441 product pairs
    assert decide(logic, parse_sequent(SUBSET_12_A), state_cap=10_000).derivable


@pytest.mark.parametrize("logic,length", [(LogicId.KL, 13), (LogicId.KL_PLUS, 14)])
def test_subset_family_counterexample_within_small_state_cap(logic, length):
    result = decide(logic, parse_sequent(SUBSET_12_B), state_cap=100)
    assert not result.derivable
    assert result.counterexample == ("a",) * length


@pytest.mark.parametrize("text", [SUBSET_12_A, SUBSET_12_B], ids=["derivable", "refuted"])
def test_includes_returns_the_record_decide_returns(text):
    s = parse_sequent(text)
    for logic in LogicId:
        assert includes(*automata.decision_automata(logic, s)) == decide(logic, s)


CHAIN_400 = ".".join(["a?"] * 400 + ["a"]) + " |- a?"


@pytest.mark.parametrize("logic", list(LogicId))
def test_chain_admits_402_product_pairs(logic):
    # the start pair plus one pair per left position, all with the same
    # right subset, so the cap is met exactly
    assert decide(logic, parse_sequent(CHAIN_400), state_cap=402).derivable
    with pytest.raises(StateLimitError):
        decide(logic, parse_sequent(CHAIN_400), state_cap=401)


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
        # shortlex-least counterexamples where two left states share a word:
        # the children of both on a come before those on b
        (LogicId.KL, "a.b | a.a |- a", False, ("a", "a")),
        (LogicId.KL_PLUS, "a.b | a.a |- a", False, ("a", "a")),
        (LogicId.KL, "b?, b, a? |- b", False, ("b", "a")),
    ],
)
def test_decide(logic, text, expected, cex):
    result = decide(logic, parse_sequent(text))
    assert result.derivable == expected
    assert result.counterexample == cex


def test_decision_result_is_a_value():
    result = decide(LogicId.KL, parse_sequent("a |- b"))
    assert repr(result) == "DecisionResult(derivable=False, counterexample=('a',))"
    assert result == decide(LogicId.KL, parse_sequent("a |- b"))
    with pytest.raises(AttributeError):
        result.derivable = True


def test_compiled_automata_are_equal_values():
    t = star("(a + b)* . a")
    x, y = compile(t), compile(t)
    assert x == y and x is not y
    assert hash(x) == hash(y)
    assert x != compile(star("a"))
    with pytest.raises(AttributeError):
        x.accept = 0


def test_decide_handles_variable_free_sequents():
    assert decide(LogicId.KL, parse_sequent("1 |- 1")).derivable
    assert not decide(LogicId.KL, parse_sequent("1 |- 0")).derivable


def test_to_dot_mentions_all_states():
    nfa = compile(star("a.b"))
    dot = to_dot(nfa, "left")
    assert dot.startswith("digraph left {")
    for q in nfa.states:
        assert f"q{q}" in dot
    assert 'q0 -> q1 [label="a"]' in dot
    assert 'q1 -> q2 [label="b"]' in dot
