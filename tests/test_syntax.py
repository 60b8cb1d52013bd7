import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleeneseq.syntax import (
    Formula,
    Fuse,
    One,
    Or,
    ParseError,
    Query,
    Sequent,
    Var,
    Zero,
    formula_size,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    sequent_size,
)
from strategies import formulas, sequents

a, b, c = Var("a"), Var("b"), Var("c")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a | b . c?", Or(a, Fuse(b, Query(c)))),
        ("1 | a . a?", Or(One(), Fuse(a, Query(a)))),
        ("(a | b)?", Query(Or(a, b))),
        ("a?", Query(a)),
        ("a??", Query(Query(a))),
        ("a.b.c", Fuse(Fuse(a, b), c)),
        ("a | b | c", Or(Or(a, b), c)),
        ("a|b.c?", Or(a, Fuse(b, Query(c)))),
        ("0", Zero()),
        ("long_name2", Var("long_name2")),
    ],
)
def test_parse_formula(text, expected):
    assert parse_formula(text) == expected


@pytest.mark.parametrize(
    "text,antecedent,succedent",
    [
        ("a, b |- a . b", (a, b), Fuse(a, b)),
        ("|- a?", (), Query(a)),
        ("a?, a |- a . a?", (Query(a), a), Fuse(a, Query(a))),
        ("1 |- 1", (One(),), One()),
    ],
)
def test_parse_sequent(text, antecedent, succedent):
    assert parse_sequent(text) == Sequent(antecedent, succedent)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Or(One(), Fuse(a, Query(a))), "1 | a . a?"),
        (Query(Or(a, b)), "(a | b)?"),
        (Fuse(Or(a, b), c), "(a | b) . c"),
        (Or(a, Or(b, c)), "a | (b | c)"),
        (Fuse(a, Fuse(b, c)), "a . (b . c)"),
        (Query(Query(a)), "a??"),
    ],
)
def test_print_formula(value, expected):
    assert print_formula(value) == expected


def test_print_sequent():
    assert print_sequent(Sequent((), Query(a))) == "|- a?"
    assert print_sequent(Sequent((a, b), Fuse(a, b))) == "a, b |- a . b"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "a |",
        "a | | b",
        "a b",
        "(a",
        "a)",
        "A",
        "?a",
        "a, b",
        "|- a |- b",
        "a |- b |- c",
        "10",
        "α",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        if "|-" in text or "," in text:
            parse_sequent(text)
        else:
            parse_formula(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_formula("a | *")
    assert exc.value.position == 4
    assert "position 4" in str(exc.value)


def _all_formulas(size, names=("a", "b")):
    """Every formula with exactly `size` AST nodes."""
    pools = [[] for _ in range(size + 1)]
    pools[1] = [Var(n) for n in names] + [One(), Zero()]
    for n in range(2, size + 1):
        pools[n] = [Query(f) for f in pools[n - 1]]
        for i in range(1, n - 1):
            for left in pools[i]:
                for right in pools[n - 1 - i]:
                    pools[n].append(Or(left, right))
                    pools[n].append(Fuse(left, right))
    return [f for pool in pools for f in pool]


def test_round_trip_exhaustive_to_size_6():
    for f in _all_formulas(6):
        assert parse_formula(print_formula(f)) == f


@given(formulas(max_leaves=20))
def test_round_trip_random_formulas(f):
    assert parse_formula(print_formula(f)) == f


@given(sequents(max_antecedent=4, max_leaves=8))
def test_round_trip_random_sequents(s):
    assert parse_sequent(print_sequent(s)) == s


@given(formulas())
def test_formula_size_counts_nodes(f):
    # cross-count by structural recursion written differently
    def count(g: Formula) -> int:
        stack, n = [g], 0
        while stack:
            node = stack.pop()
            n += 1
            if isinstance(node, Query):
                stack.append(node.body)
            elif isinstance(node, (Or, Fuse)):
                stack.extend((node.left, node.right))
        return n

    assert formula_size(f) == count(f)


def test_sequent_size_sums_antecedent_and_succedent():
    assert sequent_size(parse_sequent("a, b |- a . b")) == 5
    assert sequent_size(parse_sequent("|- a?")) == 2


def test_empty_antecedent_differs_from_one():
    assert parse_sequent("|- a") != parse_sequent("1 |- a")


# --- value semantics ------------------------------------------------------------


def test_values_of_different_classes_differ():
    assert Or(a, b) != Fuse(a, b)
    assert Zero() != One()
    s = parse_sequent("a |- b")
    assert s != (s.antecedent, s.succedent)


@pytest.mark.parametrize("text", ["a . b? | 0", "1 | c??", "|- a", "a, b? |- a . 1"])
def test_equal_values_hash_equal(text):
    parse = parse_sequent if "|-" in text else parse_formula
    x, y = parse(text), parse(text)
    assert x == y and x is not y
    assert hash(x) == hash(y)


@pytest.mark.parametrize(
    "value, field",
    [
        (a, "name"),
        (Zero(), "name"),
        (Or(a, b), "left"),
        (Query(a), "body"),
        (Sequent((a,), b), "succedent"),
        (Sequent((a,), b), "_hash"),
    ],
)
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, c)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_repr_names_the_fields():
    assert repr(parse_formula("a.b?")) == (
        "Fuse(left=Var(name='a'), right=Query(body=Var(name='b')))"
    )
    assert repr(parse_sequent("|- 1 | 0")) == (
        "Sequent(antecedent=(), succedent=Or(left=One(), right=Zero()))"
    )


def test_values_copy_and_pickle():
    s = parse_sequent("a, (b | 1)? |- a . 0")
    assert copy.deepcopy(s) == s
    assert pickle.loads(pickle.dumps(s)) == s


@given(sequents())
def test_sequent_hash_cache_is_invisible(s):
    first = hash(s)  # fills the cache
    assert first == hash(Sequent(s.antecedent, s.succedent))
    table = {s: None}
    assert hash(s) == first and Sequent(s.antecedent, s.succedent) in table
    for copied in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert copied == s and hash(copied) == hash(s)
        assert repr(copied) == repr(s)
    assert repr(s) == f"Sequent(antecedent={s.antecedent!r}, succedent={s.succedent!r})"
    assert Sequent._fields == ("antecedent", "succedent")


@given(st.text(alphabet="ab01|.?,()- \t", max_size=30))
def test_parser_is_total(text):
    # never hangs, never raises anything but the parse error
    for parse in (parse_formula, parse_sequent):
        try:
            parse(text)
        except ParseError:
            pass


@given(st.text(max_size=20))
def test_parser_is_total_on_arbitrary_text(text):
    try:
        parse_formula(text)
    except ParseError:
        pass
