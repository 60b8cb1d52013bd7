import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleeneseq.algebra import Term, parse_plus_term, parse_star_term
from kleeneseq.syntax import (
    Formula,
    Fuse,
    LogicId,
    One,
    Or,
    ParseError,
    Query,
    Sequent,
    Var,
    Zero,
    _postorder,
    formula_size,
    formula_variables,
    parse_formula,
    parse_sequent,
    print_formula,
    print_sequent,
    sequent_size,
    sequent_variables,
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


# Each message of the three spellings, with the position it reports.  All
# of them reject the first unknown character before parsing and quote a whole
# unexpected token; only the word for a missing operand ("formula" or "term")
# and the terms' message for the other term family's operator differ.
PARSERS = {
    f.__name__: f for f in (parse_formula, parse_sequent, parse_star_term, parse_plus_term)
}
ERRORS = [
    ("parse_formula", "", "empty input", 0),
    ("parse_sequent", " \t", "empty input", 0),
    ("parse_formula", "a | *", "unexpected character '*'", 4),
    ("parse_formula", ") a $", "unexpected character '$'", 4),
    ("parse_sequent", "a, b + c |- ", "unexpected character '+'", 5),
    ("parse_formula", "(a", "expected rparen, found end of input", 2),
    ("parse_formula", "((a) b", "expected rparen, found 'b'", 5),
    ("parse_sequent", "a b |- a", "expected turnstile, found 'b'", 2),
    ("parse_sequent", "a ", "expected turnstile, found end of input", 2),
    ("parse_formula", "a |", "expected a formula, found end of input", 3),
    ("parse_formula", "a | )", "expected a formula, found ')'", 4),
    ("parse_sequent", "a, |- b", "expected a formula, found '|-'", 3),
    ("parse_formula", "a |- b", "unexpected trailing input '|-'", 2),
    ("parse_sequent", "|- a bc", "unexpected trailing input 'bc'", 5),
    ("parse_star_term", " ", "empty input", 0),
    ("parse_star_term", "a + ?", "unexpected character '?'", 4),
    ("parse_plus_term", "a+)", "expected a term, found ')'", 2),
    ("parse_star_term", ") $", "unexpected character '$'", 2),
    ("parse_star_term", "a) $", "unexpected character '$'", 3),
    ("parse_star_term", "(a $", "unexpected character '$'", 3),
    ("parse_plus_term", "(a", "expected rparen, found end of input", 2),
    ("parse_star_term", "a+ ", "expected a term, found end of input", 3),
    ("parse_star_term", "a^", "operator '^' is not part of this term family", 1),
    ("parse_plus_term", "(a) *", "operator '*' is not part of this term family", 4),
    ("parse_star_term", "a bc", "unexpected trailing input 'bc'", 2),
    ("parse_plus_term", "a|-b", "unexpected character '|-'", 1),
]


@pytest.mark.parametrize("entry,text,message,position", ERRORS)
def test_parse_error_table(entry, text, message, position):
    with pytest.raises(ValueError) as exc:
        PARSERS[entry](text)
    assert (exc.value.message, exc.value.position) == (message, position)
    assert str(exc.value) == f"{message} (at position {position})"


def _left_spine(f):
    """The leftmost non-fusion and the right operands of a left-nested chain."""
    rights = []
    while isinstance(f, Fuse):
        rights.append(f.right)
        f = f.left
    return f, rights


def test_parsers_keep_their_own_stack():
    depth = 5_000
    nested = "(" * depth + "a" + ")" * depth
    assert parse_formula(nested) == a
    assert parse_sequent(f"{nested}, {nested} |- {nested}") == Sequent((a, a), a)
    assert parse_star_term(nested) == Term(a, LogicId.KL)
    chain = ".".join(["a?"] * depth)
    s = parse_sequent(f"{chain} |- {chain}")
    t = parse_star_term(chain.replace("?", "*"))
    for f in (parse_formula(chain), s.antecedent[0], s.succedent, t.formula):
        assert _left_spine(f) == (Query(a), [Query(a)] * (depth - 1))


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
        (a, "_hash"),
        (Or(a, b), "_hash"),
        (Fuse(a, b), "_hash"),
        (Query(a), "_hash"),
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


@given(formulas())
def test_formula_hash_is_invisible(f):
    fresh = parse_formula(print_formula(f))  # shares no node with f
    assert fresh == f and hash(fresh) == hash(f)
    assert hash(f) == hash(f._values())  # the hash of the field tuple
    for copied in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert copied == f and hash(copied) == hash(f)
        assert repr(copied) == repr(f)
    fields = ", ".join(f"{name}={getattr(f, name)!r}" for name in f._fields)
    assert repr(f) == f"{f.__class__.__name__}({fields})"
    assert (Var._fields, Or._fields, Fuse._fields, Query._fields) == (
        ("name",),
        ("left", "right"),
        ("left", "right"),
        ("body",),
    )


def test_deep_formulas_hash():
    # a stored hash makes hashing O(1) per node, so depth does not recurse
    assert isinstance(hash(parse_formula("a" + "?" * 5000)), int)
    assert isinstance(hash(parse_formula(".".join(["a?"] * 5000))), int)


def test_deep_formulas_size_and_variables():
    # the size and variable walks keep their own stack
    deep = parse_formula("a" + "?" * 5000)
    chain = parse_formula(".".join(["a?"] * 5000))
    assert (formula_size(deep), formula_variables(deep)) == (5001, {"a"})
    assert (formula_size(chain), formula_variables(chain)) == (14999, {"a"})
    s = Sequent((deep, chain), deep)
    assert (sequent_size(s), sequent_variables(s)) == (25001, {"a"})


def test_postorder_lists_children_first_left_to_right():
    f = parse_formula("a . b? | c")
    assert _postorder(f) == [a, b, Query(b), f.left, c, f]
    assert _postorder(a, f.left) == [a, a, b, Query(b), f.left]
    with pytest.raises(TypeError, match="not a formula"):
        _postorder(Or(a, Fuse(b, "c")))


def test_postorder_keeps_its_own_stack():
    deep = parse_formula("a" + "?" * 5000)
    chain = parse_formula(".".join(["a?"] * 5000))
    nodes = _postorder(deep)
    assert len(nodes) == 5001 and nodes[0] == a and nodes[-1] is deep
    nodes = _postorder(chain)
    assert len(nodes) == 14999 and nodes[:2] == [a, Query(a)] and nodes[-1] is chain


def _shape(f):
    """The post-order node classes and names of `f`: with each class's
    arity known, equal shapes are equal formulas, compared without
    recursing as `==` does."""
    return [(g.__class__, getattr(g, "name", None)) for g in _postorder(f)]


def test_printer_keeps_its_own_stack():
    deep = parse_formula("a" + "?" * 5000)
    text = print_formula(deep)
    assert text == "a" + "?" * 5000
    assert _shape(parse_formula(text)) == _shape(deep)
    # right-nested operators need a pair of parentheses per level
    nested = a
    for _ in range(5000):
        nested = Or(b, Fuse(a, nested))
    text = print_formula(nested)
    assert text == "b | a . (" * 4999 + "b | a . a" + ")" * 4999
    assert _shape(parse_formula(text)) == _shape(nested)


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
