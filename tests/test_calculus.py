import json

import pytest
from hypothesis import given, settings

from kleeneseq import automata, oracle
from kleeneseq.algebra import interpret_sequent
from kleeneseq.calculus import (
    LogicId,
    ProofTree,
    Prover,
    RuleId,
    applicable_rules,
    check_proof,
    render_tree,
    tree_from_json,
    tree_from_json_dict,
    tree_to_json,
    tree_to_json_dict,
)
from kleeneseq.syntax import (
    DEFAULT_STATE_CAP,
    ParseError,
    Sequent,
    StateLimitError,
    parse_sequent,
    print_sequent,
    sequent_size,
)
from strategies import sequents, subformulas

KL, KLP = LogicId.KL, LogicId.KL_PLUS


def leaf(rule, text):
    return ProofTree(parse_sequent(text), rule)


def node(rule, text, *children):
    return ProofTree(parse_sequent(text), rule, tuple(children))


# --- applicable_rules ---------------------------------------------------------


def test_axiom_query_only_in_kl():
    goal = parse_sequent("|- a?")
    kl_rules = {rule for rule, _ in applicable_rules(KL, goal)}
    assert RuleId.AX_Q in kl_rules
    assert applicable_rules(KLP, goal) == [(RuleId.PLUS_Q, (parse_sequent("|- a"),))]


def test_fuse_right_splits():
    goal = parse_sequent("a, b |- a . b")
    splits = [
        premises for rule, premises in applicable_rules(KL, goal) if rule is RuleId.FUSE_R
    ]
    assert (parse_sequent("a |- a"), parse_sequent("b |- b")) in splits
    assert len(splits) == 3  # every cut point of the antecedent


def test_closure_rules_report_empty_premises():
    for text, rule in [
        ("a |- a", RuleId.AX),
        ("|- 1", RuleId.ONE_R),
        ("b, 0 |- a", RuleId.ZERO_L),
        ("|- a?", RuleId.AX_Q),
    ]:
        found = [p for r, p in applicable_rules(KL, parse_sequent(text)) if r is rule]
        assert found and all(premises == () for premises in found)


def test_no_rule_applies_to_interior_query_with_atomic_succedent():
    assert applicable_rules(KLP, parse_sequent("a, 0?, a |- a")) == []


def test_dist_requires_shared_left_factor():
    assert any(
        rule is RuleId.DIST for rule, _ in applicable_rules(KL, parse_sequent("|- a.b | a.c"))
    )
    assert not any(
        rule is RuleId.DIST for rule, _ in applicable_rules(KL, parse_sequent("|- a.b | b.c"))
    )


def test_query_right_splits_never_repeat_the_goal():
    goal = parse_sequent("a? |- a?")
    for _, premises in applicable_rules(KL, goal):
        assert goal not in premises


@given(sequents())
@settings(max_examples=150, deadline=None)
def test_premises_shrink_except_bounded_left_query_resets(s):
    """Every premise is strictly smaller than the goal, except the first
    premise of the query-on-the-left rules, which stays inside the goal's
    subformula closure (that keeps the reachable space finite)."""
    reset_rules = {
        RuleId.Q_INTRO_L1,
        RuleId.Q_INTRO_L2,
        RuleId.PLUS_Q_L1,
        RuleId.PLUS_Q_L2,
    }
    closure = {g for f in (*s.antecedent, s.succedent) for g in subformulas(f)}
    for logic in (KL, KLP):
        for rule, premises in applicable_rules(logic, s):
            for i, premise in enumerate(premises):
                if rule in reset_rules and i == 0:
                    assert all(f in closure for f in premise.antecedent)
                    assert premise.succedent in closure
                else:
                    assert sequent_size(premise) < sequent_size(s), (
                        logic,
                        rule,
                        print_sequent(s),
                        print_sequent(premise),
                    )


def test_rule_instances_match_oracle_expansions():
    """The rules are stated once, in the calculus; the oracle restates them
    independently.  Both must propose the same premise tuples at every goal."""
    for logic in (KL, KLP):
        for s in oracle.enumerate_sequents({"a", "b"}, 5):
            ours = {premises for _, premises in applicable_rules(logic, s)}
            theirs = {tuple(premises) for premises in oracle._expansions(logic, s)}
            assert ours == theirs, (logic, print_sequent(s))


# --- check_proof ----------------------------------------------------------------


def star_unfold_tree():
    """The disjunction-elimination derivation of "1 | a.a? |- a?"."""
    return node(
        RuleId.OR_L,
        "1 | a.a? |- a?",
        node(RuleId.ONE_L, "1 |- a?", leaf(RuleId.AX_Q, "|- a?")),
        node(
            RuleId.FUSE_L,
            "a.a? |- a?",
            node(
                RuleId.Q_INTRO_R1,
                "a, a? |- a?",
                leaf(RuleId.AX, "a |- a"),
                leaf(RuleId.AX, "a? |- a?"),
            ),
        ),
    )


def test_check_single_axiom():
    assert check_proof(KL, leaf(RuleId.AX, "a |- a")) is None


def test_check_star_unfold_tree():
    assert check_proof(KL, star_unfold_tree()) is None


def test_check_rejects_cut_without_flag():
    tree = node(
        RuleId.CUT, "a |- a", leaf(RuleId.AX, "a |- a"), leaf(RuleId.AX, "a |- a")
    )
    violation = check_proof(KL, tree, allow_cut=False)
    assert violation is not None and violation.rule is RuleId.CUT
    assert "Cut" in str(violation)
    assert check_proof(KL, tree, allow_cut=True) is None


def test_check_rejects_foreign_rule():
    violation = check_proof(KLP, leaf(RuleId.AX_Q, "|- a?"))
    assert violation is not None and violation.rule is RuleId.AX_Q
    violation = check_proof(KL, node(RuleId.PLUS_Q, "a |- a?", leaf(RuleId.AX, "a |- a")))
    assert violation is not None and violation.rule is RuleId.PLUS_Q
    dropped_copy = node(
        RuleId.Q_INTRO_L1,
        "a?, a |- a?",
        node(RuleId.Q_INTRO_R1, "a, a? |- a?", leaf(RuleId.AX, "a |- a"), leaf(RuleId.AX, "a? |- a?")),
        node(RuleId.PLUS_Q, "a |- a?", leaf(RuleId.AX, "a |- a")),
    )
    violation = check_proof(KLP, dropped_copy)
    assert violation is not None and violation.rule is RuleId.Q_INTRO_L1


def test_check_rejects_schema_mismatch():
    bad = node(RuleId.OR_R1, "|- a | b", leaf(RuleId.AX, "b |- b"))
    violation = check_proof(KL, bad)
    assert violation is not None
    assert violation.path == ()
    # premise of OrR1 must be |- a, not b |- b
    assert "instantiation" in violation.reason or "premises" in violation.reason


def test_check_rejects_premises_in_the_wrong_order():
    fuse = node(
        RuleId.FUSE_R, "a, b |- a . b", leaf(RuleId.AX, "b |- b"), leaf(RuleId.AX, "a |- a")
    )
    left = node(RuleId.OR_R1, "a |- a | b", leaf(RuleId.AX, "a |- a"))
    right = node(RuleId.OR_R2, "b |- a | b", leaf(RuleId.AX, "b |- b"))
    assert check_proof(KL, node(RuleId.OR_L, "a | b |- a | b", left, right)) is None
    swapped = node(RuleId.OR_L, "a | b |- a | b", right, left)
    for logic in (KL, KLP):
        for tree in (fuse, swapped):
            violation = check_proof(logic, tree)
            assert violation is not None and violation.path == (), (logic, tree.rule)


def test_deep_cut_chain_checks_and_renders():
    tree = leaf(RuleId.AX, "a |- a")
    for _ in range(1500):
        tree = node(RuleId.CUT, "a |- a", tree, leaf(RuleId.AX, "a |- a"))
    assert check_proof(KL, tree, allow_cut=True) is None
    lines = render_tree(tree).splitlines()
    assert len(lines) == 3001
    assert lines[1500] == " " * 3000 + "a |- a   [Ax]"


def test_deep_query_succedent_proves_and_checks():
    # a 1,500-deep proof: the stored formula hashes and `_build`'s explicit
    # stack keep search and tree building off the recursion limit
    goal = parse_sequent("a |- a" + "?" * 1500)
    for logic in (KL, KLP):
        tree = Prover(logic).prove(goal)
        assert tree is not None and tree.conclusion == goal
        assert check_proof(logic, tree) is None


def test_check_reports_deep_violation_path():
    tree = node(
        RuleId.OR_L,
        "a | a |- a",
        leaf(RuleId.AX, "a |- a"),
        leaf(RuleId.AX_Q, "a |- a"),  # wrong rule at path (1,)
    )
    violation = check_proof(KL, tree)
    assert violation is not None and violation.path == (1,)
    # the first violation in pre-order wins: (0, 0) comes before (1,)
    cut = node(RuleId.CUT, "a |- a", tree.premises[1], leaf(RuleId.AX, "a |- a"))
    tree = node(RuleId.OR_L, "a | a |- a", cut, tree.premises[1])
    violation = check_proof(KL, tree, allow_cut=True)
    assert violation is not None and violation.path == (0, 0)


def test_check_reports_first_of_repeated_invalid_instances():
    # the same invalid instance at (0, 0) and (1,): only valid instances are
    # remembered, so each is checked and the first in pre-order is reported
    bad = node(RuleId.OR_R1, "a |- a | b", leaf(RuleId.AX, "b |- b"))
    tree = node(
        RuleId.FUSE_R,
        "1, a, a |- (a | b) . (a | b)",
        node(RuleId.ONE_L, "1, a |- a | b", bad),
        bad,
    )
    violation = check_proof(KL, tree)
    assert violation is not None and violation.path == (0, 0)
    assert violation.rule is RuleId.OR_R1
    # a node whose conclusion and premises were accepted under one rule is
    # still rejected under another
    tree = node(RuleId.OR_L, "a | a |- a", leaf(RuleId.AX, "a |- a"), leaf(RuleId.AX_Q, "a |- a"))
    violation = check_proof(KL, tree)
    assert violation is not None and violation.path == (1,)


def test_check_accepts_repeated_valid_instances():
    ax = leaf(RuleId.AX, "a |- a")
    fuse = node(RuleId.FUSE_R, "a, a |- a . a", ax, leaf(RuleId.AX, "a |- a"))
    tree = node(RuleId.FUSE_R, "a, a, a, a |- (a . a) . (a . a)", fuse, fuse)
    assert check_proof(KL, tree) is None
    assert check_proof(KLP, tree) is None


def test_check_rejects_leaf_claiming_a_unary_rule():
    # only Ax, AxQ, OneR and ZeroL close a branch
    violation = check_proof(KL, leaf(RuleId.OR_R1, "a |- a | b"))
    assert violation is not None
    violation = check_proof(KL, leaf(RuleId.ONE_L, "1 |- 1"))
    assert violation is not None


def test_check_accepts_empty_delta_query_right_instance():
    # the split that gives the whole antecedent to `D |- A` and leaves `G`
    # empty; search proposes it too
    tree = node(
        RuleId.Q_INTRO_R2,
        "a |- a?",
        leaf(RuleId.AX, "a |- a"),
        leaf(RuleId.AX_Q, "|- a?"),
    )
    assert check_proof(KL, tree) is None


@pytest.mark.parametrize("rule", [RuleId.Q_INTRO_R1, RuleId.Q_INTRO_R2])
def test_check_accepts_goal_repeating_query_right_split(rule):
    # an empty D leaves the goal itself as the premise `G |- A?`: legal to
    # check, never proposed by search
    goal = parse_sequent("1 |- 1?")
    repeated = node(RuleId.ONE_L, "1 |- 1?", leaf(RuleId.AX_Q, "|- 1?"))
    assert check_proof(KL, repeated) is None
    tree = node(rule, "1 |- 1?", leaf(RuleId.ONE_R, "|- 1"), repeated)
    assert check_proof(KL, tree) is None
    assert (rule, (parse_sequent("|- 1"), goal)) not in applicable_rules(KL, goal)


def test_cut_instance_with_context():
    # replace the middle formula b of "a, b, c |- a.(b.c)" by its proof from b|b
    main = node(
        RuleId.FUSE_R,
        "a, b, c |- a . (b . c)",
        leaf(RuleId.AX, "a |- a"),
        node(
            RuleId.FUSE_R,
            "b, c |- b . c",
            leaf(RuleId.AX, "b |- b"),
            leaf(RuleId.AX, "c |- c"),
        ),
    )
    side = node(
        RuleId.OR_L, "b | b |- b", leaf(RuleId.AX, "b |- b"), leaf(RuleId.AX, "b |- b")
    )
    tree = node(RuleId.CUT, "a, b | b, c |- a . (b . c)", main, side)
    assert check_proof(KL, tree, allow_cut=True) is None
    # conclusion must interleave exactly
    wrong = node(RuleId.CUT, "a, c, b | b |- a . (b . c)", main, side)
    assert check_proof(KL, wrong, allow_cut=True) is not None


# --- prove ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "logic,text,expected",
    [
        (KL, "1 | a.a? |- a?", True),
        (KLP, "|- a?", False),
        (KLP, "a |- a?", True),
        (KL, "a?, a |- a . a?", True),
        (KLP, "a?, a |- a . a?", True),
        (KL, "a |- a . a?", True),
        (KLP, "a |- a . a?", False),
        (KL, "|- 1", True),
        (KL, "1 |- a?", True),
        (KLP, "1 |- a?", False),
        (KL, "a . (b | c) |- a.b | a.c", True),
    ],
)
def test_prove_examples(logic, text, expected):
    goal = parse_sequent(text)
    prover = Prover(logic)
    tree = prover.prove(goal)
    assert (tree is not None) == expected
    assert prover.derivable(goal) == expected
    if tree is not None:
        assert tree.conclusion == goal
        assert check_proof(logic, tree, allow_cut=False) is None


def test_prove_large_region_c7_sequent():
    # criterion-7 sequent 3: the search closes a region of thousands of
    # sequents and the proof is deep, unlike the small examples above
    goal = parse_sequent("((((a|b)?.c)?.d)?.(b|c))?, ((((a|b)?.c)?.d)?.(b|c))?, a? |- (a|b|c|d)?")
    tree = Prover(KLP).prove(goal)

    def size(node):
        return 1 + sum(size(p) for p in node.premises)

    assert tree.conclusion == goal
    assert size(tree) == 1844
    assert check_proof(KLP, tree, allow_cut=False) is None


def test_prove_prefers_small_proofs():
    tree = Prover(KLP).prove(parse_sequent("a |- a?"))
    assert tree.rule is RuleId.PLUS_Q
    assert tree.premises[0].rule is RuleId.AX
    assert Prover(KL).prove(parse_sequent("a |- a")).rule is RuleId.AX


def test_prover_state_cap_bounds_one_region():
    assert Prover(KL).state_cap == DEFAULT_STATE_CAP  # bounded by default, as `decide` is
    goal = parse_sequent(".".join(["a"] * 400) + " |- a?")
    for logic in (KL, KLP):
        prover = Prover(logic, state_cap=1000)
        with pytest.raises(StateLimitError, match="exceeded 1000 sequents"):
            prover.derivable(goal)
        assert not prover._status  # the failed region left no verdicts behind
        assert prover.derivable(parse_sequent("a |- a"))
        assert prover.prove(parse_sequent("a, a |- a . a")) is not None
    # a region of exactly the cap is searched; one sequent more is not
    goal = parse_sequent("a?, a |- a . a?")
    full = Prover(KL)
    assert full.derivable(goal)
    region = len(full._status)
    assert Prover(KL, state_cap=region).derivable(goal)
    with pytest.raises(StateLimitError):
        Prover(KL, state_cap=region - 1).derivable(goal)


def test_fresh_prover_matches_shared_one():
    # one Prover answering every query, against a fresh Prover per query
    prover = Prover(KL)
    for text in ("a |- a", "|- a?", "a? |- a", "a, b |- a . b"):
        s = parse_sequent(text)
        assert prover.derivable(s) == Prover(KL).derivable(s)


def test_prover_answers_are_order_independent():
    texts = ["a?, a |- a . a?", "a |- a", "|- a?", "a . a? |- a?", "a? |- a"]
    forward = Prover(KL)
    backward = Prover(KL)
    got_f = [forward.derivable(parse_sequent(t)) for t in texts]
    got_b = [backward.derivable(parse_sequent(t)) for t in reversed(texts)]
    assert got_f == list(reversed(got_b))


def test_shared_table_matches_isolated_solves():
    """Verdicts tabled as side effects of earlier queries must equal what a
    fresh prover computes for the same sequent in isolation."""
    for logic in (KL, KLP):
        all_sequents = list(oracle.enumerate_sequents({"a", "b"}, 3))
        shared = Prover(logic)
        # biggest goals first, so small sequents get tabled as by-products
        for s in sorted(all_sequents, key=sequent_size, reverse=True):
            shared.derivable(s)
        for s in all_sequents:
            assert shared.derivable(s) == Prover(logic).derivable(s), (
                logic,
                print_sequent(s),
            )


def test_proofs_check_on_enumeration():
    prover = Prover(KLP)
    checked = 0
    for s in oracle.enumerate_sequents({"a"}, 4):
        tree = prover.prove(s)
        if tree is not None:
            assert check_proof(KLP, tree, allow_cut=False) is None
            checked += 1
    assert checked > 50


# --- the documented search/semantics divergence --------------------------------


def test_interior_empty_query_gap():
    """A query whose body denotes the empty language, sitting in an interior
    antecedent position, is semantically vacuous (the whole left side denotes
    the empty language) but no cut-free rule of kl+ can reach it; with Cut it
    is derivable.  This is the one known divergence between prove and decide."""
    s = parse_sequent("a, 0?, a |- a")
    assert automata.decide(KLP, s).derivable
    assert Prover(KLP).prove(s) is None
    assert not oracle.brute_prove(KLP, s, 16)
    with_cut = node(
        RuleId.CUT,
        "a, 0?, a |- a",
        leaf(RuleId.ZERO_L, "a, 0, a |- a"),
        node(
            RuleId.PLUS_Q_L1,
            "0? |- 0",
            leaf(RuleId.ZERO_L, "0, 0 |- 0"),
            leaf(RuleId.ZERO_L, "0 |- 0"),
        ),
    )
    assert check_proof(KLP, with_cut, allow_cut=True) is None
    # kl has no such gap: there the sequent is semantically underivable too
    assert not automata.decide(KL, s).derivable
    assert Prover(KL).prove(s) is None


def test_query_of_zero_separates_the_logics():
    """0? means "no iterations" under star but "at least one failing pass"
    under plus, so "0? |- a" holds only in kl+ and "0? |- 1" only in kl."""
    s = parse_sequent("0? |- a")
    assert Prover(KLP).prove(s) is not None
    assert automata.decide(KLP, s).derivable
    assert Prover(KL).prove(s) is None
    assert not automata.decide(KL, s).derivable
    t = parse_sequent("0? |- 1")
    assert Prover(KL).prove(t) is not None
    assert Prover(KLP).prove(t) is not None  # empty language is below everything


# --- flattening -----------------------------------------------------------------


def test_flatten_preserves_derivability_small():
    # the antecedent folded into one formula, as decide reads it
    for logic in (KL, KLP):
        prover = Prover(logic)
        for names, bound in (({"a"}, 4), ({"a", "b"}, 3)):
            for s in oracle.enumerate_sequents(names, bound):
                flat = Sequent((interpret_sequent(s, logic)[0].formula,), s.succedent)
                assert prover.derivable(s) == prover.derivable(flat), (
                    logic,
                    print_sequent(s),
                )


def test_trees_compare_by_identity():
    x, y = leaf(RuleId.AX, "a |- a"), leaf(RuleId.AX, "a |- a")
    assert x != y and x == x
    assert len({x, y}) == 2
    with pytest.raises(AttributeError):
        x.rule = RuleId.CUT


def test_violations_compare_by_value():
    bad = leaf(RuleId.CUT, "a |- a")
    v = check_proof(KL, bad)
    assert v == check_proof(KL, bad) and hash(v) == hash(check_proof(KL, bad))
    with pytest.raises(AttributeError):
        v.reason = ""


# --- serialization ----------------------------------------------------------------


def test_tree_json_round_trip():
    tree = Prover(KL).prove(parse_sequent("1 | a.a? |- a?"))
    text = tree_to_json(tree)
    loaded = tree_from_json(text)
    assert check_proof(KL, loaded) is None
    assert tree_to_json_dict(loaded) == tree_to_json_dict(tree)
    assert json.loads(text)["rule"] == "OrL"


def test_json_loaded_trees_recheck_across_enumeration():
    """Serialization drops instantiations; the checker must re-infer them
    for every rule the prover can emit."""
    for logic in (KL, KLP):
        prover = Prover(logic)
        seen_rules = set()
        for s in oracle.enumerate_sequents({"a"}, 4):
            tree = prover.prove(s)
            if tree is None:
                continue
            loaded = tree_from_json(tree_to_json(tree))
            assert check_proof(logic, loaded) is None, print_sequent(s)
            stack = [loaded]
            while stack:
                node = stack.pop()
                seen_rules.add(node.rule)
                stack.extend(node.premises)
        assert len(seen_rules) >= 8  # the sweep must exercise a spread of rules


def test_tree_json_reports_first_malformed_node_in_pre_order():
    def obj(rule, conclusion, *premises):
        return {"rule": rule, "conclusion": conclusion, "premises": list(premises)}

    unknown_rule = obj("Huh", "a |- a")
    bad_sequent = obj("Ax", "a |-")
    with pytest.raises(ParseError):
        tree_from_json_dict(obj("OrL", "a | a |- a", bad_sequent, unknown_rule))
    with pytest.raises(ValueError, match="unknown rule name 'Huh'"):
        tree_from_json_dict(obj("OrL", "a | a |- a", unknown_rule, bad_sequent))
    # pre-order, not breadth first: (0, 0) comes before (1,)
    with pytest.raises(ParseError):
        tree_from_json_dict(
            obj("OrL", "a | a |- a", obj("OrR1", "a |- a | b", bad_sequent), unknown_rule)
        )
    # within a node, its fields are checked before its conclusion is parsed
    with pytest.raises(ValueError, match="premises must be a list"):
        tree_from_json_dict(obj("OneL", "1 |- a", {**bad_sequent, "premises": 0}))


def test_deep_tree_json_dicts_round_trip():
    # the dict converters keep their own stack; `json` itself still recurses
    tree = leaf(RuleId.AX, "a |- a")
    for _ in range(1500):
        tree = node(RuleId.CUT, "a |- a", tree, leaf(RuleId.AX, "a |- a"))
    back = tree_from_json_dict(tree_to_json_dict(tree))
    assert check_proof(KL, back, allow_cut=True) is None
    assert render_tree(back) == render_tree(tree)


def test_tree_json_rejects_unknown_rule():
    with pytest.raises(ValueError):
        tree_from_json('{"rule": "Frobnicate", "conclusion": "a |- a", "premises": []}')


def test_tree_json_rejects_missing_keys():
    with pytest.raises(ValueError):
        tree_from_json('{"rule": "Ax", "premises": []}')


def test_render_tree_layout():
    text = render_tree(star_unfold_tree())
    lines = text.splitlines()
    assert lines[0] == "1 | a . a? |- a?   [OrL]"
    assert lines[1] == "  1 |- a?   [OneL]"
    assert all("[" in line for line in lines)


# --- cut admissibility within kl (positive side) --------------------------------


def test_cut_conclusions_reprove_cut_free_in_kl():
    composite = node(
        RuleId.CUT,
        "a, b |- a . b",
        leaf(RuleId.AX, "a . b |- a . b"),
        node(
            RuleId.FUSE_R,
            "a, b |- a . b",
            leaf(RuleId.AX, "a |- a"),
            leaf(RuleId.AX, "b |- b"),
        ),
    )
    assert check_proof(KL, composite, allow_cut=True) is None
    assert Prover(KL).prove(composite.conclusion) is not None
