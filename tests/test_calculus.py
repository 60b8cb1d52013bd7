import json

import pytest
from hypothesis import given, settings

from kleeneseq import automata, oracle
from kleeneseq.calculus import (
    LogicId,
    ProofTree,
    Prover,
    RuleId,
    applicable_rules,
    check_proof,
    derivable,
    flatten_antecedent,
    goal_subformulas,
    prove,
    render_tree,
    tree_from_json,
    tree_to_json,
    tree_to_json_dict,
)
from kleeneseq.syntax import parse_sequent, print_sequent, sequent_size
from strategies import sequents

KL, KLP = LogicId.KL, LogicId.KL_PLUS


def leaf(rule, text):
    return ProofTree(parse_sequent(text), rule)


def node(rule, text, *children):
    return ProofTree(parse_sequent(text), rule, tuple(children))


# --- applicable_rules ---------------------------------------------------------


def test_axiom_query_only_in_kl():
    goal = parse_sequent("|- a?")
    kl_rules = {app.rule for app in applicable_rules(KL, goal)}
    klp_apps = applicable_rules(KLP, goal)
    assert RuleId.AX_Q in kl_rules
    assert all(app.rule is RuleId.PLUS_Q for app in klp_apps)
    assert [app.premises for app in klp_apps] == [(parse_sequent("|- a"),)]


def test_fuse_right_splits():
    goal = parse_sequent("a, b |- a . b")
    splits = [
        app.premises for app in applicable_rules(KL, goal) if app.rule is RuleId.FUSE_R
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
        apps = [a for a in applicable_rules(KL, parse_sequent(text)) if a.rule is rule]
        assert apps and all(a.premises == () for a in apps)


def test_no_rule_applies_to_interior_query_with_atomic_succedent():
    assert applicable_rules(KLP, parse_sequent("a, 0?, a |- a")) == []


def test_dist_requires_shared_left_factor():
    assert any(
        app.rule is RuleId.DIST
        for app in applicable_rules(KL, parse_sequent("|- a.b | a.c"))
    )
    assert not any(
        app.rule is RuleId.DIST
        for app in applicable_rules(KL, parse_sequent("|- a.b | b.c"))
    )


def test_query_right_splits_never_repeat_the_goal():
    goal = parse_sequent("a? |- a?")
    for app in applicable_rules(KL, goal):
        assert goal not in app.premises


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
    closure = goal_subformulas(s)
    for logic in (KL, KLP):
        for app in applicable_rules(logic, s):
            for i, premise in enumerate(app.premises):
                if app.rule in reset_rules and i == 0:
                    assert all(f in closure for f in premise.antecedent)
                    assert premise.succedent in closure
                else:
                    assert sequent_size(premise) < sequent_size(s), (
                        logic,
                        app.rule,
                        print_sequent(s),
                        print_sequent(premise),
                    )


def test_rule_instances_match_oracle_expansions():
    """The rules are stated once, in the calculus; the oracle restates them
    independently.  Both must propose the same premise tuples at every goal."""
    for logic in (KL, KLP):
        for s in oracle.enumerate_sequents({"a", "b"}, 5):
            ours = {app.premises for app in applicable_rules(logic, s)}
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


def test_check_reports_deep_violation_path():
    tree = node(
        RuleId.OR_L,
        "a | a |- a",
        leaf(RuleId.AX, "a |- a"),
        leaf(RuleId.AX_Q, "a |- a"),  # wrong rule at path (1,)
    )
    violation = check_proof(KL, tree)
    assert violation is not None and violation.path == (1,)


def test_check_rejects_leaf_claiming_a_unary_rule():
    # only Ax, AxQ, OneR and ZeroL close a branch
    violation = check_proof(KL, leaf(RuleId.OR_R1, "a |- a | b"))
    assert violation is not None
    violation = check_proof(KL, leaf(RuleId.ONE_L, "1 |- 1"))
    assert violation is not None


def test_check_accepts_empty_delta_query_right_instance():
    # splitting with an empty left part repeats the goal; legal to check,
    # never proposed by search
    tree = node(
        RuleId.Q_INTRO_R2,
        "a |- a?",
        leaf(RuleId.AX, "a |- a"),
        leaf(RuleId.AX_Q, "|- a?"),
    )
    assert check_proof(KL, tree) is None


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
    tree = prove(logic, goal)
    assert (tree is not None) == expected
    assert derivable(logic, goal) == expected
    if tree is not None:
        assert tree.conclusion == goal
        assert check_proof(logic, tree, allow_cut=False) is None


def test_prove_prefers_small_proofs():
    tree = prove(KLP, parse_sequent("a |- a?"))
    assert tree.rule is RuleId.PLUS_Q
    assert tree.premises[0].rule is RuleId.AX
    assert prove(KL, parse_sequent("a |- a")).rule is RuleId.AX


def test_fresh_prover_matches_shared_one():
    prover = Prover(KL)
    for text in ("a |- a", "|- a?", "a? |- a", "a, b |- a . b"):
        s = parse_sequent(text)
        assert prover.derivable(s) == derivable(KL, s)


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
    assert prove(KLP, s) is None
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
    assert prove(KL, s) is None


def test_query_of_zero_separates_the_logics():
    """0? means "no iterations" under star but "at least one failing pass"
    under plus, so "0? |- a" holds only in kl+ and "0? |- 1" only in kl."""
    s = parse_sequent("0? |- a")
    assert prove(KLP, s) is not None
    assert automata.decide(KLP, s).derivable
    assert prove(KL, s) is None
    assert not automata.decide(KL, s).derivable
    t = parse_sequent("0? |- 1")
    assert prove(KL, t) is not None
    assert prove(KLP, t) is not None  # empty language is below everything


# --- flattening -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a, b, c |- d", "a . b . c |- d"),
        ("|- d", "1 |- d"),
        ("a |- d", "a |- d"),
    ],
)
def test_flatten_antecedent(text, expected):
    assert flatten_antecedent(parse_sequent(text)) == parse_sequent(expected)


def test_flatten_preserves_derivability_small():
    for logic in (KL, KLP):
        prover = Prover(logic)
        for names, bound in (({"a"}, 4), ({"a", "b"}, 3)):
            for s in oracle.enumerate_sequents(names, bound):
                assert prover.derivable(s) == prover.derivable(flatten_antecedent(s)), (
                    logic,
                    print_sequent(s),
                )


# --- serialization ----------------------------------------------------------------


def test_tree_json_round_trip():
    tree = prove(KL, parse_sequent("1 | a.a? |- a?"))
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
    assert prove(KL, composite.conclusion) is not None
