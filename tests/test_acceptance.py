"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
Criterion 1 currently fails, for a real reason that is documented and
pinned down to witnesses: cut-free backward search for kl+ cannot reach
semantically valid sequents that carry an empty-language query in an
interior antecedent position.  The assertion states the criterion as given
and reports the measured counts rather than hiding them.  Criterion 2 reads
the fragment property through the map j, since kl+ is not contained in kl
sequent-for-sequent (kl+ derives "0? |- a", kl does not).
"""

import time

import pytest

from kleeneseq import algebra as alg
from kleeneseq import oracle
from kleeneseq.automata import accepts, compile, decide, equivalent, includes
from kleeneseq.calculus import LogicId, Prover, check_proof
from kleeneseq.syntax import (
    Formula,
    Fuse,
    Or,
    Query,
    Sequent,
    formula_size,
    parse_sequent,
    print_sequent,
)
from cut_corpus import CORPUS
from strategies import seeded_term_pairs

KL, KLP = LogicId.KL, LogicId.KL_PLUS
VARIABLES = frozenset(("a", "b"))
ENUM_BOUND = 6


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def enumeration_results():
    """prove/decide verdicts for every sequent of the exhaustive enumeration,
    plus the single-threaded wall time the sweep took."""
    start = time.time()
    provers = {logic: Prover(logic) for logic in (KL, KLP)}
    rows = []
    for s in oracle.enumerate_sequents(VARIABLES, ENUM_BOUND):
        rows.append(
            (
                s,
                provers[KL].derivable(s),
                provers[KLP].derivable(s),
                decide(KL, s).derivable,
                decide(KLP, s).derivable,
            )
        )
    return rows, time.time() - start


def j_formula(f: Formula) -> Formula:
    """Formula-level lift of the map j: F? becomes j(F).j(F)?, and the rest
    is homomorphic, so its kl reading is j of the kl+ reading of f."""
    if isinstance(f, Query):
        body = j_formula(f.body)
        return Fuse(body, Query(body))
    if isinstance(f, Or):
        return Or(j_formula(f.left), j_formula(f.right))
    if isinstance(f, Fuse):
        return Fuse(j_formula(f.left), j_formula(f.right))
    return f


def j_sequent(s: Sequent) -> Sequent:
    return Sequent(tuple(map(j_formula, s.antecedent)), j_formula(s.succedent))


@pytest.fixture(scope="module")
def j_verdicts(enumeration_results):
    """kl search verdict on j(s) for every kl+-derivable sequent s of the
    enumeration, computed apart from the timed sweep with one tabled kl
    Prover."""
    rows, _ = enumeration_results
    prover = Prover(KL)
    return {s: prover.derivable(j_sequent(s)) for s, _, pp, _, _ in rows if pp}


def test_c1_prover_semantics_agreement(enumeration_results):
    """Criterion 1: prove(logic, s) succeeds iff decide(logic, s), for every
    sequent of the enumeration and both logics; zero disagreements."""
    rows, elapsed = enumeration_results
    disagreements = {
        KL: [s for s, pk, _, dk, _ in rows if pk != dk],
        KLP: [s for s, _, pp, _, dp in rows if pp != dp],
    }
    total = len(rows)
    counts = {logic: len(v) for logic, v in disagreements.items()}
    ok = counts[KL] == 0 and counts[KLP] == 0 and elapsed < 600
    detail = (
        f"{total} sequents swept in {elapsed:.0f}s;"
        f" disagreements kl={counts[KL]} kl+={counts[KLP]}"
    )
    if not ok:
        witnesses = ", ".join(
            print_sequent(s) for s in disagreements[KLP][:5]
        )
        detail += f"; first kl+ witnesses: {witnesses}"
    report("criterion 1 (prover/semantics agreement)", ok, detail)
    assert elapsed < 600
    assert counts[KL] == 0 and counts[KLP] == 0, (
        f"search and semantic decision disagree on {counts[KLP]} kl+ sequents "
        f"(and {counts[KL]} kl sequents) out of {total}; e.g. "
        + "; ".join(print_sequent(s) for s in disagreements[KLP][:5])
        + ". Each is plus-semantics valid (its left side denotes the empty "
        "language) but carries a query in an interior antecedent position, "
        "which no cut-free left rule of kl+ can act on."
    )


def test_c2_fragment_property(enumeration_results, j_verdicts):
    """Criterion 2: kl+ embeds in kl through the map j. For every sequent s
    of the enumeration, if kl+ search proves s then kl search proves j(s),
    where j is lifted to formulas (F? becomes j(F).j(F)?) and its kl reading
    is checked against algebra.map_j on every formula; zero violations, with
    the strictness witness '|- a?' (kl proves it, kl+ does not).

    The containment is not read sequent-for-sequent: 0? is the empty
    language under plus but {ε} under star, so "0? |- a" is valid in kl+
    language models only, and by the completeness of each logic for its
    language models kl+ derives it while kl does not.  The repository holds
    only the paper's abstract, so the paper's own wording of the fragment
    claim cannot be checked here; j is the bridge between the two logics
    that the README documents, preserving languages and order."""
    rows, _ = enumeration_results
    formulas = {f for s, *_ in rows for f in (*s.antecedent, s.succedent)}
    lift_mismatches = [
        f
        for f in formulas
        if alg.Term(j_formula(f), KL) != alg.map_j(alg.Term(f, KLP))
    ]
    violations = [s for s, proved in j_verdicts.items() if not proved]
    plain = [s for s, pk, pp, _, _ in rows if pp and not pk]
    strict = [s for s, pk, pp, _, _ in rows if pk and not pp]
    witness = parse_sequent("|- a?")
    strictness_ok = witness in strict
    ok = not violations and not lift_mismatches and strictness_ok
    detail = (
        f"{len(violations)} of {len(j_verdicts)} kl+-derivable sequents s have"
        f" kl-underivable j(s); {len(lift_mismatches)} of {len(formulas)}"
        " formulas disagree with map_j; strictness witness '|- a?'"
        f" {'holds' if strictness_ok else 'missing'}; for information,"
        f" {len(plain)} kl+-derivable sequents are kl-underivable as they"
        " stand (e.g. '0? |- a': 0? is empty under plus, {ε} under star)"
    )
    if violations:
        detail += "; first: " + ", ".join(print_sequent(s) for s in violations[:5])
    report("criterion 2 (fragment property through j)", ok, detail)
    assert strictness_ok
    assert not lift_mismatches, lift_mismatches[:5]
    assert not violations, (
        f"{len(violations)} sequents s are kl+-derivable but j(s) is "
        "kl-underivable, e.g. " + "; ".join(print_sequent(s) for s in violations[:5])
    )


def test_c3_translation_maps():
    """Criterion 3: on 1,000 generated term pairs of size <= 8, the
    star/plus translations preserve languages and order both ways."""
    start = time.time()
    star_pairs = seeded_term_pairs(seed=1201, count=500, max_size=8, plus_family=False)
    plus_pairs = seeded_term_pairs(seed=1202, count=500, max_size=8, plus_family=True)
    violations = []
    for x, y in star_pairs:
        ix, iy = alg.map_i(x), alg.map_i(y)
        if not equivalent(compile(ix), compile(x)):
            violations.append(("i-language", x))
        forward = includes(compile(x), compile(y)).derivable
        translated = includes(compile(ix), compile(iy)).derivable
        if forward != translated:
            violations.append(("i-order", x, y))
    for x, y in plus_pairs:
        jx, jy = alg.map_j(x), alg.map_j(y)
        if not equivalent(compile(jx), compile(x)):
            violations.append(("j-language", x))
        forward = includes(compile(x), compile(y)).derivable
        translated = includes(compile(jx), compile(jy)).derivable
        if forward != translated:
            violations.append(("j-order", x, y))
    elapsed = time.time() - start
    ok = not violations and elapsed < 120
    report(
        "criterion 3 (translation maps)",
        ok,
        f"1000 pairs, {len(violations)} violations, {elapsed:.0f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 120


NAMED_SEQUENTS = [
    (KL, "1 | a.a? |- a?", True, None),
    (KL, "a?, a |- a . a?", True, None),
    (KLP, "|- a?", False, ()),
    (KLP, "a |- a?", True, None),
]


def test_c4_named_sequents():
    """Criterion 4: the four named sequents behave exactly as stated."""
    failures = []
    for logic, text, expected, cex in NAMED_SEQUENTS:
        s = parse_sequent(text)
        tree = Prover(logic).prove(s)
        decision = decide(logic, s)
        if (tree is not None) != expected or decision.derivable != expected:
            failures.append(text)
            continue
        if cex is not None and decision.counterexample != cex:
            failures.append(f"{text} (counterexample {decision.counterexample!r})")
        if tree is not None and check_proof(logic, tree) is not None:
            failures.append(f"{text} (proof fails checking)")
    ok = not failures
    report("criterion 4 (named sequents)", ok, f"4 sequents; failures: {failures or 'none'}")
    assert ok, failures


def test_c5_cut_corpus():
    """Criterion 5: >= 20 hand-written proofs using Cut all check under
    allow_cut, and every conclusion re-proves cut-free."""

    def uses_cut(tree):
        return tree.rule.value == "Cut" or any(uses_cut(p) for p in tree.premises)

    failures = []
    for i, (logic, tree) in enumerate(CORPUS):
        if not uses_cut(tree):
            failures.append(f"#{i} has no Cut node")
        violation = check_proof(logic, tree, allow_cut=True)
        if violation is not None:
            failures.append(f"#{i} fails checking: {violation}")
            continue
        cut_free = Prover(logic).prove(tree.conclusion)
        if cut_free is None:
            failures.append(f"#{i} conclusion has no cut-free proof")
        elif check_proof(logic, cut_free) is not None:
            failures.append(f"#{i} cut-free proof fails checking")
    ok = not failures and len(CORPUS) >= 20
    report(
        "criterion 5 (cut admissibility, empirical)",
        ok,
        f"{len(CORPUS)} trees; failures: {failures or 'none'}",
    )
    assert len(CORPUS) >= 20
    assert not failures, failures


def test_c6_automata_vs_enumeration_oracle():
    """Criterion 6: on 1,000 generated term pairs, inclusion agrees with the
    bounded word oracle and every counterexample re-verifies by membership."""
    start = time.time()
    max_len = 8
    violations = []
    star_pairs = seeded_term_pairs(seed=4401, count=500, max_size=8, plus_family=False)
    plus_pairs = seeded_term_pairs(seed=4402, count=500, max_size=8, plus_family=True)
    for pairs in (star_pairs, plus_pairs):
        for x, y in pairs:
            nx, ny = compile(x), compile(y)
            result = includes(nx, ny)
            bounded = oracle.bounded_inclusion(x, y, max_len)
            if result.derivable and not bounded:
                violations.append(("oracle refutes inclusion", x, y))
            if not result.derivable:
                cex = result.counterexample
                if not accepts(nx, cex) or accepts(ny, cex):
                    violations.append(("counterexample fails membership", x, y, cex))
                if len(cex) <= max_len and bounded:
                    violations.append(("oracle misses counterexample", x, y, cex))
    elapsed = time.time() - start
    ok = not violations
    report(
        "criterion 6 (automata vs word oracle)",
        ok,
        f"1000 pairs at max_len {max_len}, {len(violations)} violations, {elapsed:.0f}s",
    )
    assert not violations, violations[:5]


def test_c7_performance_floor():
    """Criterion 7: decide answers in under a second for sequents whose
    interpreted terms have <= 50 nodes over <= 4 variables."""
    texts = [
        "(a.b.c.d)?, ((a|b).(c|d))?, (a?.b?.c?.d?)? |- ((a|b|c|d)? . (a|b|c|d)?)?",
        "(a?|b?)?, ((a|b)? . (c|d)?)?, ((a.b)? | (c.d)?)?, (d.c.b.a)? |- ((((a|b).(c|d))?)?)?",
        "((((a|b)?.c)?.d)?.(b|c))?, ((((a|b)?.c)?.d)?.(b|c))?, a? |- (a|b|c|d)?",
        "(a|b|c|d)?, (d?.c?.b?.a?)?, ((a.b)?.(c.d)?)? |- (((a|b|c|d)?)? . 1)?",
    ]
    worst = 0.0
    sizes = []
    for text in texts:
        s = parse_sequent(text)
        lhs, rhs = alg.interpret_sequent(s, KL)
        size = formula_size(lhs.formula) + formula_size(rhs.formula)
        sizes.append(size)
        assert size <= 50
        for logic in (KL, KLP):
            start = time.time()
            decide(logic, s)
            worst = max(worst, time.time() - start)
    ok = worst < 1.0
    report(
        "criterion 7 (performance floor)",
        ok,
        f"{len(texts)} sequents (term sizes {sizes}), worst decide {worst * 1000:.0f}ms",
    )
    assert ok, f"decide took {worst:.2f}s"
