import json

import pytest

from kleeneseq import calculus
from kleeneseq.calculus import LogicId, RuleId
from kleeneseq.cli import format_word, main
from kleeneseq.syntax import parse_sequent

from cut_corpus import cut, leaf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- decide -------------------------------------------------------------------


def test_decide_derivable(capsys):
    code, out, err = run(capsys, "decide", "--logic", "kl", "1 | a.a? |- a?")
    assert code == 0
    assert out.strip() == "derivable"
    assert err == ""


def test_decide_not_derivable_with_epsilon_counterexample(capsys):
    code, out, _ = run(capsys, "decide", "--logic", "kl+", "|- a?")
    assert code == 1
    assert out.strip() == "not derivable (counterexample: ε)"


def test_decide_json(capsys):
    code, out, _ = run(capsys, "decide", "--logic", "kl", "--format", "json", "a? |- a")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"derivable": False, "counterexample": []}


def test_decide_default_logic_notice(capsys):
    code, out, err = run(capsys, "decide", "a |- a")
    assert code == 0
    assert "defaulting to kl" in err


def test_decide_explicit_logic_is_quiet(capsys):
    _, _, err = run(capsys, "decide", "--logic", "kl", "a |- a")
    assert err == ""


def test_decide_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--logic", "kl", "a |-")
    assert code == 2
    assert "error" in err


def test_decide_deeply_nested_formula_exit_2(capsys):
    text = "(" * 300 + "a" + ")" * 300 + " |- a"
    code, out, err = run(capsys, "decide", "--logic", "kl", text)
    assert (code, out) == (2, "")
    assert err == "error: input nested too deeply\n"


def test_decide_dot_dump(capsys, tmp_path):
    target = tmp_path / "automata.dot"
    code, _, _ = run(
        capsys, "decide", "--logic", "kl", "--dot", str(target), "a |- a?"
    )
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert "digraph left {" in text and "digraph right {" in text


def test_decide_state_cap_error_is_distinct(capsys):
    code, out, err = run(
        capsys,
        "decide",
        "--logic",
        "kl",
        "--state-cap",
        "2",
        "(a | b)? |- (a | b)? . (a | b)?",
    )
    assert code == 2
    assert "resource limit" in err
    assert "not derivable" not in out


def test_decide_file_input(capsys, tmp_path):
    path = tmp_path / "sequent.txt"
    path.write_text("a |- a\n", encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--logic", "kl", "--file", str(path))
    assert code == 0 and out.strip() == "derivable"


def test_decide_non_utf8_file_exit_2(capsys, tmp_path):
    path = tmp_path / "sequent.txt"
    path.write_bytes(b"a \xff |- a")
    code, out, err = run(capsys, "decide", "--logic", "kl", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_missing_input_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--logic", "kl"])
    assert exc.value.code == 2


# --- prove --------------------------------------------------------------------


def test_prove_text(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "kl", "1 | a.a? |- a?")
    assert code == 0
    assert "[OrL]" in out and "[AxQ]" in out


def test_prove_no_proof(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "kl+", "|- a?")
    assert code == 1
    assert out.strip() == "no proof"


def test_prove_json_checks(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "kl+", "--format", "json", "a |- a?")
    assert code == 0
    tree = calculus.tree_from_json(out)
    assert calculus.check_proof(LogicId.KL_PLUS, tree) is None


def test_prove_json_null_when_unprovable(capsys):
    code, out, _ = run(capsys, "prove", "--logic", "kl+", "--format", "json", "|- a?")
    assert code == 1
    assert json.loads(out) is None


# --- check --------------------------------------------------------------------


def _cut_tree_json():
    tree = cut("a |- a", leaf(RuleId.AX, "a |- a"), leaf(RuleId.AX, "a |- a"))
    return calculus.tree_to_json(tree)


def test_check_valid_tree(capsys, tmp_path):
    path = tmp_path / "proof.json"
    path.write_text(
        calculus.tree_to_json(calculus.prove(LogicId.KL, parse_sequent("a, b |- a . b"))),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "check", "--logic", "kl", "--file", str(path))
    assert code == 0
    assert out.startswith("ok:")


def test_check_cut_rejected_without_flag(capsys):
    code, out, _ = run(capsys, "check", "--logic", "kl", _cut_tree_json())
    assert code == 1
    assert "Cut" in out


def test_check_cut_accepted_with_flag(capsys):
    code, out, _ = run(
        capsys, "check", "--logic", "kl", "--allow-cut", _cut_tree_json()
    )
    assert code == 0


def test_check_json_format(capsys):
    code, out, _ = run(
        capsys, "check", "--logic", "kl", "--format", "json", _cut_tree_json()
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and "Cut" in payload["violation"]


def test_check_malformed_json_exit_2(capsys):
    code, _, err = run(capsys, "check", "--logic", "kl", "{not json")
    assert code == 2 and "error" in err


def test_check_deeply_nested_json_exit_2(capsys):
    depth = 3000
    text = (
        '{"rule": "OneL", "conclusion": "1 |- a", "premises": [' * depth
        + '{"rule": "Ax", "conclusion": "a |- a", "premises": []}'
        + "]}" * depth
    )
    code, out, err = run(capsys, "check", "--logic", "kl", text)
    assert (code, out) == (2, "")
    assert err == "error: input nested too deeply\n"


def test_check_unknown_rule_exit_2(capsys):
    code, _, err = run(
        capsys,
        "check",
        "--logic",
        "kl",
        '{"rule": "Huh", "conclusion": "a |- a", "premises": []}',
    )
    assert code == 2


# --- translate ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("translate", "--map", "j", "a^"), "a.a*"),
        (("translate", "--map", "j", "a^^"), "a.a*.(a.a*)*"),
        (("translate", "--map", "i", "a*"), "1+a^"),
        (("translate", "--map", "i", "a.b*"), "a.(1+b^)"),
        (("translate", "--interpret", "--logic", "kl", "a?"), "a*"),
        (("translate", "--interpret", "--logic", "kl+", "1 | a.a?"), "1+a.a^"),
    ],
)
def test_translate(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_translate_json(capsys):
    code, out, _ = run(
        capsys, "translate", "--format", "json", "--map", "j", "--logic", "kl", "a^"
    )
    assert code == 0
    assert json.loads(out) == {"output": "a.a*"}


def test_translate_wrong_operator_family_exit_2(capsys):
    code, _, err = run(capsys, "translate", "--map", "j", "--logic", "kl", "a*")
    assert code == 2 and "error" in err


# --- crossval -------------------------------------------------------------------


def test_crossval_small_sizes_agree(capsys):
    code, out, _ = run(capsys, "crossval", "--max-size", "3")
    assert code == 0
    assert "ok" in out
    assert "fragment violations: 3" in out


def test_crossval_json(capsys):
    code, out, _ = run(capsys, "crossval", "--max-size", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["logics"]["kl"]["disagreements"] == 0
    assert payload["logics"]["kl+"]["disagreements"] == 0


def test_crossval_reports_divergence_from_size_5(capsys):
    # at size 5 the interior-empty-query divergence becomes visible; the
    # command reports it honestly and signals failure
    code, out, _ = run(capsys, "crossval", "--max-size", "5")
    assert code == 1
    assert "DISAGREEMENTS FOUND" in out


# --- misc -----------------------------------------------------------------------


def test_format_word():
    assert format_word(()) == "ε"
    assert format_word(("a", "b")) == "ab"
    assert format_word(("ab", "b")) == "ab b"


def test_both_inline_and_file_rejected(capsys, tmp_path):
    path = tmp_path / "x"
    path.write_text("a |- a", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--logic", "kl", "a |- a", "--file", str(path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("crossval", "--max-size", "0"),
        ("crossval", "--max-len", "-3"),
        ("decide", "--logic", "kl", "--state-cap", "0", "a |- a"),
    ],
)
def test_nonpositive_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--logic", "kl", "--file", "/nonexistent/q")
    assert code == 2 and "error" in err
