import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kleeneseq import automata, calculus
from kleeneseq.calculus import LogicId, RuleId
from kleeneseq.cli import _build_parser, format_word, main
from kleeneseq.syntax import DEFAULT_STATE_CAP, parse_sequent

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
    # parses (the parser keeps its own stack), but `decide` walks the
    # 2,001-deep formula recursively
    text = "a" + "?" * 2000 + " |- a"
    code, out, err = run(capsys, "decide", "--logic", "kl", text)
    assert (code, out) == (2, "")
    assert err == "error: input nested too deeply\n"


@pytest.mark.parametrize("fmt", ["json"])
def test_prove_deeply_nested_succedent_exit_2(capsys, fmt):
    # search, tree building and the tree's JSON object succeed; `json`
    # recurses on the 1,501-deep tree
    text = "a |- a" + "?" * 1500
    code, out, err = run(capsys, "prove", "--logic", "kl+", "--format", fmt, text)
    assert (code, out) == (2, "")
    assert err == "error: input nested too deeply\n"


def test_prove_deeply_nested_succedent_renders(capsys):
    # the printer keeps its own stack
    text = "a |- a" + "?" * 1500
    code, out, err = run(capsys, "prove", "--logic", "kl+", text)
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 1501)
    assert lines[0] == text + "   [PlusQ]"
    assert lines[-1] == " " * 3000 + "a |- a   [Ax]"


def test_prove_state_cap_error_is_distinct(capsys):
    text = ".".join(["a"] * 400) + " |- a?"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "prove", "--logic", "kl", "--state-cap", "1000", text)
    assert (code, out) == (2, "")
    assert err == "resource limit exceeded: proof search exceeded 1000 sequents\n"
    assert time.perf_counter() - t0 < 10


def test_decide_dot_dump(capsys, tmp_path):
    target = tmp_path / "automata.dot"
    code, _, _ = run(
        capsys, "decide", "--logic", "kl", "--dot", str(target), "a |- a?"
    )
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert "digraph left {" in text and "digraph right {" in text
    assert "ε" not in text


def test_decide_dot_compiles_each_side_once(capsys, tmp_path, monkeypatch):
    compiled = []
    real = automata.compile
    monkeypatch.setattr(automata, "compile", lambda t: compiled.append(t) or real(t))
    code, _, _ = run(
        capsys, "decide", "--logic", "kl", "--dot", str(tmp_path / "a.dot"), "a |- a?"
    )
    assert code == 0
    assert len(compiled) == 2


def test_decide_dot_unwritable_path_exit_2(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "automata.dot"
    code, out, err = run(capsys, "decide", "--logic", "kl", "--dot", str(target), "a |- a")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err


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
        calculus.tree_to_json(calculus.Prover(LogicId.KL).prove(parse_sequent("a, b |- a . b"))),
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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rule": ["Ax"], "conclusion": "a |- a", "premises": []}', "rule must be a string"),
        ('{"rule": "Ax", "conclusion": 5, "premises": []}', "conclusion must be a string"),
        ('{"rule": "Ax", "conclusion": null, "premises": []}', "conclusion must be a string"),
    ],
    ids=["rule-list", "conclusion-number", "conclusion-null"],
)
def test_check_non_string_field_exit_2(capsys, text, message):
    code, out, err = run(capsys, "check", "--logic", "kl", text)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "map_name, text, expected",
    [
        # each `^` under j copies its image, so depth here comes from `.`
        ("j", ".".join(["a^"] * 2000), "a.a*" + ".(a.a*)" * 1999),
        ("i", "a" + "*" * 2000, "1+" + "(1+" * 1999 + "a^" + ")^" * 1999),
    ],
    ids=["j-fuse-chain", "i-star-tower"],
)
def test_translate_deep_terms(capsys, map_name, text, expected):
    code, out, err = run(capsys, "translate", "--map", map_name, text)
    assert (code, out, err) == (0, expected + "\n", "")


def test_translate_output_is_bounded(capsys):
    # `a` with 18 `^` maps to a term of 786,430 nodes, which prints 1,048,573
    # bytes; with 19 it has 1,572,862, past the cap, and nothing is printed
    code, out, err = run(capsys, "translate", "--map", "j", "a" + "^" * 18)
    assert (code, len(out), err) == (0, 1_048_573, "")
    code, out, err = run(capsys, "translate", "--map", "j", "a" + "^" * 19)
    assert (code, out) == (2, "")
    assert err == "resource limit exceeded: term has 1572862 nodes, more than 1000000 to print\n"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "translate", "--map", "j", "a" + "^" * 30)
    assert (code, out) == (2, "") and err.startswith("resource limit exceeded: ")
    assert time.perf_counter() - t0 < 1


def test_translate_json(capsys):
    code, out, _ = run(
        capsys, "translate", "--format", "json", "--map", "j", "--logic", "kl", "a^"
    )
    assert code == 0
    assert json.loads(out) == {"output": "a.a*"}


def test_translate_wrong_operator_family_exit_2(capsys):
    code, _, err = run(capsys, "translate", "--map", "j", "--logic", "kl", "a*")
    assert code == 2 and "error" in err


def test_translate_needs_map_or_interpret(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["translate", "a"])
    assert exc.value.code == 2
    assert "one of the arguments --map --interpret is required" in capsys.readouterr().err


# --- crossval -------------------------------------------------------------------


def test_crossval_small_sizes_agree(capsys):
    code, out, _ = run(capsys, "crossval", "--max-size", "3")
    assert code == 0
    assert "ok" in out
    assert "fragment violations: 3" in out
    assert "prove-s" in out and "decide-s" in out


def test_crossval_json(capsys):
    code, out, _ = run(capsys, "crossval", "--max-size", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["logics"]["kl"]["disagreements"] == 0
    assert payload["logics"]["kl+"]["disagreements"] == 0
    for row in payload["logics"].values():
        assert row["prove_s"] >= 0 and row["decide_s"] >= 0


def test_crossval_takes_no_logic(capsys):
    # crossval always runs both logics
    with pytest.raises(SystemExit) as exc:
        main(["crossval", "--logic", "kl", "--max-size", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --logic kl" in capsys.readouterr().err


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
        ("decide", "--logic", "kl", "--state-cap", "abc", "a |- a"),
        ("crossval", "--max-size", "x"),
    ],
)
def test_nonpositive_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [("decide", "a |- a"), ("prove", "a |- a"), ("crossval",)], ids=lambda a: a[0]
)
def test_state_cap_defaults_to_the_library_bound(argv):
    assert _build_parser().parse_args(list(argv)).state_cap == DEFAULT_STATE_CAP


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--logic", "kl", "--file", "/nonexistent/q")
    assert code == 2 and "error" in err


# --- fresh processes ------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def python(*args):
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )


# Slow-to-import standard modules that no command needs: `inspect` pulls in
# `ast`, `dis` and `tokenize`.  (`typing` is left out: `site` may load it.)
_HEAVY_STDLIB = ("dataclasses", "inspect")

# Runs one command, then prints the kleeneseq modules and the heavy standard
# modules the process has loaded.
_LOADED_AFTER_MAIN = (
    "import sys; from kleeneseq.cli import main; main(sys.argv[1:]); "
    "print(*sorted(n for n in sys.modules if n.startswith('kleeneseq.') or n in %r))"
    % (_HEAVY_STDLIB,)
)


@pytest.mark.parametrize(
    "argv, runs, not_loaded",
    [
        (["decide", "--logic", "kl", "a |- a?"], {"automata"}, {"calculus", "oracle"}),
        (["prove", "--logic", "kl", "a |- a?"], {"calculus"}, {"algebra", "automata", "oracle"}),
        (
            ["check", "--logic", "kl", '{"rule": "Ax", "conclusion": "a |- a", "premises": []}'],
            {"calculus"},
            {"algebra", "automata", "oracle"},
        ),
        (["translate", "--map", "j", "a^"], {"algebra"}, {"automata", "oracle"}),
        # a malformed query exits 2 before loading what deciding needs
        (
            ["decide", "--logic", "kl", "a |-"],
            {"syntax"},
            {"algebra", "automata", "calculus", "oracle"},
        ),
    ],
)
def test_command_loads_only_its_modules(argv, runs, not_loaded):
    done = python("-c", _LOADED_AFTER_MAIN, *argv)
    assert done.returncode == 0, done.stderr
    loaded = {n.removeprefix("kleeneseq.") for n in done.stdout.splitlines()[-1].split()}
    assert runs <= loaded
    assert not loaded & not_loaded
    assert not loaded & set(_HEAVY_STDLIB)


# The first criterion-7 sequent: proving it in kl+ needs tens of MiB.
C7_1 = "(a.b.c.d)?, ((a|b).(c|d))?, (a?.b?.c?.d?)? |- ((a|b|c|d)? . (a|b|c|d)?)?"

# Caps the process's own address space at 8 MiB above what it has mapped
# after importing the CLI, keeping the hard limit, then runs one command.
_MAIN_UNDER_8_MIB_MORE = """
import resource, sys
from kleeneseq.cli import main
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
_, hard = resource.getrlimit(resource.RLIMIT_AS)
soft = (kib + 8 * 1024) * 1024
if hard != resource.RLIM_INFINITY:
    soft = min(soft, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
sys.exit(main(sys.argv[1:]))
"""


def test_out_of_memory_exit_2():
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    done = python("-c", _MAIN_UNDER_8_MIB_MORE, "prove", "--logic", "kl+", C7_1)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "resource limit exceeded: out of memory\n"


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["decide", "--logic", "kl", "1 | a.a? |- a?"], 0, "derivable\n"),
        (["prove", "--logic", "kl", "a |- b"], 1, "no proof\n"),
        (["decide", "--logic", "kl", "a |-"], 2, ""),
    ],
)
def test_module_entry_point(argv, code, stdout):
    done = python("-m", "kleeneseq.cli", *argv)
    assert (done.returncode, done.stdout) == (code, stdout)
