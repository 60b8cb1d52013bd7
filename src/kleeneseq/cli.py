"""Command line front end: decide, prove, check, translate, crossval.

Exit codes are part of the contract: 0 for a positive answer, 1 for a
negative one (underivable sequent, failed check, crossval disagreement),
2 for usage, parse, or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import algebra, automata, calculus, oracle
from .calculus import LogicId
from .syntax import parse_formula, parse_sequent, print_sequent

DEFAULT_CROSSVAL_VARIABLES = frozenset(("a", "b"))


@dataclass
class RunConfig:
    command: str
    logic: LogicId
    input_text: str | None = None
    fmt: str = "text"
    allow_cut: bool = False
    max_size: int = 4
    max_len: int = 6
    state_cap: int = automata.DEFAULT_STATE_CAP
    dot_path: str | None = None
    translate_map: str | None = None  # "i", "j", or None for interpret


def format_word(word: tuple[str, ...]) -> str:
    if not word:
        return "ε"
    if all(len(letter) == 1 for letter in word):
        return "".join(word)
    return " ".join(word)


def _emit_json(payload: object) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _run_decide(config: RunConfig) -> int:
    s = parse_sequent(config.input_text or "")
    if config.dot_path:
        left, right = automata.decision_automata(config.logic, s)
        with open(config.dot_path, "w", encoding="utf-8") as fh:
            fh.write(automata.to_dot(left, "left") + "\n")
            fh.write(automata.to_dot(right, "right") + "\n")
    result = automata.decide(config.logic, s, state_cap=config.state_cap)
    if config.fmt == "json":
        _emit_json(
            {
                "derivable": result.derivable,
                "counterexample": list(result.counterexample)
                if result.counterexample is not None
                else None,
            }
        )
    elif result.derivable:
        print("derivable")
    else:
        print(f"not derivable (counterexample: {format_word(result.counterexample)})")
    return 0 if result.derivable else 1


def _run_prove(config: RunConfig) -> int:
    s = parse_sequent(config.input_text or "")
    tree = calculus.prove(config.logic, s)
    if config.fmt == "json":
        _emit_json(calculus.tree_to_json_dict(tree) if tree else None)
    elif tree is None:
        print("no proof")
    else:
        print(calculus.render_tree(tree))
    return 0 if tree is not None else 1


def _run_check(config: RunConfig) -> int:
    tree = calculus.tree_from_json(config.input_text or "")
    violation = calculus.check_proof(config.logic, tree, allow_cut=config.allow_cut)
    if config.fmt == "json":
        _emit_json(
            {"ok": violation is None, "violation": str(violation) if violation else None}
        )
    elif violation is None:
        print(f"ok: proof of {print_sequent(tree.conclusion)}")
    else:
        print(f"invalid: {violation}")
    return 0 if violation is None else 1


def _run_translate(config: RunConfig) -> int:
    text = config.input_text or ""
    if config.translate_map == "i":
        term = algebra.map_i(algebra.parse_star_term(text))
    elif config.translate_map == "j":
        term = algebra.map_j(algebra.parse_plus_term(text))
    else:
        term = algebra.interpret(parse_formula(text), config.logic)
    rendered = algebra.print_term(term)
    if config.fmt == "json":
        _emit_json({"output": rendered})
    else:
        print(rendered)
    return 0


def _run_crossval(config: RunConfig) -> int:
    stats = {
        logic: {"total": 0, "derivable": 0, "disagreements": 0, "oracle_mismatches": 0}
        for logic in LogicId
    }
    fragment_violations = 0
    provers = {logic: calculus.Prover(logic) for logic in LogicId}
    for s in oracle.enumerate_sequents(DEFAULT_CROSSVAL_VARIABLES, config.max_size):
        proved = {}
        for logic in LogicId:
            row = stats[logic]
            row["total"] += 1
            by_search = provers[logic].derivable(s)
            decision = automata.decide(logic, s, state_cap=config.state_cap)
            proved[logic] = by_search
            if by_search:
                row["derivable"] += 1
            if by_search != decision.derivable:
                row["disagreements"] += 1
            lhs, rhs = algebra.interpret_sequent(s, logic)
            bounded = oracle.bounded_inclusion(lhs, rhs, config.max_len)
            if decision.derivable and not bounded:
                row["oracle_mismatches"] += 1
            if (
                not decision.derivable
                and decision.counterexample is not None
                and len(decision.counterexample) <= config.max_len
                and bounded
            ):
                row["oracle_mismatches"] += 1
        if proved[LogicId.KL_PLUS] and not proved[LogicId.KL]:
            fragment_violations += 1
    # fragment_violations is reported but informational: the two logics
    # genuinely diverge (see README); the gate is search/semantics agreement
    bad = sum(
        row["disagreements"] + row["oracle_mismatches"] for row in stats.values()
    )
    if config.fmt == "json":
        _emit_json(
            {
                "max_size": config.max_size,
                "max_len": config.max_len,
                "logics": {
                    logic.value: stats[logic] for logic in LogicId
                },
                "fragment_violations": fragment_violations,
                "ok": bad == 0,
            }
        )
    else:
        print(f"cross-validation over {{a, b}} at size <= {config.max_size}:")
        header = f"{'logic':<6} {'total':>7} {'derivable':>10} {'disagree':>9} {'oracle-miss':>12}"
        print(header)
        for logic in LogicId:
            row = stats[logic]
            print(
                f"{logic.value:<6} {row['total']:>7} {row['derivable']:>10}"
                f" {row['disagreements']:>9} {row['oracle_mismatches']:>12}"
            )
        print(f"fragment violations: {fragment_violations}")
        print("ok" if bad == 0 else "DISAGREEMENTS FOUND")
    return 0 if bad == 0 else 1


_RUNNERS = {
    "decide": _run_decide,
    "prove": _run_prove,
    "check": _run_check,
    "translate": _run_translate,
    "crossval": _run_crossval,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        return _RUNNERS[config.command](config)
    except automata.StateLimitError as e:
        print(f"resource limit exceeded: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # covers parse errors and malformed proof JSON
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:  # the parsers, printers and checker recurse on nesting
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleeneseq",
        description="Decide and prove sequents of the substructural logics kl and kl+.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        p.add_argument(
            "--logic",
            choices=[logic.value for logic in LogicId],
            default=None,
            help="which logic to use (default: kl, with a notice)",
        )
        p.add_argument("--format", choices=["text", "json"], default="text")
        if with_input:
            p.add_argument("input", nargs="?", help="inline input")
            p.add_argument("--file", help="read input from this path instead")

    p = sub.add_parser("decide", help="semantic decision via language inclusion")
    add_common(p)
    p.add_argument("--state-cap", type=_positive_int, default=automata.DEFAULT_STATE_CAP)
    p.add_argument("--dot", metavar="FILE", help="dump the two automata in DOT format")

    p = sub.add_parser("prove", help="cut-free backward proof search")
    add_common(p)

    p = sub.add_parser("check", help="validate a JSON proof tree")
    add_common(p)
    p.add_argument("--allow-cut", action="store_true")

    p = sub.add_parser("translate", help="interpret a formula or apply a term map")
    add_common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--map", choices=["i", "j"], help="star-to-plus (i) or plus-to-star (j)")
    group.add_argument(
        "--interpret",
        action="store_true",
        help="interpret a formula as a term of the selected logic",
    )

    p = sub.add_parser("crossval", help="enumeration agreement suite (both logics)")
    add_common(p, with_input=False)
    p.add_argument("--max-size", type=_positive_int, default=4)
    p.add_argument("--max-len", type=_positive_int, default=6)
    p.add_argument("--state-cap", type=_positive_int, default=automata.DEFAULT_STATE_CAP)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    uses_logic = args.command in ("decide", "prove", "check") or (
        args.command == "translate" and getattr(args, "map", None) is None
    )
    if args.logic is None:
        if uses_logic:
            print("note: no --logic given, defaulting to kl", file=sys.stderr)
        logic = LogicId.KL
    else:
        logic = LogicId(args.logic)

    input_text: str | None = None
    if args.command != "crossval":
        if args.file is not None and args.input is not None:
            parser.error("give inline input or --file, not both")
        if args.file is not None:
            try:
                with open(args.file, encoding="utf-8") as fh:
                    input_text = fh.read()
            except (OSError, UnicodeDecodeError) as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
        elif args.input is not None:
            input_text = args.input
        else:
            parser.error("missing input (inline or --file)")

    config = RunConfig(
        command=args.command,
        logic=logic,
        input_text=input_text,
        fmt=args.format,
        allow_cut=getattr(args, "allow_cut", False),
        max_size=getattr(args, "max_size", 4),
        max_len=getattr(args, "max_len", 6),
        state_cap=getattr(args, "state_cap", automata.DEFAULT_STATE_CAP),
        dot_path=getattr(args, "dot", None),
        translate_map=getattr(args, "map", None),
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
