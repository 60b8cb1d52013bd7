"""Command line front end: decide, prove, check, translate, crossval.

Exit codes are part of the contract: 0 for a positive answer, 1 for a
negative one (underivable sequent, failed check, crossval disagreement),
2 for usage, parse, or resource errors.  `run` maps every failure of a
command to exit 2, so a crash never reads as a negative answer.
"""

from __future__ import annotations

import argparse
import sys

from .syntax import (
    DEFAULT_STATE_CAP,
    LogicId,
    StateLimitError,
    parse_formula,
    parse_sequent,
    print_sequent,
)

# Each command imports the modules it runs, so that a one-query process does
# not pay to load (and, without cached bytecode, compile) the others.

DEFAULT_CROSSVAL_VARIABLES = frozenset(("a", "b"))


def format_word(word: tuple[str, ...]) -> str:
    if not word:
        return "ε"
    if all(len(letter) == 1 for letter in word):
        return "".join(word)
    return " ".join(word)


def _emit_json(payload: object) -> None:
    import json

    sys.stdout.write(json.dumps(payload) + "\n")


def _run_decide(args: argparse.Namespace, logic: LogicId) -> int:
    s = parse_sequent(args.input)
    from . import automata  # after parsing, so malformed input loads nothing more

    left, right = automata.decision_automata(logic, s)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(automata.to_dot(left, "left") + "\n")
            fh.write(automata.to_dot(right, "right") + "\n")
    result = automata.includes(left, right, args.state_cap)
    if args.format == "json":
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


def _run_prove(args: argparse.Namespace, logic: LogicId) -> int:
    from . import calculus

    s = parse_sequent(args.input)
    tree = calculus.Prover(logic, args.state_cap).prove(s)
    if args.format == "json":
        _emit_json(calculus.tree_to_json_dict(tree) if tree else None)
    elif tree is None:
        print("no proof")
    else:
        print(calculus.render_tree(tree))
    return 0 if tree is not None else 1


def _run_check(args: argparse.Namespace, logic: LogicId) -> int:
    from . import calculus

    tree = calculus.tree_from_json(args.input)
    violation = calculus.check_proof(logic, tree, allow_cut=args.allow_cut)
    if args.format == "json":
        _emit_json(
            {"ok": violation is None, "violation": str(violation) if violation else None}
        )
    elif violation is None:
        print(f"ok: proof of {print_sequent(tree.conclusion)}")
    else:
        print(f"invalid: {violation}")
    return 0 if violation is None else 1


def _run_translate(args: argparse.Namespace, logic: LogicId) -> int:
    from . import algebra

    if args.map == "i":
        term = algebra.map_i(algebra.parse_star_term(args.input))
    elif args.map == "j":
        term = algebra.map_j(algebra.parse_plus_term(args.input))
    else:
        term = algebra.Term(parse_formula(args.input), logic)
    rendered = algebra.print_term(term)
    if args.format == "json":
        _emit_json({"output": rendered})
    else:
        print(rendered)
    return 0


def _run_crossval(args: argparse.Namespace, logic: LogicId) -> int:
    from time import perf_counter

    from . import algebra, automata, calculus, oracle

    stats = {
        logic: {
            "total": 0,
            "derivable": 0,
            "disagreements": 0,
            "oracle_mismatches": 0,
            "prove_s": 0.0,  # wall time in each route
            "decide_s": 0.0,
        }
        for logic in LogicId
    }
    fragment_violations = 0
    provers = {logic: calculus.Prover(logic, args.state_cap) for logic in LogicId}
    for s in oracle.enumerate_sequents(DEFAULT_CROSSVAL_VARIABLES, args.max_size):
        proved = {}
        for logic in LogicId:
            row = stats[logic]
            row["total"] += 1
            t0 = perf_counter()
            by_search = provers[logic].derivable(s)
            t1 = perf_counter()
            decision = automata.decide(logic, s, state_cap=args.state_cap)
            row["prove_s"] += t1 - t0
            row["decide_s"] += perf_counter() - t1
            proved[logic] = by_search
            if by_search:
                row["derivable"] += 1
            if by_search != decision.derivable:
                row["disagreements"] += 1
            lhs, rhs = algebra.interpret_sequent(s, logic)
            bounded = oracle.bounded_inclusion(lhs, rhs, args.max_len)
            # a negative decision always carries a counterexample; the
            # oracle sees only those no longer than max_len
            if decision.derivable != bounded and (
                decision.derivable or len(decision.counterexample) <= args.max_len
            ):
                row["oracle_mismatches"] += 1
        if proved[LogicId.KL_PLUS] and not proved[LogicId.KL]:
            fragment_violations += 1
    # fragment_violations is reported but informational: the two logics
    # genuinely diverge (see README); the gate is search/semantics agreement
    bad = sum(
        row["disagreements"] + row["oracle_mismatches"] for row in stats.values()
    )
    if args.format == "json":
        _emit_json(
            {
                "max_size": args.max_size,
                "max_len": args.max_len,
                "logics": {
                    logic.value: stats[logic] for logic in LogicId
                },
                "fragment_violations": fragment_violations,
                "ok": bad == 0,
            }
        )
    else:
        print(f"cross-validation over {{a, b}} at size <= {args.max_size}:")
        header = (
            f"{'logic':<6} {'total':>7} {'derivable':>10} {'disagree':>9} {'oracle-miss':>12}"
            f" {'prove-s':>8} {'decide-s':>9}"
        )
        print(header)
        for logic in LogicId:
            row = stats[logic]
            print(
                f"{logic.value:<6} {row['total']:>7} {row['derivable']:>10}"
                f" {row['disagreements']:>9} {row['oracle_mismatches']:>12}"
                f" {row['prove_s']:>8.3f} {row['decide_s']:>9.3f}"
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


def run(args: argparse.Namespace, logic: LogicId) -> int:
    """Execute one parsed command, reading its `--file` input first; returns
    the process exit status."""
    try:
        if getattr(args, "file", None) is not None:
            with open(args.file, encoding="utf-8") as fh:
                args.input = fh.read()
        return _RUNNERS[args.command](args, logic)
    except RecursionError:
        # `compile`'s first walk, `json` and `==` on formulas that share no
        # nodes recurse on nesting; every other walk keeps its own stack
        message = "error: input nested too deeply"
    except StateLimitError as e:
        message = f"resource limit exceeded: {e}"
    except (ValueError, OSError) as e:
        # parse errors, malformed proof JSON, undecodable input, and files
        # that cannot be read or (`decide --dot`) written
        message = f"error: {e}"
    except MemoryError:
        # printing waits until the handler has exited and freed the
        # traceback, which still holds the failed search's tables
        message = "resource limit exceeded: out of memory"
    print(message, file=sys.stderr)
    return 2


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleeneseq",
        description="Decide and prove sequents of the substructural logics kl and kl+.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--logic",
            choices=[logic.value for logic in LogicId],
            default=None,
            help="which logic to use (default: kl, with a notice)",
        )
        p.add_argument("--format", choices=["text", "json"], default="text")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("input", nargs="?", help="inline input")
        source.add_argument("--file", help="read input from this path instead")

    p = sub.add_parser("decide", help="semantic decision via language inclusion")
    add_common(p)
    p.add_argument("--state-cap", type=_positive_int, default=DEFAULT_STATE_CAP)
    p.add_argument("--dot", metavar="FILE", help="dump the two automata in DOT format")

    p = sub.add_parser("prove", help="cut-free backward proof search")
    add_common(p)
    p.add_argument("--state-cap", type=_positive_int, default=DEFAULT_STATE_CAP)

    p = sub.add_parser("check", help="validate a JSON proof tree")
    add_common(p)
    p.add_argument("--allow-cut", action="store_true")

    p = sub.add_parser("translate", help="interpret a formula or apply a term map")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--map", choices=["i", "j"], help="star-to-plus (i) or plus-to-star (j)")
    group.add_argument(
        "--interpret",
        action="store_true",
        help="interpret a formula as a term of the selected logic",
    )

    p = sub.add_parser("crossval", help="enumeration agreement suite (both logics)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--max-size", type=_positive_int, default=4)
    p.add_argument("--max-len", type=_positive_int, default=6)
    p.add_argument("--state-cap", type=_positive_int, default=DEFAULT_STATE_CAP)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    uses_logic = args.command in ("decide", "prove", "check") or (
        args.command == "translate" and args.interpret
    )
    if getattr(args, "logic", None) is None:  # crossval runs both, so has none
        if uses_logic:
            print("note: no --logic given, defaulting to kl", file=sys.stderr)
        logic = LogicId.KL
    else:
        logic = LogicId(args.logic)

    return run(args, logic)


if __name__ == "__main__":
    sys.exit(main())
