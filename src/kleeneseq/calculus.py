"""Inference rules of the logics kl and kl+, proof trees, checking, and search.

Both logics share the ordered-antecedent sequent judgment; kl+ swaps the
axiom closing `|- F?` for a weaker unary rule and replaces the two
query-on-the-left rules with variants that keep a copy of the iterated
formula.  Backward search is a demand-driven least fixpoint over the finite
space of sequents reachable through the rule schemas, so it decides
derivability exactly and returns cut-free, independently checkable trees.
"""

from __future__ import annotations

import json
from collections import deque
from enum import Enum
from functools import cache

from .syntax import (
    DEFAULT_STATE_CAP,
    Fuse,
    LogicId,
    One,
    Or,
    Query,
    Sequent,
    StateLimitError,
    Value,
    Zero,
    parse_sequent,
    print_sequent,
)


class RuleId(Enum):
    AX = "Ax"
    CUT = "Cut"
    OR_L = "OrL"
    OR_R1 = "OrR1"
    OR_R2 = "OrR2"
    FUSE_R = "FuseR"
    FUSE_L = "FuseL"
    DIST = "Dist"
    AX_Q = "AxQ"
    Q_INTRO_R1 = "QIntroR1"
    Q_INTRO_R2 = "QIntroR2"
    Q_INTRO_L1 = "QIntroL1"
    Q_INTRO_L2 = "QIntroL2"
    ONE_L = "OneL"
    ONE_R = "OneR"
    ZERO_L = "ZeroL"
    PLUS_Q = "PlusQ"
    PLUS_Q_L1 = "PlusQL1"
    PLUS_Q_L2 = "PlusQL2"


# Backward-search order: closure rules, unary right rules, left rules,
# splitting rules.  Order affects only the shape of the found proof.
_SEARCH_ORDER = {
    LogicId.KL: (
        RuleId.AX,
        RuleId.AX_Q,
        RuleId.ONE_R,
        RuleId.ZERO_L,
        RuleId.OR_R1,
        RuleId.OR_R2,
        RuleId.DIST,
        RuleId.ONE_L,
        RuleId.FUSE_L,
        RuleId.OR_L,
        RuleId.Q_INTRO_L1,
        RuleId.Q_INTRO_L2,
        RuleId.FUSE_R,
        RuleId.Q_INTRO_R1,
        RuleId.Q_INTRO_R2,
    ),
    LogicId.KL_PLUS: (
        RuleId.AX,
        RuleId.ONE_R,
        RuleId.ZERO_L,
        RuleId.OR_R1,
        RuleId.OR_R2,
        RuleId.DIST,
        RuleId.PLUS_Q,
        RuleId.ONE_L,
        RuleId.FUSE_L,
        RuleId.OR_L,
        RuleId.PLUS_Q_L1,
        RuleId.PLUS_Q_L2,
        RuleId.FUSE_R,
        RuleId.Q_INTRO_R1,
        RuleId.Q_INTRO_R2,
    ),
}

# Rules legal in each logic (Cut is handled separately: check-only).
RULES_OF = {logic: frozenset(order) for logic, order in _SEARCH_ORDER.items()}


def _rule_instances(rule: RuleId, goal: Sequent, for_search: bool) -> list[tuple[Sequent, ...]]:
    """The premise tuple of every instance of `rule` whose conclusion is `goal`.

    This is the only statement of the non-Cut rules: search reads it
    backward and the checker looks a node's premises up in it.  Each
    schema is noted as `conclusion <= premises`, with G, D, T for sequences
    of formulas.

    With for_search the query-introduction-on-the-right splits skip the
    empty D (that instance repeats the goal as its own premise and adds
    nothing to backward search); the checker accepts it.
    """
    ante, succ = goal.antecedent, goal.succedent
    out: list[tuple[Sequent, ...]] = []

    def emit(*premises: Sequent) -> None:
        out.append(premises)

    R = RuleId
    if rule is R.AX:
        # A |- A
        if len(ante) == 1 and ante[0] == succ:
            emit()
    elif rule is R.AX_Q:
        # |- A?
        if not ante and isinstance(succ, Query):
            emit()
    elif rule is R.ONE_R:
        # |- 1
        if not ante and isinstance(succ, One):
            emit()
    elif rule is R.ZERO_L:
        # G, 0, D |- A
        for f in ante:
            if isinstance(f, Zero):
                emit()
    elif rule is R.OR_R1:
        # G |- A | B  <=  G |- A
        if isinstance(succ, Or):
            emit(Sequent(ante, succ.left))
    elif rule is R.OR_R2:
        # G |- A | B  <=  G |- B
        if isinstance(succ, Or):
            emit(Sequent(ante, succ.right))
    elif rule is R.DIST:
        # G |- A.B | A.C  <=  G |- A.(B | C)
        if (
            isinstance(succ, Or)
            and isinstance(succ.left, Fuse)
            and isinstance(succ.right, Fuse)
            and succ.left.left == succ.right.left
        ):
            emit(Sequent(ante, Fuse(succ.left.left, Or(succ.left.right, succ.right.right))))
    elif rule is R.PLUS_Q:
        # G |- A?  <=  G |- A
        if isinstance(succ, Query):
            emit(Sequent(ante, succ.body))
    elif rule is R.ONE_L:
        # G, 1, D |- A  <=  G, D |- A
        for k, f in enumerate(ante):
            if isinstance(f, One):
                emit(Sequent(ante[:k] + ante[k + 1 :], succ))
    elif rule is R.FUSE_L:
        # G, A.B, D |- C  <=  G, A, B, D |- C
        for k, f in enumerate(ante):
            if isinstance(f, Fuse):
                emit(Sequent(ante[:k] + (f.left, f.right) + ante[k + 1 :], succ))
    elif rule is R.OR_L:
        # G, A | B, D |- C  <=  G, A, D |- C  and  G, B, D |- C
        for k, f in enumerate(ante):
            if isinstance(f, Or):
                g, d = ante[:k], ante[k + 1 :]
                emit(Sequent(g + (f.left,) + d, succ), Sequent(g + (f.right,) + d, succ))
    elif rule is R.Q_INTRO_L1:
        # A?, G |- B  <=  A, B |- B  and  G |- B
        if ante and isinstance(ante[0], Query):
            emit(Sequent((ante[0].body, succ), succ), Sequent(ante[1:], succ))
    elif rule is R.Q_INTRO_L2:
        # G, A? |- B  <=  B, A |- B  and  G |- B
        if ante and isinstance(ante[-1], Query):
            emit(Sequent((succ, ante[-1].body), succ), Sequent(ante[:-1], succ))
    elif rule is R.PLUS_Q_L1:
        # A?, G |- B  <=  A, B |- B  and  A, G |- B
        if ante and isinstance(ante[0], Query):
            a = ante[0].body
            emit(Sequent((a, succ), succ), Sequent((a,) + ante[1:], succ))
    elif rule is R.PLUS_Q_L2:
        # G, A? |- B  <=  B, A |- B  and  G, A |- B
        if ante and isinstance(ante[-1], Query):
            a = ante[-1].body
            emit(Sequent((succ, a), succ), Sequent(ante[:-1] + (a,), succ))
    elif rule is R.FUSE_R:
        # G, D |- A.B  <=  G |- A  and  D |- B
        if isinstance(succ, Fuse):
            for k in range(len(ante) + 1):
                emit(Sequent(ante[:k], succ.left), Sequent(ante[k:], succ.right))
    elif rule is R.Q_INTRO_R1:
        # D, G |- A?  <=  D |- A  and  G |- A?
        if isinstance(succ, Query):
            lo = 1 if for_search else 0
            for k in range(lo, len(ante) + 1):
                emit(Sequent(ante[:k], succ.body), Sequent(ante[k:], succ))
    elif rule is R.Q_INTRO_R2:
        # G, D |- A?  <=  D |- A  and  G |- A?
        if isinstance(succ, Query):
            hi = len(ante) if for_search else len(ante) + 1
            for k in range(hi):
                emit(Sequent(ante[k:], succ.body), Sequent(ante[:k], succ))
    return out


def applicable_rules(logic: LogicId, goal: Sequent) -> list[tuple[RuleId, tuple[Sequent, ...]]]:
    """A `(rule, premises)` pair for every backward instance of the logic's
    non-Cut rules at `goal`, in search order.  Closure rules carry empty
    premise tuples."""
    return [
        (rule, premises)
        for rule in _SEARCH_ORDER[logic]
        for premises in _rule_instances(rule, goal, for_search=True)
    ]


# --- proof trees -------------------------------------------------------------


class ProofTree(Value):
    """A rule-labelled derivation tree; the checker infers each node's
    rule instance from its conclusion and premises.  Trees compare by
    identity."""

    __slots__ = _fields = ("conclusion", "rule", "premises")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, conclusion: Sequent, rule: RuleId, premises: tuple[ProofTree, ...] = ()):
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "premises", premises)


def _assemble(nodes: list[tuple[Sequent, RuleId, int]]) -> ProofTree:
    """The tree whose nodes, in pre-order, are `(conclusion, rule, number of
    premises)`: built in reverse, each node taking its premises' trees off
    `built`, so every node is a distinct object and depth costs no
    recursion."""
    built: list[ProofTree] = []
    for s, rule, n in reversed(nodes):
        built.append(ProofTree(s, rule, tuple([built.pop() for _ in range(n)])))
    return built[0]


def tree_to_json_dict(tree: ProofTree) -> dict:
    """The JSON object of `tree`, built on an explicit stack; each distinct
    conclusion is printed once."""
    texts = cache(print_sequent)
    root: list[dict] = []
    stack = [(tree, root)]
    while stack:
        node, siblings = stack.pop()
        premises: list[dict] = []
        siblings.append(
            {"rule": node.rule.value, "conclusion": texts(node.conclusion), "premises": premises}
        )
        stack.extend((p, premises) for p in reversed(node.premises))
    return root[0]


def tree_to_json(tree: ProofTree) -> str:
    return json.dumps(tree_to_json_dict(tree))


_RULE_BY_NAME = {r.value: r for r in RuleId}


def tree_from_json_dict(obj: object) -> ProofTree:
    """The tree a JSON object describes.  The nodes are validated in
    pre-order on an explicit stack, so the first malformed node is the one
    reported; each distinct conclusion text is parsed once."""
    sequents = cache(parse_sequent)
    nodes: list[tuple[Sequent, RuleId, int]] = []
    stack = [obj]
    while stack:
        obj = stack.pop()
        if not isinstance(obj, dict):
            raise ValueError("proof tree JSON must be an object")
        try:
            rule_name = obj["rule"]
            conclusion_text = obj["conclusion"]
            premises = obj["premises"]
        except KeyError as e:
            raise ValueError(f"proof tree JSON lacks key {e.args[0]!r}") from None
        if not isinstance(rule_name, str):
            raise ValueError("rule must be a string")
        if not isinstance(conclusion_text, str):
            raise ValueError("conclusion must be a string")
        if rule_name not in _RULE_BY_NAME:
            raise ValueError(f"unknown rule name {rule_name!r}")
        if not isinstance(premises, list):
            raise ValueError("premises must be a list")
        nodes.append((sequents(conclusion_text), _RULE_BY_NAME[rule_name], len(premises)))
        stack.extend(reversed(premises))
    return _assemble(nodes)


def tree_from_json(text: str) -> ProofTree:
    return tree_from_json_dict(json.loads(text))


def render_tree(tree: ProofTree) -> str:
    """Indented one-node-per-line rendering, premises below conclusions;
    each distinct conclusion is printed once."""
    texts = cache(print_sequent)
    lines: list[str] = []
    stack = [(tree, "")]
    while stack:
        node, pad = stack.pop()
        lines.append(f"{pad}{texts(node.conclusion)}   [{node.rule.value}]")
        stack.extend((p, pad + "  ") for p in reversed(node.premises))
    return "\n".join(lines)


# --- proof checking ----------------------------------------------------------


class Violation(Value):
    """Why a proof tree is not a derivation: the node (as a path of premise
    indices from the root), the rule it claims, and the mismatch."""

    __slots__ = _fields = ("path", "rule", "reason")

    def __init__(self, path: tuple[int, ...], rule: RuleId, reason: str):
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "reason", reason)

    def __str__(self) -> str:
        where = "root" if not self.path else "node " + ".".join(map(str, self.path))
        return f"{where}: rule {self.rule.value}: {self.reason}"


def check_proof(logic: LogicId, tree: ProofTree, allow_cut: bool = False) -> Violation | None:
    """None if every node is a correct instance of a rule of `logic`
    (Cut nodes accepted only under allow_cut); else the first violation,
    in pre-order.  Each distinct `(rule, conclusion, premise conclusions)`
    is matched against the rule once: `valid` keeps the ones that fit."""
    valid: set[tuple[RuleId, Sequent, tuple[Sequent, ...]]] = set()
    stack: list[tuple[ProofTree, tuple[int, ...]]] = [(tree, ())]
    while stack:
        node, path = stack.pop()
        rule = node.rule
        if rule is RuleId.CUT:
            if not allow_cut:
                return Violation(path, rule, "Cut is not allowed here")
        elif rule not in RULES_OF[logic]:
            return Violation(path, rule, f"rule is not part of {logic.value}")
        instance = (rule, node.conclusion, tuple([p.conclusion for p in node.premises]))
        if instance not in valid:
            if not _matches_some_instance(*instance):
                return Violation(
                    path, rule, "no instantiation of the rule fits conclusion and premises"
                )
            valid.add(instance)
        stack.extend((node.premises[i], path + (i,)) for i in reversed(range(len(node.premises))))
    return None


def _matches_some_instance(
    rule: RuleId, conclusion: Sequent, children: tuple[Sequent, ...]
) -> bool:
    if rule is RuleId.CUT:
        # G, T, D |- B  <=  G, A, D |- B  and  T |- A
        if len(children) != 2:
            return False
        main, side = children
        alpha = side.succedent
        theta = side.antecedent
        if main.succedent != conclusion.succedent:
            return False
        for k, f in enumerate(main.antecedent):
            if f == alpha:
                gamma, delta = main.antecedent[:k], main.antecedent[k + 1 :]
                if conclusion.antecedent == gamma + theta + delta:
                    return True
        return False
    return children in _rule_instances(rule, conclusion, for_search=False)


# --- backward proof search ---------------------------------------------------

_REFUTED = -1


class Prover:
    """Decides derivability and produces cut-free proof trees.

    Results are tabled across calls: the reachable sequent space of a goal
    is closed under backward rule application and saturated bottom-up, so
    every sequent touched gets a final verdict.  A goal whose new region
    would hold more than `state_cap` sequents (by default
    `DEFAULT_STATE_CAP`, the bound `decide` puts on its inclusion search)
    raises `StateLimitError` and leaves the table as it was.  A Prover
    instance is single-threaded; use separate instances for concurrent work.
    """

    def __init__(self, logic: LogicId, state_cap: int = DEFAULT_STATE_CAP):
        self.logic = logic
        self.state_cap = state_cap
        # sequent -> _REFUTED, or the positive tick at which it was proven
        self._status: dict[Sequent, int] = {}
        self._clock = 0

    def derivable(self, goal: Sequent) -> bool:
        status = self._status.get(goal)
        if status is None:
            self._solve(goal)
            status = self._status[goal]
        return status != _REFUTED

    def prove(self, goal: Sequent) -> ProofTree | None:
        if not self.derivable(goal):
            return None
        return self._build(goal)

    def _solve(self, goal: Sequent) -> None:
        status = self._status
        # close the new region under backward rule application, keeping each
        # region sequent's instances as premise tuples
        apps: dict[Sequent, list[tuple[Sequent, ...]]] = {}
        # rules build the same premise many times over; keeping the first
        # equal object frees the copies at once and hashes each sequent once
        canon: dict[Sequent, Sequent] = {goal: goal}
        cap = self.state_cap
        stack = [goal]
        while stack:
            s = stack.pop()
            if s in apps or s in status:
                continue
            if len(apps) >= cap:
                raise StateLimitError(f"proof search exceeded {cap} sequents")
            instances = apps[s] = []
            for _, premises in applicable_rules(self.logic, s):
                premises = tuple([canon.setdefault(p, p) for p in premises])
                instances.append(premises)
                for p in premises:
                    if p not in apps and p not in status:
                        stack.append(p)
        del canon
        # saturate: fire every rule instance whose premises are all proven
        dependents: dict[Sequent, list[list]] = {}
        seeds: list[Sequent] = []
        for s, instances in apps.items():
            for premises in instances:
                need = 0
                dead = False
                pending: list[Sequent] = []
                for p in premises:
                    st = status.get(p)
                    if st == _REFUTED:
                        dead = True
                        break
                    if st is None:
                        need += 1
                        pending.append(p)
                if dead:
                    continue
                if need == 0:
                    seeds.append(s)
                else:
                    record = [s, need]
                    for p in pending:
                        dependents.setdefault(p, []).append(record)
        queue: deque[Sequent] = deque()

        def mark(s: Sequent) -> None:
            if status.get(s) is None:
                self._clock += 1
                status[s] = self._clock
                queue.append(s)

        for s in seeds:
            mark(s)
        while queue:
            p = queue.popleft()
            for record in dependents.get(p, ()):
                record[1] -= 1
                if record[1] == 0:
                    mark(record[0])
        for s in apps:
            if status.get(s) is None:
                status[s] = _REFUTED

    def _build(self, goal: Sequent) -> ProofTree:
        """The proof of proven `goal`.  Each node uses the first `(rule,
        premises)` pair in search order whose premises were all proven
        strictly earlier (ticks start at 1; a refuted or unknown premise has
        none).

        One explicit stack lists the nodes in pre-order, and `_assemble`
        builds the tree.  Each distinct sequent picks its pair once
        (`chosen`); every occurrence still gets a node of its own.
        """
        status = self._status
        chosen: dict[Sequent, tuple[RuleId, tuple[Sequent, ...]]] = {}
        nodes: list[tuple[Sequent, RuleId, int]] = []
        stack = [goal]
        while stack:
            s = stack.pop()
            pair = chosen.get(s)
            if pair is None:
                tick = status[s]
                for pair in applicable_rules(self.logic, s):
                    if all(0 < status.get(p, 0) < tick for p in pair[1]):
                        break
                else:
                    raise AssertionError(f"no justification recorded for {print_sequent(s)}")
                chosen[s] = pair
            rule, premises = pair
            nodes.append((s, rule, len(premises)))
            stack.extend(reversed(premises))
        return _assemble(nodes)
