"""In-memory spans around the public calls into each kleeneseq layer.

Only the traced run installs the wrappers; the untraced run patches nothing.
A wrapper replaces the function on its module (or class) and in every
kleeneseq namespace that imported the same object, so calls one layer makes
into another inside the program get spans too.  Spans are kept in flat
arrays and written out once, when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# Public calls that get a span, by layer (= module). The oracle is only
# called outside the timed region, so none of its calls is wrapped.
TRACED = {
    "syntax": ("parse_sequent", "parse_formula"),
    "algebra": (
        "interpret_sequent",
        "map_i",
        "map_j",
        "parse_star_term",
        "parse_plus_term",
        "print_term",
    ),
    "automata": ("decide", "decision_automata", "includes"),
    "calculus": (
        "Prover.derivable",
        "Prover.prove",
        "check_proof",
        "tree_to_json",
        "tree_from_json",
        "render_tree",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _count_automata(counts: dict[str, int], result) -> None:
    left, right = result
    counts["automata.nfa_states"] += len(left.states) + len(right.states)
    counts["automata.nfa_transitions"] += len(left.transitions) + len(right.transitions)


# Exact counts taken from what a traced call returns.
COUNTERS = {"automata.decision_automata": _count_automata}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {"automata.nfa_states": 0, "automata.nfa_transitions": 0}
        self.qid = -1
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        counter = COUNTERS.get(span_name)
        names, parents, queries = self.name, self.parent, self.query
        starts, ends, open_spans = self.start, self.end, self._open

        def traced(*args, **kwargs):
            # a recursive call through the patched global stays in its span
            if open_spans and names[open_spans[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            queries.append(self.qid)
            ends.append(0.0)
            open_spans.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_spans.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every call in TRACED; raises if the program lacks one."""
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "kleeneseq"]
        for layer, attrs in TRACED.items():
            module = sys.modules[f"kleeneseq.{layer}"]
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = getattr(owner, fn_name)
                wrapped = self._wrap(fn, f"{layer}.{attr}")
                targets = [owner]
                if not owner_name:
                    targets += [m for m in package if m is not owner and vars(m).get(fn_name) is fn]
                for target in targets:
                    self._undo.append((target, fn_name, fn))
                    setattr(target, fn_name, wrapped)

    def uninstall(self) -> None:
        for target, fn_name, fn in reversed(self._undo):
            setattr(target, fn_name, fn)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.name)

    def durations(self) -> dict[str, list[float]]:
        """Seconds of every span, by span name."""
        out: dict[str, list[float]] = {n: [] for n in self.names}
        for nid, t0, t1 in zip(self.name, self.start, self.end):
            out[self.names[nid]].append(t1 - t0)
        return out

    def self_durations(self) -> dict[str, list[float]]:
        """Each span's duration minus the time its child spans cover, by name."""
        own = [t1 - t0 for t0, t1 in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        out: dict[str, list[float]] = {n: [] for n in self.names}
        for nid, seconds in zip(self.name, own):
            out[self.names[nid]].append(seconds)
        return out

    def per_query(self, span_names: tuple[str, ...]) -> list[float]:
        """Summed seconds of the named spans, per query that has any."""
        wanted = {i for i, n in enumerate(self.names) if n in span_names}
        sums: dict[int, float] = {}
        for nid, qid, t0, t1 in zip(self.name, self.query, self.start, self.end):
            if nid in wanted:
                sums[qid] = sums.get(qid, 0.0) + (t1 - t0)
        return list(sums.values())

    def columns(self) -> dict:
        """The spans as JSON-ready columns."""
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start_s": self.start.tolist(),
            "end_s": self.end.tolist(),
            "parent": self.parent.tolist(),
            "query": self.query.tolist(),
        }
