"""kleeneseq benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src`.  The last line of stdout is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.  Exits
non-zero without a result when the package is missing or the run fails.
See bench/DESIGN.md for the workloads, metrics and the reasons for them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from statistics import median
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, Cli  # noqa: E402

OUT = os.path.join(ROOT, "bench", "out")

MODULES = ("syntax", "algebra", "automata", "calculus", "oracle", "cli")
SETUPS = 7  # set-up repeats per run; setup_s is their median
# Exact counts reported per traced pass; zero where a workload has none.
COUNTED = (
    "automata.nfa_states",
    "automata.nfa_transitions",
    "automata.cex_len",
    "calculus.proof_nodes",
    "verdict.decide_holds",
    "verdict.prove_holds",
)
CLI_PROBES = 9  # fresh processes per cli.interpreter_ms / cli.import_ms
CAL_BURST = 3  # slices per host-speed sample between queries; their median is the sample
CAL_PERIOD_S = 0.2  # a sample at least this often, between queries
CAL_TICK_S = 0.1  # while ticking, one slice this often
CAL_WINDOW_S = 0.4  # a time is scaled by the samples at most this far from it
CAL_REF_S = 0.0025  # median slice time on the host the benchmark was defined on
CLI_REF_S = 0.065  # median bare interpreter start there: the cli workload's slice
# The slice's inputs, made once: a slice allocates no object the collector
# tracks, so a slice taken inside a query never moves the program's collections.
CAL_KEYS = [(i & 1023, (i >> 3) & 7, "ab"[i & 1]) for i in range(10000)]
CAL_SET = frozenset(CAL_KEYS[::3])
CAL_TABLE = dict.fromkeys(CAL_KEYS, 0)


class MissingProgram(Exception):
    pass


def load_program():
    """Import every kleeneseq module afresh from the checkout's src."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kleeneseq", "__init__.py")):
        raise MissingProgram(f"no kleeneseq package under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n.split(".")[0] == "kleeneseq"]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"kleeneseq.{name}") for name in MODULES}
    if not modules["cli"].__file__.startswith(src):
        raise MissingProgram(f"kleeneseq was imported from outside {src}")
    return SimpleNamespace(**modules)


def calibration_slice() -> float:
    """Seconds of a fixed piece of pure-Python work that runs no kleeneseq
    code: tuple hashing, dict updates and set membership, as in the prover
    and the automata."""
    t0 = perf_counter()
    table, members = CAL_TABLE, CAL_SET
    for key in CAL_KEYS:
        table[key] = table[key] + (key in members)
    return perf_counter() - t0


class HostClock:
    """How fast the shared host runs, sampled between queries and, while
    ticking, also inside them.

    The host's speed drifts by tens of percent over seconds (see DESIGN.md).
    A burst of `slice_s` calls is taken between queries at least every
    CAL_PERIOD_S.  While ticking (through a whole pass or set-up), a SIGALRM
    handler also takes one slice every CAL_TICK_S, wherever the run is; the
    time of a tick inside a query is left out of the query.
    A time is scaled piece by piece, each piece between two ticks by `ref_s`
    (the slice's median on the reference host) over the median of the samples
    around it: a reading in reference-host seconds."""

    def __init__(self, slice_s=calibration_slice, ref_s=CAL_REF_S, burst=CAL_BURST) -> None:
        self.slice_s, self.ref_s, self.burst = slice_s, ref_s, burst
        self.times: list[float] = []  # when each sample was taken, ascending
        self.slices: list[float] = []  # slice seconds of each sample
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each tick
        self.due = 0.0

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() >= self.due:
            self.slices.append(median(self.slice_s() for _ in range(self.burst)))
            self.times.append(perf_counter())
            self.due = self.times[-1] + CAL_PERIOD_S

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.slices.append(self.slice_s())
        end = perf_counter()
        self.times.append(end)
        self.ticks.append((start, end))

    @contextmanager
    def ticking(self, on: bool = True):
        if not on:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_TICK_S, CAL_TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _scale(self, start: float, end: float) -> float:
        """Reference-host seconds per measured second over (start, end): from
        the samples within CAL_WINDOW_S of it, or within its own length for a
        longer interval, and at least those just before and just after it."""
        times = self.times
        reach = max(CAL_WINDOW_S, end - start)
        lo = min(bisect_left(times, start - reach), max(bisect_right(times, start) - 1, 0))
        hi = max(bisect_right(times, end + reach), bisect_left(times, end) + 1)
        return self.ref_s / median(self.slices[lo:hi])

    def _pieces(self, start: float, end: float) -> list[tuple[float, float]]:
        """(start, end) cut around the ticks inside it."""
        inside = self.ticks[bisect_left(self.ticks, (start,)) : bisect_left(self.ticks, (end,))]
        edges = [start, *(t for tick in inside for t in tick), end]
        return list(zip(edges[::2], edges[1::2]))

    def measured(self, start: float, end: float) -> float:
        """Seconds of work between start and end: without the ticks."""
        return sum(b - a for a, b in self._pieces(start, end))

    def scaled(self, start: float, end: float) -> float:
        """Reference-host seconds of the work between start and end."""
        return sum((b - a) * self._scale(a, b) for a, b in self._pieces(start, end))


def percentile(values: list[float], pct: float | None) -> float:
    """Linear-interpolated percentile of the values; None means the maximum."""
    xs = sorted(values)
    if not xs:
        return 0.0
    if pct is None:
        return xs[-1]
    k = (len(xs) - 1) * pct / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def measure(workload, ks, seconds: float | None = None, passes: int | None = None, traced=False):
    """Whole passes over the workload's queries: `passes` of them, or as many
    as are expected to end within `seconds` (at least one)."""
    runs = []
    began = perf_counter()
    while True:
        # inputs made in set-up are never garbage: keep the collector off them
        gc.collect()
        gc.freeze()
        state = workload.new_pass(ks)
        # A traced run does not tick, so that spans hold no ticks.
        clock, ticks = HostClock(), not traced
        if isinstance(workload, Cli) and not workload.in_process:
            # Its queries are child processes, mostly interpreter start and
            # import, which the pure-Python slice follows poorly: sample the
            # host by bare interpreter starts, and only between queries.
            clock, ticks = HostClock(workload.interpreter_start, CLI_REF_S, burst=1), False
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        outcomes, parts = [], []
        t0 = perf_counter()
        try:
            with clock.ticking(ticks):
                for qid, query in enumerate(workload.queries):
                    if tracer is not None:
                        tracer.qid = qid
                    clock.sample()  # before the collector runs, while caches are warm
                    if workload.collect_each:
                        gc.collect()
                    try:
                        outcome, spent = workload.run(ks, state, query)
                    except Exception as e:  # a failed query is counted, not fatal
                        outcome, spent = e, ()
                    outcomes.append(outcome)
                    parts.append(spent)
            clock.sample(force=True)
            wall = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        runs.append(
            {
                "wall": wall,
                "outcomes": outcomes,
                "parts": parts,
                "clock": clock,
                "tracer": tracer,
            }
        )
        if passes is not None:
            if len(runs) == passes:
                return runs
        elif perf_counter() - began + wall > seconds:
            return runs


def check(workload, ks, runs) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass, plus the check that the
    exact counts repeat from pass to pass."""
    attempted = failed = 0
    problems: list[str] = []
    first_counts = None
    for run in runs:
        outcomes = run["outcomes"]
        attempted += len(outcomes)
        errors = [o for o in outcomes if isinstance(o, Exception)]
        if errors:
            failed += len(errors)
            problems += [f"query raised {e!r}" for e in errors[:5]]
            continue
        found = workload.check(ks, outcomes)
        failed += len(found)
        problems += found
        counts = workload.counts(outcomes)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            failed += 1
            problems.append(f"exact counts differ between passes: {first_counts} vs {counts}")
    return attempted, failed, problems


def latencies(runs, kind: str | None = None, scaled: bool = False) -> list[float]:
    """Seconds per query, or per call of one route; in reference-host seconds
    when scaled."""
    out = []
    for run in runs:
        seconds = run["clock"].scaled if scaled else run["clock"].measured
        for spent in run["parts"]:
            if kind is None:
                if spent:
                    out.append(sum(seconds(start, end) for _, start, end in spent))
            else:
                out.extend(seconds(start, end) for k, start, end in spent if k == kind)
    return out


def end_to_end(workload, runs, setup_times, scaled_setup_times) -> tuple[dict, dict]:
    """The end-to-end metrics, in reference-host time, and the unscaled times."""
    who = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF

    def timings(scaled: bool, setup: list[float]) -> dict[str, float]:
        per_query = latencies(runs, scaled=scaled)
        # The median of each pass's median: where a workload's queries come
        # in a few sizes, the median of all passes pooled falls in the gap
        # between two sizes and reads the slowest sample of one and the
        # fastest of the other.
        p50 = median(percentile(latencies([run], scaled=scaled), 50) for run in runs)
        return {
            "setup_s": median(setup),
            "queries_per_s": len(per_query) / sum(per_query),
            "p50_ms": p50 * 1000,
            "tail_ms": percentile(per_query, workload.tail_pct) * 1000,
        }

    raw = timings(False, setup_times)
    shown = timings(True, scaled_setup_times)
    metrics = {
        "setup_s": (shown["setup_s"], "s"),
        "queries_per_s": (shown["queries_per_s"], "1/s"),
        "p50_ms": (shown["p50_ms"], "ms"),
        "tail_ms": (shown["tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return metrics, raw


def per_layer(workload, plain, traced, setup_tracer, enumerate_s) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and its exact counts."""
    ms, us = 1000, 1_000_000
    tracers = [r["tracer"] for r in traced]
    spans: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    tree_json: list[float] = []
    parses = setup_tracer.durations().get("syntax.parse_sequent", [])
    for t in tracers:
        for name, seconds in t.durations().items():
            spans.setdefault(name, []).extend(seconds)
        for name, seconds in t.self_durations().items():
            own.setdefault(name, []).extend(seconds)
        tree_json += t.per_query(("calculus.tree_to_json", "calculus.tree_from_json"))

    def p50(seconds: list[float], scale: int) -> float:
        return percentile(seconds, 50) * scale

    def route(kind: str, pct) -> float:
        return percentile(latencies(plain, kind), pct) * ms

    n = len(traced)
    counts = dict(workload.counts(traced[0]["outcomes"]), **tracers[0].counts)
    metrics = {
        "route.decide_p50_ms": (route("decide", 50), "ms"),
        "route.decide_tail_ms": (route("decide", workload.tail_pct), "ms"),
        "route.prove_p50_ms": (route("prove", 50), "ms"),
        "route.prove_tail_ms": (route("prove", workload.tail_pct), "ms"),
        "route.check_p50_ms": (route("check", 50), "ms"),
        "syntax.parse_us": (p50(parses + spans.get("syntax.parse_sequent", []), us), "us"),
        "syntax.tree_json_ms": (p50(tree_json, ms), "ms"),
        "algebra.interpret_us": (p50(spans.get("algebra.interpret_sequent", []), us), "us"),
        "automata.build_us": (p50(spans.get("automata.decision_automata", []), us), "us"),
        "automata.includes_us": (p50(spans.get("automata.includes", []), us), "us"),
        "calculus.solve_ms": (p50(spans.get("calculus.Prover.derivable", []), ms), "ms"),
        "calculus.build_ms": (p50(own.get("calculus.Prover.prove", []), ms), "ms"),
        "calculus.check_ms": (p50(spans.get("calculus.check_proof", []), ms), "ms"),
        "oracle.enumerate_s": (enumerate_s, "s"),
        "cli.interpreter_ms": (0.0, "ms"),
        "cli.import_ms": (0.0, "ms"),
        "cli.main_ms": (0.0, "ms"),
    }
    for name in COUNTED:
        metrics[name] = (counts.get(name, 0), "count")
    covered = 0.0
    for layer in LAYERS:
        seconds = sum(sum(v) for k, v in own.items() if k.split(".")[0] == layer)
        covered += seconds
        metrics[f"{layer}.self_ms"] = (seconds / n * ms, "ms")
    plain_wall = sum(r["wall"] for r in plain) / len(plain)
    traced_wall = sum(r["wall"] for r in traced) / n
    metrics["bench.self_ms"] = ((traced_wall - covered / n) * ms, "ms")
    metrics["trace.spans"] = (sum(len(t) for t in tracers) // n, "count")
    metrics["trace.overhead_pct"] = ((traced_wall / plain_wall - 1) * 100, "%")
    if isinstance(workload, Cli):
        metrics["cli.interpreter_ms"] = (workload.interpreter_ms(CLI_PROBES), "ms")
        metrics["cli.import_ms"] = (workload.import_ms(CLI_PROBES), "ms")
        metrics["cli.main_ms"] = (percentile(latencies(plain), 50) * ms, "ms")
    return metrics, counts


def repeat_check(workload_name: str, counts: dict) -> list[str]:
    """Exact counts must equal those of the previous traced run in this
    checkout (they do not depend on the seed, which only reorders queries)."""
    path = os.path.join(OUT, f"counts-{workload_name}.json")
    problems = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counts:
            problems.append(f"exact counts changed since the last traced run: {before} vs {counts}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    enumerate_times, setup_intervals = [], []
    clock = HostClock()
    for _ in range(SETUPS):
        clock.sample(force=True)
        # a set-up of up to half a second: tick, unless its layers are traced
        with clock.ticking(not args.trace):
            t0 = perf_counter()
            try:
                ks = load_program()
            except (MissingProgram, ImportError) as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
            workload = WORKLOADS[args.workload]()
            workload.setup(ks, args.seed)
            setup_intervals.append((t0, perf_counter()))
        enumerate_times.append(getattr(workload, "enumerate_s", 0.0))
    clock.sample(force=True)

    if not args.trace:
        runs = measure(workload, ks, seconds=args.seconds)
        attempted, failed, problems = check(workload, ks, runs)
        setup_times = [clock.measured(start, end) for start, end in setup_intervals]
        scaled_setup = [clock.scaled(start, end) for start, end in setup_intervals]
        metrics, raw = end_to_end(workload, runs, setup_times, scaled_setup)
        print("unscaled: " + json.dumps(raw))
    else:
        os.makedirs(OUT, exist_ok=True)
        setup_tracer = Tracer()  # the parses of one more set-up
        setup_tracer.install()
        try:
            workload.setup(ks, args.seed)
        finally:
            setup_tracer.uninstall()
        workload.in_process = True  # only the cli workload reads this
        plain = measure(workload, ks, seconds=args.seconds / 2)
        traced = measure(workload, ks, passes=len(plain), traced=True)
        runs = plain + traced
        attempted, failed, problems = check(workload, ks, runs)
        metrics, counts = per_layer(workload, plain, traced, setup_tracer, median(enumerate_times))
        tracers = [r["tracer"] for r in traced]
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"passes": [t.columns() for t in tracers]}, fh)
        extra = repeat_check(args.workload, counts)
        if any(t.counts != tracers[0].counts for t in tracers):
            extra.append("NFA counts differ between traced passes")
        failed += len(extra)
        problems += extra

    passes = len(runs)
    samples = len(latencies(runs))
    tail = "max" if workload.tail_pct is None else f"p{workload.tail_pct:g}"
    print(
        f"workload {args.workload}: {passes} passes, {samples} queries timed, "
        f"tail_ms is {tail} of {samples}, error_rate {failed / max(attempted, 1):.6f}"
    )
    for problem in problems[:20]:
        print(f"wrong: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
