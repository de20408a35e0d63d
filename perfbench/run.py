"""Seeded benchmark for ``synthesize`` and ``plan_satisfies``.

Run from the repository root::

    python3 perfbench/run.py --workload synth-found --seed 1 --seconds 25 --trace 0

The run generates its inputs from the seed, sets up several times (import
of ``astra``, input generation, ``core.load_system`` of every generated
system file), then repeats whole rounds of the workload's calls, one call
after another in this single process, until ``--seconds`` have passed.
Every call runs under a ``signal.alarm`` deadline; a call that raises or
runs out of time counts as failed and the run goes on.  The first round's
results are then checked against answers that follow from how the inputs
were built, every round's results must equal the first's, and a fixed
corpus of plans must match the digests in ``plan_digests.json``.  Last it
sets up several times again, and reports the median of all set-up times.

Call times are reported in reference milliseconds (``ref_ms``): each
round starts by timing a fixed reference loop, every call of the round is
divided by that time, and one ``ref_ms`` is a tenth of it.  A slot's
latency is the mean of the middle half of these ratios over the run's
rounds.  On a shared virtual machine the CPU's speed can drift by up to 2x
for minutes at a time; dividing by a reference timed in the same round,
about a second before the call, cancels most of that drift, and leaving
out the outer quarters drops the rounds caught by a short swing.  On an idle 2-vCPU virtual machine one
``ref_ms`` is about a wall millisecond; the wall-clock figures are printed
too.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every second round records spans
around each layer (see ``tracing.py``), and the run prints the per-layer
metrics and writes the spans to ``perfbench/out/``.  The lines before the
JSON name every metric with its unit and report the correctness counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback

import digests
import workloads
from tracing import ROOT as ROOT_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up runs at least ``SETUP_REPEATS`` times and for ``SETUP_SECONDS``
# before the measurement, and as often again after it; the median of all is
# reported.  A shared host's speed drifts over seconds, and set-ups at both
# ends of the run see more of its speeds than set-ups at one end.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
# Seconds one call may take before it counts as failed; the slowest call
# of any workload takes about 1 s on a 2-vCPU virtual machine.
CALL_DEADLINE_S = 10
# Seconds after start when every further guarded call fails at once, so a
# run ends within three minutes however slow the library gets.
RUN_BUDGET_S = 150
# A run stops at the end of the first round that crosses ``--seconds`` and
# completes ``MIN_ROUNDS`` untraced rounds, or after the call that crosses
# ``HARD_STOP`` times ``--seconds``, whichever comes first.  A round cut
# short counts its calls but not their times.
HARD_STOP = 2.0
TAIL_BEYOND = 10
MIN_ROUNDS = TAIL_BEYOND + 1
# The reference loop's time in a round is this many ``ref_ms``.
REFERENCE_MS = 10.0


def reference_loop(n=1000, repeats=12):
    """Breadth-first searches over small tuple-keyed dicts and sets, the kind
    of work the library's product and game loops do.  Timing it in every
    round tells how fast the host is running at the time; its working set
    is kept small, like the library's, so both slow down alike.  The
    garbage collector is off while it runs: its passes over the whole heap
    would make the loop's time depend on what the run has allocated."""
    reached = 0
    gc.disable()
    for _ in range(repeats):
        succ = {(i, i % 3): ((i * 7 + 1) % n, (i * 13 + 5) % n) for i in range(n)}
        seen = {(0, 0)}
        queue = [(0, 0)]
        for node in queue:
            for t in succ[node]:
                nxt = (t, t % 3)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        reached += len(seen)
    gc.enable()
    return reached


class CallTimeout(Exception):
    """A call ran past its deadline."""


def _on_alarm(signum, frame):
    raise CallTimeout("call ran out of time")


class Guard:
    """Runs calls under a ``signal.alarm`` deadline: ``CALL_DEADLINE_S``,
    cut short by what is left of the run's budget."""

    def __init__(self, budget_s):
        self.end = time.monotonic() + budget_s

    def __call__(self, fn, *args):
        """``(result, error)`` of one call."""
        left = int(self.end - time.monotonic())
        if left < 1:
            return None, CallTimeout("the run's time budget is spent")
        signal.alarm(min(CALL_DEADLINE_S, left))
        try:
            return fn(*args), None
        except Exception as exc:  # the run must go on past any failing call
            return None, exc
        finally:
            signal.alarm(0)


class Setup:
    """Library modules and prepared inputs of one set-up, with its times."""

    def __init__(self, workload, seed, scratch):
        start = time.perf_counter()
        for name in [m for m in sys.modules if m == "astra" or m.startswith("astra.")]:
            del sys.modules[name]
        self.astra = importlib.import_module("astra")
        systems, entries = workload.generate(random.Random(seed))
        text = json.dumps([systems, entries], sort_keys=True)
        self.input_digest = hashlib.sha256(text.encode()).hexdigest()
        self.load_s = self.parse_s = 0.0
        loaded = []
        for i, raw in enumerate(systems):
            path = os.path.join(scratch, f"system{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            t = time.perf_counter()
            loaded.append(self.astra.core.load_system(path))
            self.load_s += time.perf_counter() - t
        self.instances = []
        for entry in entries:
            system, valuation = loaded[entry["system"]]
            t = time.perf_counter()
            formula = self.astra.ltl.parse_formula(entry["formula"], valuation.props)
            self.parse_s += time.perf_counter() - t
            self.instances.append(
                workload.prepare(self.astra, entry, system, valuation, formula))
        self.seconds = time.perf_counter() - start


class SetupTimes:
    """Repeated set-ups of one workload and seed: their times and input
    digests."""

    def __init__(self, workload, seed, scratch):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.seconds, self.input_digests = [], set()

    def repeat(self):
        """Sets up ``SETUP_REPEATS`` times and for ``SETUP_SECONDS``, one
        set-up released before the next; the last set-up."""
        seconds = 0.0
        for n in itertools.count(1):
            setup = None
            setup = Setup(self.workload, self.seed, self.scratch)
            self.seconds.append(setup.seconds)
            self.input_digests.add(setup.input_digest)
            seconds += setup.seconds
            if n >= SETUP_REPEATS and seconds >= SETUP_SECONDS:
                return setup


class Measurement:
    """Whole rounds of calls for about ``seconds``: per-slot call times, the
    reference loop's time in each round, and the first round's results.

    Every round runs each slot once, so every slot has the same number of
    repetitions, and the slot behind the median and the tail is the same in
    every run.  A run lasts at least ``MIN_ROUNDS`` rounds, so the tail
    always has ``TAIL_BEYOND`` calls beyond it.

    With a tracer, rounds alternate between untraced and traced, so both
    see the same host and their difference is the tracing overhead.
    """

    def __init__(self, workload, setup, guarded, seconds, tracer=None):
        astra = setup.astra
        self.times = {traced: [[] for _ in setup.instances] for traced in (False, True)}
        self.reference = {False: [], True: []}
        self.calls = {False: 0, True: 0}
        self.failed = {False: 0, True: 0}
        self.first, self.errors = [], []
        self.mismatches = 0
        signatures = []
        start = time.perf_counter()
        traced = done = False
        rounds = 0
        while not done:
            t = time.perf_counter()
            reference_loop()
            reference = time.perf_counter() - t
            if traced:
                tracer.install(astra)
            times = []
            for i, inst in enumerate(setup.instances):
                t = time.perf_counter()
                if traced:
                    result, error = guarded(tracer.call, workload.call, astra, inst)
                else:
                    result, error = guarded(workload.call, astra, inst)
                times.append(time.perf_counter() - t)
                self.calls[traced] += 1
                if error is not None:
                    self.errors.append(error)
                    self.failed[traced] += 1
                signature = None if error else workload.signature(astra, result)
                if len(self.first) == i:
                    self.first.append(result)
                    signatures.append(signature)
                elif signature != signatures[i]:
                    self.mismatches += 1
                if time.perf_counter() - start >= HARD_STOP * seconds:
                    done = True
                    break
            if traced:
                tracer.uninstall()
            if len(times) == len(setup.instances):
                self.reference[traced].append(reference)
                for slot, took in zip(self.times[traced], times):
                    slot.append(took)
            rounds += 1
            done = done or (time.perf_counter() - start >= seconds
                            and rounds >= MIN_ROUNDS * (1 + (tracer is not None)))
            traced = tracer is not None and not traced

    def attempted(self, traced=False):
        return self.calls[traced]

    def latencies(self, traced=False, wall=False):
        """Each slot's typical call time over the run's complete rounds, in
        ``ref_ms`` (or in seconds with ``wall``).  In ``ref_ms`` every call
        is divided by the reference loop's time in its own round."""
        refs = self.reference[traced]
        if wall:
            return [middle_mean(times) for times in self.times[traced] if times]
        return [middle_mean([t / r for t, r in zip(times, refs)]) * REFERENCE_MS
                for times in self.times[traced] if times]

    def calls_per_s(self, traced=False, wall=False):
        """Completed calls per second (per ``ref_s`` unless ``wall``) of a
        round run at each slot's latency."""
        ran = self.latencies(traced, wall)
        if not ran:
            return 0.0
        done = 1 - self.failed[traced] / self.calls[traced]
        return done * len(ran) / sum(ran) * (1 if wall else 1e3)


def middle_mean(values):
    """The mean of the middle half of ``values``: steadier than the median
    over a few dozen rounds, and as blind to the rounds a swing of the
    host's speed caught."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(latencies):
    """The highest percentile with ``TAIL_BEYOND`` calls beyond it, as
    ``(value, percentile)``; the slowest call when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def check_results(workload, setup, measurement, guarded):
    """Reasons the first round's results are wrong, one per bad instance."""
    wrong = []
    for i, (inst, result) in enumerate(zip(setup.instances, measurement.first)):
        if result is None:
            continue  # counted as a failed call
        problems, error = guarded(workload.check, setup.astra, inst, result)
        if error is not None:
            problems = [f"check raised {type(error).__name__}: {error}"]
        wrong += [f"slot {i}: {p}" for p in problems]
    return wrong


def check_digests(astra, guarded):
    recorded = digests.load()
    mismatches = []
    for key, (status, digest) in digests.compute(astra, guarded).items():
        if recorded.get(key) != [status, digest]:
            mismatches.append(key)
    return mismatches


def layer_metrics(tracer, measured, parse_s, load_s):
    totals = tracer.layer_totals()
    calls = measured.attempted(traced=True)
    c = tracer.counts

    def per(name, layer):
        return c[name] / totals[layer][1] if totals[layer][1] else 0.0

    out = {}
    for layer, (seconds, count) in totals.items():
        if layer != ROOT_SPAN:
            out[f"{layer}_s"] = (seconds, "s")
            out[f"{layer}_calls"] = (count, "count")
    games = totals["planner.fixpoint"][1]
    out.update({
        "buchi.nba_states": (per("buchi.nba_states", "buchi.translate"), "count"),
        "buchi.letters": (per("buchi.letters", "buchi.totalize"), "count"),
        "buchi.untotalizable": (c["buchi.untotalizable"], "count"),
        "buchi.product_states": (per("buchi.product_states", "buchi.product"), "count"),
        "buchi.product_edges": (per("buchi.product_edges", "buchi.product"), "count"),
        "planner.arena_nodes": (per("planner.arena_nodes", "planner.arena"), "count"),
        "planner.attractor_depth": (c["planner.attractor_depth"], "count"),
        "planner.games_per_call": (games / calls, "count"),
        "planner.winning_game_ratio": (c["planner.games_won"] / games if games else 0.0,
                                       "ratio"),
        "planner.plan_scrs": (per("planner.plan_scrs", "planner.extract"), "count"),
        "plan.counterexamples": (c["plan.counterexamples"], "count"),
        "plan.successors_kept_ratio": (
            c["plan.successors_kept"] / c["plan.successors_before"]
            if c["plan.successors_before"] else 0.0, "ratio"),
        "ltl.parse_s": (parse_s, "s"),
        "core.load_s": (load_s, "s"),
        "trace.calls": (calls, "count"),
        "trace.uncovered_s": (totals[ROOT_SPAN][0], "s"),
        "trace.overhead_frac": (
            1.0 - measured.calls_per_s(traced=True) / measured.calls_per_s(), "ratio"),
    })
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "astra", "__init__.py")):
        print(f"no astra package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    guarded = Guard(RUN_BUDGET_S)
    os.makedirs(OUT, exist_ok=True)

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        setups = SetupTimes(workload, args.seed, scratch)
        setup = setups.repeat()
        gc.collect()
        measured = Measurement(workload, setup, guarded, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong = check_results(workload, setup, measured, guarded)
        digest_mismatches = check_digests(setup.astra, guarded)
        parse_s, load_s = setup.parse_s, setup.load_s
        setup = measured.first = None
        gc.collect()
        setups.repeat()
    setup_s = statistics.median(setups.seconds)
    same_inputs = len(setups.input_digests) == 1
    plan_mismatches = measured.mismatches + len(digest_mismatches)
    attempted = measured.attempted(False) + measured.attempted(True)
    failed = len(measured.errors)
    correct = same_inputs and not wrong and not plan_mismatches

    for error in measured.errors[:3]:
        traceback.print_exception(type(error), error, error.__traceback__)
    for reason in wrong:
        print(f"wrong: {reason}")
    for key in digest_mismatches:
        print(f"plan digest mismatch: {key}")
    if not same_inputs:
        print("wrong: the same seed gave different inputs across set-ups")
    print(f"check wrong_verdicts {len(wrong)} count")
    print(f"check plan_digest_mismatches {plan_mismatches} count")
    print(f"check failed_frac {failed / attempted} ratio")

    if tracer is None:
        latencies = measured.latencies()
        p50 = statistics.median(latencies)
        tail_ref_ms, tail_pct = tail(
            [x for x in latencies for _ in measured.reference[False]])
        metrics = {
            "calls_per_ref_s": (measured.calls_per_s(), "1/ref_s"),
            "call_p50_ref_ms": (p50, "ref_ms"),
            "call_tail_ref_ms": (tail_ref_ms, "ref_ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
        wall = measured.latencies(wall=True)
        print(f"note wall time: calls_per_s {measured.calls_per_s(wall=True)} call_p50_ms "
              f"{statistics.median(wall) * 1e3} call_tail_ms {max(wall) * 1e3}; one ref_ms "
              f"is {statistics.median(measured.reference[False]) / REFERENCE_MS * 1e3} ms")
        rounds = len(measured.reference[False])
        print(f"note call_tail_ref_ms is p{tail_pct:.2f} of {len(latencies) * rounds} "
              f"calls: {len(latencies)} slots in {rounds} rounds")
    else:
        metrics = layer_metrics(tracer, measured, parse_s, load_s)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        tracer.dump(spans_path)
        print(f"note spans written to {os.path.relpath(spans_path, ROOT)}")
        for name in tracer.absent:
            print(f"note absent layer function {name}: 0 calls")
        if tracer.size_errors:
            print(f"note {tracer.size_errors} size counts skipped")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
