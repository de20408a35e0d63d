"""Span tracing around the library's layer boundaries, from outside it.

``Tracer.install`` replaces public functions at the module attributes
through which ``synthesize`` and ``plan_satisfies`` reach them, so every
call records a span (name, start, end, parent, call id) and the sizes of
what it returned.  ``uninstall`` puts the originals back; the benchmark
installs the tracer for every second round only.  A function that
no longer exists is reported as absent with zero calls, and a returned
object whose shape changed only loses its size counts.

A layer's self time is the total duration of its spans minus the part
covered by their child spans; its call count leaves out spans nested in a
span of the same layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _translate_sizes(counts, args, result):
    counts["buchi.nba_states"] += len(result.states)


def _totalize_sizes(counts, args, result):
    counts["buchi.letters"] += 2 ** len(args[0].props)
    counts["buchi.untotalizable"] += result is None


def _product_sizes(counts, args, result):
    counts["buchi.product_states"] += len(result.states)
    counts["buchi.product_edges"] += len(result.edges)


def _arena_sizes(counts, args, result):
    counts["planner.arena_nodes"] += len(result.nodes)


def _fixpoint_sizes(counts, args, result):
    counts["planner.games_won"] += ("s", args[0].product.initial) in result.winning
    depth = max(result.rank.values(), default=0)
    counts["planner.attractor_depth"] = max(counts["planner.attractor_depth"], depth)


def _extract_sizes(counts, args, result):
    counts["planner.plan_scrs"] += len(result)


def _simplify_sizes(counts, args, result):
    counts["plan.successors_before"] += sum(len(s.successors) for s in args[0].scrs)
    counts["plan.successors_kept"] += sum(len(s.successors) for s in result.scrs)


def _violation_sizes(counts, args, result):
    counts["plan.counterexamples"] += result is not None


# (module, attribute, layer, sizes).  ``plan_satisfies`` and
# ``plan_violation_total`` are wrapped where the planner imported them and
# in ``plan``, where the benchmark calls them.
WRAPS = (
    ("buchi", "ltl_to_buchi", "buchi.translate", _translate_sizes),
    ("buchi", "totalize", "buchi.totalize", _totalize_sizes),
    ("buchi", "is_total", "buchi.is_total", None),
    ("buchi", "product", "buchi.product", _product_sizes),
    ("planner", "GameArena", "planner.arena", _arena_sizes),
    ("planner", "solve_buchi_game", "planner.fixpoint", _fixpoint_sizes),
    ("planner", "extract_plan", "planner.extract", _extract_sizes),
    ("planner", "plan_satisfies", "plan.verify", None),
    ("planner", "plan_violation_total", "plan.verify", _violation_sizes),
    ("planner", "simplify_plan", "plan.simplify", _simplify_sizes),
    ("plan", "plan_satisfies", "plan.verify", None),
    ("plan", "plan_violation_total", "plan.verify", _violation_sizes),
    ("plan", "plan_violation", "plan.verify", _violation_sizes),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in WRAPS))

ROOT = "call"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, call id]
        self.counts = defaultdict(int)
        self.absent = []
        self.size_errors = 0
        self._open = []
        self._restore = []
        self._call_id = 0

    def install(self, astra):
        for module_name, attr, layer, sizes in WRAPS:
            module = getattr(astra, module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, layer, sizes))
            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self._call_id])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def _wrap(self, fn, layer, sizes):
        def traced(*args, **kwargs):
            self._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end()
            if sizes is not None:
                try:
                    sizes(self.counts, args, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.size_errors += 1
            return result
        return traced

    def call(self, fn, *args):
        """Run one timed call under a root span with a fresh call id."""
        self._call_id += 1
        self._begin(ROOT)
        try:
            return fn(*args)
        finally:
            self._end()

    def layer_totals(self):
        """``{layer: (self seconds, calls)}`` for the root and every layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        totals = {layer: [0.0, 0] for layer in (ROOT,) + LAYERS}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None:
                continue
            totals[name][0] += end - start - child[i]
            if parent is None or self.spans[parent][0] != name:
                totals[name][1] += 1
        return {layer: tuple(v) for layer, v in totals.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call"],
                       "absent": self.absent, "spans": self.spans}, fh)
