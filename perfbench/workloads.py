"""The benchmark workloads: their inputs, the timed call, and the checks.

A workload is a fixed list of slots.  ``generate`` turns the slots and a
seed into JSON-ready inputs, a list of system descriptions and one entry
per slot that names its system by index; ``prepare`` turns those into library objects
(this is set-up, not timed); ``call`` is the timed operation; ``signature``
reduces its result to comparable data; ``check`` compares the first round's
results with answers that follow from how the inputs were built.

Each slot list has an odd length, so the median call is always one slot's
latency.  Sizes are capped so that a round takes at most about 1.5 s and
every slot repeats more than ten times in a run: a shared host's speed
swings by up to 2x over seconds, and only a slot's typical repetition among
many is steady from run to run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import instances


@dataclass
class Instance:
    """One prepared input: library objects plus what the check needs."""

    system: object
    valuation: object
    formula: object
    expected: object = None
    plan: object = None
    total: object = None
    check_valuation: object = None


def narrowed(core, ltl, valuation, formula):
    """The valuation restricted to the formula's atoms."""
    atoms = ltl.atoms(formula)
    return core.Valuation(
        [p for p in valuation.props if p in atoms],
        {q: valuation.label(q) & atoms for q in valuation.states()},
    )


def plan_json(plan_mod, plan, initial=None) -> str:
    """Canonical JSON of a plan, the form whose bytes must not change."""
    return json.dumps(plan_mod.plan_to_dict(plan, initial), sort_keys=True,
                      separators=(",", ":"))


def synth_signature(astra, result):
    plan = None if result.plan is None else plan_json(astra.plan, result.plan,
                                                      result.initial)
    return (result.status, result.initial,
            None if plan is None else hashlib.sha256(plan.encode()).hexdigest())


def replays(plan, lasso) -> bool:
    """Whether the world lasso is spelled by an infinite path of the plan
    graph from plan state 1."""
    if plan.world_of(1) != lasso.at(1):
        return False

    def successors(node):
        pos, state = node
        nxt = lasso.successor(pos)
        return [(nxt, j) for j in plan.successor_ids(state)
                if plan.world_of(j) == lasso.at(nxt)]

    color = {(1, 1): "open"}
    stack = [((1, 1), iter(successors((1, 1))))]
    while stack:
        node, it = stack[-1]
        for nxt in it:
            if color.get(nxt) == "open":
                return True
            if nxt not in color:
                color[nxt] = "open"
                stack.append((nxt, iter(successors(nxt))))
                break
        else:
            color[node] = "done"
            stack.pop()
    return False


def counterexample_ok(astra, inst, lasso) -> bool:
    """A counterexample must falsify the formula and replay on the plan."""
    word = inst.valuation.word(lasso)
    return (not astra.ltl.eval_lasso(word, inst.formula)
            and replays(inst.plan, lasso))


class Workload:
    name = ""
    slots = ()

    def generate(self, rng) -> tuple:
        """``(systems, entries)`` for one round of slots."""
        raise NotImplementedError

    def prepare(self, astra, entry, system, valuation, formula) -> Instance:
        return Instance(system, narrowed(astra.core, astra.ltl, valuation, formula),
                        formula, expected=entry.get("expected"))

    def call(self, astra, inst):
        return astra.planner.synthesize(inst.system, inst.formula, inst.valuation)

    def signature(self, astra, result):
        return synth_signature(astra, result)

    def check(self, astra, inst, result) -> list:
        """Reasons the result is wrong; empty when it is right."""
        raise NotImplementedError

    def _check_found(self, astra, inst, result, valuation) -> list:
        problems = []
        try:
            result.plan.validate_against(inst.system)
        except astra.errors.PlanValidationError as exc:
            problems.append(f"plan does not fit the system: {exc}")
        if not astra.plan.plan_satisfies(result.plan, inst.formula, valuation):
            problems.append("found plan fails plan_satisfies")
        return problems


class SynthFound(Workload):
    name = "synth-found"
    slots = (("G (p -> F goal)", 1200), ("G F goal & G !r", 400),
             ("G (p -> F goal)", 400), ("G F goal & G !r", 150),
             ("G (p -> F goal)", 150))

    def generate(self, rng):
        systems = [instances.ring_system(rng, n) for _, n in self.slots]
        return systems, [{"system": i, "formula": spec}
                         for i, (spec, _) in enumerate(self.slots)]

    def check(self, astra, inst, result):
        if result.status != "found" or result.initial != "q0":
            return [f"expected found from q0, got {result.status} from {result.initial}"]
        return self._check_found(astra, inst, result, inst.valuation)


class SynthLost(Workload):
    name = "synth-lost"
    slots = (20, 40, 80)

    def generate(self, rng):
        systems = [instances.lost_system(rng, n) for n in self.slots]
        specs = instances.LOST_SPECS
        return systems, [{"system": i, "formula": specs[i % len(specs)]}
                         for i in range(len(systems))]

    def check(self, astra, inst, result):
        if result.status != "not-found":
            return [f"expected not-found, got {result.status}"]
        return []


class SpecWide(Workload):
    """Every template at 6 propositions, half of them at 4 and at 5, two at 7
    and one at 8: totalize grows about sevenfold per proposition, so more
    slots at 7 or 8 would leave too few rounds in a run.  The median call is
    then a 6-proposition one, whose time totalize sets."""

    name = "spec-wide"
    slots = (tuple((4, t) for t in instances.WIDE_SPECS[::2])
             + tuple((5, t) for t in instances.WIDE_SPECS[1::2])
             + tuple((6, t) for t in instances.WIDE_SPECS)
             + ((7, "F A"), (7, "G F A"), (8, "A U B")))

    def generate(self, rng):
        systems, entries = [], []
        for i, (n_props, template) in enumerate(self.slots):
            systems.append(instances.wide_system(rng, 2 + i % 5, n_props))
            entries.append({"system": len(entries),
                            "formula": instances.wide_formula(rng, n_props, template)})
        return systems, entries

    def prepare(self, astra, entry, system, valuation, formula):
        inst = Instance(system, valuation, formula)
        inst.check_valuation = narrowed(astra.core, astra.ltl, valuation, formula)
        return inst

    def check(self, astra, inst, result):
        # Propositions the formula does not read cannot change the verdict
        # or the plan, so the narrowed instance is the reference.
        ref = astra.planner.synthesize(inst.system, inst.formula, inst.check_valuation)
        if self.signature(astra, result) != self.signature(astra, ref):
            return [f"{result.status} differs from the narrowed instance's {ref.status}"]
        if result.status == "found":
            return self._check_found(astra, inst, result, inst.valuation)
        return []


class VerifyMixed(Workload):
    """Benchmark-built plans on ring systems: five hold, four are violated."""

    name = "verify-mixed"
    slots = ((300, "good", "G F goal & G !r"),
             (300, "stall", "G (p -> F goal)"),
             (600, "stall", "G !r"),
             (600, "hazard", "G !r"),
             (1200, "good", "G (p -> F goal) & G (!r U goal)"),
             (1200, "stall", "G F goal & G (p -> F goal)"),
             (2000, "good", "G (!r U goal)"),
             (2000, "hazard", "G (p -> F goal) & G !r"),
             (3000, "good", "G F goal"))

    def generate(self, rng):
        systems, entries, index = [], [], {}
        for n, kind, formula in self.slots:
            if n not in index:
                index[n] = len(systems)
                systems.append(instances.ring_system(rng, n))
            plan, holds = instances.verify_case(systems[index[n]], kind, formula)
            entries.append({"system": index[n], "formula": formula, "plan": plan,
                            "expected": holds})
        return systems, entries

    def prepare(self, astra, entry, system, valuation, formula):
        inst = super().prepare(astra, entry, system, valuation, formula)
        inst.plan = astra.plan.plan_from_dict(entry["plan"])
        inst.total = astra.buchi.totalize(
            astra.buchi.ltl_to_buchi(formula, props=inst.valuation.props))
        return inst

    def call(self, astra, inst):
        holds = astra.plan.plan_satisfies(inst.plan, inst.formula, inst.valuation)
        if inst.total is None:
            return holds, None
        return holds, astra.plan.plan_violation_total(inst.plan, inst.total,
                                                      inst.valuation)

    def signature(self, astra, result):
        holds, lasso = result
        return holds, lasso

    def check(self, astra, inst, result):
        holds, total_lasso = result
        problems = []
        if holds != inst.expected:
            problems.append(f"plan_satisfies says {holds}, construction says "
                            f"{inst.expected}")
        lasso = astra.plan.plan_violation(inst.plan, inst.formula, inst.valuation)
        if (lasso is None) != inst.expected:
            problems.append("plan_violation disagrees with the construction")
        if inst.total is not None and (total_lasso is None) != inst.expected:
            problems.append("plan_violation_total disagrees with plan_violation")
        for found in (lasso, total_lasso):
            if found is not None and not counterexample_ok(astra, inst, found):
                problems.append("a counterexample holds or does not replay")
        return problems


WORKLOADS = {w.name: w for w in (SynthFound(), SynthLost(), SpecWide(), VerifyMixed())}
