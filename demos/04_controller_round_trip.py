"""From a winning controller back to a plan: enumerate the recurrence-free
outcome prefixes, fold repeats of accepting product states back, and read a
fresh plan off the finite system that results.  The regenerated plan is
verified like any other."""

from astra import (
    AlternatingTransitionSystem,
    Valuation,
    build_accepting_system,
    parse_formula,
    pigeonhole_cap,
    plan_from_accepting_system,
    plan_satisfies,
    product,
    synthesize,
)
from astra.planner import spec_automaton

states = ["idle", "busy", "done"]
transitions = [
    ("idle", "work", "ok", "busy"),
    ("idle", "work", "drop", "idle"),
    ("idle", "rest", "ok", "idle"),
    ("idle", "rest", "drop", "idle"),
    ("busy", "work", "ok", "done"),
    ("busy", "work", "drop", "busy"),
    ("busy", "rest", "ok", "busy"),
    ("busy", "rest", "drop", "busy"),
    ("done", "work", "ok", "done"),
    ("done", "work", "drop", "done"),
    ("done", "rest", "ok", "done"),
    ("done", "rest", "drop", "done"),
]
system = AlternatingTransitionSystem(states, ["work", "rest"], ["ok", "drop"],
                                     transitions)
valuation = Valuation(["finished"], {"idle": set(), "busy": set(),
                                     "done": {"finished"}})
spec = parse_formula("F finished", valuation.props)

result = synthesize(system, spec, valuation)
print("synthesized from:", result.initial)

automaton = spec_automaton(spec, valuation)
prod = product(system, [result.initial], automaton, valuation)
print("product states:", len(prod.states), "accepting:", sum(prod.accepting))

fin = build_accepting_system(prod, result.controller)
print("recurrence-free prefixes:", len(fin), "(cap", pigeonhole_cap(prod), ")")
for index in range(len(fin)):
    names = [prod.states[i] for i in fin.nodes[index]]
    trace = " ".join(f"({q},{x})" for q, x in names)
    targets = ",".join(str(t + 1) for t in fin.edges[index])
    print(f"  node {index + 1}: [{trace}] do {fin.actions[index]} -> {{{targets}}}")

regenerated = plan_from_accepting_system(fin)
print("regenerated plan has", len(regenerated), "rules;",
      "satisfies spec:", plan_satisfies(regenerated, spec, valuation))
