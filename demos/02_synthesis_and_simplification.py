"""Synthesize a plan from a formula, inspect its rules, and step the
extracted controller by hand.

A cart starts on a launch pad before a strip of five cells.  The ramp off
the pad lands on cell 1 or cell 2 depending on the wind, "step" reliably
advances one cell, and "dash" jumps two cells on calm air but three under
a gust.  Cell 4 is a pit, cell 5 the goal: stay out of the pit until the
goal is reached.  The winning plan has to branch on where the ramp threw
the cart, so it carries one rule per situation, not per cell.
"""

import random

from astra import (
    AlternatingTransitionSystem,
    Valuation,
    parse_formula,
    simplify_plan,
    synthesize,
)

cells = ["pad", "c1", "c2", "c3", "c4", "c5"]
strip = ["c1", "c2", "c3", "c4", "c5"]


def landing(cell, offset):
    if cell == "pad":
        return "pad"
    index = min(strip.index(cell) + offset, len(strip) - 1)
    return strip[index]


transitions = []
for cell in cells:
    for calm_target, gust_target, move in (
        (("c1", "c2") if cell == "pad" else (cell, cell)) + ("ramp",),
        ((landing(cell, 1), landing(cell, 1)) if cell != "pad" else ("pad", "pad"))
        + ("step",),
        ((landing(cell, 2), landing(cell, 3)) if cell != "pad" else ("pad", "pad"))
        + ("dash",),
        (cell, cell, "stay"),
    ):
        transitions.append((cell, move, "calm", calm_target))
        transitions.append((cell, move, "gust", gust_target))

system = AlternatingTransitionSystem(
    cells, ["ramp", "step", "dash", "stay"], ["calm", "gust"], transitions
)
valuation = Valuation(
    ["pit", "goal"],
    {"pad": set(), "c1": set(), "c2": set(), "c3": set(),
     "c4": {"pit"}, "c5": {"goal"}},
)

spec = parse_formula("!pit U goal", valuation.props)
result = synthesize(system, spec, valuation)
print("status:", result.status)
print("initial state:", result.initial)
print("plan rules:")
for rule in result.plan.scrs:
    succ = ",".join(map(str, sorted(rule.successors)))
    print(f"  {rule.id}: at {rule.world} do {rule.action} -> {{{succ}}}")

# a synthesized plan already keeps one successor per world state, so
# simplifying it is a no-op
assert simplify_plan(result.plan) == result.plan

print("\ndriving the controller against seeded random wind:")
rng = random.Random(5)
controller = result.controller
state = result.initial
controller, action = controller.feed(state)
for step in range(1, 8):
    wind = rng.choice(system.disturbances)
    state = rng.choice(system.successors_under(state, action, wind))
    print(f"  step {step}: {action} under {wind} -> {state}")
    controller, action = controller.feed(state)

# dashing blindly from c2 can land in the pit, so no plan exists from there
from_c2 = synthesize(system, parse_formula("goal", valuation.props),
                     valuation, initial_hint="c2")
print("\nimmediate goal from c2:", from_c2.status)

# an unsatisfiable request is reported as such, not mis-synthesized
impossible = parse_formula("G pit & G goal", valuation.props)
print("globally pit and goal:", synthesize(system, impossible, valuation).status)
