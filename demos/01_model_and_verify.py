"""Build a small disturbed system, write a plan by hand, and verify it.

A patrol robot moves between three rooms.  In room 1 it can head for
room 2 (``a1``) or room 3 (``b1``); from room 2 the move ``a2`` is shaky
and may land in room 1 or room 3; room 3 only lets it idle.  We want
"stay where charging is possible until the goal room is reached":
``p2 U p3``.
"""

from astra import (
    AlternatingTransitionSystem,
    Lasso,
    ReactivePlan,
    SCR,
    Valuation,
    parse_formula,
    plan_satisfies,
    plan_violation,
    trajectory_satisfies,
)

rooms = ["q1", "q2", "q3"]
moves = ["a1", "b1", "a2", "a3"]
offered = {
    ("q1", "a1"): ["q2"],
    ("q1", "b1"): ["q3"],
    ("q2", "a2"): ["q1", "q3"],
    ("q3", "a3"): ["q3"],
}
transitions = [
    (q, a, "1", target)
    for q in rooms
    for a in moves
    for target in offered.get((q, a), [q])  # unoffered moves idle
]
system = AlternatingTransitionSystem(rooms, moves, ["1"], transitions)
valuation = Valuation(
    ["p1", "p2", "p3"],
    {"q1": {"p1", "p2"}, "q2": {"p2", "p3"}, "q3": {"p1", "p3"}},
)

print("successors of q2 under a2:", system.successors("q2", "a2"))

plan = ReactivePlan([
    SCR(1, "q1", "a1", {2}),      # head for room 2
    SCR(2, "q2", "a2", {3, 4}),   # shaky move: may land in room 3 or back in 1
    SCR(3, "q3", "a3", {3}),      # idle at the goal
    SCR(4, "q1", "b1", {3}),      # second visit to room 1 goes direct
])

spec = parse_formula("p2 U p3", valuation.props)
print("plan satisfies p2 U p3:", plan_satisfies(plan, spec, valuation))

# a spec this plan cannot meet, with a counterexample loop
always_p2 = parse_formula("G p2", valuation.props)
witness = plan_violation(plan, always_p2, valuation)
print("\nG p2 fails with counterexample cycle:", " ".join(witness.cycle))
assert not trajectory_satisfies(witness, always_p2, valuation)

# one particular run: out to room 2, bounced back, then direct to the goal
detour = Lasso(("q1", "q2", "q1"), ("q3",))
print("detour run satisfies the spec:", trajectory_satisfies(detour, spec, valuation))
