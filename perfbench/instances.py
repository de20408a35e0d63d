"""Seeded instance generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain JSON-ready data,
so the same seed gives byte-identical inputs.  Systems use the library's
system-file layout (``states``/``controls``/``disturbances``/``transitions``/
``valuation``) and always have 3 controls and 2 disturbances.

The expected answer of every instance follows from how it is built, not
from the library under test:

* ``ring_system``: control ``a0`` moves one or two steps along a ring whose
  goal states come in adjacent pairs, so no disturbance can skip a goal and
  ``a0`` never leaves the ring.  Hazard states (``r``) sit off the ring.
  Both ``G (p -> F goal)`` and ``G F goal & G !r`` are therefore won from
  ``q0``, the first declared state.
* ``lost_system``: from every state outside the trap, every control has a
  disturbance that leads into the trap; the trap is closed, carries ``p``
  and has no goal.  ``G F goal``-family specs are lost from every state.
* ``verify-mixed`` plans follow ``a0`` on the ring except at one state
  where they stall (``a1``) or step into a hazard (``a2``), which decides
  each paired formula's verdict.
"""

from __future__ import annotations

CONTROLS = ("a0", "a1", "a2")
DISTURBANCES = ("b0", "b1")

# Distance between the adjacent goal pairs on a ring.
GOAL_SPACING = 20

FOUND_SPECS = ("G (p -> F goal)", "G F goal & G !r")
LOST_SPECS = ("G F goal", "G F goal & G !r", "G (p -> F goal)")

# Formula templates over placeholders A, B, C, each reading 1-3 atoms.
# ``F G A`` has no deterministic translation, so it yields ``unknown``.
WIDE_SPECS = (
    "F A", "G A", "G F A", "F G A", "G (A -> F B)", "A U B",
    "G (A | B)", "G F A & G !C",
)

# verify-mixed formulas with 1-4 temporal operators.  ``(plan kind,
# formula) -> holds`` is fixed by construction; pairs missing here have no
# constructed verdict and are never generated.
VERIFY_CASES = {
    ("good", "G !r"): True,
    ("good", "F goal"): True,
    ("good", "G F goal"): True,
    ("good", "G (p -> F goal)"): True,
    ("good", "G (!r U goal)"): True,
    ("good", "G F goal & G !r"): True,
    ("good", "G (p -> F goal) & G !r"): True,
    ("good", "G F goal & G (p -> F goal)"): True,
    ("good", "G (p -> F goal) & G (!r U goal)"): True,
    ("stall", "G !r"): True,
    ("stall", "G F goal"): False,
    ("stall", "G (p -> F goal)"): False,
    ("stall", "G (!r U goal)"): False,
    ("stall", "G F goal & G !r"): False,
    ("stall", "G (p -> F goal) & G !r"): False,
    ("stall", "G F goal & G (p -> F goal)"): False,
    ("stall", "G (p -> F goal) & G (!r U goal)"): False,
    ("hazard", "G !r"): False,
    ("hazard", "G (!r U goal)"): False,
    ("hazard", "G F goal & G !r"): False,
    ("hazard", "G (p -> F goal) & G !r"): False,
    ("hazard", "G (p -> F goal) & G (!r U goal)"): False,
}


def _system(states, transitions, valuation):
    return {
        "states": list(states),
        "controls": list(CONTROLS),
        "disturbances": list(DISTURBANCES),
        "transitions": [
            {"from": q, "control": a, "disturbance": b, "to": t}
            for q, a, b, t in transitions
        ],
        "valuation": {q: sorted(valuation[q]) for q in states},
    }


def ring_system(rng, n):
    """A ``found`` system of ``n`` states: a ring of about 9/10 of them with
    a pair of goal states every ``GOAL_SPACING``, plus hazard states
    labelled ``r``.

    The seed only rotates the ring, so every system of one size is the same
    up to where ``q0`` sits, and takes the same work.
    """
    # A ring length that is a multiple of the goal spacing keeps the gap
    # across the wrap-around as wide as the others.
    m = GOAL_SPACING * (9 * n // 10 // GOAL_SPACING) or n - max(1, n // 10)
    hazards = n - m
    ring = [f"q{i}" for i in range(m)]
    haz = [f"h{i}" for i in range(hazards)]
    states = ring + haz
    shift = rng.randrange(m)
    valuation = {q: set() for q in states}
    for i, q in enumerate(ring):
        c = (i - shift) % m
        if c % GOAL_SPACING < 2:
            valuation[q].add("goal")
        if c % 3 == 1:
            valuation[q].add("p")
    for h in haz:
        valuation[h].add("r")
    transitions = []
    for i, q in enumerate(ring):
        c = (i - shift) % m
        transitions += [
            (q, "a0", "b0", ring[(i + 1) % m]),
            (q, "a0", "b1", ring[(i + 2) % m]),
            (q, "a1", "b0", q),
            (q, "a1", "b1", ring[(i + m // 2) % m]),
            (q, "a2", "b0", haz[c % hazards]),
            (q, "a2", "b1", haz[(c + 1) % hazards]),
        ]
    for k, h in enumerate(haz):
        back = shift + 10 * k + 7
        transitions += [
            (h, "a0", "b0", ring[back % m]),
            (h, "a0", "b1", ring[(back + 1) % m]),
            (h, "a1", "b0", ring[(back + 5) % m]),
            (h, "a1", "b1", haz[(k + 1) % hazards]),
            (h, "a2", "b0", haz[(k + 2) % hazards]),
            (h, "a2", "b1", ring[(back + 11) % m]),
        ]
    return _system(states, transitions, valuation)


def lost_system(rng, n):
    """A ``not-found`` system of ``n`` states whose last quarter is a closed,
    goal-free trap labelled ``p`` that every control can be pushed into.

    Outside the trap, the disturbance that does not push moves control
    ``a<j>`` from the i-th state to the (i+1+j)-th, so every state reaches
    every other one and each candidate initial state's product covers the
    whole system.  The seed only shifts the labels, so systems of one size
    take the same work.
    """
    trap_size = max(2, n // 4)
    states = [f"q{i}" for i in range(n)]
    free, trap = states[:-trap_size], states[-trap_size:]
    valuation = {q: set() for q in states}
    # Labels repeat with a random phase, so every size has the same share
    # of each proposition; from 14 states on, every spec's atoms occur.
    phase = rng.randrange(30)
    for i, q in enumerate(free):
        k = i + phase
        valuation[q].update(prop for prop, hit in (
            ("goal", k % 3 == 0), ("p", k % 3 == 1), ("r", k % 10 == 5)) if hit)
    for q in trap:
        valuation[q].add("p")
    transitions = []
    for i, q in enumerate(free):
        for j, a in enumerate(CONTROLS):
            push = DISTURBANCES[(i + j) % 2]
            for b in DISTURBANCES:
                target = (trap[(i + j) % trap_size] if b == push
                          else free[(i + 1 + j) % len(free)])
                transitions.append((q, a, b, target))
    for i, q in enumerate(trap):
        transitions += [(q, a, b, trap[(i + 1 + j) % trap_size])
                        for j, a in enumerate(CONTROLS) for b in DISTURBANCES]
    return _system(states, transitions, valuation)


def wide_system(rng, n, n_props):
    """A random ``n``-state system whose valuation declares ``n_props``
    propositions ``x0..``, each holding in at least one state."""
    states = [f"q{i}" for i in range(n)]
    props = [f"x{i}" for i in range(n_props)]
    valuation = {q: {p for p in props if rng.random() < 0.5} for q in states}
    for p in props:
        valuation[rng.choice(states)].add(p)
    transitions = [(q, a, b, rng.choice(states))
                   for q in states for a in CONTROLS for b in DISTURBANCES]
    return _system(states, transitions, valuation)


def wide_formula(rng, n_props, template):
    """A ``WIDE_SPECS`` template over distinct random propositions."""
    names = rng.sample([f"x{i}" for i in range(n_props)], 3)
    text = template
    for placeholder, name in zip("ABC", names):
        text = text.replace(placeholder, name)
    return text


def _successors(raw):
    succ = {}
    for t in raw["transitions"]:
        succ.setdefault((t["from"], t["control"]), []).append(t["to"])
    return succ


def policy_plan(raw, policy):
    """The plan that applies ``policy[state]`` in every world state reachable
    from ``q0``: one rule per state, numbered in breadth-first order, whose
    successors cover every disturbance-resolved successor."""
    succ = _successors(raw)
    ids = {"q0": 1}
    order = ["q0"]
    for q in order:
        for t in succ[(q, policy[q])]:
            if t not in ids:
                ids[t] = len(order) + 1
                order.append(t)
    return {"scrs": [
        {"id": ids[q], "world": q, "action": policy[q],
         "successors": sorted({ids[t] for t in succ[(q, policy[q])]})}
        for q in order
    ]}


def verify_case(raw, kind, formula):
    """The plan of ``kind`` (``good``, ``stall`` or ``hazard``) for a ring
    system, and whether it satisfies ``formula`` by construction.

    Stall and hazard plans deviate at the first non-goal ``p`` state half
    way round the ring, so the violation lies equally deep for every seed.
    """
    policy = {q: "a0" for q in raw["states"]}
    if kind != "good":
        labels = raw["valuation"]
        ring = [q for q in raw["states"] if q.startswith("q")]
        deviate = next(q for q in ring[len(ring) // 2:]
                       if "goal" not in labels[q] and "p" in labels[q])
        policy[deviate] = "a1" if kind == "stall" else "a2"
    return policy_plan(raw, policy), VERIFY_CASES[(kind, formula)]
