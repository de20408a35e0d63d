"""Seeded random instance generators shared by the test suite."""

from astra import ltl
from astra.core import AlternatingTransitionSystem, Lasso, Valuation
from astra.plan import ReactivePlan, SCR


def random_formula(rng, props, size):
    """A random formula of the given sugared-syntax size."""
    props = list(props)
    if size <= 1:
        roll = rng.random()
        if roll < 0.85 and props:
            return ltl.Atom(rng.choice(props))
        return ltl.TRUE if roll < 0.93 else ltl.false()
    op = rng.choice(["not", "and", "or", "implies", "until", "until", "F", "G", "G"])
    if op in ("not", "F", "G"):
        child = random_formula(rng, props, size - 1)
        return {"not": ltl.Not, "F": ltl.eventually, "G": ltl.always}[op](child)
    left_size = rng.randint(1, size - 2) if size > 2 else 1
    left = random_formula(rng, props, left_size)
    right = random_formula(rng, props, size - 1 - left_size)
    return {"and": ltl.And, "or": ltl.or_, "implies": ltl.implies,
            "until": ltl.Until}[op](left, right)


def g_ladder(k):
    """``!(G … G (p | q))`` with ``k`` nested ``G``."""
    formula = ltl.or_(ltl.Atom("p"), ltl.Atom("q"))
    for _ in range(k):
        formula = ltl.always(formula)
    return ltl.Not(formula)


def random_letter_lasso(rng, props, max_classes=5):
    total = rng.randint(1, max_classes)
    cycle_len = rng.randint(1, total)
    letters = [frozenset(p for p in props if rng.random() < 0.5) for _ in range(total)]
    return Lasso(tuple(letters[: total - cycle_len]), tuple(letters[total - cycle_len:]))


def random_system(rng, max_states=5, max_controls=2, max_disturbances=2,
                  max_props=3, double_successor_p=0.2):
    """A random non-blocking system plus valuation.  Most transitions are
    deterministic per (state, control, disturbance); a few have two targets
    so disturbance resolution stays genuinely branching but bounded."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(1, n + 1)]
    controls = [f"a{i}" for i in range(1, rng.randint(1, max_controls) + 1)]
    disturbances = [f"b{i}" for i in range(1, rng.randint(1, max_disturbances) + 1)]
    transitions = []
    for q in states:
        for a in controls:
            for b in disturbances:
                targets = {rng.choice(states)}
                if rng.random() < double_successor_p:
                    targets.add(rng.choice(states))
                for t in sorted(targets):
                    transitions.append((q, a, b, t))
    n_props = rng.randint(1, max_props)
    props = [f"p{i}" for i in range(1, n_props + 1)]
    mapping = {q: frozenset(p for p in props if rng.random() < 0.5) for q in states}
    system = AlternatingTransitionSystem(states, controls, disturbances, transitions)
    return system, Valuation(props, mapping)


def random_plan(rng, max_rules=8, max_worlds=4, max_actions=3, min_rules=1):
    """A structurally well-formed plan; every rule has successors, so a
    cycle is always reachable from plan state 1."""
    k = rng.randint(min_rules, max_rules)
    worlds = [f"q{i}" for i in range(1, max_worlds + 1)]
    actions = [f"a{i}" for i in range(1, max_actions + 1)]
    rules = []
    for i in range(1, k + 1):
        count = rng.randint(1, min(3, k))
        successors = frozenset(rng.sample(range(1, k + 1), count))
        rules.append(SCR(i, rng.choice(worlds), rng.choice(actions), successors))
    return ReactivePlan(rules)
