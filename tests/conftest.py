import gc
import json
import os
import pathlib

import pytest

from astra.core import AlternatingTransitionSystem, Valuation
from astra.errors import UniquenessViolated
from astra.plan import Controller, ReactivePlan, SCR, plan_from_dict, plan_to_dict


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test that leaves the cyclic garbage collector enabled or
    disabled otherwise than it found it: the library pauses it only for the
    length of a call, and a missed re-enable would show here."""
    enabled = gc.isenabled()
    yield
    changed = gc.isenabled() != enabled
    (gc.enable if enabled else gc.disable)()
    assert not changed, "the test changed gc.isenabled()"


def three_state_valuation():
    return Valuation(
        ["p1", "p2", "p3"],
        {"q1": {"p1", "p2"}, "q2": {"p2", "p3"}, "q3": {"p1", "p3"}},
    )


@pytest.fixture
def agent_system():
    """The three-state agent with actions a1/b1 at q1, a2 at q2, a3 at q3,
    encoded over a common control alphabet.  Controls that the agent does
    not offer in a state keep it in place, which preserves non-blocking
    without adding behaviour the plans below rely on."""
    states = ["q1", "q2", "q3"]
    controls = ["a1", "b1", "a2", "a3"]
    defined = {
        ("q1", "a1"): ["q2"],
        ("q1", "b1"): ["q3"],
        ("q2", "a2"): ["q1", "q3"],
        ("q3", "a3"): ["q3"],
    }
    transitions = []
    for q in states:
        for a in controls:
            for target in defined.get((q, a), [q]):
                transitions.append((q, a, "1", target))
    system = AlternatingTransitionSystem(states, controls, ["1"], transitions)
    return system, three_state_valuation()


@pytest.fixture
def example_plan():
    """Four-rule plan for the three-state agent: reach q3 via q2, with an
    optional detour back through q1."""
    return ReactivePlan([
        SCR(1, "q1", "a1", frozenset({2})),
        SCR(2, "q2", "a2", frozenset({3, 4})),
        SCR(3, "q3", "a3", frozenset({3})),
        SCR(4, "q1", "b1", frozenset({3})),
    ])


@pytest.fixture
def detour_plan():
    """Plan whose rule 2 lists two successors labelled by the same world."""
    return ReactivePlan([
        SCR(1, "q1", "a1", frozenset({2})),
        SCR(2, "q2", "a2", frozenset({1, 4})),
        SCR(3, "q3", "a3", frozenset({1})),
        SCR(4, "q1", "a4", frozenset({3})),
    ])


@pytest.fixture
def deterministic_two_state():
    """Two states, two controls, one disturbance, deterministic moves."""
    transitions = [
        ("q1", "a", "1", "q1"),
        ("q1", "b", "1", "q2"),
        ("q2", "a", "1", "q1"),
        ("q2", "b", "1", "q1"),
    ]
    return AlternatingTransitionSystem(["q1", "q2"], ["a", "b"], ["1"], transitions)


def system_file_dict(system, valuation):
    return {
        "states": list(system.states),
        "controls": list(system.controls),
        "disturbances": list(system.disturbances),
        "transitions": [
            {"from": q, "control": a, "disturbance": b, "to": t}
            for q, a, b, t in system.transitions
        ],
        "valuation": {q: sorted(valuation.label(q)) for q in system.states},
    }


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def child_env(**extra):
    """The environment for a child interpreter: this checkout's ``src``
    first on ``PYTHONPATH``, so ``astra`` imports without an install."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **extra,
            "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


@pytest.fixture
def agent_system_file(tmp_path, agent_system):
    system, valuation = agent_system
    return write_json(tmp_path / "system.json", system_file_dict(system, valuation))


@pytest.fixture
def example_plan_file(tmp_path, example_plan):
    return write_json(tmp_path / "plan.json", plan_to_dict(example_plan))


def assert_plan_routes_agree(plan, rng):
    """``plan``, the plan built from its lists (shuffled, one successor
    repeated), the plan built from its SCRs and the plan read back from its
    file are equal, with equal hashes, files, rules, lookups and controller
    runs; every route's rules are exact ``SCR`` objects with frozenset
    successors."""
    scrs = plan.scrs
    successors = []
    for s in scrs:
        js = [*s.successors, min(s.successors)]
        rng.shuffle(js)
        successors.append(js)
    by_rules = ReactivePlan(scrs)
    plans = (plan, ReactivePlan.from_columns([s.world for s in scrs],
                                             [s.action for s in scrs], successors), by_rules,
             plan_from_dict(plan_to_dict(plan)))
    ids = range(1, len(plan) + 1)
    # one observed history: mostly along the plan, sometimes off it
    observed, state = [plan.world_of(1)], 1
    for _ in range(12):
        state = rng.choice(plan.successor_ids(state))
        observed.append(plan.world_of(state) if rng.random() < 0.9 else "zz")
    runs = []
    for other in plans:
        assert other == by_rules and hash(other) == hash(by_rules)
        assert json.dumps(plan_to_dict(other)) == json.dumps(plan_to_dict(by_rules))
        assert other.scrs == by_rules.scrs and other.by_id == by_rules.by_id
        assert all(type(s) is SCR and type(s.successors) is frozenset
                   for s in (*other.scrs, *other.by_id.values()))
        assert ([(other.world_of(i), other.successor_ids(i)) for i in ids]
                == [(by_rules.world_of(i), by_rules.successor_ids(i)) for i in ids])
        try:
            controller = Controller(other)
        except UniquenessViolated as exc:
            runs.append(str(exc))
            continue
        run = []
        for world in observed:
            controller, action = controller.feed(world)
            run.append((controller.cursor, action))
        runs.append(run)
    assert all(run == runs[0] for run in runs)
