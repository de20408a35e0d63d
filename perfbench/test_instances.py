"""Tests of the benchmark's input generators at small sizes.

The found, lost and trap guarantees are checked on the generated data
itself, independently of the library; the library is then asked once per
instance as a cross-check.  Run with ``python -m pytest perfbench``.
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import instances  # noqa: E402
import workloads  # noqa: E402
from astra import core, ltl, planner  # noqa: E402
from astra.plan import plan_from_dict, plan_satisfies  # noqa: E402


def successors(raw):
    out = {}
    for t in raw["transitions"]:
        out.setdefault((t["from"], t["control"], t["disturbance"]), []).append(t["to"])
    return out


def load(raw, text):
    system = core.validate_ats(raw)
    valuation = core.parse_valuation(raw, system)
    formula = ltl.parse_formula(text, valuation.props)
    return system, formula, workloads.narrowed(core, ltl, valuation, formula)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = workloads.WORKLOADS[name]

    def dump(seed):
        return json.dumps(workload.generate(random.Random(seed)), sort_keys=True)

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [12, 31, 60])
def test_ring_a0_reaches_a_goal_and_never_leaves_the_ring(seed, n):
    raw = instances.ring_system(random.Random(seed), n)
    succ = successors(raw)
    labels = raw["valuation"]
    ring = [q for q in raw["states"] if q.startswith("q")]
    assert ring[0] == raw["states"][0] == "q0"
    assert all("r" not in labels[q] for q in ring)
    a0 = {q: {t for b in instances.DISTURBANCES for t in succ[(q, "a0", b)]}
          for q in ring}
    assert all(a0[q] <= set(ring) for q in ring)
    forced = {q for q in ring if "goal" in labels[q]}
    while True:
        grown = forced | {q for q in ring if a0[q] <= forced}
        if grown == forced:
            break
        forced = grown
    assert forced == set(ring)
    for spec in instances.FOUND_SPECS:
        result = planner.synthesize(*load(raw, spec))
        assert (result.status, result.initial) == ("found", "q0")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [16, 20, 33])
def test_lost_trap_is_closed_goal_free_and_always_reachable(seed, n):
    raw = instances.lost_system(random.Random(seed), n)
    succ = successors(raw)
    labels = raw["valuation"]
    trap = set(raw["states"][-max(2, n // 4):])
    for q in trap:
        assert "p" in labels[q] and "goal" not in labels[q]
        assert all(set(succ[(q, a, b)]) <= trap
                   for a in instances.CONTROLS for b in instances.DISTURBANCES)
    for q in set(raw["states"]) - trap:
        for a in instances.CONTROLS:
            assert any(set(succ[(q, a, b)]) <= trap for b in instances.DISTURBANCES)
    for spec in instances.LOST_SPECS:
        assert planner.synthesize(*load(raw, spec)).status == "not-found"


@pytest.mark.parametrize("seed", range(6))
def test_wide_props_are_all_declared_and_formula_reads_few(seed):
    rng = random.Random(seed)
    for n_props in (4, 6, 8):
        raw = instances.wide_system(rng, rng.randint(2, 6), n_props)
        system = core.validate_ats(raw)
        valuation = core.parse_valuation(raw, system)
        assert sorted(valuation.props) == sorted(f"x{i}" for i in range(n_props))
        for template in instances.WIDE_SPECS:
            text = instances.wide_formula(rng, n_props, template)
            formula = ltl.parse_formula(text, valuation.props)
            assert 1 <= len(ltl.atoms(formula)) <= 3


@pytest.mark.parametrize("seed", range(3))
def test_verify_case_verdict_follows_from_construction(seed):
    raw = instances.ring_system(random.Random(seed), 40)
    for kind, text in sorted(instances.VERIFY_CASES):
        plan_dict, holds = instances.verify_case(raw, kind, text)
        system, formula, valuation = load(raw, text)
        plan = plan_from_dict(plan_dict)
        plan.validate_against(system)
        assert plan_satisfies(plan, formula, valuation) == holds


def test_tracer_reports_a_missing_function_as_absent_and_restores():
    import types

    import tracing

    def translate(formula, props=None):
        return types.SimpleNamespace(states=("s0", "s1"))

    lib = types.SimpleNamespace(buchi=types.SimpleNamespace(ltl_to_buchi=translate),
                                planner=types.SimpleNamespace(),
                                plan=types.SimpleNamespace())
    tracer = tracing.Tracer()
    tracer.install(lib)
    tracer.call(lambda: lib.buchi.ltl_to_buchi("f") and lib.buchi.ltl_to_buchi("g"))
    tracer.uninstall()
    assert lib.buchi.ltl_to_buchi is translate
    assert "buchi.totalize" in tracer.absent and "planner.GameArena" in tracer.absent
    totals = tracer.layer_totals()
    assert totals["buchi.translate"][1] == 2 and totals["planner.fixpoint"] == (0.0, 0)
    assert tracer.counts["buchi.nba_states"] == 4
