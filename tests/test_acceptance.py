"""Acceptance suite: one test per criterion, each printing a verdict line.

The random corpora are seeded, so every run checks the same instances.
"""

import gc
import json
import pathlib
import random
import time

import pytest

from astra import buchi, ltl, planner
from astra.cli import main as cli_main
from astra.core import AlternatingTransitionSystem, Lasso, Valuation, load_system
from astra.plan import (
    ReactivePlan,
    SCR,
    check_plan,
    find_reachable_cycle,
    plan_from_dict,
    plan_to_dict,
    plan_satisfies,
    simplify_plan,
)

from conftest import assert_plan_routes_agree, system_file_dict, write_json
from generators import (
    g_ladder,
    random_formula,
    random_letter_lasso,
    random_plan,
    random_system,
)
from oracles import (
    build_accepting_system,
    canonical_lasso,
    closed_loop_lassos,
    keeps_reachable_cycle,
    pigeonhole_cap,
    plan_from_accepting_system,
    plan_trajectories,
    positional_winner_exists,
    replayable_on_plan,
)

DATA = pathlib.Path(__file__).parent / "data"
CORPUS_SIZE = 520
ARENA_NODE_LIMIT = 64


def report(number, name):
    print(f"criterion {number} ({name}): PASS")


class Instance:
    def __init__(self, system, valuation, formula, spec, result):
        self.system = system
        self.valuation = valuation
        self.formula = formula
        self.spec = spec
        self.result = result


@pytest.fixture(scope="session")
def corpus():
    """Seeded instances whose specification automata totalize, with their
    synthesis results; shared by the soundness, completeness, equivalence,
    and round-trip criteria."""
    rng = random.Random(987654321)
    instances = []
    started = time.perf_counter()
    while len(instances) < CORPUS_SIZE:
        system, valuation = random_system(rng)
        formula = random_formula(rng, valuation.props, rng.randint(1, 6))
        spec = planner.spec_automaton(formula, valuation)
        if spec is None:
            continue
        result = planner.synthesize(system, formula, valuation)
        instances.append(Instance(system, valuation, formula, spec, result))
    elapsed = time.perf_counter() - started
    return instances, elapsed


def test_criterion_01_verify_agent_plan(tmp_path, agent_system, example_plan):
    from astra.plan import plan_to_dict

    system, valuation = agent_system
    system_path = write_json(tmp_path / "system.json", system_file_dict(system, valuation))
    plan_path = write_json(tmp_path / "plan.json", plan_to_dict(example_plan))
    started = time.perf_counter()
    code = cli_main([
        "verify", "--system", system_path, "--spec", "p2 U p3",
        "--plan", plan_path,
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 1.0
    report(1, "three-state agent plan verifies against p2 U p3")


def test_criterion_02_simplification_reproduction(detour_plan):
    started = time.perf_counter()
    prefix, suffix = find_reachable_cycle(detour_plan)
    assert "".join(map(str, prefix)) == "121"
    assert "".join(map(str, suffix)) == "121"
    simplified = simplify_plan(detour_plan)
    assert simplified == ReactivePlan([
        SCR(1, "q1", "a1", frozenset({2})),
        SCR(2, "q2", "a2", frozenset({1})),
        SCR(3, "q3", "a3", frozenset({1})),
        SCR(4, "q1", "a4", frozenset({3})),
    ])
    assert time.perf_counter() - started < 1.0
    report(2, "detour plan simplifies exactly, prefix=suffix=121")


def test_criterion_03_trajectory_reproduction(example_plan):
    started = time.perf_counter()
    lassos = plan_trajectories(example_plan, 4)
    expected = {
        canonical_lasso(Lasso(("q1", "q2"), ("q3",))),
        canonical_lasso(Lasso(("q1", "q2", "q1"), ("q3",))),
    }
    assert lassos == expected
    for lasso in lassos:
        assert replayable_on_plan(example_plan, lasso)
    assert time.perf_counter() - started < 1.0
    report(3, "bounded trajectory set matches the two expected lassos")


def test_criterion_04_soundness_suite(corpus):
    instances, synth_seconds = corpus
    started = time.perf_counter()
    assert len(instances) >= 500
    found = 0
    for inst in instances:
        if inst.result.found:
            found += 1
            assert plan_satisfies(inst.result.plan, inst.formula, inst.valuation)
    elapsed = synth_seconds + (time.perf_counter() - started)
    assert found > 100
    assert elapsed < 60.0
    report(4, f"soundness on {len(instances)} instances, {found} found, "
              f"{elapsed:.1f}s")


def test_criterion_05_completeness_suite(corpus):
    instances, _ = corpus
    started = time.perf_counter()
    confirmed = skipped = 0
    for inst in instances:
        oracle_found = False
        all_checked = True
        for q0 in inst.system.states:
            prod = buchi.product(inst.system, [q0], inst.spec, inst.valuation)
            if len(prod.states) * (1 + len(inst.system.controls)) > ARENA_NODE_LIMIT:
                all_checked = False
                continue
            if positional_winner_exists(prod):
                oracle_found = True
                break
        if oracle_found:
            assert inst.result.found, (
                f"oracle finds a winner but synthesis reported "
                f"{inst.result.status}"
            )
            confirmed += 1
        elif all_checked:
            assert not inst.result.found
            confirmed += 1
        else:
            skipped += 1
    elapsed = time.perf_counter() - started
    assert confirmed >= 400
    assert elapsed < 300.0
    report(5, f"completeness vs strategy enumeration, {confirmed} decided, "
              f"{skipped} above the arena limit, {elapsed:.1f}s")


def test_criterion_06_simplification_properties():
    rng = random.Random(13579)
    for _ in range(500):
        plan = random_plan(rng)
        simplified = simplify_plan(plan)
        simplified.require_unique_world_successors()
        assert keeps_reachable_cycle(plan, simplified)
        bound = min(len(plan) + 1, 6)
        assert plan_trajectories(simplified, bound) <= plan_trajectories(plan, bound)
    report(6, "500 random plans simplify to unique successors, keep cycles, "
              "shrink trajectories")


def test_criterion_07_strategy_extraction_equivalence(corpus):
    instances, _ = corpus
    compared = 0
    for inst in instances:
        if not inst.result.found:
            continue
        plan = inst.result.plan
        bound = len(plan) + 1
        closed = closed_loop_lassos(
            inst.system, inst.result.controller, plan.world_of(1), bound
        )
        assert closed == plan_trajectories(plan, bound)
        compared += 1
    assert compared > 100
    report(7, f"closed-loop lasso sets equal plan lasso sets on {compared} plans")


def test_criterion_08_semantics_cross_oracle():
    rng = random.Random(24680)
    props = ("p1", "p2", "p3")
    for _ in range(1000):
        formula = random_formula(rng, props, rng.randint(1, 6))
        word = random_letter_lasso(rng, props)
        direct = ltl.eval_lasso(word, formula, 1)
        automaton = buchi.ltl_to_buchi(formula, props=props)
        assert buchi.nba_accepts(automaton, word) == direct
    report(8, "1000 formula/lasso pairs agree between evaluator and automata")


def test_criterion_09_round_trip(corpus):
    instances, _ = corpus
    rebuilt = 0
    for inst in instances:
        if not inst.result.found:
            continue
        prod = buchi.product(
            inst.system, [inst.result.initial], inst.spec, inst.valuation
        )
        fin = build_accepting_system(prod, inst.result.controller)
        assert max(len(node) for node in fin.nodes) <= pigeonhole_cap(prod)
        regenerated = plan_from_accepting_system(fin)
        assert plan_satisfies(regenerated, inst.formula, inst.valuation)
        rebuilt += 1
    assert rebuilt > 100
    report(9, f"controller-to-plan round trip satisfies the spec on "
              f"{rebuilt} instances")


def test_extracted_plans_agree_across_plan_routes(corpus):
    # extraction builds its plans from lists; built from their SCRs, the
    # plans are the same
    instances, _ = corpus
    rng = random.Random(71)
    plans = [inst.result.plan for inst in instances if inst.result.found]
    for plan in plans:
        assert_plan_routes_agree(plan, rng)
    assert len(plans) > 100


def test_bulk_calls_leave_no_cyclic_garbage(corpus, tmp_path):
    # the calls that pause the collector create no reference cycles, so
    # reference counting frees everything they leave
    instances, _ = corpus
    paths = [write_json(tmp_path / f"system{n}.json",
                        system_file_dict(inst.system, inst.valuation))
             for n, inst in enumerate(instances)]
    gc.collect()
    gc.disable()
    try:
        for inst, path in zip(instances, paths):
            system, valuation = load_system(path)
            result = planner.synthesize(system, inst.formula, valuation)
            if result.found:
                assert check_plan(result.plan, valuation, inst.formula) is None
                assert check_plan(result.plan, valuation, automaton=inst.spec) is None
                assert plan_from_dict(plan_to_dict(result.plan)) == result.plan
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_translation_hashes_no_formula_node(corpus, monkeypatch):
    # the tableau numbers the subformulas by node identity in one walk and
    # runs on those numbers, so neither translation nor synthesis runs a
    # node's hash or equality, both of which walk the whole subtree
    calls = []
    for cls in (ltl.TrueF, ltl.Atom, ltl.Not, ltl.And, ltl.Until):
        for name in ("__hash__", "__eq__"):
            def counted(self, *args, _original=getattr(cls, name),
                        _name=f"{cls.__name__}.{name}"):
                calls.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(cls, name, counted)
    instances, _ = corpus
    cases = [(inst.system, inst.formula, inst.valuation) for inst in instances]
    # G^40 (p | q) is won, and its plan checked, where p holds
    system = AlternatingTransitionSystem(["s"], ["c"], ["d"], [("s", "c", "d", "s")])
    valuation = Valuation(["p", "q"], {"s": {"p"}})
    cases += [(system, g_ladder(40), valuation), (system, ltl.Not(g_ladder(40)), valuation)]
    for system, formula, valuation in cases:
        buchi.ltl_to_buchi(formula, props=valuation.props)
        planner.synthesize(system, formula, valuation)
    assert calls == []
    assert planner.synthesize(*cases[-1]).found


def test_hot_paths_build_no_guard_objects(corpus, monkeypatch, tmp_path):
    # automata keep integer edge rows: synthesis (found, not-found and
    # unknown) and the plan checks build no Guard or Edge, which only the
    # edges view of an exported automaton builds
    built = []
    for cls in (buchi.Guard, buchi.Edge):
        def counted(self, *args, _original=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    instances, _ = corpus
    cases = [(inst.system, inst.formula, inst.valuation) for inst in instances]
    cases += [(system, ltl.eventually(ltl.always(ltl.Atom(valuation.props[0]))), valuation)
              for system, _, valuation in cases[:40]]
    statuses = set()
    for system, formula, valuation in cases:
        result = planner.synthesize(system, formula, valuation)
        statuses.add(result.status)
        if result.found:
            assert plan_satisfies(result.plan, formula, valuation)
    assert statuses == {planner.FOUND, planner.NOT_FOUND, planner.UNKNOWN}
    assert built == []
    out = tmp_path / "automaton.dot"
    assert cli_main(["export", "automaton", "--spec", "p1 U p2", "--out", str(out)]) == 0
    assert "Guard" in built and "Edge" in built


def test_criterion_10_hand_written_total_automata():
    cases = [
        ("aut_until.json", "p1 U p2"),
        ("aut_always_implies.json", "G(p1 -> p2)"),
        ("aut_response.json", "G(p1 -> F p2)"),
    ]
    rng = random.Random(11223)
    props = ("p1", "p2")
    for filename, text in cases:
        automaton = buchi.load_automaton(DATA / filename)
        assert buchi.is_total(automaton)
        formula = ltl.parse_formula(text, props)
        for _ in range(200):
            word = random_letter_lasso(rng, props)
            assert buchi.nba_accepts(automaton, word) == ltl.eval_lasso(word, formula, 1)
    report(10, "hand-written automata are total and match the evaluator")
