import math
import random

import pytest

from astra import buchi, ltl, planner
from astra.core import Valuation, validate_ats
from astra.errors import UndeclaredSymbol
from astra.plan import SCR, Controller, ReactivePlan, plan_satisfies

from generators import random_formula, random_system
from oracles import (
    CapExceeded,
    TupleProduct,
    build_accepting_system,
    pigeonhole_cap,
    plan_from_accepting_system,
    recurrence_index,
    rescanning_accepting_system,
)

INF = math.inf


class TestRecurrenceIndex:
    def test_all_distinct(self):
        assert recurrence_index(["a", "b", "c"], {"a", "b", "c"}) == INF

    def test_first_repeat_of_accepting_state(self):
        assert recurrence_index(["f", "g", "f"], {"f"}) == 3

    def test_non_accepting_repeats_ignored(self):
        assert recurrence_index(["g", "g", "g"], {"f"}) == INF

    def test_prefix_monotonicity(self):
        rng = random.Random(41)
        for _ in range(300):
            states = [rng.randint(0, 4) for _ in range(rng.randint(1, 10))]
            accepting = {s for s in range(5) if rng.random() < 0.4}
            n = recurrence_index(states, accepting)
            if n != INF:
                for k in range(1, int(n)):
                    assert recurrence_index(states[:k], accepting) == INF


def winning_setup(formula_text, props, labels):
    system = validate_ats({
        "states": ["q"],
        "controls": ["a"],
        "disturbances": ["b"],
        "transitions": [{"from": "q", "control": "a", "disturbance": "b", "to": "q"}],
    })
    valuation = Valuation(props, {"q": labels})
    formula = ltl.parse_formula(formula_text, props)
    result = planner.synthesize(system, formula, valuation)
    assert result.found
    spec = planner.spec_automaton(formula, valuation)
    prod = buchi.product(system, [result.initial], spec, valuation)
    return prod, result


class TestBuildAcceptingSystem:
    def test_single_winning_loop_folds_back(self):
        prod, result = winning_setup("G p", ["p"], {"p"})
        assert prod.accepting[0]
        fin = build_accepting_system(prod, result.controller)
        assert len(fin) == 1
        assert fin.nodes[0] == (0,)
        assert fin.edges[0] == (0,)

    def test_accepting_labelled_nodes_fold_back(self):
        # a node whose label is accepting never extends with that same
        # state again; the repeat folds back to the shorter prefix
        rng = random.Random(42)
        built = 0
        while built < 25:
            system, valuation = random_system(rng, max_states=3)
            formula = random_formula(rng, valuation.props, rng.randint(1, 4))
            result = planner.synthesize(system, formula, valuation)
            if not result.found:
                continue
            spec = planner.spec_automaton(formula, valuation)
            prod = buchi.product(system, [result.initial], spec, valuation)
            fin = build_accepting_system(prod, result.controller)
            built += 1
            node_set = set(fin.nodes)
            accepting = {i for i, flag in enumerate(prod.accepting) if flag}
            for index in range(len(fin)):
                node = fin.nodes[index]
                if node[-1] in accepting:
                    assert node + (node[-1],) not in node_set
                for target in fin.edges[index]:
                    child = fin.nodes[target]
                    extends = child == node + (child[-1],)
                    folds_back = (
                        len(child) <= len(node)
                        and node[: len(child)] == child
                        and recurrence_index(node + (child[-1],), accepting) != INF
                    )
                    assert extends or folds_back

    def test_matches_rescanning_construction(self):
        # the incremental recurrence bookkeeping builds the same nodes, in
        # the same order, with the same edges as rescanning every extension
        rng = random.Random(47)
        built = 0
        while built < 40:
            system, valuation = random_system(rng, max_states=4)
            formula = random_formula(rng, valuation.props, rng.randint(1, 5))
            result = planner.synthesize(system, formula, valuation)
            if not result.found:
                continue
            spec = planner.spec_automaton(formula, valuation)
            prod = buchi.product(system, [result.initial], spec, valuation)
            fin = build_accepting_system(prod, result.controller)
            built += 1
            named = tuple(tuple(prod.states[i] for i in node) for node in fin.nodes)
            assert (named, fin.actions, fin.edges) == \
                rescanning_accepting_system(prod, result.controller)

    def test_replayed_paths_are_accepted_runs(self):
        rng = random.Random(43)
        built = 0
        while built < 25:
            system, valuation = random_system(rng, max_states=3)
            formula = random_formula(rng, valuation.props, rng.randint(1, 4))
            result = planner.synthesize(system, formula, valuation)
            if not result.found:
                continue
            spec = planner.spec_automaton(formula, valuation)
            prod = buchi.product(system, [result.initial], spec, valuation)
            fin = build_accepting_system(prod, result.controller)
            built += 1
            view = TupleProduct(prod)

            def successors(index):
                return fin.edges[index]

            witness = buchi.accepting_lasso(
                0, successors,
                lambda idx: fin.label(idx) in view.accepting,
            )
            # every infinite path of the finite system is an accepted run:
            # some lasso exists and any lasso's labels walk product edges
            # with an accepting label on the cycle
            assert witness is not None
            labels = witness.map(fin.label)
            for i in range(1, 2 * witness.classes + 2):
                src, dst = labels.at(i), labels.at(i + 1)
                assert any(
                    dst2 == dst
                    for a in view.controls
                    for dst2 in view.successors(src, a)
                )
            assert any(fin.label(idx) in view.accepting for idx in witness.cycle)

    def test_cap_exceeded_for_losing_controller(self, agent_system):
        system, valuation = agent_system
        # looping at q3 against "always p2" drives the automaton into its
        # rejecting sink, whose non-accepting repeats never close a prefix
        formula = ltl.parse_formula("G p2", valuation.props)
        spec = planner.spec_automaton(formula, valuation)
        prod = buchi.product(system, ["q3"], spec, valuation)
        bad_plan = ReactivePlan([
            SCR(1, "q3", "a3", frozenset({1})),
        ])
        with pytest.raises(CapExceeded):
            build_accepting_system(prod, Controller(bad_plan))


    def test_undeclared_action_is_typed_error(self):
        prod, _ = winning_setup("G p", ["p"], {"p"})
        stray = ReactivePlan([SCR(1, "q", "zz", frozenset({1}))])
        with pytest.raises(UndeclaredSymbol, match="unknown control 'zz'"):
            build_accepting_system(prod, Controller(stray))


class TestPlanFromAcceptingSystem:
    def test_single_node_gives_self_loop_rule(self):
        prod, result = winning_setup("G p", ["p"], {"p"})
        fin = build_accepting_system(prod, result.controller)
        plan = plan_from_accepting_system(fin)
        assert len(plan) == 1
        (rule,) = plan.scrs
        assert (rule.id, rule.world, rule.successors) == (1, "q", frozenset({1}))

    def test_rule_count_equals_node_count(self):
        prod, result = winning_setup("F p", ["p"], {"p"})
        fin = build_accepting_system(prod, result.controller)
        assert len(plan_from_accepting_system(fin)) == len(fin)

    def test_round_trip_satisfies(self):
        rng = random.Random(44)
        built = 0
        while built < 30:
            system, valuation = random_system(rng, max_states=3)
            formula = random_formula(rng, valuation.props, rng.randint(1, 4))
            result = planner.synthesize(system, formula, valuation)
            if not result.found:
                continue
            spec = planner.spec_automaton(formula, valuation)
            prod = buchi.product(system, [result.initial], spec, valuation)
            fin = build_accepting_system(prod, result.controller)
            built += 1
            assert fin.nodes[0] == (0,)
            assert max(len(node) for node in fin.nodes) <= pigeonhole_cap(prod)
            regenerated = plan_from_accepting_system(fin)
            regenerated.validate_against(system)
            assert plan_satisfies(regenerated, formula, valuation)

    def test_edge_totality(self):
        # every world successor under the node's action is covered by an edge
        rng = random.Random(45)
        built = 0
        while built < 20:
            system, valuation = random_system(rng, max_states=3)
            formula = random_formula(rng, valuation.props, rng.randint(1, 4))
            result = planner.synthesize(system, formula, valuation)
            if not result.found:
                continue
            spec = planner.spec_automaton(formula, valuation)
            prod = buchi.product(system, [result.initial], spec, valuation)
            fin = build_accepting_system(prod, result.controller)
            built += 1
            for index in range(len(fin)):
                worlds = {fin.label(t)[0] for t in fin.edges[index]}
                expected = set(
                    system.successors(fin.label(index)[0], fin.actions[index])
                )
                assert worlds == expected


class TestUniqueLifts:
    def test_world_sequences_lift_uniquely_into_total_products(self):
        rng = random.Random(46)
        checked = 0
        while checked < 30:
            system, valuation = random_system(rng, max_states=3)
            formula = random_formula(rng, valuation.props, rng.randint(1, 4))
            spec = planner.spec_automaton(formula, valuation)
            if spec is None:
                continue
            checked += 1
            q0 = system.states[0]
            prod = TupleProduct(buchi.product(system, [q0], spec, valuation))

            def lifts(world_seq):
                layers = [[s] for s in [prod.initial] if s[0] == world_seq[0]]
                found = [tuple(l) for l in layers]
                for world in world_seq[1:]:
                    grown = []
                    for partial in found:
                        for a in prod.controls:
                            for t in prod.successors(partial[-1], a):
                                if t[0] == world:
                                    grown.append(partial + (t,))
                    found = list(dict.fromkeys(grown))
                return found

            for _ in range(10):
                seq = [q0]
                for _ in range(rng.randint(0, 4)):
                    a = rng.choice(system.controls)
                    seq.append(rng.choice(system.successors(seq[-1], a)))
                assert len(lifts(tuple(seq))) <= 1
