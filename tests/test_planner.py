import random

from astra import buchi, ltl, planner
from astra.core import Valuation, validate_ats
from astra.ltl import Atom, Until
from astra.plan import Controller, plan_satisfies, plan_trajectories
from astra.planner import (
    FOUND,
    GameArena,
    NOT_FOUND,
    UNKNOWN,
    solve_buchi_game,
    synthesize,
)

from generators import random_formula, random_system
from oracles import layered_buchi_solution, positional_winner_exists

P23 = Until(Atom("p2"), Atom("p3"))


def self_loop_system():
    return validate_ats({
        "states": ["q"],
        "controls": ["a", "a2"],
        "disturbances": ["b"],
        "transitions": [
            {"from": "q", "control": c, "disturbance": "b", "to": "q"}
            for c in ("a", "a2")
        ],
    })


class TestGameSolver:
    def test_accepting_self_loop_wins(self):
        system = self_loop_system()
        valuation = Valuation(["p"], {"q": {"p"}})
        spec = buchi.totalize(buchi.ltl_to_buchi(ltl.always(Atom("p")), props=("p",)))
        prod = buchi.product(system, "q", spec, valuation)
        arena = GameArena(prod)
        solution = solve_buchi_game(arena)
        assert ("s", prod.initial) in solution.winning
        assert solution.strategy[prod.initial] == "a"

    def test_unwinnable_arena_is_empty(self):
        system = self_loop_system()
        valuation = Valuation(["p"], {"q": set()})
        spec = buchi.totalize(buchi.ltl_to_buchi(ltl.always(Atom("p")), props=("p",)))
        prod = buchi.product(system, "q", spec, valuation)
        solution = solve_buchi_game(GameArena(prod))
        assert ("s", prod.initial) not in solution.winning

    def test_matches_strategy_enumeration(self):
        # winning-set membership agrees with exhaustive search over
        # positional strategies on small products
        rng = random.Random(31)
        checked = 0
        while checked < 80:
            system, valuation = random_system(rng, max_states=3, max_controls=2)
            formula = random_formula(rng, valuation.props, rng.randint(1, 4))
            spec = planner.spec_automaton(formula, valuation)
            if spec is None:
                continue
            prod = buchi.product(system, system.states[0], spec, valuation)
            if len(prod.states) > 6:
                continue
            checked += 1
            solution = solve_buchi_game(GameArena(prod))
            ours = ("s", prod.initial) in solution.winning
            assert ours == positional_winner_exists(prod)

    def test_matches_layered_solver(self):
        # the counter-based attractor reproduces the layer-by-layer
        # reference exactly: region, strategy and every rank, on products
        # rooted at every state of random systems
        rng = random.Random(33)
        products = partial = deep = 0
        while products < 600:
            system, valuation = random_system(rng, max_states=8, max_controls=3,
                                              max_props=2)
            formula = random_formula(rng, valuation.props, rng.randint(2, 6))
            spec = planner.spec_automaton(formula, valuation)
            if spec is None:
                continue
            for q0 in system.states:
                prod = buchi.product(system, q0, spec, valuation)
                arena = GameArena(prod)
                solution = solve_buchi_game(arena)
                winning, strategy, rank = layered_buchi_solution(arena)
                assert solution.winning == winning
                assert solution.strategy == strategy
                assert solution.rank == rank
                products += 1
                partial += 0 < len(winning) < len(arena.nodes)
                deep += max(rank.values(), default=0) >= 4
        # the corpus is not degenerate: some games are won only in part,
        # and some attractors are several layers deep
        assert partial >= 10 and deep >= 20


class TestFindReactivePlan:
    """Plan search from one given initial state: ``synthesize`` with
    ``initial_hint``."""

    def test_self_loop_always(self):
        system = self_loop_system()
        valuation = Valuation(["p"], {"q": {"p"}})
        result = synthesize(system, ltl.always(Atom("p")), valuation, initial_hint="q")
        assert result.status == FOUND
        assert len(result.plan) == 1
        (rule,) = result.plan.scrs
        assert (rule.world, rule.successors) == ("q", frozenset({1}))

    def test_agent_until_found_and_verified(self, agent_system):
        system, valuation = agent_system
        result = synthesize(system, P23, valuation, initial_hint="q1")
        assert result.status == FOUND
        assert plan_satisfies(result.plan, P23, valuation)
        assert result.plan.world_of(1) == "q1"

    def test_verdict_matches_enumeration(self, agent_system):
        system, valuation = agent_system
        formula = ltl.always(Atom("p2"))
        spec = planner.spec_automaton(formula, valuation)
        assert spec is not None
        for q0 in system.states:
            prod = buchi.product(system, q0, spec, valuation)
            expected = positional_winner_exists(prod)
            result = synthesize(system, formula, valuation, initial_hint=q0)
            assert (result.status == FOUND) == expected

    def test_unknown_for_nondeterministic_spec(self, agent_system):
        system, valuation = agent_system
        # eventually-an-until translates to a properly nondeterministic
        # automaton that the completion step refuses
        formula = ltl.eventually(Until(Atom("p1"), Atom("p2")))
        assert planner.spec_automaton(formula, valuation) is None
        result = synthesize(system, formula, valuation, initial_hint="q1")
        assert result.status == UNKNOWN


class TestSynthesize:
    def test_false_never_found(self, agent_system):
        system, valuation = agent_system
        assert synthesize(system, ltl.false(), valuation).status == NOT_FOUND

    def test_agent_until(self, agent_system):
        system, valuation = agent_system
        result = synthesize(system, P23, valuation)
        assert result.status == FOUND
        assert result.initial == "q1"
        result.plan.require_unique_world_successors()
        assert isinstance(result.controller, Controller)
        result.plan.validate_against(system)

    def test_initial_hint_restricts_search(self, agent_system):
        system, valuation = agent_system
        formula = ltl.parse_formula("p3", valuation.props)
        unrestricted = synthesize(system, formula, valuation)
        assert unrestricted.status == FOUND and unrestricted.initial == "q2"
        hinted = synthesize(system, formula, valuation, initial_hint="q1")
        assert hinted.status == NOT_FOUND

    def test_found_plans_satisfy_all_enumerated_lassos(self):
        from oracles import closed_loop_lassos

        rng = random.Random(32)
        found = 0
        while found < 40:
            system, valuation = random_system(rng, max_states=4)
            formula = random_formula(rng, valuation.props, rng.randint(1, 5))
            result = synthesize(system, formula, valuation)
            if result.status != FOUND:
                continue
            found += 1
            assert result.plan.world_of(1) == result.initial
            result.plan.validate_against(system)
            bound = min(len(result.plan) + 1, 8)
            for lasso in plan_trajectories(result.plan, bound):
                assert ltl.trajectory_satisfies(lasso, formula, valuation)
            # the closed-loop outcomes of the extracted controller satisfy too
            closed = closed_loop_lassos(
                system, result.controller, result.plan.world_of(1), bound
            )
            for lasso in closed:
                assert ltl.trajectory_satisfies(lasso, formula, valuation)

    def test_explicit_automaton_route(self, agent_system, tmp_path):
        import json

        system, valuation = agent_system
        path = tmp_path / "aut.json"
        path.write_text(json.dumps({
            "states": ["wait", "acc", "rej"],
            "initial": ["wait"],
            "accepting": ["acc"],
            "edges": [
                {"from": "wait", "guard": "p3", "to": "acc"},
                {"from": "wait", "guard": "p2 & !p3", "to": "wait"},
                {"from": "wait", "guard": "!p2 & !p3", "to": "rej"},
                {"from": "acc", "guard": "true", "to": "acc"},
                {"from": "rej", "guard": "true", "to": "rej"},
            ],
        }))
        automaton = buchi.load_automaton(path)
        result = synthesize(system, None, valuation, automaton=automaton)
        assert result.status == FOUND
        assert result.initial == "q1"
        assert plan_satisfies(result.plan, P23, valuation)

    def test_unread_propositions_leave_the_alphabet(self):
        # 16 declared propositions of which the formula reads one; the cheap
        # alphabet check comes first, so that a widened alphabet (2^16
        # letters per guard in totalize) fails here instead of hanging
        props = [f"x{i}" for i in range(16)]
        system = validate_ats({
            "states": ["q0", "q1"],
            "controls": ["stay", "go"],
            "disturbances": ["b"],
            "transitions": [
                {"from": q, "control": c, "disturbance": "b",
                 "to": q if c == "stay" else "q1"}
                for q in ("q0", "q1") for c in ("stay", "go")
            ],
        })
        valuation = Valuation(props, {"q0": set(props[::2]) | {"x5"},
                                      "q1": set(props[1::2])})
        formula = ltl.parse_formula("F x3", valuation.props)
        assert buchi.ltl_to_buchi(formula, props=valuation.props).props == ("x3",)
        narrowed = Valuation(["x3"], {q: valuation.label(q) & {"x3"}
                                      for q in valuation.states()})
        wide = synthesize(system, formula, valuation)
        reference = synthesize(system, formula, narrowed)
        assert wide.status == FOUND and wide.initial == "q0"
        assert (wide.status, wide.initial, wide.plan) == \
            (reference.status, reference.initial, reference.plan)
