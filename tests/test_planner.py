import pathlib
import random

import pytest

from astra import buchi, ltl, planner
from astra.cli import main
from astra.completeness import build_accepting_system
from astra.core import Valuation, load_system, validate_ats
from astra.dot import product_dot
from astra.errors import AstraError, AutomatonError, FormulaTooDeep
from astra.ltl import Atom, Until
from astra.plan import (
    Controller,
    dump_plan,
    plan_satisfies,
    plan_trajectories,
    simplify_plan,
)
from astra.planner import (
    FOUND,
    NOT_FOUND,
    UNKNOWN,
    extract_plan,
    solve_buchi_game,
    spec_automaton,
    synthesize,
)

from conftest import system_file_dict, write_json
from generators import random_formula, random_system
from oracles import (
    TaggedArena,
    layered_buchi_solution,
    per_candidate_synthesis,
    per_state_buchi_game,
    positional_winner_exists,
)

P23 = Until(Atom("p2"), Atom("p3"))
DATA = pathlib.Path(__file__).parent / "data"


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
        prod = buchi.product(system, ["q"], spec, valuation)
        strategy, rank = solve_buchi_game(prod)
        assert system.controls[strategy[0]] == "a" and rank[0] == 0

    def test_unwinnable_arena_is_empty(self):
        system = self_loop_system()
        valuation = Valuation(["p"], {"q": set()})
        spec = buchi.totalize(buchi.ltl_to_buchi(ltl.always(Atom("p")), props=("p",)))
        prod = buchi.product(system, ["q"], spec, valuation)
        lost = [-1] * len(prod.states)
        assert solve_buchi_game(prod) == (lost, lost)

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
            prod = buchi.product(system, [system.states[0]], spec, valuation)
            if len(prod.states) > 6:
                continue
            checked += 1
            ours = solve_buchi_game(prod)[0][0] >= 0
            assert ours == positional_winner_exists(prod)

    def test_matches_layered_solver(self):
        # the counter-based attractor on product states reproduces the
        # layer-by-layer reference on the tagged arena exactly: region,
        # strategy and every state rank (the reference counts choice nodes
        # too, so its state ranks are twice the control moves), on products
        # rooted at every state of random systems; and each root's part of
        # that one game equals the game of a product rooted there alone
        rng = random.Random(33)
        products = partial = deep = 0
        while products < 600:
            system, valuation = random_system(rng, max_states=8, max_controls=3,
                                              max_props=2)
            formula = random_formula(rng, valuation.props, rng.randint(2, 6))
            spec = planner.spec_automaton(formula, valuation)
            if spec is None:
                continue
            prod = buchi.product(system, system.states, spec, valuation)
            strategy, rank = solve_buchi_game(prod)
            arena = TaggedArena(prod)
            winning, ref_strategy, ref_rank = layered_buchi_solution(arena)
            index = arena.product.index
            expected_strategy = [-1] * len(prod.states)
            for s, a in ref_strategy.items():
                expected_strategy[index[s]] = system.controls.index(a)
            expected_rank = [-1] * len(prod.states)
            for v, r in ref_rank.items():
                if v[0] == "s":
                    assert r % 2 == 0
                    expected_rank[index[v[1]]] = r // 2
            assert {i for i, c in enumerate(strategy) if c >= 0} == \
                {index[v[1]] for v in winning if v[0] == "s"}
            assert (strategy, rank) == (expected_strategy, expected_rank)
            for q0 in system.states:
                single = buchi.product(system, [q0], spec, valuation)
                own_strategy, own_rank = solve_buchi_game(single)
                inside = [index[s] for s in single.states]
                assert own_rank == [rank[j] for j in inside]
                assert own_strategy == [strategy[j] for j in inside]
                products += 1
                partial += 0 < sum(c >= 0 for c in own_strategy) < len(inside)
                deep += max(own_rank) >= 2
        # the corpus is not degenerate: some games are won only in part,
        # and some attractors are several layers deep
        assert partial >= 10 and deep >= 20


    def test_pair_game_matches_per_state_game(self):
        # the game keeps one counter per (pair, control); on products rooted
        # at several states, some listed twice, its strategy and ranks equal
        # those of the game that keeps one per (state, control)
        rng = random.Random(37)
        products = shared = split = partial = deep = 0
        while products < 1000:
            system, valuation = random_system(rng, max_states=8, max_controls=3,
                                              max_disturbances=3, max_props=2,
                                              double_successor_p=0.3)
            formula = random_formula(rng, valuation.props, rng.randint(2, 6))
            spec = planner.spec_automaton(formula, valuation)
            if spec is None:
                continue
            roots = rng.sample(system.states, rng.randint(1, len(system.states)))
            roots += rng.choices(roots, k=rng.randint(0, len(roots)))
            prod = buchi.product(system, roots, spec, valuation)
            strategy, rank = solve_buchi_game(prod)
            assert (strategy, rank) == per_state_buchi_game(prod)
            products += 1
            shared += len(set(prod.pair)) < len(prod.states)
            ranks = {}
            for p, r in zip(prod.pair, rank):
                ranks.setdefault(p, set()).add(r)
            split += any(len(rs) > 1 for rs in ranks.values())
            partial += 0 < sum(c >= 0 for c in strategy) < len(strategy)
            deep += max(rank) >= 2
        # the shared rows are exercised: most products have fewer pairs than
        # states, and in some the states of one pair rank apart (a target
        # state of the attractor shares its pair with a state that is not)
        assert shared >= 800 and split >= 20 and partial >= 200 and deep >= 50


def shares_by_pair(prod):
    """Whether the product keeps one row per pair, each a tuple of tuples
    of state numbers."""
    return (len(prod.rows) == max(prod.pair) + 1
            and all(type(row) is tuple and all(
                type(targets) is tuple and all(type(j) is int for j in targets)
                for targets in row) for row in prod.rows))


class TestSharedRows:
    def test_readers_leave_rows_intact(self, tmp_path, monkeypatch):
        # extraction, the accepting-system enumeration, the DOT export and
        # the CLI adversary read the pairs' rows and change neither the
        # row list nor the pair numbers
        built = []

        def recording(*args, product=buchi.product):
            prod = product(*args)
            built.append((prod, (list(prod.rows), list(prod.pair))))
            return prod

        monkeypatch.setattr(buchi, "product", recording)
        rng = random.Random(73)
        sys_path, plan_path = tmp_path / "system.json", tmp_path / "plan.json"
        checked = 0
        while checked < 40:
            write_json(sys_path, system_file_dict(*random_system(
                rng, max_states=6, max_controls=3, max_disturbances=3,
                max_props=2, double_successor_p=0.3)))
            system, valuation = load_system(sys_path)
            formula = random_formula(rng, valuation.props, rng.randint(1, 5))
            result = synthesize(system, formula, valuation)
            if not result.found:
                continue
            built.clear()
            spec = planner.spec_automaton(formula, valuation)
            prod = buchi.product(system, [result.initial], spec, valuation)
            if len(set(prod.pair)) == len(prod.states):
                continue
            checked += 1
            strategy, _ = solve_buchi_game(prod)
            extract_plan(prod, strategy, 0)
            build_accepting_system(prod, Controller(result.plan))
            product_dot(prod)
            dump_plan(result.plan, plan_path, initial=result.initial)
            code = main(["simulate", "--system", str(sys_path),
                         "--spec", ltl.formula_to_str(formula), "--plan", str(plan_path),
                         "--policy", "adversarial", "--steps", "8"])
            assert code == 0 and len(built) == 2
            for prod, snapshot in built:
                assert (prod.rows, prod.pair) == snapshot and shares_by_pair(prod)


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
            prod = buchi.product(system, [q0], spec, valuation)
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

    def test_one_product_and_one_totality_check_per_call(self, monkeypatch):
        # a 12-state ring whose proposition never holds is lost from every
        # state: one product rooted at all twelve, totality checked once
        n = 12
        states = [f"q{i}" for i in range(n)]
        system = validate_ats({
            "states": states,
            "controls": ["stay", "next"],
            "disturbances": ["b"],
            "transitions": [
                {"from": q, "control": c, "disturbance": "b",
                 "to": q if c == "stay" else states[(i + 1) % n]}
                for i, q in enumerate(states) for c in ("stay", "next")
            ],
        })
        valuation = Valuation(["p"], {q: set() for q in states})
        calls = {"product": 0, "is_total": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(buchi, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(planner.buchi, name, counted)
        formula = ltl.parse_formula("G F p", valuation.props)
        for _ in range(2):
            assert synthesize(system, formula, valuation).status == NOT_FOUND
        assert calls == {"product": 2, "is_total": 2}

    def test_width_ladder_matches_no_guard(self, monkeypatch):
        # G (x0 | ... | x11) on a two-state system: totalize, the product,
        # its totality check and both plan checks step on successor tables,
        # and the translation and totalize build no letter sets, on the
        # formula and on the automaton route alike
        props = [f"x{i}" for i in range(12)]
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
        valuation = Valuation(props, {"q0": {"x7"}, "q1": set()})
        formula = ltl.parse_formula("G (" + " | ".join(props) + ")", valuation.props)
        spec = spec_automaton(formula, valuation)
        assert spec.props == tuple(props) and buchi.is_total(spec)
        calls = {"successors": 0, "matches": 0}
        for cls, name in ((buchi.BuchiAutomaton, "successors"), (buchi.Guard, "matches")):
            def counted(*args, _name=name, _original=getattr(cls, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(cls, name, counted)
        for automaton in (None, spec):
            result = synthesize(system, formula if automaton is None else None,
                                valuation, automaton=automaton)
            assert (result.status, result.initial) == (FOUND, "q0")
        assert calls == {"successors": 0, "matches": 0}

    def test_one_check_and_two_translations_per_found_call(self, agent_system,
                                                           monkeypatch):
        # a found call translates the formula for the game and its negation
        # for the one check, and returns the plan it checked; a call that
        # finds no plan translates once and checks nothing
        system, valuation = agent_system
        checked, translated = [], []

        def counted_check(plan, *args, _original=planner.check_plan):
            checked.append(plan)
            return _original(plan, *args)

        def counted_translation(*args, _original=buchi.ltl_to_buchi, **kwargs):
            translated.append(args[0])
            return _original(*args, **kwargs)
        monkeypatch.setattr(planner, "check_plan", counted_check)
        monkeypatch.setattr(buchi, "ltl_to_buchi", counted_translation)
        cases = [(P23, FOUND, 1, 2), (ltl.false(), NOT_FOUND, 0, 1),
                 (ltl.eventually(Until(Atom("p1"), Atom("p2"))), UNKNOWN, 0, 1)]
        for formula, status, checks, translations in cases:
            checked.clear()
            translated.clear()
            result = synthesize(system, formula, valuation)
            assert (result.status, len(checked), len(translated)) == \
                (status, checks, translations)
            if result.found:
                assert result.plan is checked[0]

    def test_extracted_plans_need_no_simplification(self, monkeypatch):
        # every successor of a product state carries the same automaton
        # state, so an extracted plan has at most one successor per world
        # state and simplify_plan leaves it as it is; synthesize returns
        # that very plan
        extracted = []

        def recorded(*args, _original=extract_plan):
            extracted.append(_original(*args))
            return extracted[-1]
        monkeypatch.setattr(planner, "extract_plan", recorded)
        rng = random.Random(35)
        specs = []
        for _ in range(300):
            system, valuation = random_system(rng, max_states=6, max_controls=3,
                                              max_props=2)
            formula = random_formula(rng, valuation.props, rng.randint(2, 6))
            specs.append((system, valuation, formula, None))
        for name in ("aut_until.json", "aut_always_implies.json",
                     "aut_response.json"):
            automaton = buchi.load_automaton(DATA / name)
            for _ in range(60):
                system, valuation = random_system(rng, max_states=6,
                                                  max_controls=3, max_props=2)
                specs.append((system, valuation, None, automaton))
        roots = 0
        for system, valuation, formula, automaton in specs:
            result = synthesize(system, formula, valuation, automaton=automaton)
            if result.found:
                assert result.plan is extracted[-1]
            spec = planner.spec_automaton(formula, valuation, automaton)
            if spec is None:
                continue
            prod = buchi.product(system, system.states, spec, valuation)
            strategy, _ = solve_buchi_game(prod)
            for root in range(len(system.states)):
                if strategy[root] >= 0:
                    plan = extract_plan(prod, strategy, root)
                    plan.require_unique_world_successors()
                    assert simplify_plan(plan) == plan
                    roots += 1
        assert roots >= 700

    def test_matches_per_candidate_reference(self):
        # one game over every root gives the verdict, the initial state and
        # the plan of one game per candidate in declared order, also when
        # the winner is not the first candidate
        rng = random.Random(34)
        later = 0
        for _ in range(400):
            system, valuation = random_system(rng, max_states=6, max_controls=3,
                                              max_props=2)
            formula = random_formula(rng, valuation.props, rng.randint(2, 6))
            hint = rng.choice(system.states) if rng.random() < 0.2 else None
            spec = planner.spec_automaton(formula, valuation)
            result = synthesize(system, formula, valuation, initial_hint=hint)
            expected = per_candidate_synthesis(system, spec, valuation, hint)
            assert (result.status, result.initial, result.plan) == expected
            later += result.found and result.initial != system.states[0]
        assert later >= 40


class TestInputErrors:
    # "F (p1 U p2)" translates to a properly nondeterministic automaton
    # that totalize refuses; "G p2" totalizes
    SPECS = ("G p2", "F (p1 U p2)")

    @pytest.mark.parametrize("text", SPECS)
    def test_unknown_initial_hint(self, agent_system, text):
        system, valuation = agent_system
        formula = ltl.parse_formula(text, valuation.props)
        with pytest.raises(AutomatonError, match="unknown initial state 'zz'"):
            synthesize(system, formula, valuation, initial_hint="zz")

    def test_extract_plan_needs_a_winning_root(self, agent_system):
        # "G p2" is won from q1 by staying put and lost at once from q3
        system, valuation = agent_system
        spec = planner.spec_automaton(ltl.parse_formula("G p2", valuation.props),
                                      valuation)
        prod = buchi.product(system, system.states, spec, valuation)
        strategy, _ = solve_buchi_game(prod)
        assert strategy[0] >= 0 and strategy[2] == -1
        extract_plan(prod, strategy, 0)
        # a bare list index would wrap a negative root round: -len(states)
        # to the winning state 0; a float or a bool would pass a range test
        for root in (2, -1, -len(prod.states), len(prod.states), prod.states[0],
                     0.0, True):
            with pytest.raises(AstraError, match="is not a winning state"):
                extract_plan(prod, strategy, root)

    def test_deep_formula_is_a_typed_error(self, agent_system):
        # "G p2" is won from q1, so a long "p2 & ... & p2" chain is found;
        # at 500 terms the check's translation of the negation nests past
        # the recursion limit and says so with a typed error
        system, valuation = agent_system
        short = ltl.parse_formula(" & ".join(["p2"] * 50), valuation.props)
        assert synthesize(system, short, valuation, initial_hint="q1").status == FOUND
        chain = ltl.parse_formula(" & ".join(["p2"] * 500), valuation.props)
        with pytest.raises(FormulaTooDeep, match="^the formula nests too deeply$"):
            synthesize(system, chain, valuation, initial_hint="q1")

    def test_missing_specification(self, agent_system):
        system, valuation = agent_system
        with pytest.raises(AstraError, match="a formula or an automaton is required"):
            planner.spec_automaton()
        with pytest.raises(AstraError, match="a formula or an automaton is required"):
            synthesize(system, None, valuation)
