import json
import pathlib
import random

import pytest

from astra import buchi, ltl
from astra.core import Lasso, Valuation
from astra.errors import (
    AstraError,
    ExplosionGuard,
    PlanValidationError,
    UndeclaredSymbol,
    UniquenessViolated,
)
from astra.ltl import Atom, Until
from astra.plan import (
    Controller,
    ReactivePlan,
    SCR,
    _violation,
    check_plan,
    find_reachable_cycle,
    plan_from_dict,
    plan_satisfies,
    plan_to_dict,
    plan_violation,
    plan_violation_total,
    simplify_plan,
)

from astra.planner import spec_automaton

from conftest import assert_plan_routes_agree
from generators import random_formula, random_plan, random_system
from oracles import (
    canonical_lasso,
    closed_loop_lassos,
    keeps_reachable_cycle,
    matching_paths,
    on_path_simplify_plan,
    outcomes_prefixes,
    per_state_reachable_cycle,
    plan_trajectories,
    reached_cell_sizes,
    replayable_on_plan,
    tuple_plan_violation,
    tuple_plan_violation_total,
    tuple_violation,
)

P23 = Until(Atom("p2"), Atom("p3"))
DATA = pathlib.Path(__file__).parent / "data"


def single_loop_plan():
    return ReactivePlan([SCR(1, "q", "a", frozenset({1}))])


class TestWellFormedness:
    def test_ids_must_be_contiguous(self):
        with pytest.raises(PlanValidationError):
            ReactivePlan([SCR(2, "q", "a", frozenset({2}))])

    def test_dangling_successor(self):
        with pytest.raises(PlanValidationError):
            ReactivePlan([SCR(1, "q", "a", frozenset({3}))])

    def test_non_integer_ids_are_validation_errors(self):
        # sorting mixed ids would raise a bare TypeError
        with pytest.raises(PlanValidationError,
                           match=r"^SCR 1 lists unknown successor plan states \['x'\]$"):
            ReactivePlan([SCR(1, "q", "a", frozenset({1, "x"}))])
        with pytest.raises(PlanValidationError, match="^plan state ids must be exactly"):
            ReactivePlan([SCR("x", "q", "a", frozenset({1})), SCR(1, "q", "a", frozenset({1}))])

    @pytest.mark.parametrize("rule", [
        SCR(True, "q", "a", frozenset({1.0})),
        SCR(True, "q", "a", frozenset({1})),
        SCR(1, "q", "a", frozenset({True})),
        SCR(1.0, "q", "a", frozenset({1})),
        SCR(1, "q", "a", frozenset({1.0})),
    ], ids=["bool-id-float-successor", "bool-id", "bool-successor", "float-id",
            "float-successor"])
    def test_ids_equal_to_ints_are_rejected(self, rule):
        # they compare equal to 1, but a plan file cannot hold them
        with pytest.raises(PlanValidationError,
                           match="^plan state ids and successors must be integers$"):
            ReactivePlan([rule])

    @pytest.mark.parametrize("plan_state", [0, -1, -4, 5, "1", 1.0, True, None])
    def test_lookups_of_absent_plan_states_raise_key_error(self, example_plan,
                                                            plan_state):
        # the plan's lists hold an unused entry 0 and would read -1 as the
        # last rule; only the ids 1..k, plain ints, are plan states
        for lookup in (example_plan.world_of, example_plan.successor_ids):
            with pytest.raises(KeyError):
                lookup(plan_state)
        if plan_state is not None:
            with pytest.raises(KeyError):
                Controller(example_plan, plan_state).feed("q1")

    def test_columns_need_one_entry_per_plan_state(self):
        for columns in ((["q"], [], [[1]]), (["q"], ["a"], [[1], [1]])):
            with pytest.raises(PlanValidationError, match="^a plan needs one world, action"):
                ReactivePlan.from_columns(*columns)

    def test_malformed_columns_fail_as_their_rules_do(self):
        # seeded plans with one or two rules' successors broken: the list
        # route and the SCR route give the same error text
        rng = random.Random(61)
        broken = (set(), {0}, {-1}, {"x", 1}, {True}, {1.0}, {2.5}, None)
        for _ in range(400):
            plan = random_plan(rng, max_rules=rng.choice((2, 6, 20)))
            successors = [set(s.successors) for s in plan.scrs]
            for i in rng.sample(range(len(plan)), min(2, len(plan))):
                bad = rng.choice(broken)
                successors[i] = {len(plan) + 1} if bad is None else bad
            with pytest.raises(PlanValidationError) as by_rules:
                ReactivePlan([SCR(s.id, s.world, s.action, frozenset(js))
                              for s, js in zip(plan.scrs, successors)])
            with pytest.raises(PlanValidationError) as by_columns:
                ReactivePlan.from_columns([s.world for s in plan.scrs],
                                          [s.action for s in plan.scrs],
                                          [list(js) for js in successors])
            assert str(by_columns.value) == str(by_rules.value)

    def test_list_and_rule_routes_agree_on_random_plans(self):
        rng = random.Random(67)
        for _ in range(400):
            assert_plan_routes_agree(random_plan(rng, max_rules=rng.choice((3, 12, 40))), rng)

    def test_random_plans_round_trip_through_dicts(self):
        rng = random.Random(53)
        for _ in range(500):
            plan = random_plan(rng, max_rules=rng.choice((3, 12, 40)))
            raw = json.loads(json.dumps(plan_to_dict(plan, initial=plan.world_of(1))))
            assert plan_from_dict(raw) == plan
            assert plan_to_dict(plan_from_dict(raw), initial=plan.world_of(1)) == raw

    @pytest.mark.parametrize("rules", [
        [(1, "q1", "a1", {2}), (2, "q2", "a2", set())],
        [(1, "q1", "a1", {1}), (2, "q2", "a2", set()), (3, "q3", "a3", {2})],
    ], ids=["reachable", "unreachable"])
    def test_rule_without_successors(self, rules):
        with pytest.raises(PlanValidationError, match="^SCR 2 lists no successor"):
            ReactivePlan([SCR(i, w, a, frozenset(js)) for i, w, a, js in rules])
        raw = {"scrs": [{"id": i, "world": w, "action": a, "successors": sorted(js)}
                        for i, w, a, js in rules]}
        with pytest.raises(PlanValidationError, match="^SCR 2 lists no successor"):
            plan_from_dict(raw)

    def test_rules_become_scrs_with_frozenset_successors(self):
        class TaggedSCR(SCR):
            pass

        finished = SCR(1, "q", "a", frozenset({1, 2}))
        plan = ReactivePlan([TaggedSCR(3, "q", "a", frozenset({1})),
                             SCR(2, "q", "a", {1, 3}), finished])
        assert plan.scrs[0] == finished
        for route in (plan, plan_from_dict(plan_to_dict(plan)),
                      ReactivePlan.from_columns(["q"] * 3, ["a"] * 3, [[1, 2], {1, 3}, (1,)])):
            assert route == plan and route.scrs == plan.scrs
            for rule in (*route.scrs, *route.by_id.values()):
                assert type(rule) is SCR
                assert type(rule.successors) is frozenset
        assert [rule.successors for rule in plan.scrs] == [{1, 2}, {1, 3}, {1}]
        for rules in ([SCR(1, "q", "a", {1}), SCR(3, "q", "a", {1})],
                      [TaggedSCR(2, "q", "a", frozenset({2}))]):
            with pytest.raises(PlanValidationError):
                ReactivePlan(rules)

    def test_validate_against_system(self, agent_system, example_plan):
        system, _ = agent_system
        example_plan.validate_against(system)

    def test_missing_coverage_detected(self, agent_system):
        system, _ = agent_system
        # q2 under a2 reaches q1 and q3 but only q3 is covered
        plan = ReactivePlan([
            SCR(1, "q2", "a2", frozenset({2})),
            SCR(2, "q3", "a3", frozenset({2})),
        ])
        with pytest.raises(PlanValidationError):
            plan.validate_against(system)

    def test_phantom_successor_detected(self, agent_system):
        system, _ = agent_system
        plan = ReactivePlan([
            SCR(1, "q3", "a3", frozenset({1, 2})),
            SCR(2, "q1", "a1", frozenset({1})),
        ])
        with pytest.raises(PlanValidationError):
            plan.validate_against(system)

    def test_initial_key_must_name_plan_state_one_world(self, example_plan):
        raw = plan_to_dict(example_plan)
        assert plan_from_dict({**raw, "initial": "q1"}) == example_plan
        for initial in ([1, 2], "zz", "q2", None):
            with pytest.raises(PlanValidationError, match="plan 'initial'"):
                plan_from_dict({**raw, "initial": initial})


class TestTrajectories:
    def test_example_plan_bound_four(self, example_plan):
        lassos = plan_trajectories(example_plan, 4)
        expected = {
            canonical_lasso(Lasso(("q1", "q2"), ("q3",))),
            canonical_lasso(Lasso(("q1", "q2", "q1"), ("q3",))),
        }
        assert lassos == expected
        for lasso in lassos:
            assert replayable_on_plan(example_plan, lasso)

    def test_single_loop(self):
        assert plan_trajectories(single_loop_plan(), 3) == {Lasso((), ("q",))}

    def test_every_lasso_replays(self):
        rng = random.Random(21)
        for _ in range(40):
            plan = random_plan(rng, max_rules=5)
            for lasso in plan_trajectories(plan, 5):
                assert replayable_on_plan(plan, lasso)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_is_rejected(self, bound):
        # the one-state lasso of the single loop already uses one plan state
        with pytest.raises(ValueError, match="^plan trajectory bound must be at least 1$"):
            plan_trajectories(single_loop_plan(), bound)
        assert plan_trajectories(single_loop_plan(), 1) == {Lasso((), ("q",))}

    def test_tuple_rules_are_not_rules(self):
        with pytest.raises(AttributeError):
            ReactivePlan([(1, "q", "a", frozenset({1}))])

    def test_explosion_guard(self):
        plan = ReactivePlan([
            SCR(1, "q1", "a", frozenset({1, 2})),
            SCR(2, "q2", "a", frozenset({1, 2})),
        ])
        with pytest.raises(ExplosionGuard):
            plan_trajectories(plan, 40, cap=500)


class TestSatisfaction:
    def test_example_plan_until(self, agent_system, example_plan):
        _, valuation = agent_system
        assert plan_satisfies(example_plan, P23, valuation)

    def test_example_plan_always_fails(self, agent_system, example_plan):
        _, valuation = agent_system
        always_p2 = ltl.always(Atom("p2"))
        assert not plan_satisfies(example_plan, always_p2, valuation)
        witness = plan_violation(example_plan, always_p2, valuation)
        assert witness is not None
        assert set(witness.cycle) == {"q3"}
        assert not ltl.trajectory_satisfies(witness, always_p2, valuation)
        assert replayable_on_plan(example_plan, canonical_lasso(witness))

    def test_violations_match_direct_check(self):
        rng = random.Random(22)
        for _ in range(60):
            plan = random_plan(rng, max_rules=4, max_worlds=3)
            props = ("p1", "p2")
            worlds = {s.world for s in plan.scrs}
            valuation = Valuation(
                props, {w: frozenset(p for p in props if rng.random() < 0.5)
                        for w in worlds}
            )
            formula = random_formula(rng, props, rng.randint(1, 4))
            verdict = plan_satisfies(plan, formula, valuation)
            lassos = plan_trajectories(plan, len(plan) + 2)
            sampled = all(
                ltl.trajectory_satisfies(l, formula, valuation) for l in lassos
            )
            if verdict:
                assert sampled
            else:
                witness = plan_violation(plan, formula, valuation)
                assert witness is not None
                assert not ltl.trajectory_satisfies(witness, formula, valuation)


class TestCheckPlan:
    """``check_plan`` answers with the search its arguments select."""

    def test_routes(self, agent_system, example_plan):
        _, valuation = agent_system
        always_p2 = ltl.always(Atom("p2"))
        total = spec_automaton(always_p2, valuation)
        holding = spec_automaton(P23, valuation)
        by_formula = plan_violation(example_plan, always_p2, valuation)
        assert by_formula is not None
        assert check_plan(example_plan, valuation, always_p2) == by_formula
        assert check_plan(example_plan, valuation, automaton=total) == \
            plan_violation_total(example_plan, total, valuation)
        assert check_plan(example_plan, valuation, P23) is None
        assert check_plan(example_plan, valuation, automaton=holding) is None
        # a formula is checked on its own translation, whatever automaton
        # comes with it
        assert check_plan(example_plan, valuation, always_p2, holding) == by_formula

    def test_missing_specification_is_typed_error(self, agent_system, example_plan):
        _, valuation = agent_system
        with pytest.raises(AstraError, match="a formula or an automaton is required"):
            check_plan(example_plan, valuation)


class TestViolationTotal:
    """``plan_violation_total``, the check behind ``--automaton`` specs,
    against the negated-formula search and the reference acceptors."""

    PROPS = ("p1", "p2")

    def random_case(self, rng):
        plan = random_plan(rng, max_rules=5, max_worlds=3)
        valuation = Valuation(self.PROPS, {
            s.world: frozenset(p for p in self.PROPS if rng.random() < 0.5)
            for s in plan.scrs
        })
        return plan, valuation

    def test_agrees_with_negated_formula_search(self):
        rng = random.Random(27)
        checked = violated = 0
        while checked < 150:
            plan, valuation = self.random_case(rng)
            formula = random_formula(rng, self.PROPS, rng.randint(1, 5))
            total = spec_automaton(formula, valuation)
            if total is None:
                continue
            checked += 1
            witness = plan_violation_total(plan, total, valuation)
            assert (witness is None) == (plan_violation(plan, formula, valuation) is None)
            if witness is not None:
                violated += 1
                assert not ltl.eval_lasso(valuation.word(witness), formula)
                assert replayable_on_plan(plan, witness)
        assert 0 < violated < checked

    @pytest.mark.parametrize("filename, text", [
        ("aut_until.json", "p1 U p2"),
        ("aut_always_implies.json", "G(p1 -> p2)"),
        ("aut_response.json", "G(p1 -> F p2)"),
    ])
    def test_hand_written_automata(self, filename, text):
        automaton = buchi.load_automaton(DATA / filename)
        formula = ltl.parse_formula(text, self.PROPS)
        rng = random.Random(28)
        violated = 0
        for _ in range(60):
            plan, valuation = self.random_case(rng)
            witness = plan_violation_total(plan, automaton, valuation)
            assert (witness is None) == (plan_violation(plan, formula, valuation) is None)
            if witness is not None:
                violated += 1
                assert not buchi.nba_accepts(automaton, valuation.word(witness))
                assert replayable_on_plan(plan, witness)
        assert 0 < violated < 60


class TestIndexedProduct:
    """The plan x automaton product is explored from plan state 1: a plan
    state's letter is read only once the search reaches it, and the
    automaton steps on its successor table.  Its lassos are those of the
    tuple-keyed reference, exactly."""

    PROPS = ("p1", "p2")

    def test_unreachable_world_needs_no_valuation(self):
        valuation = Valuation(self.PROPS, {"w1": {"p1"}, "w2": {"p1", "p2"}})
        plan = ReactivePlan([
            SCR(1, "w1", "a", frozenset({2})),
            SCR(2, "w2", "a", frozenset({1})),
            SCR(3, "ghost", "a", frozenset({1})),
        ])
        formula = ltl.always(Atom("p1"))
        with pytest.raises(UndeclaredSymbol):
            valuation.label(plan.world_of(3))
        assert check_plan(plan, valuation, formula) is None
        total = spec_automaton(formula, valuation)
        assert check_plan(plan, valuation, automaton=total) is None

    def test_checks_step_on_the_table_alone(self, monkeypatch):
        # both checks, totality included, read the automaton's successor
        # table: no successors call and no guard match
        rng = random.Random(41)
        calls = {"successors": 0, "matches": 0}
        for cls, name in ((buchi.BuchiAutomaton, "successors"), (buchi.Guard, "matches")):
            def counted(*args, _name=name, _original=getattr(cls, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(cls, name, counted)
        checked = 0
        while checked < 40:
            plan = random_plan(rng, max_rules=12, max_worlds=3)
            valuation = Valuation(self.PROPS, {
                s.world: frozenset(p for p in self.PROPS if rng.random() < 0.5)
                for s in plan.scrs
            })
            formula = random_formula(rng, self.PROPS, rng.randint(2, 6))
            total = spec_automaton(formula, valuation)
            if total is None:
                continue
            checked += 1
            plan_violation(plan, formula, valuation)
            plan_violation_total(plan, total, valuation)
        assert calls == {"successors": 0, "matches": 0}

    def test_matches_tuple_keyed_reference(self):
        rng = random.Random(43)
        outcomes = {"violated": 0, "holds": 0}
        total_checked = 0
        for _ in range(2000):
            props = self.PROPS[: rng.randint(1, 2)]
            plan = random_plan(rng, max_rules=12, max_worlds=rng.choice((2, 4)))
            valuation = Valuation(props, {
                s.world: frozenset(p for p in props if rng.random() < 0.5)
                for s in plan.scrs
            })
            formula = random_formula(rng, props, rng.randint(1, 6))
            witness = plan_violation(plan, formula, valuation)
            assert witness == tuple_plan_violation(plan, formula, valuation)
            outcomes["holds" if witness is None else "violated"] += 1
            total = spec_automaton(formula, valuation)
            if total is not None:
                total_checked += 1
                assert plan_violation_total(plan, total, valuation) == \
                    tuple_plan_violation_total(plan, total, valuation)
        assert min(outcomes.values()) > 200 and total_checked > 1000

    def test_large_plans_and_multi_target_cells_match_tuple_keyed_reference(self):
        # plans of 20-60 rules; the negated formula's automaton has cells
        # with several targets and cells with one, as every cell of a total
        # automaton has; the search is also checked with an ``inside``
        # predicate, which no public entry passes it
        rng = random.Random(47)
        cells = {"one-target": 0, "multi-target": 0}
        violated = {"formula": 0, "inside": 0}
        for case in range(150):
            props = self.PROPS[: rng.randint(1, 2)]
            plan = random_plan(rng, max_rules=60, max_worlds=rng.choice((3, 6)), min_rules=20)
            valuation = Valuation(props, {
                s.world: frozenset(p for p in props if rng.random() < 0.5)
                for s in plan.scrs
            })
            # every other case draws until the automaton has a multi-target cell
            while True:
                formula = random_formula(rng, props, rng.randint(2, 8))
                negated = buchi.ltl_to_buchi(ltl.Not(formula), props=valuation.props)
                if case % 2 == 0 or any(len(cell) > 1 for row in negated.table for cell in row):
                    break
            sizes = reached_cell_sizes(plan, negated, valuation)
            cells["one-target"] += 1 in sizes
            cells["multi-target"] += max(sizes) > 1
            witness = plan_violation(plan, formula, valuation)
            assert witness == tuple_plan_violation(plan, formula, valuation)
            inside = {x for x in negated.states if rng.random() < 0.7}
            inner = _violation(plan, negated, valuation, negated.accepting.__contains__,
                               inside.__contains__)
            assert inner == tuple_violation(plan, negated, valuation,
                                            lambda node: node[1] in negated.accepting,
                                            lambda node: node[1] in inside)
            violated["formula"] += witness is not None
            violated["inside"] += inner is not None
            total = spec_automaton(formula, valuation)
            if total is not None:
                assert reached_cell_sizes(plan, total, valuation) == {1}
                assert plan_violation_total(plan, total, valuation) == \
                    tuple_plan_violation_total(plan, total, valuation)
        # seed 47 gives 113 and 60 of the 150 cases, and 99 and 75 violations
        assert cells["one-target"] >= 100 and cells["multi-target"] >= 50
        assert violated["formula"] >= 80 and violated["inside"] >= 60

    def test_long_chain_plan_checks_without_recursion(self):
        # every pass is iterative: the discovery, the component search and
        # the parent chain of a 20,000-node prefix
        n = 20_000
        plan = ReactivePlan([SCR(i, "g" if i == n else "q", "a", frozenset({min(i + 1, n)}))
                             for i in range(1, n + 1)])
        valuation = Valuation(("p",), {"q": set(), "g": {"p"}})
        holds = spec_automaton(ltl.always(ltl.eventually(Atom("p"))), valuation)
        assert plan_violation_total(plan, holds, valuation) is None
        violated = spec_automaton(ltl.always(ltl.Not(Atom("p"))), valuation)
        witness = plan_violation_total(plan, violated, valuation)
        assert witness.prefix[: n - 1] == ("q",) * (n - 1)
        assert set(witness.prefix[n - 1:]) == set(witness.cycle) == {"g"}


class TestReachableCycle:
    def test_detour_plan(self, detour_plan):
        prefix, suffix = find_reachable_cycle(detour_plan)
        assert prefix == (1, 2, 1)
        assert suffix == (1, 2, 1)

    def test_self_loop(self):
        assert find_reachable_cycle(single_loop_plan()) == ((1, 1), (1, 1))

    def test_cycle_off_initial(self):
        plan = ReactivePlan([
            SCR(1, "q1", "a", frozenset({2})),
            SCR(2, "q2", "a", frozenset({2})),
        ])
        assert find_reachable_cycle(plan) == ((1, 2), (2, 2))


def random_plans(seed, count):
    """``random_plan`` plans, about a third of them with most backward edges
    cut, so that some have only cycles away from plan state 1.  A rule whose
    successors are all cut keeps its largest one."""
    rng = random.Random(seed)
    for _ in range(count):
        plan = random_plan(rng, max_rules=rng.choice((3, 8, 14)),
                           max_worlds=rng.choice((2, 4)))
        if rng.random() < 0.3:
            plan = ReactivePlan([
                SCR(s.id, s.world, s.action, frozenset(
                    [j for j in sorted(s.successors)
                     if j > s.id or rng.random() < 0.2] or [max(s.successors)]))
                for s in plan.scrs
            ])
        yield plan


class CountedRows(list):
    """A list that counts its item reads in ``reads``."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class CountingPlan(ReactivePlan):
    """A plan that counts the reads of its successor rows: ``successor_ids``
    and the searches that index the rows by plan state all read them."""

    def __init__(self, scrs):
        super().__init__(scrs)
        self._successors = CountedRows(self._successors)

    @property
    def calls(self):
        return self._successors.reads

    @calls.setter
    def calls(self, value):
        self._successors.reads = value


def chain_plan(n):
    """1 -> 2 -> ... -> n, and n loops: the only cycle is at the end."""
    return CountingPlan([SCR(i, f"w{i}", "a", frozenset({min(i + 1, n)}))
                         for i in range(1, n + 1)])


def twin_chain_plan(levels):
    """Two plan states per world, each leading to both of the next level's;
    the last level leads to itself."""
    rules = []
    for k in range(1, levels + 1):
        nxt = frozenset({2 * min(k + 1, levels) - 1, 2 * min(k + 1, levels)})
        rules += [SCR(2 * k - 1, f"w{k}", "a", nxt), SCR(2 * k, f"w{k}", "b", nxt)]
    return CountingPlan(rules)


class TestLinearSearches:
    def test_match_per_state_references(self):
        off_initial = 0
        for plan in random_plans(31, 1500):
            cycle = find_reachable_cycle(plan)
            assert cycle == per_state_reachable_cycle(plan)
            # a plan keeps its successors as sorted tuples, so equal plans
            # have equal rules and files
            assert simplify_plan(plan) == on_path_simplify_plan(plan)
            off_initial += cycle[1][0] != 1
        # 289 here; about 140 of the same plans without the cuts
        assert 200 < off_initial < 1300

    @pytest.mark.parametrize("build, size", [(chain_plan, 2000), (twin_chain_plan, 1000)])
    def test_successor_calls_linear(self, build, size):
        plan = build(size)
        edges = sum(len(s.successors) for s in plan.scrs)
        budget = 4 * (len(plan) + edges)
        assert find_reachable_cycle(plan) is not None
        assert 0 < plan.calls <= budget
        plan.calls = 0
        simplify_plan(plan)
        assert 0 < plan.calls <= budget

    def test_check_plan_is_one_search(self):
        # check_plan walks the plan graph only inside the violation search
        # its arguments select
        plan = chain_plan(2000)
        valuation = Valuation(("p",), {s.world: {"p"} if s.id % 3 == 0 else set()
                                       for s in plan.scrs})
        formula = ltl.parse_formula("G F p", valuation.props)
        total = spec_automaton(formula, valuation)
        for check, search in (
                (lambda: check_plan(plan, valuation, formula),
                 lambda: plan_violation(plan, formula, valuation)),
                (lambda: check_plan(plan, valuation, automaton=total),
                 lambda: plan_violation_total(plan, total, valuation))):
            plan.calls = 0
            check()
            checked = plan.calls
            plan.calls = 0
            search()
            assert checked == plan.calls > 0


class TestSimplify:
    def test_detour_plan_exact(self, detour_plan):
        simplified = simplify_plan(detour_plan)
        assert simplified == ReactivePlan([
            SCR(1, "q1", "a1", frozenset({2})),
            SCR(2, "q2", "a2", frozenset({1})),
            SCR(3, "q3", "a3", frozenset({1})),
            SCR(4, "q1", "a4", frozenset({3})),
        ])

    def test_already_unique_unchanged(self, example_plan):
        assert simplify_plan(example_plan) == example_plan

    def test_random_properties(self):
        rng = random.Random(23)
        for _ in range(150):
            plan = random_plan(rng)
            simplified = simplify_plan(plan)
            simplified.require_unique_world_successors()
            assert keeps_reachable_cycle(plan, simplified)
            bound = min(len(plan) + 1, 7)
            assert plan_trajectories(simplified, bound) <= plan_trajectories(plan, bound)

    def test_satisfaction_preserved(self, agent_system, detour_plan):
        _, valuation = agent_system
        # the detour plan uses action names outside the system; satisfaction
        # is a pure plan-graph property, so check it directly
        formula = ltl.parse_formula("p1 U p3", valuation.props)
        if plan_satisfies(detour_plan, formula, valuation):
            assert plan_satisfies(simplify_plan(detour_plan), formula, valuation)

    def test_satisfaction_preserved_random(self):
        rng = random.Random(24)
        from generators import random_formula

        preserved = 0
        for _ in range(80):
            plan = random_plan(rng, max_rules=5, max_worlds=3)
            props = ("p1", "p2")
            worlds = {s.world for s in plan.scrs}
            valuation = Valuation(
                props, {w: frozenset(p for p in props if rng.random() < 0.5)
                        for w in worlds}
            )
            formula = random_formula(rng, props, rng.randint(1, 4))
            if plan_satisfies(plan, formula, valuation):
                preserved += 1
                assert plan_satisfies(simplify_plan(plan), formula, valuation)
        assert preserved > 5


def last_action(plan, history):
    """The action a fresh controller emits after being fed ``history``."""
    controller = Controller(plan)
    for observed in history:
        controller, action = controller.feed(observed)
    return action


class TestStrategy:
    def test_walks_simplified_detour_plan(self, detour_plan):
        plan = simplify_plan(detour_plan)
        assert last_action(plan, ("q1",)) == "a1"
        assert last_action(plan, ("q1", "q2")) == "a2"
        assert last_action(plan, ("q2",)) == "a1"
        assert last_action(plan, ("q1", "q2", "q1")) == "a1"

    def test_uniqueness_required(self, detour_plan):
        with pytest.raises(UniquenessViolated):
            last_action(detour_plan, ("q1",))

    def test_unique_matching_path(self):
        # on simplified plans an observed history matches at most one
        # plan-state path, checked exhaustively
        rng = random.Random(25)
        for _ in range(60):
            plan = simplify_plan(random_plan(rng, max_rules=5))
            worlds = [s.world for s in plan.scrs]
            for _ in range(10):
                history = [rng.choice(worlds) for _ in range(rng.randint(1, 6))]
                assert len(matching_paths(plan, history)) <= 1


class TestController:
    def test_emission_sequence(self, detour_plan):
        plan = simplify_plan(detour_plan)
        ctrl = Controller(plan)
        emitted = []
        for state in ("q1", "q2", "q1", "q2"):
            ctrl, action = ctrl.feed(state)
            emitted.append(action)
        assert emitted == ["a1", "a2", "a1", "a2"]

    def test_detached_forever(self, example_plan):
        ctrl = Controller(example_plan)
        ctrl, action = ctrl.feed("q2")
        assert action == "a1" and ctrl.detached
        ctrl, action = ctrl.feed("q1")
        assert action == "a1" and ctrl.detached

    def test_attached_controller_follows_every_system_successor(self):
        # a plan that passes validate_against covers every successor of a
        # rule's world under its action, so feeding one never detaches
        rng = random.Random(41)
        for _ in range(80):
            system, _ = random_system(rng, max_states=6, max_controls=3,
                                      max_disturbances=3, double_successor_p=0.4)
            copies = {q: rng.randint(1, 2) for q in system.states}
            nodes = [(q, c) for q in system.states for c in range(copies[q])]
            rng.shuffle(nodes)
            ids = {node: i for i, node in enumerate(nodes, start=1)}
            rules = []
            for (q, _), i in ids.items():
                action = rng.choice(system.controls)
                successors = frozenset(ids[q2, rng.randrange(copies[q2])]
                                       for q2 in system.successors(q, action))
                rules.append(SCR(i, q, action, successors))
            plan = ReactivePlan(rules)
            plan.validate_against(system)
            Controller(plan)  # unique successor worlds
            for rule in plan.scrs:
                for q2 in system.successors(rule.world, rule.action):
                    ctrl, action = Controller(plan, rule.id).feed(q2)
                    assert not ctrl.detached
                    assert plan.world_of(ctrl.cursor) == q2
                    assert action == plan.by_id[ctrl.cursor].action

    def test_online_offline_agreement(self):
        # after every prefix of the history, the controller emits the action
        # at the end of the one matching plan path, or the default action
        # once no path matches
        rng = random.Random(26)
        for _ in range(60):
            plan = simplify_plan(random_plan(rng, max_rules=5))
            worlds = [s.world for s in plan.scrs]
            history = [rng.choice(worlds) for _ in range(rng.randint(1, 8))]
            ctrl = Controller(plan)
            for i, state in enumerate(history, start=1):
                ctrl, action = ctrl.feed(state)
                paths = matching_paths(plan, history[:i])
                expected = plan.by_id[paths[0][-1] if paths else 1].action
                assert action == expected
                assert ctrl.detached == (not paths)
                assert last_action(plan, history[:i]) == expected


class TestClosedLoop:
    def test_outcomes_equal_generated_trajectories(self, agent_system, example_plan):
        system, _ = agent_system
        plan = simplify_plan(example_plan)
        controller = Controller(plan)
        closed = closed_loop_lassos(system, controller, plan.world_of(1), len(plan) + 1)
        assert closed == plan_trajectories(plan, len(plan) + 1)

    def test_ultimately_periodic_closure_regression(self, deterministic_two_state):
        # a raw history-dependent strategy on the two-state system produces a
        # single outcome that is not ultimately periodic with any small lasso;
        # plan-derived controllers on the same system always loop
        system = deterministic_two_state

        class TriangularStrategy:
            def __init__(self, length=0):
                self.length = length

            def feed(self, observed):
                nxt = TriangularStrategy(self.length + 1)
                n = nxt.length
                is_trigger = any(n == k * (k + 3) // 2 - 1 for k in range(1, 12))
                return nxt, ("b" if is_trigger else "a")

        (word,) = outcomes_prefixes(system, "q1", TriangularStrategy(), 40)
        for cycle_len in range(1, 8):
            for prefix_len in range(0, 12):
                lasso = Lasso(
                    word[:prefix_len],
                    word[prefix_len : prefix_len + cycle_len] or (word[0],),
                )
                assert lasso.unroll(40) != word

        plan = ReactivePlan([
            SCR(1, "q1", "a", frozenset({1})),
        ])
        closed = closed_loop_lassos(system, Controller(plan), "q1", 3)
        assert closed == {Lasso((), ("q1",))}
