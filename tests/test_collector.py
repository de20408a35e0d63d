"""The bulk calls pause the cyclic garbage collector and restore it.

``synthesize``, the plan checks, ``load_system`` / ``validate_ats`` and
``plan_from_dict`` / ``load_plan`` run with the collector disabled; on any
exit it is enabled again exactly when it was enabled on entry.
"""

import gc
import json

import pytest

from astra import buchi, core, ltl, plan as plan_module, planner
from astra.core import Valuation, load_system, validate_ats
from astra.errors import AutomatonError, PlanValidationError, SystemValidationError
from astra.plan import (
    check_plan,
    load_plan,
    plan_from_dict,
    plan_satisfies,
    plan_to_dict,
    plan_violation,
    plan_violation_total,
)

from conftest import system_file_dict, write_json


class Interrupted(Exception):
    """Raised by a caller's valuation in the middle of a call."""


class RecordingValuation(Valuation):
    """A valuation that records whether the collector is enabled whenever a
    state's label is read, and raises ``Interrupted`` on the read after
    ``fail_after`` reads, if given."""

    def __init__(self, valuation, fail_after=None):
        super().__init__(valuation.props,
                         {q: valuation.label(q) for q in valuation.states()})
        self.seen, self.fail_after = [], fail_after

    def label(self, state):
        self.seen.append(gc.isenabled())
        if self.fail_after is not None and len(self.seen) > self.fail_after:
            raise Interrupted(state)
        return super().label(state)


def record_calls(monkeypatch, module, name, seen):
    """Record in ``seen`` whether the collector is enabled whenever the
    wrapped call reaches ``module.name``."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, recording)


@pytest.fixture
def calls(tmp_path, agent_system, example_plan):
    """Every paused call on the agent system and its example plan, by name,
    each reading the recording valuation; and that valuation."""
    system, plain = agent_system
    valuation = RecordingValuation(plain)
    formula = ltl.parse_formula("p2 U p3", valuation.props)
    total = planner.spec_automaton(formula, valuation)
    raw = system_file_dict(system, plain)
    system_file = write_json(tmp_path / "system.json", raw)
    plan_file = write_json(tmp_path / "plan.json", plan_to_dict(example_plan))
    return {
        "synthesize": lambda: planner.synthesize(system, formula, valuation),
        "plan_violation": lambda: plan_violation(example_plan, formula, valuation),
        "plan_violation_total": lambda: plan_violation_total(example_plan, total,
                                                             valuation),
        "check_plan": lambda: check_plan(example_plan, valuation, automaton=total),
        "plan_satisfies": lambda: plan_satisfies(example_plan, formula, valuation),
        "load_system": lambda: load_system(system_file),
        "validate_ats": lambda: validate_ats(json.loads(json.dumps(raw))),
        "plan_from_dict": lambda: plan_from_dict(plan_to_dict(example_plan)),
        "load_plan": lambda: load_plan(plan_file),
    }, valuation


def typed_errors(tmp_path, agent_system, example_plan):
    """Calls that raise a typed error from inside the paused call."""
    system, valuation = agent_system
    formula = ltl.parse_formula("p2 U p3", valuation.props)
    partial = buchi.ltl_to_buchi(formula, props=valuation.props)
    bad = write_json(tmp_path / "bad.json", {"states": ["q"], "controls": ["a"],
                                             "disturbances": ["b"], "transitions": 5})
    return [
        (AutomatonError,
         lambda: planner.synthesize(system, formula, valuation, initial_hint="zz")),
        (PlanValidationError,
         lambda: plan_violation_total(example_plan, partial, valuation)),
        (SystemValidationError, lambda: load_system(bad)),
        (PlanValidationError, lambda: plan_from_dict({"scrs": [{"id": 1}]})),
    ]


def test_calls_run_paused_and_enable_the_collector_after(calls, monkeypatch):
    named, valuation = calls
    seen = valuation.seen
    # reached only inside the system and plan loaders
    record_calls(monkeypatch, core, "AlternatingTransitionSystem", seen)
    record_calls(monkeypatch, core, "parse_valuation", seen)
    record_calls(monkeypatch, plan_module, "_in_id_order", seen)
    assert gc.isenabled()
    for name, call in named.items():
        seen.clear()
        call()
        assert seen and not any(seen), name
        assert gc.isenabled(), name


def test_typed_errors_enable_the_collector(tmp_path, agent_system, example_plan):
    for error, call in typed_errors(tmp_path, agent_system, example_plan):
        with pytest.raises(error):
            call()
        assert gc.isenabled()


def test_caller_exception_mid_call_enables_the_collector(agent_system, example_plan):
    system, plain = agent_system
    formula = ltl.parse_formula("p2 U p3", plain.props)
    total = planner.spec_automaton(formula, plain)
    for call in (
        lambda v: planner.synthesize(system, formula, v),
        lambda v: check_plan(example_plan, v, formula),
        lambda v: plan_violation_total(example_plan, total, v),
    ):
        valuation = RecordingValuation(plain, fail_after=1)
        with pytest.raises(Interrupted):
            call(valuation)
        assert len(valuation.seen) == 2 and not any(valuation.seen)
        assert gc.isenabled()


def test_nested_call_leaves_the_collector_paused(agent_system, monkeypatch):
    # ``synthesize`` checks its plan through ``check_plan``, which pauses
    # the collector again; returning from it must not enable it
    system, valuation = agent_system
    after_check = []

    def checked(*args, _original=planner.check_plan):
        result = _original(*args)
        after_check.append(gc.isenabled())
        return result
    monkeypatch.setattr(planner, "check_plan", checked)
    formula = ltl.parse_formula("p2 U p3", valuation.props)
    assert planner.synthesize(system, formula, valuation).found
    assert after_check == [False]
    assert gc.isenabled()


def test_collector_disabled_by_the_caller_stays_disabled(calls, tmp_path, agent_system,
                                                         example_plan):
    named, _ = calls
    gc.disable()
    try:
        for name, call in named.items():
            call()
            assert not gc.isenabled(), name
        for error, call in typed_errors(tmp_path, agent_system, example_plan):
            with pytest.raises(error):
                call()
            assert not gc.isenabled()
    finally:
        gc.enable()
