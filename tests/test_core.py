import gc
import itertools
import json
import pathlib
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from astra import core, dot
from astra.core import (
    AlternatingTransitionSystem,
    Lasso,
    load_system,
    validate_ats,
)
from astra.errors import (
    BlockedState,
    EmptyAlphabet,
    ExplosionGuard,
    InvalidDuration,
    SystemValidationError,
    UndeclaredSymbol,
)
from astra.plan import Controller

from conftest import system_file_dict, write_json
from generators import random_system
from oracles import canonical_lasso, listed_relation, outcomes_prefixes
from test_cli import PIN_CASES


def minimal_raw():
    return {
        "states": ["q"],
        "controls": ["a"],
        "disturbances": ["b"],
        "transitions": [{"from": "q", "control": "a", "disturbance": "b", "to": "q"}],
    }


class TestValidate:
    def test_minimal_self_loop(self):
        system = validate_ats(minimal_raw())
        assert system.states == ("q",)
        assert system.successors("q", "a") == ("q",)

    def test_two_state_deterministic_shape(self, deterministic_two_state):
        system = deterministic_two_state
        assert system.states == ("q1", "q2")
        assert system.controls == ("a", "b")
        assert system.obs_map == {"q1": "q1", "q2": "q2"}

    def test_blocked_state_detected_by_enumeration(self):
        # oracle: diff the full (state, control, disturbance) grid against
        # the transition table and expect the library to flag the same gap
        raw = {
            "states": ["q1", "q2"],
            "controls": ["a", "b"],
            "disturbances": ["b1", "b2"],
            "transitions": [
                {"from": q, "control": a, "disturbance": b, "to": "q1"}
                for q, a, b in itertools.product(["q1", "q2"], ["a", "b"], ["b1", "b2"])
                if (q, a, b) != ("q1", "a", "b2")
            ],
        }
        covered = {(t["from"], t["control"], t["disturbance"]) for t in raw["transitions"]}
        gaps = [
            triple for triple in itertools.product(["q1", "q2"], ["a", "b"], ["b1", "b2"])
            if triple not in covered
        ]
        assert gaps == [("q1", "a", "b2")]
        with pytest.raises(BlockedState) as err:
            validate_ats(raw)
        assert (err.value.state, err.value.control, err.value.disturbance) == gaps[0]

    def test_empty_alphabet(self):
        raw = minimal_raw()
        raw["controls"] = []
        with pytest.raises(EmptyAlphabet):
            validate_ats(raw)

    def test_undeclared_symbol(self):
        raw = minimal_raw()
        raw["transitions"].append(
            {"from": "q", "control": "zz", "disturbance": "b", "to": "q"}
        )
        with pytest.raises(UndeclaredSymbol):
            validate_ats(raw)

    def test_malformed_transition_in_constructor_is_typed(self):
        for item in (("q", "a", "b"), 5, (["q"], "a", "b", "q")):
            with pytest.raises(SystemValidationError) as err:
                AlternatingTransitionSystem(["q"], ["a"], ["b"], [("q", "a", "b", "q"), item])
            assert type(err.value) is SystemValidationError
            assert str(err.value) == (
                f"transition {item!r} is not a (state, control, disturbance, "
                "target) sequence of names")

    def test_transition_entries_checked_before_the_alphabets(self):
        # validate_ats checks every transition entry before the constructor
        # sees the empty controls list
        for entry, message in (
            ({"from": "q"}, "each transition must be an object with exactly the keys "
                            "from/control/disturbance/to"),
            ({"from": "q", "control": "a", "disturbance": "b", "to": 1},
             "transition fields must be strings"),
        ):
            raw = minimal_raw()
            raw["controls"] = []
            raw["transitions"].append(entry)
            with pytest.raises(SystemValidationError) as err:
                validate_ats(raw)
            assert type(err.value) is SystemValidationError
            assert str(err.value) == message

    def test_unknown_keys_rejected(self):
        raw = minimal_raw()
        raw["extra"] = 1
        with pytest.raises(SystemValidationError):
            validate_ats(raw)

    def test_repeated_proposition_rejected(self):
        with pytest.raises(SystemValidationError, match="duplicate entries in propositions"):
            core.Valuation(["p", "p"], {"q": {"p"}})

    def test_durations_other_than_one_rejected(self):
        raw = minimal_raw()
        for value in (2, True, 1.0, "1"):
            raw["durations"] = {"a": value}
            with pytest.raises(InvalidDuration):
                validate_ats(raw)
        raw["durations"] = {"zz": 1}
        with pytest.raises(UndeclaredSymbol):
            validate_ats(raw)
        raw["durations"] = {"a": 1}
        validate_ats(raw)

    def test_load_system_roundtrip(self, tmp_path, agent_system):
        system, valuation = agent_system
        path = write_json(tmp_path / "sys.json", system_file_dict(system, valuation))
        loaded, loaded_val = load_system(path)
        assert loaded.states == system.states
        assert loaded.controls == system.controls
        assert set(loaded.transitions) == set(system.transitions)
        assert loaded_val.label("q2") == valuation.label("q2")


class TestSuccessors:
    def test_self_loop(self):
        system = validate_ats(minimal_raw())
        assert set(system.successors("q", "a")) == {"q"}

    def test_agent_fanout(self, agent_system):
        system, _ = agent_system
        assert set(system.successors("q2", "a2")) == {"q1", "q3"}

    def test_matches_table_scan(self):
        # successors_under lists a triple's targets in state declaration
        # order, successors those of each declared disturbance in turn, each
        # once; the compiled rows hold the same successors by position
        rng = random.Random(11)
        for _ in range(50):
            system, _ = random_system(rng, max_states=6, max_controls=3,
                                      max_disturbances=3, double_successor_p=0.4)
            listed = set(system.transitions)
            for q in system.states:
                for c, a in enumerate(system.controls):
                    under = {b: tuple(t for t in system.states if (q, a, b, t) in listed)
                             for b in system.disturbances}
                    for b in system.disturbances:
                        assert system.successors_under(q, a, b) == under[b]
                    expected = tuple(dict.fromkeys(
                        t for b in system.disturbances for t in under[b]))
                    assert system.successors(q, a) == expected
                    assert system.rows[system.index[q]][c] == tuple(
                        system.index[t] for t in expected)
            q, a, b = system.states[-1], system.controls[-1], system.disturbances[-1]
            for call, message in (
                (lambda: system.successors("zz", a), "unknown state 'zz'"),
                (lambda: system.successors(q, "zz"), "unknown control 'zz'"),
                (lambda: system.successors_under("zz", a, b), "unknown state 'zz'"),
                (lambda: system.successors_under(q, "zz", b), "unknown control 'zz'"),
                (lambda: system.successors_under(q, a, "zz"), "unknown disturbance 'zz'"),
            ):
                with pytest.raises(UndeclaredSymbol, match=message):
                    call()

    def test_unknown_state_rejected(self, agent_system):
        system, _ = agent_system
        with pytest.raises(UndeclaredSymbol, match="unknown state 'q9'"):
            system.successors("q9", "a1")
        with pytest.raises(UndeclaredSymbol, match="unknown state 'q9'"):
            system.successors_under("q9", "a1", "1")

    def test_unknown_control_rejected(self, agent_system):
        system, _ = agent_system
        with pytest.raises(UndeclaredSymbol, match="unknown control 'zz'"):
            system.successors("q1", "zz")
        with pytest.raises(UndeclaredSymbol, match="unknown control 'zz'"):
            system.successors_under("q1", "zz", "1")

    def test_unknown_disturbance_rejected(self, agent_system):
        system, _ = agent_system
        with pytest.raises(UndeclaredSymbol, match="unknown disturbance 'zz'"):
            system.successors_under("q1", "a1", "zz")


def listed_cases():
    """``(name, system, valuation, listed)`` for systems built from known
    listed transitions: seeded random systems listed with repeats and out of
    slot order, once from a list and once from a generator; the systems of
    the pinned command outputs and of the command-line demo, loaded from
    their file form; and the agent of ``conftest``."""
    rng = random.Random(35)
    for k in range(40):
        base, valuation = random_system(rng, max_states=6, max_controls=3,
                                        max_disturbances=3, double_successor_p=0.4)
        listed = list(base.transitions)
        listed += rng.choices(listed, k=rng.randint(1, 4))
        rng.shuffle(listed)
        alphabets = base.states, base.controls, base.disturbances
        yield (f"random {k}", AlternatingTransitionSystem(*alphabets, listed),
               valuation, listed)
        yield (f"random {k} generator",
               AlternatingTransitionSystem(*alphabets, (t for t in listed)),
               valuation, listed)
    for name, seed, _ in PIN_CASES:
        system, valuation = random_system(
            random.Random(seed), max_states=8, max_controls=3,
            max_disturbances=3, max_props=2, double_successor_p=0.3)
        raw = system_file_dict(system, valuation)
        yield (name, validate_ats(raw), valuation,
               [tuple(t.values()) for t in raw["transitions"]])
    tour = pathlib.Path(__file__).resolve().parent.parent / "demos" / "05_cli_tour.sh"
    raw = json.loads(tour.read_text(encoding="utf-8")
                     .split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0])
    system = validate_ats(raw)
    yield ("patrol", system, core.parse_valuation(raw, system),
           [tuple(t.values()) for t in raw["transitions"]])


class TestListedViews:
    def test_views_are_the_relation_as_listed(self, agent_system):
        system, valuation = agent_system
        agent = ("agent", system, valuation, list(system.transitions))
        for name, system, valuation, listed in itertools.chain(listed_cases(), [agent]):
            assert system.transitions == tuple(listed), name
            under, rows = listed_relation(system.states, system.controls,
                                          system.disturbances, listed)
            assert system.rows == rows, name
            for i, q in enumerate(system.states):
                for c, a in enumerate(system.controls):
                    assert system.successors(q, a) == tuple(
                        system.states[j] for j in rows[i][c]), name
                    for b in system.disturbances:
                        assert system.successors_under(q, a, b) == tuple(
                            system.states[j] for j in under[q, a, b]), name
            as_listed = SimpleNamespace(states=system.states, obs_map=system.obs_map,
                                        transitions=tuple(listed))
            assert dot.system_dot(system, valuation) == dot.system_dot(
                as_listed, valuation), name


def retained_bytes(build):
    """``(result, bytes)``: what ``build()`` returns, and the bytes of the
    allocations made during the call that are still alive after it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestRetainedMemory:
    # A system keeps its listed transitions as integers and none of their
    # strings.  On this 3000-state ring (18,000 listed transitions, 64-bit
    # CPython 3.11), a loaded system and its valuation retain 80 B per listed
    # transition, and a constructed system 65 B.  When the system kept a
    # 4-tuple of the given strings for each listed transition, and one tuple
    # per slot, they retained 455 B and 403 B.
    BOUND = 160
    N = 3000

    def ring(self):
        """The ring's listed transitions, each built with new strings, as a
        file's parse builds them."""
        return ((f"q{i}", f"a{c}", f"b{d}", f"q{(i + 1 + c + 3 * d) % self.N}")
                for i in range(self.N) for c in range(3) for d in range(2))

    def test_loaded_system_keeps_no_file_strings(self, tmp_path):
        raw = {"states": [f"q{i}" for i in range(self.N)],
               "controls": ["a0", "a1", "a2"], "disturbances": ["b0", "b1"],
               "transitions": [dict(zip(("from", "control", "disturbance", "to"), t))
                               for t in self.ring()],
               "valuation": {f"q{i}": ["goal"] if i % 7 == 0 else []
                             for i in range(self.N)}}
        path = write_json(tmp_path / "ring.json", raw)
        (system, valuation), size = retained_bytes(lambda: load_system(path))
        assert len(system.transitions) == 6 * self.N >= 18_000
        assert valuation.label("q0") is valuation.label("q7")
        assert size / (6 * self.N) < self.BOUND

    def test_constructed_system_keeps_no_listed_strings(self):
        states = [f"q{i}" for i in range(self.N)]
        system, size = retained_bytes(lambda: AlternatingTransitionSystem(
            states, ["a0", "a1", "a2"], ["b0", "b1"], self.ring()))
        assert len(system.transitions) == 6 * self.N
        assert size / (6 * self.N) < self.BOUND


class TestOutcomes:
    def test_length_one(self, agent_system, example_plan):
        system, _ = agent_system
        out = outcomes_prefixes(system, "q1", Controller(example_plan), 1)
        assert out == frozenset({("q1",)})

    def test_agent_outcomes_length_three(self, agent_system, example_plan):
        system, _ = agent_system
        out = outcomes_prefixes(system, "q1", Controller(example_plan), 3)
        assert out == {("q1", "q2", "q3"), ("q1", "q2", "q1")}

    def test_replay(self):
        rng = random.Random(14)
        for _ in range(30):
            system, _ = random_system(rng)
            plan = _plan_for(system)
            controller = Controller(plan)
            for seq in outcomes_prefixes(system, plan.world_of(1), controller, 4):
                ctrl = controller
                actions = []
                for state in seq:
                    ctrl, action = ctrl.feed(state)
                    actions.append(action)
                for i in range(len(seq) - 1):
                    assert seq[i + 1] in system.successors(seq[i], actions[i])

    def test_prefix_extension(self):
        rng = random.Random(15)
        for _ in range(20):
            system, _ = random_system(rng, max_states=4)
            plan = _plan_for(system)
            controller = Controller(plan)
            q0 = plan.world_of(1)
            shorter = outcomes_prefixes(system, q0, controller, 3)
            longer = outcomes_prefixes(system, q0, controller, 4)
            truncated = {seq[:3] for seq in longer}
            assert shorter == truncated
            for seq in shorter:
                assert any(items[:3] == seq for items in longer)

    def test_explosion_guard(self):
        raw = {
            "states": ["q1", "q2"],
            "controls": ["a"],
            "disturbances": ["b"],
            "transitions": [
                {"from": q, "control": "a", "disturbance": "b", "to": t}
                for q in ("q1", "q2") for t in ("q1", "q2")
            ],
        }
        system = validate_ats(raw)
        from astra.plan import ReactivePlan, SCR

        plan = ReactivePlan([
            SCR(1, "q1", "a", frozenset({1, 2})),
            SCR(2, "q2", "a", frozenset({1, 2})),
        ])
        with pytest.raises(ExplosionGuard):
            outcomes_prefixes(system, "q1", Controller(plan), 25, cap=1000)


def _plan_for(system):
    """A one-rule-per-state plan following the first control everywhere."""
    from astra.plan import ReactivePlan, SCR

    action = system.controls[0]
    ids = {q: i + 1 for i, q in enumerate(system.states)}
    rules = [
        SCR(ids[q], q, action, frozenset(ids[t] for t in system.successors(q, action)))
        for q in system.states
    ]
    return ReactivePlan(rules)


class TestSequencesAndLassos:
    def test_lasso_normalization(self):
        lasso = Lasso(("a",), ("b", "c"))
        assert [lasso.at(i) for i in range(1, 7)] == ["a", "b", "c", "b", "c", "b"]
        assert lasso.normalize(6) == 1 + 1 + ((6 - 1 - 1) % 2)

    def test_lasso_canonical(self):
        assert canonical_lasso(Lasso((), ("a", "b", "a", "b"))) == Lasso((), ("a", "b"))
        assert canonical_lasso(Lasso(("x", "a"), ("b", "a"))) == Lasso(("x",), ("a", "b"))
        same = [Lasso(("q",), ("q",)), Lasso((), ("q",)), Lasso(("q", "q"), ("q", "q"))]
        assert len({canonical_lasso(l) for l in same}) == 1

    def test_canonical_preserves_word(self):
        rng = random.Random(16)
        for _ in range(200):
            total = rng.randint(1, 6)
            cycle_len = rng.randint(1, total)
            items = tuple(rng.choice("abc") for _ in range(total))
            lasso = Lasso(items[: total - cycle_len], items[total - cycle_len :])
            assert canonical_lasso(lasso).unroll(20) == lasso.unroll(20)
