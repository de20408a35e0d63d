import contextlib
import io
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from astra import ltl, planner
from astra.cli import main
from astra.core import load_system
from astra.plan import check_plan, dump_plan, load_plan, plan_to_dict

from conftest import child_env, system_file_dict, write_json
from generators import random_formula, random_system
from oracles import tuple_adversary_run, tuple_plan_violation

DATA = pathlib.Path(__file__).parent / "data"
PINS = DATA / "cli_pins.json"


# the automaton for "p2 U p3" that TestVerify.test_automaton_route writes
UNTIL_AUTOMATON = {
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
}

# "G p2", which the example plan violates once it reaches q3
ALWAYS_P2_AUTOMATON = {
    "states": ["ok", "rej"],
    "initial": ["ok"],
    "accepting": ["ok"],
    "edges": [
        {"from": "ok", "guard": "p2", "to": "ok"},
        {"from": "ok", "guard": "!p2", "to": "rej"},
        {"from": "rej", "guard": "true", "to": "rej"},
    ],
}

# "p2 U p3" without the rejecting sink: it totalizes but is not total
PARTIAL_UNTIL_AUTOMATON = {
    "states": ["wait", "acc"],
    "initial": ["wait"],
    "accepting": ["acc"],
    "edges": [
        {"from": "wait", "guard": "p3", "to": "acc"},
        {"from": "wait", "guard": "p2 & !p3", "to": "wait"},
        {"from": "acc", "guard": "true", "to": "acc"},
    ],
}

# "F G p1" as a guess-the-point automaton: two targets on every p1 letter,
# so no total completion exists
EVENTUALLY_ALWAYS_P1_AUTOMATON = {
    "states": ["guess", "stay"],
    "initial": ["guess"],
    "accepting": ["stay"],
    "edges": [
        {"from": "guess", "guard": "true", "to": "guess"},
        {"from": "guess", "guard": "p1", "to": "stay"},
        {"from": "stay", "guard": "p1", "to": "stay"},
    ],
}


def run(*argv, capsys=None):
    code = main(list(argv))
    if capsys is None:
        return code, None, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_agent_until_found(self, tmp_path, agent_system_file, capsys):
        out = tmp_path / "plan.json"
        code, stdout, _ = run(
            "synth", "--system", agent_system_file, "--spec", "p2 U p3",
            "--out", str(out), capsys=capsys,
        )
        assert code == 0
        assert "verified: true" in stdout
        payload = json.loads(out.read_text())
        assert payload["initial"] == "q1"
        assert (tmp_path / "plan.dot").exists()
        # the produced plan passes verify
        code, stdout, _ = run(
            "verify", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", str(out), capsys=capsys,
        )
        assert code == 0

    def test_automaton_found(self, tmp_path, agent_system_file, capsys):
        automaton = write_json(tmp_path / "aut.json", UNTIL_AUTOMATON)
        code, stdout, stderr = run(
            "synth", "--system", agent_system_file, "--automaton", automaton,
            "--out", str(tmp_path / "p.json"), capsys=capsys,
        )
        assert code == 0, stderr
        assert stdout == "initial: q1\nverified: true\n"

    def test_false_spec_not_found(self, tmp_path, agent_system_file, capsys):
        code, _, _ = run(
            "synth", "--system", agent_system_file, "--spec", "false",
            "--out", str(tmp_path / "p.json"), capsys=capsys,
        )
        assert code == 1

    def test_non_totalizable_spec_unknown(self, tmp_path, agent_system_file, capsys):
        code, stdout, _ = run(
            "synth", "--system", agent_system_file, "--spec", "F(p1 U p2)",
            "--out", str(tmp_path / "p.json"), capsys=capsys,
        )
        assert code == 2

    def test_unknown_initial_is_input_error(self, tmp_path, agent_system_file, capsys):
        # the same error whether or not the specification totalizes
        for spec in ("G p2", "F(p1 U p2)"):
            code, stdout, stderr = run(
                "synth", "--system", agent_system_file, "--spec", spec,
                "--initial", "zz", "--out", str(tmp_path / "p.json"), capsys=capsys,
            )
            assert (code, stdout, stderr) == \
                (3, "", "error: unknown initial state 'zz'\n"), spec

    def test_deep_formula_is_synthesized(self, tmp_path, agent_system, agent_system_file,
                                         capsys):
        # translation keeps its own stacks, so a 2000-term chain gets a
        # verdict, and its plan passes the independent check
        system, valuation = agent_system
        out = tmp_path / "p.json"
        spec = " & ".join(["p2"] * 2000)
        code, stdout, stderr = run(
            "synth", "--system", agent_system_file, "--spec", spec,
            "--out", str(out), capsys=capsys,
        )
        assert (code, stdout, stderr) == (0, "initial: q1\nverified: true\n", "")
        formula = ltl.parse_formula(spec, valuation.props)
        assert check_plan(load_plan(out), valuation, formula) is None

    def test_tableau_past_its_budget_is_input_error(self, tmp_path, agent_system_file,
                                                    capsys):
        # the negation of a 300-atom until chain would need 2^299
        # decompositions of its one obligation
        out = tmp_path / "p.json"
        spec = "!(" + " U ".join(["p1"] * 300) + ")"
        code, stdout, stderr = run(
            "synth", "--system", agent_system_file, "--spec", spec,
            "--out", str(out), capsys=capsys,
        )
        assert (code, stdout) == (3, "")
        assert stderr == "error: a tableau set holds 4096 decompositions (at most 2048)\n"
        assert not out.exists()

    def test_deeply_nested_file_is_input_error(self, tmp_path, capsys):
        # the JSON reader recurses; a file nested past its limit is named
        # as the input at fault, not as a formula
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, stdout, stderr = run(
            "synth", "--system", str(deep), "--spec", "G p2",
            "--out", str(tmp_path / "p.json"), capsys=capsys,
        )
        assert (code, stdout, stderr) == (3, "", "error: an input file nests too deeply\n")

    def test_deep_temporal_guard_is_input_error(self, tmp_path, agent_system_file,
                                               capsys):
        # an automaton file whose guard chains 3000 untils names the guard,
        # not the nesting
        guard = " U ".join(["p1"] * 2999 + ["p2"])
        automaton = write_json(tmp_path / "aut.json", {
            "states": ["s"], "initial": ["s"], "accepting": ["s"],
            "edges": [{"from": "s", "guard": guard, "to": "s"}],
        })
        code, stdout, stderr = run(
            "synth", "--system", agent_system_file, "--automaton", automaton,
            "--out", str(tmp_path / "p.json"), capsys=capsys,
        )
        assert (code, stdout, stderr) == \
            (3, "", f"error: guard {guard!r} uses a temporal operator\n")

    def test_deep_guard_is_input_error(self, tmp_path, agent_system_file, capsys):
        # an automaton file whose guard chains 1500 conjuncts names the
        # guard, not a formula the command line never gave
        guard = " & ".join(["p1"] * 1499 + ["p2"])
        automaton = write_json(tmp_path / "aut.json", {
            "states": ["s"], "initial": ["s"], "accepting": ["s"],
            "edges": [{"from": "s", "guard": guard, "to": "s"}],
        })
        code, stdout, stderr = run(
            "synth", "--system", agent_system_file, "--automaton", automaton,
            "--out", str(tmp_path / "p.json"), capsys=capsys,
        )
        assert (code, stdout, stderr) == \
            (3, "", f"error: guard {guard!r} nests too deeply\n")

    def test_declared_proposition_no_state_carries(self, tmp_path, agent_system,
                                                   capsys):
        # "crash" labels no state, so only the "propositions" list declares
        # it; without the list "G !crash" names an unknown proposition
        raw = system_file_dict(*agent_system)
        plain = write_json(tmp_path / "plain.json", raw)
        declared = write_json(tmp_path / "declared.json",
                              {**raw, "propositions": ["crash", "p2"]})
        out = tmp_path / "p.json"
        code, stdout, stderr = run("synth", "--system", plain, "--spec", "G !crash",
                                   "--out", str(out), capsys=capsys)
        assert (code, stdout) == (3, "")
        assert stderr == "error: unknown proposition 'crash' (at position 4)\n"
        code, stdout, stderr = run("synth", "--system", declared, "--spec", "G !crash",
                                   "--out", str(out), capsys=capsys)
        assert (code, stdout, stderr) == (0, "initial: q1\nverified: true\n", "")
        # the list comes first, then every other label in today's order
        assert load_system(declared)[1].props == ("crash", "p2", "p1", "p3")
        assert load_system(plain)[1].props == ("p1", "p2", "p3")
        for bad, message in ((["not a name"], "invalid proposition name 'not a name'"),
                             (["p1", "p1"], "duplicate entries in propositions"),
                             (["p1", 2], "'propositions' must be a list of strings"),
                             ("p1", "'propositions' must be a list of strings")):
            path = write_json(tmp_path / "bad.json", {**raw, "propositions": bad})
            code, stdout, stderr = run("synth", "--system", path, "--spec", "true",
                                       "--out", str(out), capsys=capsys)
            assert (code, stdout, stderr) == (3, "", f"error: {message}\n")

    def test_malformed_system_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": ["q"]}')
        code, _, stderr = run(
            "synth", "--system", str(bad), "--spec", "true",
            "--out", str(tmp_path / "p.json"), capsys=capsys,
        )
        assert code == 3
        assert "error:" in stderr


class TestVerify:
    def test_example_plan_until(self, agent_system_file, example_plan_file, capsys):
        code, stdout, _ = run(
            "verify", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", example_plan_file, capsys=capsys,
        )
        assert code == 0
        assert "verified: true" in stdout

    def test_example_plan_always_violated(self, agent_system_file, example_plan_file,
                                          capsys):
        code, stdout, _ = run(
            "verify", "--system", agent_system_file, "--spec", "G p2",
            "--plan", example_plan_file, capsys=capsys,
        )
        assert code == 1
        assert "counterexample" in stdout
        cycle_line = [l for l in stdout.splitlines() if l.startswith("cycle:")][0]
        assert set(cycle_line.split()[1:]) == {"q3"}

    def test_footnote_violation_is_validation_error(self, tmp_path, agent_system_file,
                                                    example_plan, capsys):
        # drop one successor so q2's fanout is no longer covered
        payload = plan_to_dict(example_plan)
        payload["scrs"][1]["successors"] = [3]
        path = write_json(tmp_path / "broken.json", payload)
        code, _, stderr = run(
            "verify", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", path, capsys=capsys,
        )
        assert code == 3
        assert "covers" in stderr or "successor" in stderr

    def test_automaton_route(self, tmp_path, agent_system_file, example_plan_file,
                             capsys):
        automaton = write_json(tmp_path / "aut.json", UNTIL_AUTOMATON)
        code, stdout, _ = run(
            "verify", "--system", agent_system_file, "--automaton", automaton,
            "--plan", example_plan_file, capsys=capsys,
        )
        assert code == 0

    def test_automaton_route_violated(self, tmp_path, agent_system_file,
                                      example_plan_file, capsys):
        automaton = write_json(tmp_path / "aut.json", ALWAYS_P2_AUTOMATON)
        code, stdout, stderr = run(
            "verify", "--system", agent_system_file, "--automaton", automaton,
            "--plan", example_plan_file, capsys=capsys,
        )
        assert code == 1
        assert stdout == (
            "violated: counterexample lasso\n"
            "prefix: q1 q2 q3 q3\n"
            "cycle: q3\n"
        )
        assert stderr == ""

    def test_automaton_not_totalizable_is_error(self, tmp_path, agent_system_file,
                                                example_plan_file, capsys):
        automaton = write_json(tmp_path / "aut.json", EVENTUALLY_ALWAYS_P1_AUTOMATON)
        code, stdout, stderr = run(
            "verify", "--system", agent_system_file, "--automaton", automaton,
            "--plan", example_plan_file, capsys=capsys,
        )
        assert code == 3
        assert stdout == ""
        assert stderr == "error: the specification automaton is not totalizable\n"


class TestSimulate:
    def test_fixed_seed_reproducible(self, agent_system_file, example_plan_file,
                                     capsys):
        args = (
            "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", example_plan_file, "--seed", "7", "--steps", "8",
        )
        code1, out1, _ = run(*args, capsys=capsys)
        code2, out2, _ = run(*args, capsys=capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip().splitlines()[-1] in (
            "satisfied (lasso detected)", "inconclusive prefix"
        )

    def simulate_automaton(self, tmp_path, system_file, plan_file, payload, capsys):
        automaton = write_json(tmp_path / "aut.json", payload)
        return run(
            "simulate", "--system", system_file, "--automaton", automaton,
            "--plan", plan_file, "--seed", "3", "--steps", "4", capsys=capsys,
        )

    def test_automaton_route_holds(self, tmp_path, agent_system_file,
                                   example_plan_file, capsys):
        code, stdout, stderr = self.simulate_automaton(
            tmp_path, agent_system_file, example_plan_file, UNTIL_AUTOMATON, capsys)
        assert code == 0
        assert stderr == ""
        assert stdout.splitlines()[-1] in (
            "satisfied (lasso detected)", "inconclusive prefix"
        )

    def test_automaton_route_violated_warns(self, tmp_path, agent_system_file,
                                            example_plan_file, capsys):
        code, stdout, stderr = self.simulate_automaton(
            tmp_path, agent_system_file, example_plan_file, ALWAYS_P2_AUTOMATON, capsys)
        assert code == 0
        assert stderr == "warning: plan failed verification; simulating anyway\n"
        assert len(stdout.splitlines()) == 5

    def test_automaton_not_totalizable_warns(self, tmp_path, agent_system_file,
                                             example_plan_file, capsys):
        code, _, stderr = self.simulate_automaton(
            tmp_path, agent_system_file, example_plan_file,
            EVENTUALLY_ALWAYS_P1_AUTOMATON, capsys)
        assert code == 0
        assert stderr == ("warning: the specification automaton is not totalizable; "
                          "simulating unverified\n")

    def test_scripted_replays_plan_trajectory(self, tmp_path, agent_system_file,
                                              example_plan_file, capsys):
        script = write_json(tmp_path / "script.json", ["1"] * 6)
        code, stdout, _ = run(
            "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", example_plan_file, "--policy", "scripted",
            "--script", script, "--steps", "6", "--seed", "1", capsys=capsys,
        )
        assert code == 0
        lines = [l.split() for l in stdout.strip().splitlines()[:-1]]
        states = [lines[0][1]] + [row[4] for row in lines]
        # states walked must replay the plan graph from rule 1
        from astra.plan import load_plan

        plan = load_plan(example_plan_file)
        cursor = 1
        assert states[0] == plan.world_of(1)
        for observed in states[1:]:
            matches = [
                j for j in plan.successor_ids(cursor)
                if plan.world_of(j) == observed
            ]
            assert matches
            cursor = matches[0]

    def test_short_script_is_error(self, tmp_path, agent_system_file,
                                   example_plan_file, capsys):
        script = write_json(tmp_path / "script.json", ["1"])
        code, _, _ = run(
            "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", example_plan_file, "--policy", "scripted",
            "--script", script, "--steps", "6", capsys=capsys,
        )
        assert code == 3

    def test_non_string_script_entries_are_errors(self, tmp_path, agent_system_file,
                                                  example_plan_file, capsys):
        for entries in ([{"x": 1}], [["b"]]):
            script = write_json(tmp_path / "script.json", entries)
            code, stdout, stderr = run(
                "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
                "--plan", example_plan_file, "--policy", "scripted",
                "--script", script, "--steps", "1", capsys=capsys,
            )
            assert code == 3 and stdout == "", entries
            assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr

    def test_script_needs_the_scripted_policy(self, tmp_path, agent_system_file,
                                              example_plan_file, capsys):
        script = write_json(tmp_path / "script.json", ["zz"])
        for extra in (("--policy", "adversarial", "--script", str(tmp_path / "none.json")),
                      ("--policy", "random", "--script", script),
                      ("--script", script)):
            code, stdout, stderr = run(
                "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
                "--plan", example_plan_file, *extra, capsys=capsys,
            )
            assert code == 3 and stdout == "", extra
            assert stderr == "error: --script is read only with --policy scripted\n"

    def test_undeclared_script_entry_fails_before_the_first_step(
            self, tmp_path, agent_system_file, example_plan_file, capsys):
        # the agent declares the one disturbance "1"
        script = write_json(tmp_path / "script.json", ["1", "1", "zz", "1"])
        code, stdout, stderr = run(
            "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", example_plan_file, "--policy", "scripted",
            "--script", script, "--steps", "4", capsys=capsys,
        )
        assert code == 3 and stdout == ""
        assert stderr == "error: scripted disturbance 'zz' is not declared\n"

    def test_adversarial_on_verified_plan(self, tmp_path, agent_system_file, capsys):
        plan_path = tmp_path / "plan.json"
        code, _, _ = run(
            "synth", "--system", agent_system_file, "--spec", "p2 U p3",
            "--out", str(plan_path), capsys=capsys,
        )
        assert code == 0
        code, stdout, stderr = run(
            "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", str(plan_path), "--policy", "adversarial", "--steps", "12",
            capsys=capsys,
        )
        assert code == 0
        assert "warning" not in stderr

    def test_no_violating_lasso_over_seeds(self, tmp_path, agent_system_file, capsys):
        # every detected loop of a verified plan, replayed forever, must
        # satisfy the spec; checked across 100 seeds and both policies
        from astra import ltl
        from astra.core import Lasso, load_system
        from astra.plan import Controller, load_plan

        plan_path = tmp_path / "plan.json"
        code, _, _ = run("synth", "--system", agent_system_file, "--spec", "p2 U p3",
                         "--out", str(plan_path), capsys=capsys)
        assert code == 0
        system, valuation = load_system(agent_system_file)
        plan = load_plan(plan_path)
        formula = ltl.parse_formula("p2 U p3", valuation.props)

        for seed in range(100):
            for policy in ("adversarial", "random"):
                code, stdout, _ = run(
                    "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
                    "--plan", str(plan_path), "--policy", policy,
                    "--seed", str(seed), "--steps", "10", capsys=capsys,
                )
                assert code == 0
                lines = stdout.strip().splitlines()
                rows = [l.split() for l in lines[:-1]]
                states = [rows[0][1]] + [row[4] for row in rows]
                if lines[-1] != "satisfied (lasso detected)":
                    continue
                ctrl = Controller(plan)
                pairs = []
                for state in states:
                    ctrl, _ = ctrl.feed(state)
                    pairs.append((ctrl.cursor, state))
                loop = next(
                    (i, j)
                    for j in range(len(pairs))
                    for i in range(j)
                    if pairs[i] == pairs[j]
                )
                i, j = loop
                lasso = Lasso(tuple(states[:i]), tuple(states[i:j]))
                assert ltl.trajectory_satisfies(lasso, formula, valuation)

    def test_detachment_under_verified_plan(self, tmp_path, agent_system_file, capsys):
        plan_path = tmp_path / "plan.json"
        run("synth", "--system", agent_system_file, "--spec", "p2 U p3",
            "--out", str(plan_path), capsys=capsys)
        code, _, stderr = run(
            "simulate", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", str(plan_path), "--initial", "q3", "--steps", "4",
            capsys=capsys,
        )
        assert code == 3
        assert "detached" in stderr

    def test_detachment_under_unverified_plan_is_noted(
            self, agent_system_file, example_plan_file, capsys):
        # the example plan violates "G p2" and starts at q1, not q3
        code, stdout, stderr = run(
            "simulate", "--system", agent_system_file, "--spec", "G p2",
            "--plan", example_plan_file, "--initial", "q3", "--steps", "3",
            capsys=capsys,
        )
        assert code == 0
        assert stderr == "warning: plan failed verification; simulating anyway\n"
        assert stdout == (
            "note: detached from plan; continuing with its default action\n"
            "1 q3 a1 1 q3\n"
            "2 q3 a1 1 q3\n"
            "3 q3 a1 1 q3\n"
            "lasso detected (plan not verified)\n"
        )

    def test_lasso_under_unverified_plan_is_not_satisfied(
            self, agent_system_file, example_plan_file, capsys):
        # the example plan violates "G p2": its run repeats a (plan state,
        # world state) pair, which shows no satisfaction
        code, stdout, stderr = run(
            "simulate", "--system", agent_system_file, "--spec", "G p2",
            "--plan", example_plan_file, "--steps", "6", "--seed", "0",
            capsys=capsys,
        )
        assert code == 0
        assert stderr == "warning: plan failed verification; simulating anyway\n"
        assert stdout.splitlines()[-1] == "lasso detected (plan not verified)"

    def test_adversarial_totalizes_the_automaton_once(self, tmp_path, monkeypatch,
                                                      agent_system_file,
                                                      example_plan_file, capsys):
        # verification and the adversary's game share one resolved automaton
        from astra import buchi

        totalized = []

        def counted_totalize(*args, _original=buchi.totalize):
            totalized.append(args[0])
            return _original(*args)
        monkeypatch.setattr(buchi, "totalize", counted_totalize)
        automaton = write_json(tmp_path / "aut.json", PARTIAL_UNTIL_AUTOMATON)
        code, stdout, stderr = run(
            "simulate", "--system", agent_system_file, "--automaton", automaton,
            "--plan", example_plan_file, "--policy", "adversarial", capsys=capsys,
        )
        assert (code, stderr) == (0, "")
        assert len(stdout.splitlines()) == 21
        assert len(totalized) == 1

    def test_adversarial_needs_a_totalizable_spec(self, tmp_path, agent_system_file,
                                                  example_plan_file, capsys):
        # the example plan meets "F G p3", whose translation does not totalize
        code, stdout, stderr = run(
            "simulate", "--system", agent_system_file, "--spec", "F G p3",
            "--plan", example_plan_file, "--policy", "adversarial", capsys=capsys,
        )
        assert code == 3 and stdout == ""
        assert stderr == "error: the specification automaton is not totalizable\n"
        automaton = write_json(tmp_path / "aut.json", EVENTUALLY_ALWAYS_P1_AUTOMATON)
        code, stdout, stderr = run(
            "simulate", "--system", agent_system_file, "--automaton", automaton,
            "--plan", example_plan_file, "--policy", "adversarial", capsys=capsys,
        )
        assert code == 3 and stdout == ""
        assert stderr == ("warning: the specification automaton is not totalizable; "
                          "simulating unverified\n"
                          "error: the specification automaton is not totalizable\n")


class TestExport:
    def test_plan_dot_has_expected_shape(self, tmp_path, example_plan_file, capsys):
        out = tmp_path / "plan.dot"
        code, _, _ = run("export", "plan", "--plan", example_plan_file,
                         "--out", str(out), capsys=capsys)
        assert code == 0
        text = out.read_text()
        assert text.count("[label=") == 4
        assert "3 -> 3;" in text

    def test_idempotent(self, tmp_path, agent_system_file, capsys):
        out1, out2 = tmp_path / "a.dot", tmp_path / "b.dot"
        run("export", "system", "--system", agent_system_file, "--out", str(out1),
            capsys=capsys)
        run("export", "system", "--system", agent_system_file, "--out", str(out2),
            capsys=capsys)
        assert out1.read_bytes() == out2.read_bytes()

    def test_all_kinds_parse(self, tmp_path, agent_system_file, example_plan_file,
                             capsys):
        from dot_checker import check_dot

        for kind, extra in (
            ("system", ["--system", agent_system_file]),
            ("plan", ["--plan", example_plan_file]),
            ("automaton", ["--system", agent_system_file, "--spec", "p2 U p3"]),
            ("product", ["--system", agent_system_file, "--spec", "p2 U p3",
                         "--initial", "q1"]),
        ):
            out = tmp_path / f"{kind}.dot"
            code, _, _ = run("export", kind, *extra, "--out", str(out),
                             capsys=capsys)
            assert code == 0
            check_dot(out.read_text())

    def test_kinds_reject_initial_they_do_not_read(self, tmp_path, agent_system_file,
                                                   capsys):
        out = tmp_path / "o.dot"
        for kind, inputs in (("system", ("--system", agent_system_file)),
                             ("automaton", ("--spec", "F p"))):
            code, stdout, stderr = run("export", kind, *inputs, "--initial", "zz",
                                       "--out", str(out), capsys=capsys)
            assert code == 3 and stdout == "", kind
            assert "unrecognized arguments: --initial zz" in stderr
            assert not out.exists()

    def test_untotalizable_spec_is_an_error(self, tmp_path, agent_system_file, capsys):
        out = tmp_path / "o.dot"
        code, stdout, stderr = run(
            "export", "product", "--system", agent_system_file, "--spec", "F G p2",
            "--out", str(out), capsys=capsys,
        )
        assert code == 3 and stdout == ""
        assert stderr == "error: the specification automaton is not totalizable\n"
        assert not out.exists()

    def test_tfin_is_an_unknown_kind(self, tmp_path, agent_system_file,
                                     example_plan_file, capsys):
        # the accepting-system rendering of a plan is no longer a kind
        out = tmp_path / "o.dot"
        code, stdout, stderr = run(
            "export", "tfin", "--system", agent_system_file, "--spec", "G p3",
            "--plan", example_plan_file, "--out", str(out), capsys=capsys,
        )
        assert (code, stdout) == (3, "")
        assert stderr.startswith("usage: astra export ")
        assert "invalid choice: 'tfin'" in stderr
        assert not out.exists()

    def test_automaton_file_takes_no_system(self, tmp_path, capsys):
        automaton = write_json(tmp_path / "a.json", UNTIL_AUTOMATON)
        out = tmp_path / "o.dot"
        # the system file is not read, so a missing one changes nothing
        code, stdout, stderr = run(
            "export", "automaton", "--automaton", automaton,
            "--system", str(tmp_path / "missing.json"), "--out", str(out),
            capsys=capsys,
        )
        assert code == 3 and stdout == ""
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
        assert not out.exists()
        code, _, _ = run("export", "automaton", "--automaton", automaton,
                         "--out", str(out), capsys=capsys)
        assert code == 0 and out.exists()

    def test_wide_guard_fails_fast(self, tmp_path, capsys):
        # the one edge of "G (x0 | ... | x9)" reads ten atoms, past the
        # budget of guard texts that are written out
        spec = "G (" + " | ".join(f"x{i}" for i in range(10)) + ")"
        out = tmp_path / "o.dot"
        start = time.perf_counter()
        code, stdout, stderr = run("export", "automaton", "--spec", spec,
                                   "--out", str(out), capsys=capsys)
        assert time.perf_counter() - start < 5
        assert (code, stdout) == (3, "")
        assert stderr == "error: a guard over 10 atoms is too large to write out (at most 7)\n"
        assert not out.exists()

    def test_guard_past_the_atom_budget_is_an_input_error(self, tmp_path, capsys):
        guard = " & ".join(f"x{i:02}" for i in range(24))
        automaton = write_json(tmp_path / "a.json", {
            "states": ["s"], "initial": ["s"], "accepting": ["s"],
            "edges": [{"from": "s", "guard": guard, "to": "s"}],
        })
        out = tmp_path / "o.dot"
        start = time.perf_counter()
        code, stdout, stderr = run("export", "automaton", "--automaton", automaton,
                                   "--out", str(out), capsys=capsys)
        assert time.perf_counter() - start < 5
        assert (code, stdout) == (3, "")
        assert stderr == f"error: guard {guard!r} reads 24 atoms (at most 20)\n"
        assert not out.exists()

    def test_missing_inputs_are_errors(self, tmp_path, capsys):
        code, _, _ = run("export", "plan", "--out", str(tmp_path / "x.dot"),
                         capsys=capsys)
        assert code == 3


class TestUsage:
    def test_spec_and_automaton_together_is_input_error(self, tmp_path,
                                                        agent_system_file, capsys):
        code, _, _ = run(
            "synth", "--system", agent_system_file, "--spec", "true",
            "--automaton", "x.json", "--out", str(tmp_path / "p.json"),
            capsys=capsys,
        )
        assert code == 3

    def test_neither_spec_nor_automaton(self, tmp_path, agent_system_file,
                                        example_plan_file, capsys):
        system, plan = ("--system", agent_system_file), ("--plan", example_plan_file)
        out = ("--out", str(tmp_path / "p.json"))
        for argv in (("synth", *system, *out), ("verify", *system, *plan),
                     ("simulate", *system, *plan), ("export", "automaton", *out),
                     ("export", "product", *system, *out)):
            code, stdout, stderr = run(*argv, capsys=capsys)
            assert code == 3 and stdout == "", argv
            assert stderr.startswith("usage: astra ")
            assert stderr.endswith(
                "error: one of the arguments --spec --automaton is required\n")

    def test_help_exits_zero(self, capsys):
        assert run("--help", capsys=capsys)[0] == 0

    def test_malformed_files_exit_three(self, tmp_path, agent_system_file,
                                        example_plan_file, capsys):
        cases = [
            ("sys.json", {"states": 5, "controls": ["a"], "disturbances": ["b"],
                          "transitions": []}, "system"),
            ("sys2.json", {"states": ["q"], "controls": ["a"], "disturbances": ["b"],
                           "transitions": 5}, "system"),
            ("sys3.json", {"states": ["q"], "controls": ["a"], "disturbances": ["b"],
                           "transitions": [["q", "a", "b", "q"]]}, "system"),
            ("sys4.json", {"states": ["q"], "controls": ["a"], "disturbances": ["b"],
                           "transitions": [{"from": ["q"], "control": "a",
                                            "disturbance": "b", "to": "q"}]}, "system"),
            ("sys5.json", {"states": ["q"], "controls": ["a"], "disturbances": ["b"],
                           "transitions": [{"from": "q", "control": {"a": 1},
                                            "disturbance": "b", "to": "q"}]}, "system"),
            ("sys6.json", {"states": ["q"], "controls": ["a"], "disturbances": ["b"],
                           "transitions": [{"from": "q", "control": "a",
                                            "disturbance": "b", "to": "q"}],
                           "observations": {"q": ["low"]}}, "system"),
            *((f"dur_{i}.json", {"states": ["q"], "controls": ["a"], "disturbances": ["b"],
                                 "transitions": [{"from": "q", "control": "a",
                                                  "disturbance": "b", "to": "q"}],
                                 "durations": durations}, "system")
              for i, durations in enumerate(({"zz": 1}, {"a": True}, {"a": 1.0}))),
            ("plan.json", {"scrs": [{"id": "x", "world": "q", "action": "a",
                                     "successors": []}]}, "plan"),
            ("plan2.json", {"scrs": 5}, "plan"),
            *((f"plan_initial_{i}.json",
               {**json.loads(pathlib.Path(example_plan_file).read_text()),
                "initial": initial}, "plan")
              for i, initial in enumerate(([1, 2], "zz"))),
            ("aut.json", {**UNTIL_AUTOMATON, "states": [["a"]]}, "automaton"),
            ("aut2.json", {**UNTIL_AUTOMATON, "accepting": [{"x": 1}]}, "automaton"),
            ("aut3.json", {**UNTIL_AUTOMATON, "initial": [["wait"]]}, "automaton"),
            ("aut4.json", {**UNTIL_AUTOMATON,
                           "states": ["wait", "acc", "rej", 1]}, "automaton"),
            ("aut5.json", {**json.loads((DATA / "aut_response.json").read_text()),
                           "initial": ["idle", "idle"]}, "automaton"),
        ]
        for name, payload, kind in cases:
            path = write_json(tmp_path / name, payload)
            if kind == "system":
                code, _, stderr = run(
                    "verify", "--system", path, "--spec", "true",
                    "--plan", example_plan_file, capsys=capsys,
                )
            elif kind == "automaton":
                code, _, stderr = run(
                    "synth", "--system", agent_system_file, "--automaton", path,
                    "--out", str(tmp_path / "p.json"), capsys=capsys,
                )
            else:
                code, _, stderr = run(
                    "verify", "--system", agent_system_file, "--spec", "true",
                    "--plan", path, capsys=capsys,
                )
            assert code == 3, (name, code)
            assert stderr.startswith("error:")

    def test_rule_without_successors_is_an_error(self, tmp_path, agent_system_file,
                                                 capsys):
        plan = write_json(tmp_path / "dead_end.json", {"scrs": [
            {"id": 1, "world": "q1", "action": "a1", "successors": [2]},
            {"id": 2, "world": "q2", "action": "a2", "successors": []},
        ]})
        checked = ("--system", agent_system_file, "--spec", "true", "--plan", plan)
        for argv in (("verify", *checked), ("simulate", *checked),
                     ("export", "plan", "--plan", plan, "--out", str(tmp_path / "p.dot"))):
            code, stdout, stderr = run(*argv, capsys=capsys)
            assert code == 3 and stdout == "", argv
            assert stderr == "error: SCR 2 lists no successor plan states\n", argv

    def test_verify_rejects_initial(self, agent_system_file, example_plan_file,
                                    capsys):
        # verify checks every trajectory of the plan from plan state 1, so
        # it takes no initial state
        code, stdout, stderr = run(
            "verify", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", example_plan_file, "--initial", "zz", capsys=capsys,
        )
        assert code == 3 and stdout == ""
        assert "unrecognized arguments: --initial zz" in stderr

    def test_unparseable_json_exits_three(self, tmp_path, example_plan_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{{")
        code, _, stderr = run(
            "verify", "--system", str(bad), "--spec", "true",
            "--plan", example_plan_file, capsys=capsys,
        )
        assert code == 3 and stderr.startswith("error:")

    def test_undecodable_input_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"states": []}')
        code, stdout, stderr = run(
            "verify", "--system", str(bad), "--spec", "p",
            "--plan", str(bad), capsys=capsys,
        )
        assert code == 3 and stdout == ""
        assert stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_unencodable_output_exits_three(self, tmp_path, capsys):
        # a JSON escape reads a lone surrogate into a state name, which no
        # output can hold in UTF-8; loading rejects it and nothing is written
        state = "q\ud800"
        system = write_json(tmp_path / "system.json", {
            "states": [state], "controls": ["a"], "disturbances": ["b"],
            "transitions": [{"from": state, "control": "a", "disturbance": "b",
                             "to": state}],
            "valuation": {state: []},
        })
        out = tmp_path / "system.dot"
        code, stdout, stderr = run("export", "system", "--system", system,
                                   "--out", str(out), capsys=capsys)
        assert code == 3 and stdout == ""
        assert stderr == "error: 'states' names 'q\\ud800', which UTF-8 cannot encode\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["states", "controls", "disturbances", "observations"])
    def test_unencodable_system_names_are_input_errors(self, tmp_path, key, capsys):
        # synth would write the plan file and then fail on the DOT file
        names = {"states": "q", "controls": "a", "disturbances": "b", "observations": "o"}
        names[key] = "x\ud800"
        q, a, b, o = names.values()
        system = write_json(tmp_path / "system.json", {
            "states": [q], "controls": [a], "disturbances": [b],
            "transitions": [{"from": q, "control": a, "disturbance": b, "to": q}],
            "observations": {q: o}, "valuation": {q: ["p"]},
        })
        out = tmp_path / "plan.json"
        code, stdout, stderr = run("synth", "--system", system, "--spec", "G p",
                                   "--out", str(out), capsys=capsys)
        assert code == 3 and stdout == ""
        assert stderr == f"error: {key!r} names 'x\\ud800', which UTF-8 cannot encode\n"
        assert not out.exists() and not out.with_suffix(".dot").exists()

    @pytest.mark.parametrize("field", ["world", "action"])
    def test_unencodable_plan_names_are_input_errors(self, tmp_path, agent_system_file,
                                                     example_plan, field, capsys):
        # verify would print a violation and then fail printing its lasso
        raw = plan_to_dict(example_plan)
        raw["scrs"][2][field] = "x\ud800"
        plan = write_json(tmp_path / "unencodable.json", raw)
        code, stdout, stderr = run("verify", "--system", agent_system_file,
                                   "--spec", "F !p3", "--plan", plan, capsys=capsys)
        assert code == 3 and stdout == ""
        assert stderr == "error: plan names 'x\\ud800', which UTF-8 cannot encode\n"


# (name, random_system seed, formula): seeded systems of up to 8 states with
# two or three disturbances and branching moves, on which the adversary
# does not always pick the first disturbance; "until27" and "reach16" are
# won only from a later state, so their plans do not start at the first
PIN_CASES = (
    ("gf65", 65, "G F (p1 & p2)"),
    ("gf76", 76, "G F (p1 & p2)"),
    ("resp71", 71, "G (p1 -> F (p2 & !p1))"),
    ("until27", 27, "(!p1 U p2) & G F p1"),
    ("reach16", 16, "F (p1 & p2)"),
)


def _cli_stdout(*argv):
    """What ``astra`` prints to stdout, then its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return f"{out.getvalue()}exit {code}\n"


def pinned_outputs(workdir):
    """``{name: text}``: the synthesized plan, ``export product`` from the
    first and the last state and adversarial simulation for every case of
    ``PIN_CASES``, run in ``workdir``."""
    workdir = pathlib.Path(workdir)
    texts = {}
    for name, seed, spec in PIN_CASES:
        system, valuation = random_system(
            random.Random(seed), max_states=8, max_controls=3,
            max_disturbances=3, max_props=2, double_successor_p=0.3)
        sys_file = write_json(workdir / f"{name}.json",
                              system_file_dict(system, valuation))
        plan = workdir / f"{name}.plan.json"
        common = ("--system", sys_file, "--spec", spec)
        texts[f"{name} synth"] = (_cli_stdout("synth", *common, "--out", str(plan))
                                  + plan.read_text(encoding="utf-8"))
        dot = workdir / f"{name}.dot"
        for root in (system.states[0], system.states[-1]):
            texts[f"{name} product {root}"] = _cli_stdout(
                "export", "product", *common, "--initial", root, "--out", str(dot)
            ) + dot.read_text(encoding="utf-8")
        texts[f"{name} adversarial"] = _cli_stdout(
            "simulate", *common, "--plan", str(plan), "--policy", "adversarial",
            "--steps", "16")
    return texts


class TestPinnedOutputs:
    def test_product_and_adversarial_bytes(self, tmp_path):
        # recorded by pinned_outputs into tests/data/cli_pins.json; record
        # again only for an intended output change
        expected = json.loads(PINS.read_text(encoding="utf-8"))
        actual = pinned_outputs(tmp_path)
        assert sorted(actual) == sorted(expected)
        for key, text in expected.items():
            assert actual[key] == text, key


# response and recurrence templates over a system's propositions, whose
# games rank states several moves apart more often than random formulas do
ADVERSARY_TEMPLATES = ("F {0}", "G F {0}", "F ({0} & {1})", "G F {0} & G F {1}",
                       "G ({0} -> F !{0})", "{0} U {1}")


class TestAdversaryReference:
    def test_adversary_plays_the_tuple_rule(self, tmp_path):
        # on random systems with random or templated formulas, from several
        # starts, the adversary prints what the rule on product-state
        # tuples plays; each plan is synthesized from its start, for "true"
        # where the formula is lost there, so some runs play on lost states
        rng = random.Random(61)
        systems = runs = lost = off_first = unverified = 0
        sys_path, plan_path = tmp_path / "system.json", tmp_path / "plan.json"
        while systems < 60:
            # the system file declares the propositions some state carries
            write_json(sys_path, system_file_dict(*random_system(
                rng, max_states=6, max_controls=3, max_disturbances=3,
                max_props=2, double_successor_p=0.3)))
            system, valuation = load_system(sys_path)
            if valuation.props and rng.random() < 0.5:
                text = rng.choice(ADVERSARY_TEMPLATES).format(
                    *(rng.choice(valuation.props) for _ in range(2)))
            else:
                text = ltl.formula_to_str(
                    random_formula(rng, valuation.props, rng.randint(1, 6)))
            formula = ltl.parse_formula(text, valuation.props)
            spec = planner.spec_automaton(formula, valuation)
            if spec is None:
                continue
            systems += 1
            for start in rng.sample(system.states, min(3, len(system.states))):
                result = planner.synthesize(system, formula, valuation,
                                            initial_hint=start)
                if not result.found:
                    lost += 1
                    result = planner.synthesize(system, ltl.TRUE, valuation,
                                                initial_hint=start)
                dump_plan(result.plan, plan_path, initial=start)
                stdout = _cli_stdout(
                    "simulate", "--system", str(sys_path), "--spec", text,
                    "--plan", str(plan_path), "--policy", "adversarial",
                    "--initial", start, "--steps", "16")
                verified = tuple_plan_violation(result.plan, formula, valuation) is None
                expected = tuple_adversary_run(system, valuation, spec,
                                               result.plan, 16, verified)
                assert stdout == expected + "exit 0\n"
                runs += 1
                off_first += any(line.split()[3] != system.disturbances[0]
                                 for line in expected.splitlines()[:-1])
                unverified += expected.endswith("lasso detected (plan not verified)\n")
        # the corpus is not degenerate: many runs start where the formula
        # is lost, and so end on a lasso under an unverified plan, and some
        # leave the first disturbance for a higher rank
        assert runs >= 120 and lost >= 40 and unverified >= 40 and off_first >= 3


class TestModuleEntryPoint:
    """``python -m astra`` exits with the code that ``main`` returns."""

    def run_module(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "astra", *argv],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )

    def test_exit_codes_pass_through(self, tmp_path, agent_system_file,
                                     example_plan_file):
        held = self.run_module(
            "verify", "--system", agent_system_file, "--spec", "p2 U p3",
            "--plan", example_plan_file,
        )
        assert held.returncode == 0, held.stderr
        assert "verified: true" in held.stdout
        violated = self.run_module(
            "verify", "--system", agent_system_file, "--spec", "G p2",
            "--plan", example_plan_file,
        )
        assert violated.returncode == 1, violated.stderr
        assert "counterexample" in violated.stdout
        missing = self.run_module(
            "verify", "--system", str(tmp_path / "absent.json"), "--spec", "true",
            "--plan", example_plan_file,
        )
        assert missing.returncode == 3
        assert missing.stderr.startswith("error:")

    def test_log_setting_that_names_no_level(self, tmp_path, agent_system_file):
        # ``logging`` attributes that are not levels (a format string, a
        # dict) and unknown names mean WARNING; a level name is taken
        out = tmp_path / "system.dot"
        for value in ("basic_format", "_styles", "bogus", "debug", "INFO"):
            out.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "astra", "export", "system",
                 "--system", agent_system_file, "--out", str(out)],
                capture_output=True, text=True, timeout=60,
                env=child_env(ASTRA_LOG=value),
            )
            assert proc.returncode == 0, (value, proc.stderr)
            assert "Traceback" not in proc.stderr and out.read_text().startswith("digraph")
