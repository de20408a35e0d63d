"""Command-line surface: synthesize, verify, simulate, export.

Exit codes: 0 success (plan found / plan verified), 1 negative verdict
(no plan exists / plan violates the spec), 2 undecided (specification not
totalizable), 3 input or validation error.  All randomness flows from
``--seed``; identical invocations produce identical bytes.  The env var
``ASTRA_LOG`` selects the diagnostic logging level by name (``INFO``,
``DEBUG``, ...); any other value means ``WARNING``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys
from pathlib import Path

from . import buchi, dot, planner
from .core import load_system
from .errors import AstraError
from .ltl import parse_formula
from .plan import Controller, check_plan, dump_plan, load_plan

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _add_spec_arguments(sub, plan_file=False, out=False, initial=False):
    sub.add_argument("--system", required=True, help="system file (JSON)")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="specification formula")
    group.add_argument("--automaton", help="specification automaton file (JSON)")
    if initial:
        sub.add_argument("--initial", help="initial state hint")
    if plan_file:
        sub.add_argument("--plan", required=True, help="plan file (JSON)")
    if out:
        sub.add_argument("--out", required=True, help="output path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="astra",
        description="Synthesize, verify, simulate, and export reactive plans "
                    "for alternating transition systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="synthesize a verified plan")
    _add_spec_arguments(synth, out=True, initial=True)

    verify = commands.add_parser("verify", help="check a plan against a spec")
    _add_spec_arguments(verify, plan_file=True)

    simulate = commands.add_parser("simulate", help="run a plan in closed loop")
    _add_spec_arguments(simulate, plan_file=True, initial=True)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--policy", choices=("random", "adversarial", "scripted"),
                          default="random")
    simulate.add_argument("--steps", type=int, default=20)
    simulate.add_argument("--script", help="JSON list of disturbance labels")

    export = commands.add_parser("export", help="write a DOT rendering")
    kinds = export.add_subparsers(dest="kind", required=True)
    system = kinds.add_parser("system", help="the system")
    system.add_argument("--system", required=True, help="system file (JSON)")
    system.add_argument("--out", required=True, help="output path")
    plan = kinds.add_parser("plan", help="a plan")
    plan.add_argument("--plan", required=True, help="plan file (JSON)")
    plan.add_argument("--out", required=True, help="output path")
    automaton = kinds.add_parser("automaton", help="a specification automaton")
    automaton.add_argument("--system",
                           help="system file (JSON) declaring the props of --spec")
    group = automaton.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="specification formula")
    group.add_argument("--automaton", help="specification automaton file (JSON)")
    automaton.add_argument("--out", required=True, help="output path")
    _add_spec_arguments(kinds.add_parser("product", help="the game product"),
                        out=True, initial=True)
    return parser


def _load_spec(args, valuation):
    """Returns (formula, explicit_automaton); exactly one is not None."""
    if args.spec is not None:
        return parse_formula(args.spec, props=valuation.props), None
    return None, buchi.load_automaton(args.automaton)


def _total_spec(formula, automaton, valuation):
    """The total specification automaton for a formula or an automaton."""
    spec = planner.spec_automaton(formula, valuation, automaton)
    if spec is None:
        raise AstraError("the specification automaton is not totalizable")
    return spec


def cmd_synth(args) -> int:
    system, valuation = load_system(args.system)
    formula, automaton = _load_spec(args, valuation)
    result = planner.synthesize(system, formula, valuation,
                                initial_hint=args.initial, automaton=automaton)
    if result.status == planner.UNKNOWN:
        print("unknown: specification automaton is not totalizable")
        return EXIT_UNKNOWN
    if result.status == planner.NOT_FOUND:
        print("no enforcing plan exists from any candidate initial state")
        return EXIT_NEGATIVE
    dump_plan(result.plan, args.out, initial=result.initial)
    dot.write_dot(Path(args.out).with_suffix(".dot"), dot.plan_dot(result.plan))
    print(f"initial: {result.initial}")
    print("verified: true")
    return EXIT_OK


def _print_counterexample(lasso):
    print("violated: counterexample lasso")
    print("prefix: " + " ".join(lasso.prefix))
    print("cycle: " + " ".join(lasso.cycle))


def cmd_verify(args) -> int:
    system, valuation = load_system(args.system)
    formula, automaton = _load_spec(args, valuation)
    plan = load_plan(args.plan)
    plan.validate_against(system)
    total = None if automaton is None else _total_spec(None, automaton, valuation)
    witness = check_plan(plan, valuation, formula, total)
    if witness is not None:
        _print_counterexample(witness)
        return EXIT_NEGATIVE
    print("verified: true")
    return EXIT_OK


def _scripted_disturbances(args, system):
    if args.script is None:
        raise AstraError("the scripted policy needs --script")
    with open(args.script, encoding="utf-8") as fh:
        script = json.load(fh)
    if not isinstance(script, list) or not all(isinstance(b, str) for b in script):
        raise AstraError("the disturbance script must be a JSON list of strings")
    if len(script) < args.steps:
        raise AstraError(
            f"the disturbance script has {len(script)} entries but --steps is {args.steps}"
        )
    declared = set(system.disturbances)
    for b in script:
        if b not in declared:
            raise AstraError(f"scripted disturbance {b!r} is not declared")
    return script


def cmd_simulate(args) -> int:
    if args.script is not None and args.policy != "scripted":
        raise AstraError("--script is read only with --policy scripted")
    system, valuation = load_system(args.system)
    formula, automaton = _load_spec(args, valuation)
    plan = load_plan(args.plan)
    plan.validate_against(system)
    controller = Controller(plan)
    if args.steps < 1:
        raise AstraError("--steps must be at least 1")

    total = None if automaton is None else planner.spec_automaton(automaton=automaton)
    checkable = automaton is None or total is not None
    verified = checkable and check_plan(plan, valuation, formula, total) is None
    if not checkable:
        print("warning: the specification automaton is not totalizable; "
              "simulating unverified", file=sys.stderr)
    elif not verified:
        print("warning: plan failed verification; simulating anyway", file=sys.stderr)

    start = args.initial if args.initial is not None else plan.world_of(1)
    if start not in set(system.states):
        raise AstraError(f"unknown initial state {start!r}")

    rng = random.Random(args.seed)
    script = _scripted_disturbances(args, system) if args.policy == "scripted" else None
    if args.policy == "adversarial":
        # the automaton route reuses the automaton resolved for verification
        if total is None:
            total = _total_spec(formula, automaton, valuation)
        prod = buchi.product(system, [start], total, valuation)
        _, rank = planner.solve_buchi_game(prod)
        # a lost state (rank -1) ranks above every won one; play from state 0
        rank, ps = [r if r >= 0 else len(rank) for r in rank], 0

    state = start
    controller, action = controller.feed(state)
    # the plan covers every system successor of each rule (validate_against),
    # so a controller attached after the first observation stays attached
    if controller.detached:
        if verified:
            print("error: detached from a verified plan (model mismatch)",
                  file=sys.stderr)
            return EXIT_ERROR
        print("note: detached from plan; continuing with its default action")
    seen_pairs = {(controller.cursor, state)}
    lasso_detected = False
    for step in range(1, args.steps + 1):
        if args.policy == "adversarial":
            # the disturbance toward the largest attractor rank, first on
            # ties; the targets under each disturbance in state number order
            row = prod.rows[prod.pair[ps]][system.controls.index(action)]
            number = {prod.states[j][0]: j for j in row}
            b, ps = max(((b, j) for b in system.disturbances
                         for j in sorted(number[q2] for q2 in
                                         system.successors_under(state, action, b))),
                        key=lambda entry: rank[entry[1]])
            nxt = prod.states[ps][0]
        else:
            b = script[step - 1] if script else rng.choice(system.disturbances)
            nxt = rng.choice(system.successors_under(state, action, b))
        print(f"{step} {state} {action} {b} {nxt}")
        controller, action = controller.feed(nxt)
        pair = (controller.cursor, nxt)
        if pair in seen_pairs:
            lasso_detected = True
        seen_pairs.add(pair)
        state = nxt
    print("inconclusive prefix" if not lasso_detected
          else "satisfied (lasso detected)" if verified
          else "lasso detected (plan not verified)")
    return EXIT_OK


def cmd_export(args) -> int:
    if args.kind == "plan":
        content = dot.plan_dot(load_plan(args.plan))
    elif args.kind == "system":
        system, valuation = load_system(args.system)
        content = dot.system_dot(system, valuation)
    elif args.kind == "automaton":
        if args.automaton is not None and args.system is not None:
            raise AstraError("--system is read only with --spec; an automaton file "
                             "declares its own propositions")
        if args.automaton is not None:
            content = dot.automaton_dot(buchi.load_automaton(args.automaton))
        else:
            props = None if args.system is None else load_system(args.system)[1].props
            formula = parse_formula(args.spec, props=props)
            content = dot.automaton_dot(buchi.ltl_to_buchi(formula, props=props))
    else:  # product
        system, valuation = load_system(args.system)
        spec = _total_spec(*_load_spec(args, valuation), valuation)
        root = args.initial if args.initial is not None else system.states[0]
        content = dot.product_dot(buchi.product(system, [root], spec, valuation))
    dot.write_dot(args.out, content)
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "export": cmd_export,
}


def main(argv=None) -> int:
    # a level name maps to an int; any other name falls back to WARNING
    level = logging.getLevelName(os.environ.get("ASTRA_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which would collide with the
        # undecided verdict; usage problems are input errors here
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (AstraError, OSError, json.JSONDecodeError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # formulas take any depth; json.load recurses on a deeply nested file
        print("error: an input file nests too deeply", file=sys.stderr)
        return EXIT_ERROR
