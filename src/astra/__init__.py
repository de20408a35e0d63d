"""Reactive control strategies for finite alternating transition systems.

Synthesis of situation-control-rule plans enforcing next-free temporal
specifications under disturbance, plan simplification and strategy
extraction, and independent verification of any plan.
"""

from .core import (
    AlternatingTransitionSystem,
    Lasso,
    Valuation,
    load_system,
    parse_valuation,
    validate_ats,
)
from .ltl import (
    And,
    Atom,
    Formula,
    Not,
    TrueF,
    TRUE,
    Until,
    always,
    atoms,
    eval_lasso,
    eventually,
    false,
    formula_to_str,
    implies,
    or_,
    parse_formula,
    trajectory_satisfies,
)
from .buchi import (
    BuchiAutomaton,
    Edge,
    Guard,
    ProductAutomaton,
    accepting_lasso,
    guard_from_text,
    is_total,
    load_automaton,
    ltl_to_buchi,
    nba_accepts,
    product,
    totalize,
)
from .plan import (
    Controller,
    DETACHED,
    ReactivePlan,
    SCR,
    check_plan,
    dump_plan,
    find_reachable_cycle,
    load_plan,
    plan_from_dict,
    plan_satisfies,
    plan_to_dict,
    plan_violation,
    plan_violation_total,
    simplify_plan,
)
from .planner import (
    FOUND,
    NOT_FOUND,
    SynthesisResult,
    UNKNOWN,
    solve_buchi_game,
    synthesize,
)
from . import errors

__version__ = "0.1.0"
