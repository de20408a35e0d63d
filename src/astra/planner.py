"""Control-strategy search via a Buchi game on the product automaton.

For each candidate initial state, the specification automaton is composed
with the system, the resulting two-player game (control picks actions,
disturbances pick successors) is solved by the classical nested fixpoint
over a counter-based attractor, and a winning positional strategy is
unfolded into a reactive plan.  Every returned plan is re-verified by the
independent satisfaction check before it leaves this module.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import buchi
from .errors import VerificationFailure
from .plan import Controller, ReactivePlan, SCR, check_plan, simplify_plan

logger = logging.getLogger(__name__)

FOUND = "found"
NOT_FOUND = "not-found"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SynthesisResult:
    status: str
    initial: str | None = None
    plan: ReactivePlan | None = None
    controller: Controller | None = None

    @property
    def found(self) -> bool:
        return self.status == FOUND


class GameArena:
    """Bipartite game graph over a product automaton.

    Control owns the product states and picks a control label; the
    adversary owns the intermediate (state, action) choice nodes and picks
    any disturbance-resolved successor.  Non-blocking transitions plus a
    total specification automaton make every node live.  ``moves`` and
    ``predecessors`` list the edges forward and backward.
    """

    def __init__(self, product_automaton):
        self.product = product_automaton
        self.control_nodes = tuple(("s", s) for s in product_automaton.states)
        self.accepting = frozenset(
            ("s", s) for s in product_automaton.accepting
        )
        moves = {}
        for node in self.control_nodes:
            _, s = node
            choices = []
            for a in product_automaton.controls:
                targets = product_automaton.successors(s, a)
                if targets:
                    choice = ("c", s, a)
                    moves[choice] = tuple(("s", t) for t in targets)
                    choices.append(choice)
            moves[node] = tuple(choices)
        self.moves = moves
        self.choice_nodes = tuple(c for n in self.control_nodes for c in moves[n])
        self.nodes = self.control_nodes + self.choice_nodes
        self.predecessors = {node: [] for node in self.nodes}
        for node in self.nodes:
            for succ in moves[node]:
                self.predecessors[succ].append(node)

    def is_control(self, node) -> bool:
        return node[0] == "s"


@dataclass(frozen=True)
class GameSolution:
    winning: frozenset
    strategy: dict
    rank: dict

    def state_rank(self, product_state):
        return self.rank.get(("s", product_state))


def _attractor(arena, target):
    """Control attractor of ``target`` with entry layers as ranks.

    Breadth-first over the predecessor lists in rank order: a control node
    enters one layer after its first ranked successor, an adversary node
    one layer after the last of its successors, once its count of unranked
    successors reaches zero.  Each edge is looked at once, so this costs
    O(|E|).
    """
    rank = dict.fromkeys(target, 0)
    unranked = {}
    queue = list(rank)
    for node in queue:
        layer = rank[node] + 1
        for pred in arena.predecessors[node]:
            if pred in rank:
                continue
            if not arena.is_control(pred):
                unranked[pred] = unranked.get(pred, len(arena.moves[pred])) - 1
                if unranked[pred]:
                    continue
            rank[pred] = layer
            queue.append(pred)
    return rank


def solve_buchi_game(arena: GameArena) -> GameSolution:
    """Winning region and positional strategy for the objective of visiting
    accepting nodes infinitely often.

    Classical nested fixpoint: shrink a candidate region to the control
    attractor of those accepting nodes from which control can step back
    into the region, until stabilization.  The strategy follows decreasing
    attractor ranks and, from the recurrent accepting nodes, re-enters the
    attractor.
    """
    region = set(arena.nodes)
    while True:
        recurrent = {n for n in arena.accepting
                     if n in region and any(m in region for m in arena.moves[n])}
        rank = _attractor(arena, recurrent)
        if rank.keys() == region:
            break
        region = set(rank)

    winning = frozenset(region)
    action_order = {a: i for i, a in enumerate(arena.product.controls)}
    strategy = {}
    for node in arena.control_nodes:
        if node not in winning:
            continue
        _, state = node
        candidates = []
        for choice in arena.moves[node]:
            if choice not in winning:
                continue
            _, _, action = choice
            candidates.append((rank[choice], action_order[action], action))
        if not candidates:
            continue
        candidates.sort()
        strategy[state] = candidates[0][2]
    return GameSolution(winning, strategy, rank)


def spec_automaton(formula=None, valuation=None, automaton=None):
    """The total specification automaton for synthesis, or ``None`` when the
    route is unsupported (properly nondeterministic translation and no
    usable explicit automaton)."""
    if automaton is not None:
        if buchi.is_total(automaton):
            return automaton
        return buchi.totalize(automaton)
    translated = buchi.ltl_to_buchi(formula, props=valuation.props)
    return buchi.totalize(translated)


def extract_plan(product_automaton, solution: GameSolution) -> ReactivePlan:
    """Unfold a winning positional strategy into a reactive plan.

    Plan state i carries the world component of the i-th product state
    reached (breadth-first) under the strategy; its successor set covers
    every disturbance-resolved successor, as plan well-formedness demands.
    """
    start = product_automaton.initial
    ids = {start: 1}
    order = [start]
    for state in order:
        action = solution.strategy[state]
        for target in product_automaton.successors(state, action):
            if target not in ids:
                ids[target] = len(order) + 1
                order.append(target)
    rules = []
    for state in order:
        action = solution.strategy[state]
        successors = frozenset(
            ids[t] for t in product_automaton.successors(state, action)
        )
        rules.append(SCR(ids[state], product_automaton.world(state), action, successors))
    return ReactivePlan(rules)


def analyze(system, q0, spec, valuation):
    """The product of the system rooted at ``q0`` with the total automaton
    ``spec``, and the solution of its Buchi game: ``(product, solution)``."""
    prod = buchi.product(system, q0, spec, valuation)
    return prod, solve_buchi_game(GameArena(prod))


def synthesize(system, formula, valuation, initial_hint=None,
               automaton=None) -> SynthesisResult:
    """Search initial states in declared order for an enforceable plan; on
    success, simplify it and wrap it into an executable controller.

    ``unknown`` means the specification automaton could not be made total,
    so this method cannot decide the instance; ``not-found`` means the game
    is lost from every candidate.  Both the extracted and the simplified
    plan are independently re-verified.
    """
    spec = spec_automaton(formula, valuation, automaton)
    if spec is None:
        logger.info("specification automaton is not totalizable; verdict unknown")
        return SynthesisResult(UNKNOWN)
    candidates = [initial_hint] if initial_hint is not None else list(system.states)
    for q0 in candidates:
        prod, solution = analyze(system, q0, spec, valuation)
        if ("s", prod.initial) not in solution.winning:
            continue
        plan = extract_plan(prod, solution)
        if check_plan(plan, valuation, formula, spec) is not None:
            raise VerificationFailure(
                f"synthesized plan from {q0!r} failed independent verification"
            )
        simplified = simplify_plan(plan)
        if check_plan(simplified, valuation, formula, spec) is not None:
            raise VerificationFailure(
                f"simplified plan from {q0!r} failed independent verification"
            )
        return SynthesisResult(FOUND, initial=q0, plan=simplified,
                               controller=Controller(simplified))
    return SynthesisResult(NOT_FOUND)
