"""Control-strategy search via a Buchi game on the product automaton.

The system is composed with the total specification automaton in one
product rooted at every candidate initial state.  Its two-player game
(control picks actions, disturbances pick successors), over integer nodes,
is solved once by the classical nested fixpoint over a counter-based
attractor, and the winning positional strategy from the first winning
candidate is unfolded into a reactive plan.  Every successor of a product
state carries the same automaton state, so that plan already keeps at most
one successor per world state; it is returned as extracted, after one
independent satisfaction check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import buchi
from .errors import AstraError, AutomatonError, VerificationFailure
from .plan import Controller, ReactivePlan, SCR, check_plan

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


@dataclass(frozen=True)
class GameSolution:
    """Winning nodes, positional strategy and attractor ranks of the Buchi
    game on a product of ``n`` states with ``k`` controls: node ``i < n``
    is control's choice at product state ``i``, node ``n + i*k + c`` the
    adversary's choice after control ``c`` there.  ``strategy`` maps each
    winning product state to its control, ``rank`` each winning node to
    its attractor rank."""

    winning: frozenset
    strategy: dict
    rank: dict


def _attractor(target, predecessors, counts):
    """Control attractor of ``target`` with entry layers as ranks.

    Breadth-first over the predecessor lists in rank order: a control node
    (no entry in ``counts``) enters one layer after its first ranked
    successor, an adversary node one layer after the last of its
    ``counts[node]`` successors.  Each edge is looked at once, so this
    costs O(|E|).
    """
    rank = dict.fromkeys(target, 0)
    unranked = {}
    queue = list(rank)
    for node in queue:
        layer = rank[node] + 1
        for pred in predecessors[node]:
            if pred in rank:
                continue
            if pred in counts:
                unranked[pred] = unranked.get(pred, counts[pred]) - 1
                if unranked[pred]:
                    continue
            rank[pred] = layer
            queue.append(pred)
    return rank


def solve_buchi_game(product) -> GameSolution:
    """Winning region and positional strategy for control's objective of
    visiting accepting product states infinitely often.

    Classical nested fixpoint: shrink a candidate region to the control
    attractor of those accepting states from which control can step back
    into the region, until stabilization.  The strategy picks the move of
    least attractor rank, then the first in declared control order.  A
    node's status and rank depend only on the part of the game reachable
    from it, so every root of the product is solved at once.
    """
    n, k = len(product.states), len(product.controls)
    predecessors = [[] for _ in range(n + n * k)]
    counts = {}
    for i, row in enumerate(product.targets):
        for c, col in enumerate(row):
            choice = n + i * k + c
            predecessors[choice].append(i)
            targets = {j for ts in col for j in ts}
            counts[choice] = len(targets)
            for j in targets:
                predecessors[j].append(choice)
    accepting = [product.index[s] for s in product.accepting]
    region = range(n + n * k)
    while True:
        recurrent = [i for i in accepting if i in region
                     and any(n + i * k + c in region for c in range(k))]
        rank = _attractor(recurrent, predecessors, counts)
        # the regions shrink, so an equal size means a fixpoint
        if len(rank) == len(region):
            break
        region = rank
    strategy = {
        i: product.controls[min((rank[n + i * k + c], c) for c in range(k)
                                if n + i * k + c in rank)[1]]
        for i in range(n) if i in rank
    }
    return GameSolution(frozenset(rank), strategy, rank)


def spec_automaton(formula=None, valuation=None, automaton=None):
    """The total specification automaton for synthesis, or ``None`` when the
    route is unsupported (properly nondeterministic translation and no
    usable explicit automaton)."""
    if formula is None and automaton is None:
        raise AstraError("a formula or an automaton is required")
    if automaton is not None:
        if buchi.is_total(automaton):
            return automaton
        return buchi.totalize(automaton)
    translated = buchi.ltl_to_buchi(formula, props=valuation.props)
    return buchi.totalize(translated)


def extract_plan(product, solution: GameSolution, root=0) -> ReactivePlan:
    """Unfold a winning positional strategy from product state ``root`` into
    a reactive plan.

    Plan state i carries the world component of the i-th product state
    reached (breadth-first) under the strategy; its successor set covers
    every disturbance-resolved successor, as plan well-formedness demands.
    Targets are visited in the order in which a product rooted at ``root``
    alone discovers them, re-derived by one breadth-first search in
    ``product``'s loop order, so the plan does not depend on other roots.
    """
    targets = product.targets
    strategy = solution.strategy
    _, local = buchi._discovery(
        (root,), lambda i: (j for col in targets[i] for ts in col for j in ts)
    )
    moves = {}

    def record_moves(i):
        col = targets[i][product.controls.index(strategy[i])]
        moves[i] = sorted({j for ts in col for j in ts}, key=local.__getitem__)
        return moves[i]

    order, ids = buchi._discovery((root,), record_moves)
    return ReactivePlan([
        SCR(ids[i] + 1, product.world(product.states[i]), strategy[i],
            frozenset(ids[j] + 1 for j in moves[i]))
        for i in order
    ])


def synthesize(system, formula, valuation, initial_hint=None,
               automaton=None) -> SynthesisResult:
    """Look for an enforceable plan from the initial states in declared
    order, or from ``initial_hint`` alone; on success, wrap the plan of the
    first winning state into an executable controller.

    One product rooted at every candidate and one game over it decide all
    candidates at once.  ``unknown`` means the specification automaton
    could not be made total, so this method cannot decide the instance;
    ``not-found`` means the game is lost from every candidate.  The
    extracted plan is independently re-verified once and returned as is.
    """
    if initial_hint is not None and initial_hint not in system.states:
        raise AutomatonError(f"unknown initial state {initial_hint!r}")
    spec = spec_automaton(formula, valuation, automaton)
    if spec is None:
        logger.info("specification automaton is not totalizable; verdict unknown")
        return SynthesisResult(UNKNOWN)
    candidates = [initial_hint] if initial_hint is not None else system.states
    prod = buchi.product(system, candidates, spec, valuation)
    solution = solve_buchi_game(prod)
    root = next((r for r in range(len(candidates)) if r in solution.winning), None)
    if root is None:
        return SynthesisResult(NOT_FOUND)
    q0 = candidates[root]
    plan = extract_plan(prod, solution, root)
    if check_plan(plan, valuation, formula, spec) is not None:
        raise VerificationFailure(
            f"synthesized plan from {q0!r} failed independent verification"
        )
    return SynthesisResult(FOUND, initial=q0, plan=plan, controller=Controller(plan))
