"""Control-strategy search via a Buchi game on the product automaton.

The system is composed with the total specification automaton in one
product rooted at every candidate initial state.  Its game is played on
the product states: control picks an action, the disturbances pick any of
its targets in the move row of the state's pair.  It is solved once by
the classical nested fixpoint over a counter-based attractor, which
counts once per pair's row, into one list of control indices and one of
attractor ranks per product state, and the positional
strategy from the first winning candidate is unfolded into a reactive
plan.  Every successor of a product state carries the same
automaton state, so that plan already keeps at most one successor per
world state; it is returned as extracted, after one independent
satisfaction check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import buchi
from .core import _collector_paused
from .errors import AstraError, AutomatonError, VerificationFailure
from .plan import Controller, ReactivePlan, check_plan

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


def _attractor(target, predecessors, unranked, k, members):
    """Control attractor of the product states ``target``, as three lists:
    each state's entry layer (-1 outside), the states in the order they
    entered, and the layer at which each choice completes (0 if never).

    Choice ``p*k + c`` is control's move ``c`` at the states of pair ``p``,
    ``members[p]``, which read one move row; ``predecessors[j]`` lists the
    choices with target ``j``, and ``unranked[choice]`` counts its targets
    not yet ranked.  Breadth-first in rank order: a choice completes one
    layer after its highest-ranked target, and the first complete choice
    of a pair enters every unranked state of the pair at that layer, so
    ranks do not depend on the order in which states enter a layer.  Each
    entry of a pair's row is looked at once, so this costs O(|rows|).
    """
    rank = [-1] * len(predecessors)
    for j in target:
        rank[j] = 0
    complete = [0] * len(unranked)
    entered = [False] * len(members)
    queue = list(target)
    for j in queue:
        layer = rank[j] + 1
        for choice in predecessors[j]:
            unranked[choice] -= 1
            if unranked[choice]:
                continue
            complete[choice] = layer
            p = choice // k
            if entered[p]:
                continue
            entered[p] = True
            for i in members[p]:
                if rank[i] < 0:
                    rank[i] = layer
                    queue.append(i)
    return rank, queue, complete


def solve_buchi_game(product):
    """Positional strategy and attractor ranks of control's objective of
    visiting accepting product states infinitely often, as two lists
    ``(strategy, rank)`` indexed by product state number, both -1 outside
    the winning region.  ``strategy[i]`` is the index, in the system's
    control order, of the control to take at state ``i``, and
    ``rank[i]`` its attractor rank, counted in control moves: the least
    number of moves within which control can force the play into the
    attractor's target.

    Classical nested fixpoint: shrink a candidate region to the control
    attractor of those accepting states from which control can step back
    into the region, until that set of accepting states repeats.  The
    strategy picks the choice completed at the lowest layer, then the first
    in declared control order.  A state's status and rank depend only on the part of the game
    reachable from it, so every root of the product is solved at once.

    The game keeps its predecessor lists, unranked counters and
    completion layers per (pair, control) choice, one per entry of
    ``product.rows``, and every state reads its pair's layers.
    """
    n, k = len(product.states), len(product.system.controls)
    pair = product.pair
    members, predecessors, sizes = [[] for _ in product.rows], [[] for _ in range(n)], []
    for i, p in enumerate(pair):
        members[p].append(i)
    for row in product.rows:
        for targets in row:
            for j in targets:
                predecessors[j].append(len(sizes))
            sizes.append(len(targets))
    accepting = [i for i, flag in enumerate(product.accepting) if flag]
    # at first every state is in the region, so every choice stays in it
    rank, complete, target = [0] * n, [1] * len(sizes), None
    while True:
        recurrent = [i for i in accepting
                     if rank[i] >= 0 and any(complete[pair[i] * k:pair[i] * k + k])]
        # the same target gives the same attractor: a fixpoint
        if recurrent == target:
            break
        target = recurrent
        rank, won, complete = _attractor(target, predecessors, sizes[:], k, members)
    strategy = [-1] * n
    # per pair: its strategy's control, -1 until a won state reads it
    picks = [-1] * len(members)
    for i in won:
        p = pair[i]
        if picks[p] < 0:
            best = picks[p] = 0
            for c in range(k):
                layer = complete[p * k + c]
                if layer and (not best or layer < best):
                    best, picks[p] = layer, c
        strategy[i] = picks[p]
    return strategy, rank


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


def extract_plan(product, strategy, root=0) -> ReactivePlan:
    """Unfold the positional strategy of :func:`solve_buchi_game` from
    product state ``root`` into a reactive plan.

    Plan state i carries the world component of the i-th product state
    reached (breadth-first) under the strategy; its successor set covers
    every disturbance-resolved successor, as plan well-formedness demands.
    Targets are visited in the order in which a product rooted at ``root``
    alone discovers them, re-derived by one breadth-first search over
    the pairs' rows, so the plan does not depend on other roots.  Both
    searches keep each state's place in a list indexed by state number.
    Raises ``AstraError`` when ``root`` is not a winning state's number.
    """
    if (not isinstance(root, int) or isinstance(root, bool)
            or root not in range(len(strategy)) or strategy[root] < 0):
        raise AstraError(f"product state {root!r} is not a winning state")
    rows, pair, controls, states = (product.rows, product.pair,
                                    product.system.controls, product.states)
    local = [-1] * len(states)
    local[root] = 0
    order = [root]
    for i in order:
        for targets in rows[pair[i]]:
            for j in targets:
                if local[j] < 0:
                    local[j] = len(order)
                    order.append(j)
    ids = [0] * len(states)
    ids[root] = 1
    order = [root]
    worlds, actions, successors = [], [], []
    for i in order:
        c = strategy[i]
        row = rows[pair[i]][c]
        for j in sorted(row, key=local.__getitem__) if len(row) > 1 else row:
            if not ids[j]:
                order.append(j)
                ids[j] = len(order)
        worlds.append(states[i][0])
        actions.append(controls[c])
        successors.append([ids[j] for j in row])
    return ReactivePlan.from_columns(worlds, actions, successors)


@_collector_paused
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
    Runs with the cyclic garbage collector paused (see
    ``core._collector_paused``).
    """
    if initial_hint is not None and initial_hint not in system.states:
        raise AutomatonError(f"unknown initial state {initial_hint!r}")
    spec = spec_automaton(formula, valuation, automaton)
    if spec is None:
        logger.info("specification automaton is not totalizable; verdict unknown")
        return SynthesisResult(UNKNOWN)
    candidates = [initial_hint] if initial_hint is not None else system.states
    prod = buchi.product(system, candidates, spec, valuation)
    strategy, _ = solve_buchi_game(prod)
    root = next((r for r in range(len(candidates)) if strategy[r] >= 0), None)
    if root is None:
        return SynthesisResult(NOT_FOUND)
    q0 = candidates[root]
    plan = extract_plan(prod, strategy, root)
    if check_plan(plan, valuation, formula, spec) is not None:
        raise VerificationFailure(
            f"synthesized plan from {q0!r} failed independent verification"
        )
    return SynthesisResult(FOUND, initial=q0, plan=plan, controller=Controller(plan))
