"""From winning controllers back to reactive plans, constructively.

Given a product automaton and a controller all of whose closed-loop
outcomes are accepted, the outcome prefixes in which no accepting product
state recurs form a finite transition system: extensions that would repeat
an accepting state fold back to the unique shorter prefix ending in that
state.  Reading one rule off each node of this system yields a reactive
plan, which is how existence of a winning strategy implies existence of a
plan.  This module is a test harness for that construction; the planner
itself does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .buchi import ProductAutomaton
from .errors import CapExceeded, VerificationFailure
from .plan import ReactivePlan, SCR


def recurrence_index(sequence, accepting) -> int | float:
    """The first position whose accepting state already occurred earlier,
    or infinity when no accepting state recurs.  Positions are 1-based."""
    seen = set()
    for n, state in enumerate(sequence, start=1):
        if state in accepting and state in seen:
            return n
        seen.add(state)
    return math.inf


@dataclass(frozen=True)
class AcceptingTransitionSystem:
    """Finite system over recurrence-free outcome prefixes.

    ``nodes`` are product-state sequences in discovery order, with node 0
    the one-element prefix at the product's initial state.  ``actions`` and
    ``edges`` are per node index; ``label`` of a node is its last product
    state.
    """

    nodes: tuple
    actions: tuple
    edges: tuple
    product: ProductAutomaton

    def label(self, index):
        return self.nodes[index][-1]

    def __len__(self):
        return len(self.nodes)


def pigeonhole_cap(product: ProductAutomaton) -> int:
    """Upper bound on recurrence-free outcome-prefix length for winning
    controllers: anything longer must repeat an accepting state."""
    return len(product.states) * (len(product.accepting) + 1) + 1


def build_accepting_system(product: ProductAutomaton, controller,
                           cap=None) -> AcceptingTransitionSystem:
    """Enumerate the recurrence-free outcome prefixes of the controller.

    The controller is lifted to product-state sequences by acting on their
    world projections; each node keeps the controller fed with its world
    states, so extending it costs one ``feed``.  Each node extends by every
    disturbance-resolved successor under its action; an extension whose
    accepting state recurs folds back to the unique recurrence-free prefix
    ending in that state.
    Exceeding ``cap`` (default: the pigeonhole bound) means the controller
    is not actually winning.
    """
    if cap is None:
        cap = pigeonhole_cap(product)
    root = (product.initial,)
    stepped = {root: controller.feed(product.world(product.initial))}
    nodes = [root]
    ids = {root: 0}
    actions = []
    edge_sets = []
    for node in nodes:
        index = ids[node]
        fed, action = stepped[node]
        while len(actions) <= index:
            actions.append(None)
            edge_sets.append([])
        actions[index] = action
        targets = []
        for successor in product.successors(node[-1], action):
            extension = node + (successor,)
            if recurrence_index(extension, product.accepting) == math.inf:
                if len(extension) > cap:
                    raise CapExceeded(
                        f"outcome prefix grew past {cap}; controller is not winning"
                    )
                if extension not in ids:
                    ids[extension] = len(nodes)
                    nodes.append(extension)
                    stepped[extension] = fed.feed(product.world(successor))
                targets.append(ids[extension])
            else:
                backs = [
                    j for j in range(len(extension) - 1)
                    if extension[j] == successor
                    and recurrence_index(extension[: j + 1], product.accepting) == math.inf
                ]
                if len(backs) != 1:
                    raise VerificationFailure(
                        "fold-back target is not unique; accepting state recurs "
                        "inside a recurrence-free prefix"
                    )
                target = extension[: backs[0] + 1]
                targets.append(ids[target])
        for t in targets:
            if t not in edge_sets[index]:
                edge_sets[index].append(t)
    return AcceptingTransitionSystem(
        tuple(nodes), tuple(actions), tuple(tuple(es) for es in edge_sets), product
    )


def plan_from_accepting_system(system: AcceptingTransitionSystem) -> ReactivePlan:
    """One SCR per node: its world label, its lifted action, and its edge
    targets as successor plan states.  Node 0 becomes plan state 1."""
    rules = []
    for index in range(len(system)):
        rules.append(SCR(
            index + 1,
            system.label(index)[0],
            system.actions[index],
            frozenset(t + 1 for t in system.edges[index]),
        ))
    return ReactivePlan(rules)
