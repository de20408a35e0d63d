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

from dataclasses import dataclass

from .buchi import ProductAutomaton
from .errors import CapExceeded
from .plan import ReactivePlan, SCR


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


def build_accepting_system(product: ProductAutomaton,
                           controller) -> AcceptingTransitionSystem:
    """Enumerate the recurrence-free outcome prefixes of the controller.

    The controller is lifted to product-state sequences by acting on their
    world projections; each node keeps the controller fed with its world
    states, so extending it costs one ``feed``.  Each node extends by every
    disturbance-resolved successor under its action; an extension whose
    accepting state recurs folds back to the unique recurrence-free prefix
    ending in that state.  Every accepting state occurs at most once in a
    node, so each node keeps their positions, and both the recurrence test
    and the fold-back target cost one lookup.
    A prefix longer than the pigeonhole bound means the controller is not
    actually winning.
    """
    cap = pigeonhole_cap(product)
    start = product.initial
    root = (start,)
    nodes = [root]
    ids = {root: 0}
    stepped = [controller.feed(product.world(start))]
    positions = [{start: 0} if start in product.accepting else {}]
    actions = []
    edges = []
    for index, node in enumerate(nodes):
        fed, action = stepped[index]
        actions.append(action)
        targets = []
        for successor in product.successors(node[-1], action):
            at = positions[index].get(successor)
            if at is not None:
                targets.append(ids[node[: at + 1]])
                continue
            extension = node + (successor,)
            if len(extension) > cap:
                raise CapExceeded(
                    f"outcome prefix grew past {cap}; controller is not winning"
                )
            ids[extension] = len(nodes)
            targets.append(len(nodes))
            nodes.append(extension)
            stepped.append(fed.feed(product.world(successor)))
            positions.append(
                {**positions[index], successor: len(node)}
                if successor in product.accepting else positions[index]
            )
        edges.append(tuple(targets))
    return AcceptingTransitionSystem(tuple(nodes), tuple(actions), tuple(edges), product)


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
