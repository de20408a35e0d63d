"""From winning controllers back to reactive plans, constructively.

Given a product automaton and a controller all of whose closed-loop
outcomes are accepted, the outcome prefixes in which no accepting product
state recurs form a finite transition system: extensions that would repeat
an accepting state fold back to the unique shorter prefix ending in that
state.  Prefixes are sequences of product state numbers, extended through
the move row of their last state's pair.  Reading one rule off each node
of this system yields a reactive plan, which is how existence of a
winning strategy implies existence of a plan.  This module is a test
harness for that construction; the planner itself does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .buchi import ProductAutomaton
from .errors import CapExceeded, UndeclaredSymbol
from .plan import ReactivePlan


@dataclass(frozen=True)
class AcceptingTransitionSystem:
    """Finite system over recurrence-free outcome prefixes.

    ``nodes`` are sequences of product state numbers in discovery order,
    with node 0 the one-element prefix at product state 0.  ``actions`` and
    ``edges`` are per node index; ``label`` of a node is the name, a
    ``(world, automaton state)`` pair, of its last product state.
    """

    nodes: tuple
    actions: tuple
    edges: tuple
    product: ProductAutomaton

    def label(self, index):
        return self.product.states[self.nodes[index][-1]]

    def __len__(self):
        return len(self.nodes)


def pigeonhole_cap(product: ProductAutomaton) -> int:
    """Upper bound on recurrence-free outcome-prefix length for winning
    controllers: anything longer must repeat an accepting state."""
    return len(product.states) * (sum(product.accepting) + 1) + 1


def build_accepting_system(product: ProductAutomaton,
                           controller) -> AcceptingTransitionSystem:
    """Enumerate the recurrence-free outcome prefixes of the controller.

    The controller is lifted to product-state sequences by acting on their
    world projections; each node keeps the controller fed with its world
    states, so extending it costs one ``feed``.  Each node extends by every
    target under its action in the row ``product.rows[product.pair[i]]``
    of its last state ``i``, which it only reads, in state number order;
    an extension whose accepting state recurs folds back to the unique
    recurrence-free prefix ending in that state.  Every accepting state
    occurs at most once in a node, so each node keeps their positions, and
    both the recurrence test and the fold-back target cost one lookup.
    A prefix longer than the pigeonhole bound means the controller is not
    actually winning.
    """
    cap = pigeonhole_cap(product)
    states, rows, pair, accepting = product.states, product.rows, product.pair, product.accepting
    column = {a: c for c, a in enumerate(product.system.controls)}
    root = (0,)
    nodes = [root]
    ids = {root: 0}
    stepped = [controller.feed(states[0][0])]
    positions = [{0: 0} if accepting[0] else {}]
    actions = []
    edges = []
    for index, node in enumerate(nodes):
        fed, action = stepped[index]
        actions.append(action)
        if action not in column:
            raise UndeclaredSymbol(f"unknown control {action!r}")
        targets = []
        for j in sorted(rows[pair[node[-1]]][column[action]]):
            at = positions[index].get(j)
            if at is not None:
                targets.append(ids[node[: at + 1]])
                continue
            extension = node + (j,)
            if len(extension) > cap:
                raise CapExceeded(
                    f"outcome prefix grew past {cap}; controller is not winning"
                )
            ids[extension] = len(nodes)
            targets.append(len(nodes))
            nodes.append(extension)
            stepped.append(fed.feed(states[j][0]))
            positions.append(
                {**positions[index], j: len(node)} if accepting[j] else positions[index]
            )
        edges.append(tuple(targets))
    return AcceptingTransitionSystem(tuple(nodes), tuple(actions), tuple(edges), product)


def plan_from_accepting_system(system: AcceptingTransitionSystem) -> ReactivePlan:
    """One plan state per node: its world label, its lifted action, and its edge
    targets as successor plan states.  Node 0 becomes plan state 1."""
    return ReactivePlan.from_columns(
        [system.label(index)[0] for index in range(len(system))],
        system.actions,
        [[t + 1 for t in targets] for targets in system.edges],
    )
