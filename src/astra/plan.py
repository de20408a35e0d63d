"""Reactive plans and their executable controllers.

A reactive plan is a finite set of situation control rules (plan state,
world state, action, successor plan states).  Every rule names at least
one successor, as every plan for a non-blocking system must, so every
plan generates a trajectory: a cycle is reachable from plan state 1.
This module covers plan well-formedness, generated trajectories,
reachable-cycle search, plan simplification, and the strategy obtained
by walking a simplified plan along an observed state history.
:func:`check_plan` is the one verification entry: it decides whether a
plan meets a formula or a total automaton, and says why not when it does
not.  The check is one breadth-first pass over the product of the plan
graph with the automaton, from plan state 1, that numbers the nodes and
keeps each node's successors inside, its accepting flag and the node
that discovered it; :func:`buchi.accepting_lasso`'s integer core then
finds the cycle by Tarjan's pass and reads the prefix off those parents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import chain

from . import buchi, ltl
from .core import Lasso
from .errors import AstraError, ExplosionGuard, PlanValidationError, UniquenessViolated


@dataclass(frozen=True)
class SCR:
    """One situation control rule."""

    id: int
    world: str
    action: str
    successors: frozenset


def _rule(s) -> SCR:
    """``s`` as an ``SCR`` with a frozenset of successors; an instance that
    already is one is kept as it is."""
    if type(s) is SCR and type(s.successors) is frozenset:
        return s
    if isinstance(s, SCR):
        return SCR(s.id, s.world, s.action, frozenset(s.successors))
    return SCR(*s)


class ReactivePlan:
    """An ordered set of SCRs with ids 1..k (plain ints, as in a plan file),
    each naming at least one successor among them; execution starts at plan
    state 1.  ``_successors[i]`` lists plan state ``i``'s successors in
    increasing order (``_successors[0]`` is empty); the checks read it."""

    def __init__(self, scrs):
        rules = list(map(_rule, scrs))
        if not rules:
            raise PlanValidationError("a plan needs at least one SCR")
        # ids and successors are checked before they are sorted, which
        # needs them to compare with ints
        ids = {s.id for s in rules}
        if ids != set(range(1, len(rules) + 1)):
            raise PlanValidationError("plan state ids must be exactly 1..k")
        self.scrs = tuple(sorted(rules, key=lambda s: s.id))
        self.by_id = {s.id: s for s in self.scrs}
        for s in self.scrs:
            if not s.successors:
                raise PlanValidationError(f"SCR {s.id} lists no successor plan states")
            if not s.successors <= ids:
                dangling = s.successors - ids
                raise PlanValidationError(
                    f"SCR {s.id} lists unknown successor plan states {sorted(dangling, key=repr)}"
                )
        self._successors = [()] + [tuple(sorted(s.successors)) for s in self.scrs]
        # ``True`` and ``1.0`` pass the checks above: they equal ints
        if set(map(type, chain(self.by_id, chain.from_iterable(self._successors)))) != {int}:
            raise PlanValidationError("plan state ids and successors must be integers")

    def __len__(self):
        return len(self.scrs)

    def __eq__(self, other):
        return isinstance(other, ReactivePlan) and self.scrs == other.scrs

    def __hash__(self):
        return hash(self.scrs)

    def __repr__(self):
        return f"ReactivePlan({list(self.scrs)!r})"

    def successor_ids(self, plan_state) -> tuple:
        """The successor plan states of ``plan_state`` in increasing order;
        a plan state the plan lacks raises ``KeyError``."""
        return self._successors[self.by_id[plan_state].id]

    def world_of(self, plan_state) -> str:
        return self.by_id[plan_state].world

    def require_unique_world_successors(self):
        for s in self.scrs:
            seen = {}
            for j in self.successor_ids(s.id):
                w = self.by_id[j].world
                if w in seen:
                    raise UniquenessViolated(
                        f"SCR {s.id}: successors {seen[w]} and {j} both carry world "
                        f"state {w!r}"
                    )
                seen[w] = j

    def validate_against(self, system):
        """Check the plan against a system: declared symbols, successor
        soundness, and full coverage of every disturbance-resolved successor."""
        states = set(system.states)
        controls = set(system.controls)
        for s in self.scrs:
            if s.world not in states:
                raise PlanValidationError(f"SCR {s.id}: unknown world state {s.world!r}")
            if s.action not in controls:
                raise PlanValidationError(f"SCR {s.id}: unknown action {s.action!r}")
            reachable = set(system.successors(s.world, s.action))
            successor_worlds = {self.by_id[j].world for j in s.successors}
            phantom = successor_worlds - reachable
            if phantom:
                raise PlanValidationError(
                    f"SCR {s.id}: successor worlds {sorted(phantom)} are not reachable "
                    f"from {s.world!r} under {s.action!r}"
                )
            missing = reachable - successor_worlds
            if missing:
                raise PlanValidationError(
                    f"SCR {s.id}: no successor plan state covers world states "
                    f"{sorted(missing)} reachable from {s.world!r} under {s.action!r}"
                )


def load_plan(path) -> ReactivePlan:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return plan_from_dict(raw)


def plan_from_dict(raw: dict) -> ReactivePlan:
    if not isinstance(raw, dict) or not isinstance(raw.get("scrs"), list):
        raise PlanValidationError("plan description must be an object with an 'scrs' list")
    unknown = set(raw) - {"scrs", "initial"}
    if unknown:
        raise PlanValidationError(f"unknown keys in plan description: {sorted(unknown)}")
    scrs = []
    for entry in raw["scrs"]:
        if not isinstance(entry, dict) or set(entry) != {"id", "world", "action", "successors"}:
            raise PlanValidationError(
                "each SCR must be an object with exactly the keys id/world/action/successors"
            )
        if (type(entry["id"]) is not int
                or not isinstance(entry["world"], str)
                or not isinstance(entry["action"], str)
                or not isinstance(entry["successors"], list)
                or any(type(j) is not int for j in entry["successors"])):
            raise PlanValidationError(
                f"SCR {entry.get('id')!r}: id and successors must be integers, "
                "world and action strings"
            )
        scrs.append(SCR(entry["id"], entry["world"], entry["action"],
                        frozenset(entry["successors"])))
    plan = ReactivePlan(scrs)
    if "initial" in raw and raw["initial"] != plan.world_of(1):
        raise PlanValidationError(
            f"plan 'initial' {raw['initial']!r} is not plan state 1's world "
            f"{plan.world_of(1)!r}"
        )
    return plan


def plan_to_dict(plan: ReactivePlan, initial=None) -> dict:
    out = {}
    if initial is not None:
        out["initial"] = initial
    out["scrs"] = [
        {"id": s.id, "world": s.world, "action": s.action,
         "successors": list(plan.successor_ids(s.id))}
        for s in plan.scrs
    ]
    return out


def dump_plan(plan: ReactivePlan, path, initial=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(plan, initial), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# trajectories


def plan_trajectories(plan: ReactivePlan, bound: int, cap=10**6) -> frozenset:
    """All world-state lassos of plan trajectories whose plan-state lasso
    uses at most ``bound`` plan states in prefix plus cycle.

    Lassos are returned in canonical form, so set comparisons are
    comparisons of the denoted words.  Intended for testing at small bounds.
    """
    found = set()
    walks = [(1,)]
    examined = 0
    while walks:
        walk = walks.pop()
        examined += 1
        if examined > cap:
            raise ExplosionGuard(f"more than {cap} plan walks at bound {bound}")
        last = walk[-1]
        for nxt in plan.successor_ids(last):
            for t, state in enumerate(walk):
                if state == nxt:
                    prefix = tuple(plan.world_of(i) for i in walk[:t])
                    cycle = tuple(plan.world_of(i) for i in walk[t:])
                    found.add(Lasso(prefix, cycle).canonical())
            if len(walk) < bound:
                walks.append(walk + (nxt,))
    return frozenset(found)


def _violation(plan, automaton, valuation, accepting, inside=None):
    """The world lasso of an ``accepting_lasso`` search, from plan state 1
    and the automaton's initial state, in the product of the plan graph with
    an automaton reading world valuations; ``None`` when there is none.
    ``accepting`` and ``inside`` are predicates over automaton states.

    One breadth-first pass numbers the product nodes in discovery order and
    keeps what :func:`buchi._indexed_lasso` reads: each node's successors
    inside (plan successors in increasing order, each with the automaton's
    targets in order), its accepting flag and the node that discovered it.
    Node ``i`` is ``(order[i], states[i])`` and ``place[p * m + x]`` numbers
    ``(p, x)``.  A plan state's label mask is read when the pass first
    reaches it.
    """
    table, m = automaton.table, len(automaton.states)
    label_mask = cache(automaton.letter_mask)
    successors = plan._successors
    marks = [accepting(x) for x in automaton.states]
    inner = [inside is None or inside(x) for x in automaton.states]
    masks = [-1] * len(successors)
    x0 = automaton.index[automaton.initial[0]]
    place = [-1] * (len(successors) * m)
    place[m + x0] = 0
    order, states, parent, sub = [1], [x0], [0], []
    for i, plan_state in enumerate(order):
        x = states[i]
        mask = masks[plan_state]
        if mask < 0:
            mask = masks[plan_state] = label_mask(valuation.label(plan.world_of(plan_state)))
        targets = table[x][mask]
        row = []
        for j in successors[plan_state]:
            base = j * m
            for t in targets:
                k = place[base + t]
                if k < 0:
                    k = place[base + t] = len(order)
                    order.append(j)
                    states.append(t)
                    parent.append(i)
                if inner[t]:
                    row.append(k)
        # a tuple of ints leaves the collector's view, a list does not
        sub.append(tuple(row) if inner[x] else ())
    found = buchi._indexed_lasso(sub, [marks[x] for x in states], parent)
    if found is None:
        return None
    prefix, cycle = found
    return Lasso(*(tuple(plan.world_of(order[k]) for k in path)
                   for path in (prefix, cycle)))


def plan_violation(plan: ReactivePlan, formula: ltl.Formula, valuation) -> Lasso | None:
    """A generated trajectory violating the formula, as a world lasso, or
    ``None``.  Decided by an accepting-lasso search in the product of the
    plan graph with an automaton for the negated formula."""
    negated = buchi.ltl_to_buchi(ltl.Not(formula), props=valuation.props)
    return _violation(plan, negated, valuation, negated.accepting.__contains__)


def plan_violation_total(plan: ReactivePlan, automaton, valuation) -> Lasso | None:
    """Violation search against a total automaton for the formula itself:
    a reachable cycle of the deterministic product that never touches an
    accepting automaton state spells out a rejected trajectory."""
    if not buchi.is_total(automaton):
        raise PlanValidationError("violation search needs a total automaton")

    def rejecting(x):
        return x not in automaton.accepting

    return _violation(plan, automaton, valuation, rejecting, inside=rejecting)


def check_plan(plan: ReactivePlan, valuation, formula=None, automaton=None):
    """``None`` when none of the plan's trajectories violates the
    specification; otherwise a violating trajectory as a world lasso.

    A ``formula`` is checked against a fresh translation of its negation,
    and ``automaton`` is then ignored, so the check stays independent of
    any automaton built for synthesis; without one, ``automaton`` must be a
    total automaton for the specification itself.
    """
    if formula is None and automaton is None:
        raise AstraError("a formula or an automaton is required")
    if formula is not None:
        return plan_violation(plan, formula, valuation)
    return plan_violation_total(plan, automaton, valuation)


def plan_satisfies(plan: ReactivePlan, formula: ltl.Formula, valuation) -> bool:
    """Whether none of the plan's trajectories violates the formula."""
    return check_plan(plan, valuation, formula) is None


# ---------------------------------------------------------------------------
# simplification


def find_reachable_cycle(plan: ReactivePlan):
    """The first plan state (in id order) carrying both a shortest cycle
    through itself and a shortest path from plan state 1, as
    ``(prefix, suffix)`` id tuples.

    Paths have at least one edge, so for plan state 1 the prefix is itself
    a cycle through 1.  Breadth-first search realizes the shortest-path
    requirement with unit edge weights.  The qualifying states are those on
    a cycle reachable from plan state 1, found by one strongly connected
    component pass, so the search costs O(states + edges).  Every rule
    names a successor, so such a cycle always exists.
    """
    rows = plan._successors
    comp = buchi._cyclic_components(rows, (1,))
    first = next(i for i, c in enumerate(comp) if c >= 0)
    # shortest walks of at least one edge, ties toward smaller plan ids
    return tuple((src, *buchi._bfs_path(rows[src], first, rows.__getitem__))
                 for src in (1, first))


def simplify_plan(plan: ReactivePlan) -> ReactivePlan:
    """Collapse same-world successor groups to a single representative.

    Per SCR and world state, at most one successor survives: the one on the
    discovered prefix, else the one on the suffix, else the lowest id.  The
    result keeps that prefix and cycle, so it generates a trajectory, and
    its trajectories are a subset of the input's.  Costs O(states + edges).
    """
    # a shortest path or walk passes each plan state at most once before
    # its end, so each state has at most one next state on it
    prefix_next, suffix_next = (dict(zip(path, path[1:]))
                                for path in find_reachable_cycle(plan))

    rules = []
    for s in plan.scrs:
        groups = {}
        for j in plan.successor_ids(s.id):
            groups.setdefault(plan.by_id[j].world, []).append(j)
        kept = frozenset(
            next((j for j in (prefix_next.get(s.id), suffix_next.get(s.id))
                  if j in group), group[0])
            for _, group in sorted(groups.items())
        )
        rules.append(SCR(s.id, s.world, s.action, kept))
    return ReactivePlan(rules)


# ---------------------------------------------------------------------------
# strategy extraction


class _Detached:
    __slots__ = ()

    def __repr__(self):
        return "Detached"


DETACHED = _Detached()


@dataclass(frozen=True)
class Controller:
    """Executable, finite-memory form of a simplified plan's strategy.

    The cursor is ``None`` before the first observation, a plan state while
    the observed history matches the plan, and ``DETACHED`` forever after
    the first mismatch.  Stepping is functional; controllers can be copied
    and advanced independently.
    """

    plan: ReactivePlan
    cursor: object = None

    def __post_init__(self):
        if self.cursor is None:
            self.plan.require_unique_world_successors()

    @property
    def default_action(self) -> str:
        return self.plan.by_id[1].action

    @property
    def detached(self) -> bool:
        return self.cursor is DETACHED

    def feed(self, observed):
        """Consume one observed state; returns ``(controller, action)``."""
        if self.cursor is None:
            nxt = 1 if observed == self.plan.by_id[1].world else DETACHED
        elif self.cursor is DETACHED:
            nxt = DETACHED
        else:
            nxt = DETACHED
            for j in self.plan.successor_ids(self.cursor):
                if self.plan.by_id[j].world == observed:
                    nxt = j
                    break
        ctrl = Controller(self.plan, nxt)
        action = self.default_action if nxt is DETACHED else self.plan.by_id[nxt].action
        return ctrl, action
