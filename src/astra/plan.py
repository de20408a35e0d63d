"""Reactive plans and their executable controllers.

A reactive plan is a finite set of situation control rules (plan state,
world state, action, successor plan states).  Every rule names at least
one successor, as every plan for a non-blocking system must, so every
plan generates a trajectory: a cycle is reachable from plan state 1.
A plan keeps its rules as three lists indexed by plan id (world states,
actions and sorted successor tuples), which every function here reads
directly; every way of building one stores these lists, and the rules as
``SCR`` objects are a view built on first read.
This module covers plan well-formedness, reachable-cycle search, plan simplification, and the strategy obtained
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
from functools import cache, cached_property
from itertools import chain
from operator import attrgetter, itemgetter

from . import buchi, ltl
from .core import Lasso, _collector_paused, _require_encodable
from .errors import AstraError, PlanValidationError, UniquenessViolated


@dataclass(frozen=True)
class SCR:
    """One situation control rule."""

    id: int
    world: str
    action: str
    successors: frozenset


def _in_id_order(rules, id_of) -> list:
    """``rules`` sorted by id; the ids must be exactly 1..k, as plain ints,
    which is checked first, as sorting needs them to compare with ints."""
    ids = list(map(id_of, rules))
    if set(ids) != set(range(1, len(rules) + 1)):
        raise PlanValidationError("plan state ids must be exactly 1..k")
    # ``True`` and ``1.0`` pass the comparison above: they equal ints
    if any(type(i) is not int for i in ids):
        raise PlanValidationError("plan state ids and successors must be integers")
    return sorted(rules, key=id_of)


class ReactivePlan:
    """An ordered set of SCRs with ids 1..k (plain ints, as in a plan file),
    each naming at least one successor among them; execution starts at plan
    state 1.

    It is stored as three lists indexed by plan id, which every reader in
    this library reads: ``_worlds[i]``, ``_actions[i]`` and
    ``_successors[i]`` are plan state ``i``'s world state, action and
    successors in increasing order (entry 0 is unused).  Every route stores
    only these lists; ``scrs`` (each an ``SCR`` with frozenset successors)
    and ``by_id`` are views built on first read.  :meth:`from_columns`
    builds a plan from the lists, with the same checks.
    """

    def __init__(self, scrs):
        rules = _in_id_order(list(scrs), attrgetter("id"))
        self._set_columns([s.world for s in rules], [s.action for s in rules],
                          [s.successors for s in rules])

    @classmethod
    def from_columns(cls, worlds, actions, successors) -> "ReactivePlan":
        """The plan whose plan state ``i`` carries ``worlds[i - 1]``,
        ``actions[i - 1]`` and the successor ids in ``successors[i - 1]``,
        checked as the SCR route checks its rules."""
        plan = cls.__new__(cls)
        plan._set_columns(worlds, actions, successors)
        return plan

    def _set_columns(self, worlds, actions, successors):
        """Check and store the columns of plan states 1..k; a successor listed
        twice counts once, and every successor must be a plain int."""
        k = len(worlds)
        if not k:
            raise PlanValidationError("a plan needs at least one SCR")
        if len(actions) != k or len(successors) != k:
            raise PlanValidationError("a plan needs one world, action and successor set "
                                      "per plan state")
        known = set(range(1, k + 1))
        # membership is checked before sorting, which needs ints
        if not all(successors) or not known.issuperset(chain.from_iterable(successors)):
            for i, js in enumerate(successors, 1):
                if not js:
                    raise PlanValidationError(f"SCR {i} lists no successor plan states")
                dangling = set(js) - known
                if dangling:
                    raise PlanValidationError(
                        f"SCR {i} lists unknown successor plan states "
                        f"{sorted(dangling, key=repr)}"
                    )
        rows = [(), *map(tuple, map(sorted, map(set, successors)))]
        # ``True`` and ``1.0`` pass the checks above: they equal ints
        if set(map(type, chain.from_iterable(rows))) != {int}:
            raise PlanValidationError("plan state ids and successors must be integers")
        self._worlds, self._actions, self._successors = [None, *worlds], [None, *actions], rows

    @cached_property
    def scrs(self) -> tuple:
        return tuple(SCR(i, self._worlds[i], self._actions[i], frozenset(self._successors[i]))
                     for i in range(1, len(self._worlds)))

    @cached_property
    def by_id(self) -> dict:
        return {s.id: s for s in self.scrs}

    def __len__(self):
        return len(self._worlds) - 1

    def __eq__(self, other):
        return (isinstance(other, ReactivePlan) and self._worlds == other._worlds
                and self._actions == other._actions
                and self._successors == other._successors)

    def __hash__(self):
        return hash((*self._worlds, *self._actions, *self._successors))

    def __repr__(self):
        return f"ReactivePlan({list(self.scrs)!r})"

    def _id(self, plan_state) -> int:
        """The list index of ``plan_state``; ``KeyError`` if the plan lacks it."""
        if type(plan_state) is int and 0 < plan_state < len(self._worlds):
            return plan_state
        raise KeyError(plan_state)

    def successor_ids(self, plan_state) -> tuple:
        """The successor plan states of ``plan_state`` in increasing order;
        a plan state the plan lacks raises ``KeyError``."""
        return self._successors[self._id(plan_state)]

    def world_of(self, plan_state) -> str:
        return self._worlds[self._id(plan_state)]

    def require_unique_world_successors(self):
        worlds = self._worlds
        for i, js in enumerate(self._successors):
            seen = {}
            for j in js:
                w = worlds[j]
                if w in seen:
                    raise UniquenessViolated(
                        f"SCR {i}: successors {seen[w]} and {j} both carry world "
                        f"state {w!r}"
                    )
                seen[w] = j

    def validate_against(self, system):
        """Check the plan against a system: declared symbols, successor
        soundness, and full coverage of every disturbance-resolved successor."""
        states = set(system.states)
        controls = set(system.controls)
        worlds = self._worlds
        for i in range(1, len(worlds)):
            world, action = worlds[i], self._actions[i]
            if world not in states:
                raise PlanValidationError(f"SCR {i}: unknown world state {world!r}")
            if action not in controls:
                raise PlanValidationError(f"SCR {i}: unknown action {action!r}")
            reachable = set(system.successors(world, action))
            successor_worlds = {worlds[j] for j in self._successors[i]}
            phantom = successor_worlds - reachable
            if phantom:
                raise PlanValidationError(
                    f"SCR {i}: successor worlds {sorted(phantom)} are not reachable "
                    f"from {world!r} under {action!r}"
                )
            missing = reachable - successor_worlds
            if missing:
                raise PlanValidationError(
                    f"SCR {i}: no successor plan state covers world states "
                    f"{sorted(missing)} reachable from {world!r} under {action!r}"
                )


@_collector_paused
def load_plan(path) -> ReactivePlan:
    """Read a plan file (see :func:`plan_from_dict`).  Runs with the cyclic
    garbage collector paused (see ``core._collector_paused``)."""
    with open(path, encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))


@_collector_paused
def plan_from_dict(raw: dict) -> ReactivePlan:
    """The plan a parsed plan file describes, checked as the constructor
    checks its rules.  Runs with the cyclic garbage collector paused (see
    ``core._collector_paused``)."""
    if not isinstance(raw, dict) or not isinstance(raw.get("scrs"), list):
        raise PlanValidationError("plan description must be an object with an 'scrs' list")
    unknown = set(raw) - {"scrs", "initial"}
    if unknown:
        raise PlanValidationError(f"unknown keys in plan description: {sorted(unknown)}")
    entries = raw["scrs"]
    for entry in entries:
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
    _require_encodable(chain.from_iterable((e["world"], e["action"]) for e in entries),
                       "plan", PlanValidationError)
    entries = _in_id_order(entries, itemgetter("id"))
    plan = ReactivePlan.from_columns([e["world"] for e in entries],
                                     [e["action"] for e in entries],
                                     [e["successors"] for e in entries])
    if "initial" in raw and raw["initial"] != plan.world_of(1):
        raise PlanValidationError(
            f"plan 'initial' {raw['initial']!r} is not plan state 1's world "
            f"{plan.world_of(1)!r}"
        )
    return plan


def plan_to_dict(plan: ReactivePlan, initial=None) -> dict:
    out = {} if initial is None else {"initial": initial}
    out["scrs"] = [
        {"id": i, "world": plan._worlds[i], "action": plan._actions[i],
         "successors": list(plan._successors[i])}
        for i in range(1, len(plan._worlds))
    ]
    return out


def dump_plan(plan: ReactivePlan, path, initial=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(plan, initial), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verification


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
    worlds, successors = plan._worlds, plan._successors
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
            mask = masks[plan_state] = label_mask(valuation.label(worlds[plan_state]))
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
        sub.append(row if inner[x] else ())
    found = buchi._indexed_lasso(sub, [marks[x] for x in states], parent)
    if found is None:
        return None
    prefix, cycle = found
    return Lasso(*(tuple(worlds[order[k]] for k in path)
                   for path in (prefix, cycle)))


@_collector_paused
def plan_violation(plan: ReactivePlan, formula: ltl.Formula, valuation) -> Lasso | None:
    """A generated trajectory violating the formula, as a world lasso, or
    ``None``.  Decided by an accepting-lasso search in the product of the
    plan graph with an automaton for the negated formula.  Runs with the
    cyclic garbage collector paused (see ``core._collector_paused``)."""
    negated = buchi.ltl_to_buchi(ltl.Not(formula), props=valuation.props)
    return _violation(plan, negated, valuation, negated.accepting.__contains__)


@_collector_paused
def plan_violation_total(plan: ReactivePlan, automaton, valuation) -> Lasso | None:
    """Violation search against a total automaton for the formula itself:
    a reachable cycle of the deterministic product that never touches an
    accepting automaton state spells out a rejected trajectory.  Runs with
    the cyclic garbage collector paused (see ``core._collector_paused``)."""
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

    worlds = plan._worlds
    kept = []
    for i in range(1, len(worlds)):
        groups = {}
        for j in plan._successors[i]:
            groups.setdefault(worlds[j], []).append(j)
        kept.append([
            next((j for j in (prefix_next.get(i), suffix_next.get(i)) if j in group),
                 group[0])
            for group in groups.values()
        ])
    return ReactivePlan.from_columns(worlds[1:], plan._actions[1:], kept)


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
        return self.plan._actions[1]

    @property
    def detached(self) -> bool:
        return self.cursor is DETACHED

    def feed(self, observed):
        """Consume one observed state; returns ``(controller, action)``."""
        worlds = self.plan._worlds
        if self.cursor is None:
            nxt = 1 if observed == worlds[1] else DETACHED
        elif self.cursor is DETACHED:
            nxt = DETACHED
        else:
            nxt = next((j for j in self.plan.successor_ids(self.cursor)
                        if worlds[j] == observed), DETACHED)
        ctrl = Controller(self.plan, nxt)
        return ctrl, self.plan._actions[1 if nxt is DETACHED else nxt]
