"""Finite, non-blocking alternating transition systems and their basic views.

An alternating transition system splits its transition labels into a
controllable part (controls) and an uncontrollable part (disturbances).
This module holds the system model itself, valuation functions mapping
states to proposition sets, and the lasso representation of ultimately
periodic infinite words.

Lasso positions are 1-based everywhere user-visible.
"""

from __future__ import annotations

import gc
import json
from array import array
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain
from operator import itemgetter

from .errors import (
    BlockedState,
    EmptyAlphabet,
    InvalidDuration,
    SystemValidationError,
    UndeclaredSymbol,
)


def _collector_paused(fn):
    """``fn``, run with CPython's cyclic garbage collector disabled.

    The library's bulk calls allocate many small containers and create no
    reference cycles, so the collector's passes over them free nothing;
    reference counting frees all they leave.  The collector is re-enabled
    on return only if it was enabled on entry, so a nested call changes
    nothing and a caller that disabled it keeps it disabled.  The collector
    is process-wide: other threads' cyclic garbage waits until the call
    returns.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@dataclass(frozen=True)
class Lasso:
    """The infinite word ``prefix . cycle . cycle . ...``.

    ``prefix`` may be empty, ``cycle`` may not.  Positions are 1-based;
    positions past ``len(prefix) + len(cycle)`` fold back into the cycle.
    """

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be non-empty")

    @property
    def classes(self) -> int:
        """Number of distinct position classes, ``|prefix| + |cycle|``."""
        return len(self.prefix) + len(self.cycle)

    def normalize(self, position: int) -> int:
        if position < 1:
            raise ValueError("positions are 1-based")
        u, v = len(self.prefix), len(self.cycle)
        if position <= u + v:
            return position
        return u + 1 + ((position - u - 1) % v)

    def at(self, position: int):
        i = self.normalize(position)
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.cycle[i - len(self.prefix) - 1]

    def successor(self, position: int) -> int:
        """Position class reached one step after ``position``."""
        i = self.normalize(position)
        return len(self.prefix) + 1 if i == self.classes else i + 1

    def unroll(self, n: int) -> tuple:
        return tuple(self.at(i) for i in range(1, n + 1))

    def map(self, fn) -> "Lasso":
        return Lasso(tuple(fn(x) for x in self.prefix), tuple(fn(x) for x in self.cycle))


class Valuation:
    """Assignment of a proposition subset to every state.

    States that carry the same propositions share one frozenset, so a
    valuation holds one set per distinct label, however many states it has.
    """

    def __init__(self, props, mapping):
        self.props = tuple(props)
        prop_set = set(self.props)
        if len(prop_set) != len(self.props):
            raise SystemValidationError("duplicate entries in propositions")
        self._map = {}
        labels = {}
        for state, assigned in mapping.items():
            assigned = frozenset(assigned)
            extra = assigned - prop_set
            if extra:
                raise UndeclaredSymbol(
                    f"valuation of state {state!r} uses undeclared propositions "
                    f"{sorted(extra)}"
                )
            self._map[state] = labels.setdefault(assigned, assigned)

    def states(self):
        return self._map.keys()

    def label(self, state) -> frozenset:
        try:
            return self._map[state]
        except KeyError:
            raise UndeclaredSymbol(f"state {state!r} has no valuation") from None

    def word(self, lasso: Lasso) -> Lasso:
        """Pointwise image of a state lasso under the valuation."""
        return lasso.map(self.label)


class AlternatingTransitionSystem:
    """States, controls, disturbances, transitions, and an observation map.

    The transition relation must be non-blocking: every
    (state, control, disturbance) triple has at least one successor.
    Declaration order of states and labels is preserved and drives all
    deterministic iteration in this library.

    ``transitions`` may be any iterable of ``(state, control, disturbance,
    target)`` sequences; it is read once.  The system keeps no name from
    it, only integers: ``index[q]`` is the position of state ``q`` in
    ``states``, and ``rows[i][c]`` lists the positions of the successors of
    state ``i`` under the ``c``-th control, in ``successors`` order.
    ``successors`` answers from these rows, and ``buchi.product`` reads them
    directly.  The listed transitions are kept as one array of (slot,
    target position) pairs, in listed order with repeats, where slot
    ``(i * len(controls) + c) * len(disturbances) + d`` stands for state
    ``i``, control ``c`` and disturbance ``d``.  ``transitions`` rebuilds
    the listed tuples from it on every read, and ``successors_under``
    answers from per-slot target lists built from it on first use.
    """

    def __init__(self, states, controls, disturbances, transitions, obs_map=None):
        self.states = tuple(states)
        self.controls = tuple(controls)
        self.disturbances = tuple(disturbances)
        if not self.states or not self.controls or not self.disturbances:
            raise EmptyAlphabet("states, controls, and disturbances must be non-empty")
        for name, seq in (("states", self.states), ("controls", self.controls),
                          ("disturbances", self.disturbances)):
            if len(set(seq)) != len(seq):
                raise SystemValidationError(f"duplicate entries in {name}")

        self.index = index = {q: i for i, q in enumerate(self.states)}
        self._control_index = control_index = {a: c for c, a in enumerate(self.controls)}
        self._disturbance_index = disturbance_index = {
            b: d for d, b in enumerate(self.disturbances)}
        k, nd = len(self.controls), len(self.disturbances)
        under = [[] for _ in range(len(self.states) * k * nd)]
        # A slot is below len(under), so a C int holds it: a list of more
        # than 2**31 slots would not fit in memory.
        self._listed = listed = array("i")
        append = listed.append
        for t in transitions:
            try:
                q, a, b, q2 = t
                i, j = index.get(q), index.get(q2)
                c, d = control_index.get(a), disturbance_index.get(b)
            except (TypeError, ValueError):
                raise SystemValidationError(
                    f"transition {t!r} is not a (state, control, disturbance, target) "
                    "sequence of names") from None
            if i is None or j is None:
                raise UndeclaredSymbol(f"transition {(q, a, b, q2)} references an undeclared state")
            if c is None:
                raise UndeclaredSymbol(f"transition {(q, a, b, q2)} references an undeclared control {a!r}")
            if d is None:
                raise UndeclaredSymbol(f"transition {(q, a, b, q2)} references an undeclared disturbance {b!r}")
            slot = (i * k + c) * nd + d
            under[slot].append(j)
            append(slot)
            append(j)
        for slot, targets in enumerate(under):
            if not targets:
                i, c = divmod(slot // nd, k)
                raise BlockedState(self.states[i], self.controls[c],
                                   self.disturbances[slot % nd])

        under = [sorted(set(targets)) for targets in under]
        self.rows = tuple(
            tuple(tuple(dict.fromkeys(chain.from_iterable(under[s : s + nd])))
                  for s in range(i * k * nd, (i + 1) * k * nd, nd))
            for i in range(len(self.states)))

        if obs_map is None:
            obs_map = {q: q for q in self.states}
        missing = [q for q in self.states if q not in obs_map]
        if missing:
            raise UndeclaredSymbol(f"observation map is missing states {missing}")
        extra = [q for q in obs_map if q not in index]
        if extra:
            raise UndeclaredSymbol(f"observation map references undeclared states {extra}")
        self.obs_map = dict(obs_map)

    def _pairs(self):
        """The (slot, target position) pair of each listed transition."""
        listed = iter(self._listed)
        return zip(listed, listed)

    @property
    def transitions(self) -> tuple:
        """The listed ``(state, control, disturbance, target)`` tuples, in
        listed order with repeats, rebuilt on every read."""
        states, controls, disturbances = self.states, self.controls, self.disturbances
        k, nd = len(controls), len(disturbances)
        out = []
        for slot, j in self._pairs():
            i, c = divmod(slot // nd, k)
            out.append((states[i], controls[c], disturbances[slot % nd], states[j]))
        return tuple(out)

    @cached_property
    def _under(self) -> list:
        """Per slot, the positions of its distinct targets in ascending order."""
        under = [set() for _ in range(len(self.states) * len(self.controls)
                                      * len(self.disturbances))]
        for slot, j in self._pairs():
            under[slot].add(j)
        return [tuple(sorted(targets)) for targets in under]

    def _position(self, q, a):
        i = self.index.get(q)
        if i is None:
            raise UndeclaredSymbol(f"unknown state {q!r}")
        c = self._control_index.get(a)
        if c is None:
            raise UndeclaredSymbol(f"unknown control {a!r}")
        return i, c

    def successors(self, q, a) -> tuple:
        """All states reachable from ``q`` under control ``a``: those of
        ``successors_under`` for each declared disturbance in turn, each once."""
        i, c = self._position(q, a)
        return tuple(map(self.states.__getitem__, self.rows[i][c]))

    def successors_under(self, q, a, b) -> tuple:
        """States reachable from ``q`` under control ``a`` and disturbance
        ``b``, in state declaration order."""
        i, c = self._position(q, a)
        d = self._disturbance_index.get(b)
        if d is None:
            raise UndeclaredSymbol(f"unknown disturbance {b!r}")
        slot = (i * len(self.controls) + c) * len(self.disturbances) + d
        return tuple(map(self.states.__getitem__, self._under[slot]))


def _require_encodable(names, owner, error=SystemValidationError):
    """``names``, once each is checked to be encodable in UTF-8: a JSON
    escape can read a lone surrogate into a name, which no output can write."""
    for name in names:
        if not name.isascii():
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{owner} names {name!r}, which UTF-8 cannot encode") from None
    return names


def _string_list(raw, key):
    value = raw[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SystemValidationError(f"{key!r} must be a list of strings")
    return _require_encodable(value, repr(key))


@_collector_paused
def validate_ats(raw: dict) -> AlternatingTransitionSystem:
    """Build a validated system from a parsed description (see ``load_system``).

    Unknown and missing keys are rejected first.  Every transition entry is
    checked next, before durations, controls and the constructor, so a
    malformed entry is reported even when a declared list is wrong too.  A
    ``durations`` map, if present, must pin declared controls to the
    integer 1.  The entries' values then go to the constructor one entry at
    a time, with no list of them built, and the system keeps none of their
    strings.  Runs with the cyclic garbage collector paused (see
    ``_collector_paused``).
    """
    if not isinstance(raw, dict):
        raise SystemValidationError("system description must be a JSON object")
    allowed = {"states", "controls", "disturbances", "transitions",
               "observations", "valuation", "propositions", "durations"}
    unknown = set(raw) - allowed
    if unknown:
        raise SystemValidationError(f"unknown keys in system description: {sorted(unknown)}")
    for key in ("states", "controls", "disturbances", "transitions"):
        if key not in raw:
            raise SystemValidationError(f"system description is missing {key!r}")

    entries = raw["transitions"]
    if not isinstance(entries, list):
        raise SystemValidationError("'transitions' must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"from", "control", "disturbance", "to"}:
            raise SystemValidationError(
                "each transition must be an object with exactly the keys "
                "from/control/disturbance/to"
            )
        if not all(isinstance(value, str) for value in entry.values()):
            raise SystemValidationError("transition fields must be strings")

    durations = raw.get("durations", {})
    if not isinstance(durations, dict):
        raise SystemValidationError("'durations' must be an object")
    controls = _string_list(raw, "controls")
    for control, d in durations.items():
        if control not in controls:
            raise UndeclaredSymbol(f"durations reference an undeclared control {control!r}")
        if type(d) is not int or d != 1:
            raise InvalidDuration(f"control {control!r} has duration {d!r}; only 1 is supported")

    obs_map = raw.get("observations")
    if obs_map is not None and not (
        isinstance(obs_map, dict) and all(isinstance(o, str) for o in obs_map.values())
    ):
        raise SystemValidationError("'observations' must map states to strings")
    if obs_map is not None:
        _require_encodable(obs_map.values(), "'observations'")
    return AlternatingTransitionSystem(
        _string_list(raw, "states"), controls,
        _string_list(raw, "disturbances"),
        map(itemgetter("from", "control", "disturbance", "to"), entries),
        obs_map=dict(obs_map) if obs_map is not None else None,
    )


def parse_valuation(raw: dict, system: AlternatingTransitionSystem) -> Valuation:
    """Extract the valuation from a system description, defaulting to empty sets.

    The declared propositions are the optional ``"propositions"`` list, so
    that a formula may name one that no state carries, followed by every
    other label in order of first appearance over the states.
    """
    table = raw.get("valuation", {})
    if not isinstance(table, dict) or not all(
        isinstance(ps, list) for ps in table.values()
    ):
        raise SystemValidationError("'valuation' must map states to proposition lists")
    extra = set(table) - set(system.states)
    if extra:
        raise UndeclaredSymbol(f"valuation references undeclared states {sorted(extra)}")
    props = _string_list(raw, "propositions") if "propositions" in raw else []
    labels = [p for q in system.states for p in table.get(q, [])]
    for p in props + labels:
        if not isinstance(p, str) or not p.isidentifier():
            raise SystemValidationError(f"invalid proposition name {p!r}")
    props = props + [p for p in dict.fromkeys(labels) if p not in props]
    mapping = {q: frozenset(table.get(q, [])) for q in system.states}
    return Valuation(props, mapping)


@_collector_paused
def load_system(path) -> tuple:
    """Read a system file and return ``(system, valuation)``.  Runs with the
    cyclic garbage collector paused (see ``_collector_paused``)."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    system = validate_ats(raw)
    return system, parse_valuation(raw, system)

