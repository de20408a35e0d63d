"""Buchi automata over proposition-set alphabets.

Provides translation of next-free temporal formulas into nondeterministic
Buchi automata, totality analysis and completion, synchronous products
with alternating transition systems, and lasso acceptance / emptiness
primitives.

Edges carry symbolic guards: boolean constraints over atomic propositions
standing for every letter (proposition subset) that satisfies them.  The
alphabet is the subsets of the atoms the guards read, not of every declared
proposition.  Inside the library a letter is an int mask (bit ``i`` is the
``i``-th proposition): a guard keeps its minterms as masks over its atoms,
and an automaton steps on a successor table over masks of its ``props``.

The translation's tableau runs on integers: a set of literals is a pair of
atom masks, and obligation sets, fulfilled sets and acceptance marks are
masks over the ranks of the formula's untils and their negations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property

from . import ltl
from .core import Lasso
from .errors import AutomatonError, ExplosionGuard, FormulaTooDeep

# ---------------------------------------------------------------------------
# guards


class Guard:
    """A boolean constraint over ``atoms``.

    ``minterms`` holds every satisfying assignment as a mask over ``atoms``:
    bit ``i`` is set when ``atoms[i]`` is true.  A letter is matched by
    projecting it onto ``atoms`` as such a mask.  ``text`` is the written
    guard, or else the minimal DNF of ``minterms`` rendered on first read.
    Equality compares atoms, minterms and text; two guards that were not
    written render alike, so neither is rendered, and a guard past
    ``RENDER_ATOMS`` has no text to match a written one.
    """

    __slots__ = ("atoms", "minterms", "_text")

    def __init__(self, atoms, minterms, text=None):
        self.atoms, self.minterms, self._text = atoms, minterms, text

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = _render_dnf(self.atoms, self.minterms)
        return self._text

    def matches(self, letter) -> bool:
        return _mask(self.atoms, letter) in self.minterms

    def __eq__(self, other):
        try:
            return (isinstance(other, Guard) and self.atoms == other.atoms
                    and self.minterms == other.minterms
                    and (self._text is other._text or self.text == other.text))
        except ExplosionGuard:
            return False

    def __hash__(self):
        return hash((self.atoms, self.minterms))

    def __repr__(self):
        # never renders: a guard past RENDER_ATOMS has no text to show
        text = "" if self._text is None else f", text={self._text!r}"
        return f"Guard(atoms={self.atoms!r}, minterms={self.minterms!r}{text})"

    def __str__(self):
        return self.text


def _mask(props, letter) -> int:
    """The mask of ``letter``, any container of propositions, over ``props``."""
    return sum(1 << i for i, p in enumerate(props) if p in letter)


def _submasks(mask):
    """Every submask of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


# The most atoms a guard may read for its text to be rendered.  On a 2-CPU
# host the 7-atom disjunction renders in 0.005 s, 20 random 7-atom guards in
# 0.02 s and the 8-atom disjunction in 0.02 s; the budget stays at 7 because
# raising it would change which guards raise ``ExplosionGuard``.
RENDER_ATOMS = 7


def _render_dnf(atoms, minterms):
    n = len(atoms)
    if not minterms:
        return "false"
    if len(minterms) == 1 << n:
        return "true"
    if n > RENDER_ATOMS:
        raise ExplosionGuard(
            f"a guard over {n} atoms is too large to write out (at most {RENDER_ATOMS})")
    def implicant_key(imp):
        value, care = imp
        return care.bit_count(), [value >> i & 1 if care >> i & 1 else 2 for i in range(n)]

    # an implicant (value, care) fixes the atoms of ``care`` to their bits in
    # ``value``; it merges with the implicant that flips one of them
    current, primes = {(m, (1 << n) - 1) for m in minterms}, set()
    while current:
        merged, used = set(), set()
        for value, care in current:
            for i in _bits(care):
                if (value ^ (1 << i), care) in current:
                    merged.add((value & ~(1 << i), care & ~(1 << i)))
                    used.add((value, care))
        primes |= current - used
        current = merged
    # deterministic greedy cover; each prime fixes an atom, as a minterm is missing
    remaining, terms = set(minterms), []
    for value, care in sorted(primes, key=implicant_key):
        covered = {m for m in remaining if m & care == value}
        if covered:
            remaining -= covered
            terms.append(" & ".join(a if value >> i & 1 else "!" + a
                                    for i, a in enumerate(atoms) if care >> i & 1))
        if not remaining:
            break
    if len(terms) == 1:
        return terms[0]
    return " | ".join(f"({t})" if " & " in t else t for t in terms)


def guard_true() -> Guard:
    return Guard((), frozenset({0}))


def guard_from_text(text: str) -> Guard:
    """The guard a written boolean formula denotes.

    Its letters are read in one boolean pass over truth tables: ints whose
    bit ``m`` is a subformula's value on letter mask ``m``.  Each atom
    doubles the tables: the columns of the atoms before it repeat in the
    upper half, where it is true.  The operators are ``&`` and ``~``."""
    expr = ltl.parse_formula(text, props=None)
    # the preorder walk takes any depth; hashing a deep until would recurse
    if any(isinstance(node, ltl.Until) for node in ltl._preorder(expr)):
        raise AutomatonError(f"guard {text!r} uses a temporal operator")
    atoms = tuple(sorted(ltl.atoms(expr)))
    column, width = {}, 1
    for a in atoms:
        column = {b: c | c << width for b, c in column.items()}
        column[a] = ((1 << width) - 1) << width
        width *= 2
    full = (1 << width) - 1

    def value(node):
        if isinstance(node, ltl.TrueF):
            return full
        if isinstance(node, ltl.Atom):
            return column[node.name]
        if isinstance(node, ltl.Not):
            return full & ~value(node.arg)
        return value(node.left) & value(node.right)

    try:
        minterms = frozenset(_bits(value(expr)))
    except RecursionError:
        raise AutomatonError(f"guard {text!r} nests too deeply") from None
    return Guard(atoms, minterms, text.strip())


# ---------------------------------------------------------------------------
# automata


@dataclass(frozen=True)
class Edge:
    src: str
    guard: Guard
    dst: str


class BuchiAutomaton:
    """(states, initial, alphabet 2^props as guards, edges, accepting).

    ``props`` are the atoms the guards read: the given ``props`` that some
    guard reads, each once in the given order, then any other guard atom in
    order of appearance.  A proposition no guard reads cannot change a run.

    ``index[s]`` numbers state ``s``.  The edges are compiled into ``table``
    on its first read: ``table[i][m]`` lists the numbers of state ``i``'s
    successors on letter mask ``m`` (bit ``j`` is ``props[j]``), each once,
    in edge order.  A minterm fixes the bits of its guard's atoms, as
    ``Guard.matches`` projects a letter onto them, and each submask of the
    others is added.  An undeclared state raises ``AutomatonError``."""

    def __init__(self, states, initial, props, edges, accepting):
        self.states = tuple(states)
        self.index = index = {s: i for i, s in enumerate(self.states)}
        if len(index) != len(self.states):
            raise AutomatonError("duplicate state names")
        self.initial = tuple(initial)
        if len(set(self.initial)) != len(self.initial):
            raise AutomatonError("duplicate initial state names")
        self.accepting = frozenset(accepting)
        if not index.keys() >= {*self.initial, *self.accepting}:
            raise AutomatonError("initial/accepting states must be declared states")
        self.edges = tuple(edges)
        self._out = [[] for _ in self.states]
        read = {}
        for edge in self.edges:
            if edge.src not in index or edge.dst not in index:
                raise AutomatonError(
                    f"edge {edge.src!r} -> {edge.dst!r} references an undeclared state")
            self._out[index[edge.src]].append(edge)
            read.update(dict.fromkeys(edge.guard.atoms))
        declared = [p for p in dict.fromkeys(props) if p in read]
        self.props = tuple(declared + [a for a in read if a not in declared])

    @cached_property
    def table(self) -> list:
        bit = {p: 1 << i for i, p in enumerate(self.props)}
        full = (1 << len(self.props)) - 1
        table = [[()] * (full + 1) for _ in self.states]
        # lifts[atoms][m]: the props mask of the mask m over atoms
        lifts = {}
        for edge in self.edges:
            lift = lifts.get(edge.guard.atoms)
            if lift is None:
                lift = lifts[edge.guard.atoms] = [0]
                for a in edge.guard.atoms:
                    lift += [m | bit[a] for m in lift]
            row, t = table[self.index[edge.src]], self.index[edge.dst]
            subs = list(_submasks(full & ~lift[-1]))
            for minterm in edge.guard.minterms:
                base = lift[minterm]
                for sub in subs:
                    cell = row[base | sub]
                    if t not in cell:
                        row[base | sub] = cell + (t,)
        return table

    def _number(self, state) -> int:
        i = self.index.get(state)
        if i is None:
            raise AutomatonError(f"unknown automaton state {state!r}")
        return i

    def edges_from(self, state) -> tuple:
        return tuple(self._out[self._number(state)])

    def letter_mask(self, letter) -> int:
        """The mask of ``letter``, any container of propositions."""
        return _mask(self.props, letter)

    def successors(self, state, letter) -> tuple:
        """The successors of ``state`` on ``letter``, each once, in edge order."""
        row = self.table[self._number(state)]
        return tuple(self.states[j] for j in row[self.letter_mask(letter)])


def load_automaton(path) -> BuchiAutomaton:
    """Read an automaton file: states, initial, accepting, guarded edges."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise AutomatonError("automaton description must be a JSON object")
    required = {"states", "initial", "accepting", "edges"}
    if set(raw) != required:
        raise AutomatonError(
            f"automaton description must have exactly the keys {sorted(required)}"
        )
    for key in ("states", "initial", "accepting", "edges"):
        if not isinstance(raw[key], list):
            raise AutomatonError(f"{key!r} must be a list")
    for key in ("states", "initial", "accepting"):
        if not all(isinstance(name, str) for name in raw[key]):
            raise AutomatonError(f"{key!r} must be a list of strings")
    edges = []
    for entry in raw["edges"]:
        if not isinstance(entry, dict) or set(entry) != {"from", "guard", "to"}:
            raise AutomatonError("each edge must be an object with keys from/guard/to")
        if not all(isinstance(entry[k], str) for k in ("from", "guard", "to")):
            raise AutomatonError("edge fields must be strings")
        edges.append(Edge(entry["from"], guard_from_text(entry["guard"]), entry["to"]))
    return BuchiAutomaton(raw["states"], raw["initial"], (), edges, raw["accepting"])


# ---------------------------------------------------------------------------
# translation: obligation-set tableau -> transition-marked generalized
# automaton -> nondeterministic Buchi automaton


def _formula_key(node):
    if isinstance(node, ltl.TrueF):
        return (0,)
    if isinstance(node, ltl.Atom):
        return (1, node.name)
    if isinstance(node, ltl.Not):
        return (2, _formula_key(node.arg))
    if isinstance(node, ltl.And):
        return (3, _formula_key(node.left), _formula_key(node.right))
    return (4, _formula_key(node.left), _formula_key(node.right))


def _cross(combos1, combos2):
    return {(p1 | p2, n1 | n2, x1 | x2, f1 | f2)
            for p1, n1, x1, f1 in combos1 for p2, n2, x2, f2 in combos2
            if not (p1 | p2) & (n1 | n2)}


_UNIT = frozenset({(0, 0, 0, 0)})


def _expansions(node, memo, rank):
    """Decompositions of an obligation: the set of (atoms true now, atoms
    false now, obligations next, untils fulfilled now), each a bit mask.
    ``memo`` starts with the decomposition of every literal, and ``rank``
    gives the bit of each until and of its negation.  Any run step
    discharging the obligation must match one decomposition; their order
    does not matter (see :func:`ltl_to_buchi`)."""
    if node in memo:
        return memo[node]
    if isinstance(node, ltl.TrueF):
        result = _UNIT
    elif isinstance(node, ltl.And):
        result = _cross(_expansions(node.left, memo, rank),
                        _expansions(node.right, memo, rank))
    elif isinstance(node, ltl.Until):
        u = rank[node]
        result = ({(p, n, x, f | u) for p, n, x, f in _expansions(node.right, memo, rank)}
                  | {(p, n, x | u, f) for p, n, x, f in _expansions(node.left, memo, rank)})
    else:
        arg = node.arg
        if isinstance(arg, ltl.TrueF):
            result = set()
        elif isinstance(arg, ltl.Not):
            result = _expansions(arg.arg, memo, rank)
        elif isinstance(arg, ltl.And):
            result = (_expansions(ltl.Not(arg.left), memo, rank)
                      | _expansions(ltl.Not(arg.right), memo, rank))
        else:
            # !(a U b)  ==  !b & (!a | next !(a U b))
            result = _cross(_expansions(ltl.Not(arg.right), memo, rank),
                            _expansions(ltl.Not(arg.left), memo, rank)
                            | {(0, 0, rank[node], 0)})
    memo[node] = result
    return result


def _initial_obligations(formula):
    """The formula's conjuncts other than ``true``, each once."""
    out = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, ltl.TrueF):
            continue
        if isinstance(node, ltl.And):
            stack.extend((node.left, node.right))
            continue
        out[node] = None
    return tuple(out)


def _bits(mask):
    """The set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _prune_subsumed(edges):
    """Drop letters of an edge whenever a same-source edge with a subset
    target and superset marks covers them; rerouting through the smaller
    obligation set preserves every accepting run."""
    pruned = []
    for dst, marks, minterms in edges:
        keep = set(minterms)
        for dst2, marks2, minterms2 in edges:
            if (dst2, marks2) == (dst, marks):
                continue
            if not dst2 & ~dst and not marks & ~marks2:
                keep -= minterms2
        if keep:
            pruned.append((dst, marks, frozenset(keep)))
    return pruned


def _discovery(roots, successors):
    """Breadth-first discovery order from ``roots`` (in order, repeats
    dropped) and each node's place in that order."""
    place = {}
    for root in roots:
        place.setdefault(root, len(place))
    order = list(place)
    for node in order:
        for succ in successors(node):
            if succ not in place:
                place[succ] = len(order)
                order.append(succ)
    return order, place


def _live_states(rows, accepting):
    """Nodes of ``rows`` (node -> its successor nodes, all ints) that can
    reach a cycle through a node of ``accepting``."""
    comp = _cyclic_components(rows, accepting)
    good = {comp[i] for i in accepting if comp[i] >= 0}
    rev = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            rev[j].append(i)
    live = [i for i, c in enumerate(comp) if c in good]
    return set(_discovery(live, rev.__getitem__)[0])


def _cyclic_components(rows, roots):
    """Per node of ``rows`` (node i -> its successor nodes, ints below
    ``len(rows)``), the number of its strongly connected component when the
    search from ``roots`` reaches it and the component contains a cycle,
    else -1.  An iterative Tarjan over list-indexed arrays; a reached node's
    component is reached whole, so its flag does not depend on the roots.
    O(nodes + edges).
    """
    n = len(rows)
    # index -1: not reached yet; n: component done, so never below a low link
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack = []
    count = found = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [root]
        its = [iter(rows[root])]
        while path:
            node = path[-1]
            for nxt in its[-1]:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = count
                    count += 1
                    stack.append(nxt)
                    path.append(nxt)
                    its.append(iter(rows[nxt]))
                    break
                if index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                path.pop()
                its.pop()
                if low[node] == index[node]:
                    w = stack.pop()
                    index[w] = n
                    if w != node or node in rows[node]:
                        comp[w] = found
                        while w != node:
                            w = stack.pop()
                            index[w] = n
                            comp[w] = found
                        found += 1
                if path and low[node] < low[path[-1]]:
                    low[path[-1]] = low[node]
    return comp


def ltl_to_buchi(formula: ltl.Formula, props=None) -> BuchiAutomaton:
    """A nondeterministic Buchi automaton accepting exactly the words that
    satisfy ``formula``.

    States are obligation sets generated on the fly; acceptance bookkeeping
    tracks, per until subformula, the steps that either drop it or fulfil
    its right argument, and is then folded into plain Buchi acceptance by a
    level counter.  Language correctness is enforced by cross-checking
    against direct lasso evaluation in the test suite, not by matching any
    particular published automaton shape.

    The tableau runs on bit masks.  Atom ``i`` of the sorted atoms is bit
    ``i`` of a literal mask and of a letter mask, and the guards keep those
    letter masks as their minterms.  After the first step a state holds only
    untils and their negations; sorted once by ``_formula_key``, rank ``i``
    is bit ``i`` of an obligation, fulfilled or mark mask, and the initial
    state's other conjuncts take the bits after them.  A state's edges are
    sorted by the ascending set bits of (next, fulfilled), which orders them
    as their sorted formula keys would, so decompositions are crossed and
    merged as unordered sets.  Each obligation set's edges are kept once,
    in ``moves``, which is also the search's seen-set.

    The degeneralized (obligation set, level) nodes are numbered in one
    dict as they are discovered, and their edges, acceptance and liveness
    are kept by number.  Names come last: the live nodes, in number order,
    become ``s0``, ``s1``, ... as the automaton's edges are emitted.

    ``props`` only orders the formula's atoms in the automaton's ``props``
    (and so in the guard text ``totalize`` renders); it does not widen the
    alphabet by propositions the formula does not read.

    A formula nested past the interpreter's recursion limit raises
    ``FormulaTooDeep``.
    """
    try:
        return _tableau(formula, props)
    except RecursionError:
        raise FormulaTooDeep("the formula nests too deeply") from None


def _tableau(formula, props):
    atoms = tuple(sorted(ltl.atoms(formula)))
    memo = {}
    for i, a in enumerate(atoms):
        memo[ltl.Atom(a)] = {(1 << i, 0, 0, 0)}
        memo[ltl.Not(ltl.Atom(a))] = {(0, 1 << i, 0, 0)}
    untils = ltl.until_subformulas(formula)
    ranked = sorted(untils + tuple(ltl.Not(u) for u in untils), key=_formula_key)
    rank = {node: 1 << i for i, node in enumerate(ranked)}
    conjuncts = _initial_obligations(formula)
    for node in conjuncts:
        rank.setdefault(node, 1 << len(rank))
    obligations = list(rank)
    until_bits = [rank[u] for u in untils]
    until_mask = sum(until_bits)
    full = (1 << len(atoms)) - 1
    steps = {}

    # moves: obligation set -> its edges, and the set of those discovered
    init = sum(rank[node] for node in conjuncts)
    moves = {init: None}
    order = [init]
    for state in order:
        combos = _UNIT
        for i in _bits(state):
            if i not in steps:
                steps[i] = _expansions(obligations[i], memo, rank)
            combos = _cross(combos, steps[i])
        merged = {}
        for pos, neg, nexts, fulfilled in combos:
            merged.setdefault((nexts, fulfilled), set()).update(
                pos | sub for sub in _submasks(full & ~(pos | neg)))
        moves[state] = _prune_subsumed([
            (nexts, until_mask & ~nexts | fulfilled, merged[nexts, fulfilled])
            for nexts, fulfilled in sorted(merged, key=lambda k: (_bits(k[0]), _bits(k[1])))
        ])
        for dst, _, _ in moves[state]:
            if dst not in moves:
                moves[dst] = None
                order.append(dst)

    # acceptance sets that constrain nothing are dropped before degeneralizing
    relevant = [
        bit for bit in until_bits
        if any(not bit & marks for edges in moves.values() for _, marks, _ in edges)
    ]
    k = len(relevant)

    def advance(level, marks):
        j = 0 if level == k else level
        while j < k and relevant[j] & marks:
            j += 1
        return j

    # node (state, level) is number[node] = its place in nodes; rows[i] holds
    # node i's (target number, minterms) pairs, and level k accepts
    nodes = [(init, 0)]
    number = {nodes[0]: 0}
    rows = []
    for state, level in nodes:
        row = []
        for dst, marks, minterms in moves[state]:
            target = (dst, advance(level, marks))
            j = number.setdefault(target, len(nodes))
            if j == len(nodes):
                nodes.append(target)
            row.append((j, minterms))
        rows.append(row)
    accepting = [i for i, (_, level) in enumerate(nodes) if level == k]
    live = _live_states([[j for j, _ in row] for row in rows], accepting)
    live.add(0)
    names = {i: f"s{n}" for n, i in enumerate(sorted(live))}
    return BuchiAutomaton(
        states=names.values(),
        initial=(names[0],),
        props=atoms if props is None else props,
        edges=[Edge(names[i], Guard(atoms, minterms), names[j])
               for i in names for j, minterms in rows[i] if j in names],
        accepting=[names[i] for i in accepting if i in names],
    )


# ---------------------------------------------------------------------------
# totality


def is_total(automaton: BuchiAutomaton) -> bool:
    """Exactly one initial state and, for every state and letter, exactly one
    successor: every cell of the automaton's ``table`` holds one target."""
    return len(automaton.initial) == 1 and all(
        len(cell) == 1 for row in automaton.table for cell in row)


def _fresh_name(base, taken):
    name = base
    i = 2
    while name in taken:
        name = f"{base}_{i}"
        i += 1
    return name


def totalize(automaton: BuchiAutomaton):
    """A total automaton with the same language, or ``None``.

    Succeeds when the automaton, after unreachable-state pruning and
    guard merging between identical-target edges, is deterministic; missing
    letters are then routed to a fresh non-accepting sink.  ``None`` means
    the automaton is properly nondeterministic and out of scope for this
    completion (a value, not a failure).

    The search runs on state numbers (``index``): each reachable state's
    ``table`` row is grouped by target number, a cell with two targets
    gives ``None``, and a state is named only when its edges are emitted.
    """
    if len(automaton.initial) > 1:
        return None
    index, names, universe = automaton.index, automaton.states, automaton.props
    reachable, place = _discovery([index[s] for s in automaton.initial],
                                  lambda i: (index[e.dst] for e in automaton._out[i]))
    states = [names[i] for i in reachable]
    accepting = automaton.accepting.intersection(states)
    sink = _fresh_name("sink", set(states))
    edges, to_sink = [], []
    for i in reachable:
        # every target keeps an edge, even one whose guard no letter meets
        merged = {index[e.dst]: [] for e in automaton._out[i]}
        gaps = []
        for mask, cell in enumerate(automaton.table[i]):
            if len(cell) > 1:
                return None
            (merged[cell[0]] if cell else gaps).append(mask)
        for j in sorted(merged, key=place.__getitem__):
            edges.append(Edge(names[i], Guard(universe, frozenset(merged[j])), names[j]))
        if gaps:
            to_sink.append(Edge(names[i], Guard(universe, frozenset(gaps)), sink))
    initial = automaton.initial
    if to_sink or not initial:
        states.append(sink)
        edges += to_sink + [Edge(sink, guard_true(), sink)]
        initial = initial or (sink,)
    return BuchiAutomaton(states, initial, universe, edges, accepting)


# ---------------------------------------------------------------------------
# acceptance and emptiness


def accepting_lasso(root, successors, accepting, inside=None):
    """Some lasso from ``root`` whose cycle visits an accepting node and
    stays inside ``inside``, else ``None``.

    ``successors`` maps a node to its ordered successor tuple; ``accepting``
    and ``inside`` are predicates, and ``inside`` defaults to every node.
    The cycle is entered at the first accepting node, in breadth-first order
    from the root, that lies on a cycle of nodes inside.  The returned
    lasso's prefix is a shortest path from the root to that node inclusive,
    and the cycle a shortest walk inside its component from the node's
    successors back to it.

    One breadth-first pass numbers the reached nodes 0, 1, ... and keeps
    what :func:`_indexed_lasso` reads: each node's successors inside, its
    accepting flag and the node that discovered it.  ``successors``,
    ``accepting`` and ``inside`` are called once per reached node.  The
    cost is O(nodes + edges) of the reached graph.
    """
    order, place = [root], {root: 0}
    inner, parent, sub = [inside is None or inside(root)], [0], []
    for i, node in enumerate(order):
        row = []
        for nxt in successors(node):
            j = place.get(nxt)
            if j is None:
                j = place[nxt] = len(order)
                order.append(nxt)
                inner.append(inside is None or inside(nxt))
                parent.append(i)
            if inner[j]:
                row.append(j)
        sub.append(row if inner[i] else ())
    found = _indexed_lasso(sub, [accepting(n) for n in order], parent)
    if found is None:
        return None
    prefix, cycle = found
    return Lasso(tuple(order[i] for i in prefix), tuple(order[i] for i in cycle))


def _indexed_lasso(sub, accepting, parent):
    """:func:`accepting_lasso`'s search on a graph numbered in breadth-first
    discovery order from its root 0: ``sub[i]`` lists node ``i``'s
    successors inside in order (none when ``i`` is outside), ``accepting[i]``
    is its flag and ``parent[i]`` the node that discovered it.  Returns the
    prefix and cycle as lists of node numbers, or ``None``.  The prefix is
    the parent chain: the shortest path a breadth-first search would find.
    """
    # the entry's component is reached from the entry, so the search for
    # components need only start from accepting nodes
    marked = [i for i, flag in enumerate(accepting) if flag]
    comp = _cyclic_components(sub, marked)
    entry = next((i for i in marked if comp[i] >= 0), None)
    if entry is None:
        return None
    prefix = [entry]
    while prefix[-1]:
        prefix.append(parent[prefix[-1]])
    # no node outside the entry's component leads back into it, so the
    # search from its successors finds the walk inside the component
    return prefix[::-1], _bfs_path(sub[entry], entry, sub.__getitem__)


def _bfs_path(sources, dst, successors):
    """A shortest path, as a list, from one of ``sources`` to ``dst``, which
    must be reachable.  Ties go to earlier sources, then to earlier
    successors in ``successors(node)`` order."""
    parent = dict.fromkeys(sources)
    queue = list(parent)
    for node in queue:
        if dst in parent:
            break
        for nxt in successors(node):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def nba_accepts(automaton: BuchiAutomaton, word: Lasso) -> bool:
    """Whether some run over the ultimately periodic word visits an
    accepting state infinitely often."""

    def successors(node):
        pos, state = node
        nxt = word.successor(pos)
        return tuple((nxt, t) for t in automaton.successors(state, word.at(pos)))

    def is_accepting(node):
        return node[1] in automaton.accepting

    return any(
        accepting_lasso((1, s0), successors, is_accepting) is not None
        for s0 in automaton.initial
    )


# ---------------------------------------------------------------------------
# product with an alternating transition system


@dataclass(frozen=True, eq=False)
class ProductAutomaton:
    """Synchronous product of a system with a total specification
    automaton, restricted to the states reachable from its roots.

    The automaton component reads the valuation of the current world state,
    so every successor of a product state pairs a world successor with the
    same automaton state.  States are numbered in breadth-first discovery
    order from the roots, which come first.  ``states[i]`` names state
    ``i`` as a ``(world, automaton state)`` pair and ``accepting[i]`` tells
    whether its automaton state is accepting.

    A state's moves depend only on its world state and the automaton state
    of its targets, so they are kept once per such (world, next automaton
    state) pair: ``pair[i]`` is state ``i``'s pair, numbered in the order
    the search first reached it, and ``rows[p][c]`` is the tuple of the
    numbers of the states reached from pair ``p``'s states under the
    ``c``-th control of ``system``, in ``system.successors`` order.  Rows
    are tuples of tuples, so no reader can change them.
    """

    system: object
    states: tuple
    rows: list
    accepting: list
    pair: list


def product(system, roots, automaton: BuchiAutomaton, valuation) -> ProductAutomaton:
    """Product of the system rooted at each of ``roots`` (in order, repeats
    dropped) with a total automaton.

    The search runs on integers.  Node ``(q, x)`` is ``q * m + x``, for
    ``q`` numbered by ``system.index``, ``x`` by ``automaton.index`` and
    ``m`` automaton states; ``place[node]`` is its number in the product,
    -1 until the search reaches it.  A world state's label mask is read
    when the search first reaches it, and the automaton steps on its
    ``table``, to ``x2``.  The move row of pair ``(q, x2)`` is built from
    the system's successor rows the first time the pair is reached;
    ``pair_place[q * m + x2]`` holds its pair number, -1 until then.  Its
    targets were all placed when it was built, so keeping one row per
    pair does not change the numbering.
    """
    if not roots:
        raise AutomatonError("a product needs at least one root")
    index = system.index
    for q0 in roots:
        if q0 not in index:
            raise AutomatonError(f"unknown initial state {q0!r}")
    if not is_total(automaton):
        raise AutomatonError("specification automaton must be total")
    worlds, table, m = system.states, automaton.table, len(automaton.states)
    label_mask = cache(automaton.letter_mask)
    # per world state: its label's mask, -1 until the search reaches it
    mask = [-1] * len(worlds)
    place = [-1] * (len(worlds) * m)
    pair_place = [-1] * (len(worlds) * m)
    order = []
    x0 = automaton.index[automaton.initial[0]]
    for q0 in roots:
        node = index[q0] * m + x0
        if place[node] < 0:
            place[node] = len(order)
            order.append(node)
    pair, rows = [], []
    for node in order:
        q, x = divmod(node, m)
        letter = mask[q]
        if letter < 0:
            letter = mask[q] = label_mask(valuation.label(worlds[q]))
        x2 = table[x][letter][0]
        key = node - x + x2
        p = pair_place[key]
        if p < 0:
            p = pair_place[key] = len(rows)
            row = []
            for succ in system.rows[q]:
                targets = []
                for q2 in succ:
                    t = q2 * m + x2
                    j = place[t]
                    if j < 0:
                        j = place[t] = len(order)
                        order.append(t)
                    targets.append(j)
                row.append(tuple(targets))
            rows.append(tuple(row))
        pair.append(p)
    states = tuple((worlds[node // m], automaton.states[node % m]) for node in order)
    flags = [x in automaton.accepting for x in automaton.states]
    return ProductAutomaton(system, states, rows, [flags[node % m] for node in order], pair)
