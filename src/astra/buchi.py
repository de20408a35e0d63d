"""Buchi automata over proposition-set alphabets.

Provides translation of next-free temporal formulas into nondeterministic
Buchi automata, totality analysis and completion, synchronous products
with alternating transition systems, and lasso acceptance / emptiness
primitives.

Edges carry symbolic guards: boolean constraints over atomic propositions
standing for every letter (proposition subset) that satisfies them.  The
alphabet is the subsets of the atoms the guards read, not of every declared
proposition.  Inside the library a letter is an int mask (bit ``i`` is the
``i``-th proposition), and a guard keeps its minterms as masks over its
atoms.  An automaton keeps its edges as integer rows: per state, in edge
order, a target number and the frozenset of the letter masks over its
``props`` that take the edge.  Translation, ``is_total`` and ``totalize``
work on rows and build no ``Guard`` or ``Edge``.  An automaton's ``edges``
and its successor ``table``, which ``product`` steps on, are views built
from the rows when first read; one built from ``Edge`` objects keeps them
and lifts their guards into rows when first needed.

The translation first numbers the formula's distinct subformulas in one
walk, each as a shape over its operands' numbers kept in a unique table (the
table behind hash-consing), so structurally equal subformulas share a
number.  Its tableau then runs on integers: subformulas are numbers, a set
of literals is a pair of atom masks, and obligation sets, fulfilled sets
and acceptance marks are masks over the ranks of the formula's untils and
their negations.  No formula node is hashed or compared, and no step of the
translation recurses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property, cmp_to_key, partial

from . import ltl
from .core import Lasso
from .errors import AutomatonError, ExplosionGuard

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

# The most atoms a written guard may read: its truth tables take 2^atoms bits
# per atom, and a 20-atom conjunction reads in 0.1 s (22 atoms: 0.4 s, 41 MB).
GUARD_ATOMS = 20


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
    upper half, where it is true.  The operators are ``&`` and ``~``.  A
    guard reading more than ``GUARD_ATOMS`` atoms raises ``ExplosionGuard``."""
    expr = ltl.parse_formula(text, props=None)
    # the preorder walk takes any depth; hashing a deep until would recurse
    if any(isinstance(node, ltl.Until) for node in ltl._preorder(expr)):
        raise AutomatonError(f"guard {text!r} uses a temporal operator")
    atoms = tuple(sorted(ltl.atoms(expr)))
    if len(atoms) > GUARD_ATOMS:
        raise ExplosionGuard(f"guard {text!r} reads {len(atoms)} atoms (at most {GUARD_ATOMS})")
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
    """(states, initial, alphabet 2^props, edges, accepting).

    ``props`` are the atoms the guards read: the given ``props`` that some
    guard reads, each once in the given order, then any other guard atom in
    order of appearance.  A proposition no guard reads cannot change a run.

    ``index[s]`` numbers state ``s``.  The automaton keeps its edges as
    rows: ``_rows[i]`` lists state ``i``'s edges in edge order, each as
    ``(target number, frozenset of letter masks)``, a letter mask having bit
    ``j`` set when ``props[j]`` is true.  ``edges``, ``edges_from`` and
    ``table`` are views built from the rows on their first read:
    ``table[i][m]`` lists the numbers of state ``i``'s successors on letter
    mask ``m``, each once, in edge order.

    Built from ``Edge`` objects, the automaton keeps them as its ``edges``
    and turns each guard into its row on the first read of the rows: a
    minterm fixes the bits of its guard's atoms, as ``Guard.matches``
    projects a letter onto them, and each submask of the others is added.
    An undeclared state raises ``AutomatonError``.  Translation and
    ``totalize`` build automata from rows (``_from_rows``).  An automaton
    does not change, so ``is_total`` decides once and keeps the answer."""

    def __init__(self, states, initial, props, edges, accepting):
        self._declare(states, initial, accepting)
        self.edges = tuple(edges)
        index, read = self.index, {}
        for edge in self.edges:
            if edge.src not in index or edge.dst not in index:
                raise AutomatonError(
                    f"edge {edge.src!r} -> {edge.dst!r} references an undeclared state")
            read.update(dict.fromkeys(edge.guard.atoms))
        declared = [p for p in dict.fromkeys(props) if p in read]
        self.props = tuple(declared + [a for a in read if a not in declared])

    @classmethod
    def _from_rows(cls, states, initial, props, rows, accepting, atoms, sink=-1):
        """The automaton whose state ``i`` is ``states[i]`` with the edges
        ``rows[i]`` over ``props``.  Its ``edges`` view has guards over
        ``atoms``, which must hold every prop, and lists the rows into state
        number ``sink`` after all others, the sink's own as ``guard_true()``."""
        automaton = cls.__new__(cls)
        automaton._declare(states, initial, accepting)
        automaton.props, automaton._rows = tuple(props), rows
        automaton._atoms, automaton._sink = atoms, sink
        return automaton

    def _declare(self, states, initial, accepting):
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

    @cached_property
    def _rows(self) -> list:
        bit = {p: 1 << i for i, p in enumerate(self.props)}
        full = (1 << len(self.props)) - 1
        rows = [[] for _ in self.states]
        # lifts[atoms][m]: the props mask of the mask m over atoms
        lifts = {}
        for edge in self.edges:
            lift = lifts.get(edge.guard.atoms)
            if lift is None:
                lift = lifts[edge.guard.atoms] = [0]
                for a in edge.guard.atoms:
                    lift += [m | bit[a] for m in lift]
            subs = list(_submasks(full & ~lift[-1]))
            rows[self.index[edge.src]].append((self.index[edge.dst], frozenset(
                lift[m] | sub for m in edge.guard.minterms for sub in subs)))
        return rows

    @cached_property
    def edges(self) -> tuple:
        atoms, sink, names = self._atoms, self._sink, self.states
        # to_atoms[m]: the mask over atoms of the props mask m
        to_atoms = [0]
        for p in self.props:
            to_atoms += [m | 1 << atoms.index(p) for m in to_atoms]
        edges, last = [], []
        for i, row in enumerate(self._rows):
            for j, letters in row:
                guard = guard_true() if i == sink else Guard(
                    atoms, frozenset(to_atoms[m] for m in letters))
                (last if j == sink else edges).append(Edge(names[i], guard, names[j]))
        return tuple(edges + last)

    @cached_property
    def table(self) -> list:
        size = 1 << len(self.props)
        table = []
        for row in self._rows:
            cells = [()] * size
            for t, letters in row:
                for m in letters:
                    cell = cells[m]
                    if t not in cell:
                        cells[m] = cell + (t,)
            table.append(cells)
        return table

    @cached_property
    def _total(self) -> bool:
        """``is_total``'s answer, kept: an automaton does not change."""
        if len(self.initial) != 1:
            return False
        size = 1 << len(self.props)
        for row in self._rows:
            found = _targets(row)
            if found is None or len(found[1]) != size:
                return False
        return True

    def _number(self, state) -> int:
        i = self.index.get(state)
        if i is None:
            raise AutomatonError(f"unknown automaton state {state!r}")
        return i

    def edges_from(self, state) -> tuple:
        name = self.states[self._number(state)]
        return tuple(edge for edge in self.edges if edge.src == name)

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
# translation: numbered subformulas -> obligation-set tableau ->
# transition-marked generalized automaton -> nondeterministic Buchi automaton


# subformula tags, in sort order: a subformula sorts by its tag, then by its
# atom's name or its operands, left first
_TRUE, _ATOM, _NOT, _AND, _UNTIL = range(5)
_TAGS = {ltl.TrueF: _TRUE, ltl.Atom: _ATOM, ltl.Not: _NOT, ltl.And: _AND, ltl.Until: _UNTIL}


def _number(shapes, table, shape) -> int:
    """The number of ``shape``, added to ``shapes`` and ``table`` when new."""
    n = table.setdefault(shape, len(shapes))
    if n == len(shapes):
        shapes.append(shape)
    return n


def _subformulas(formula):
    """Number the distinct subformulas of ``formula`` in one walk.

    Subformula ``n`` is ``shapes[n]``: ``(_TRUE,)``, ``(_ATOM, name)``,
    ``(_NOT, i)``, ``(_AND, i, j)`` or ``(_UNTIL, i, j)`` over its operands'
    numbers, and ``table`` maps a shape back to its number, so structurally
    equal subformulas share one number however their nodes are shared.
    Nodes are numbered by ``id``: the formula outlives the call, and no node
    is hashed or compared.  Returns ``(shapes, table, root, untils)``:
    ``root`` numbers the formula and ``untils`` lists the distinct untils in
    first-visit preorder, left operand first."""
    shapes, table, number, visited = [], {}, {}, []
    # (node, ready): a node is numbered once its operands are
    stack = [(formula, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in number:
            continue
        tag = _TAGS[node.__class__]
        if tag == _ATOM:
            shape = (_ATOM, node.name)
        elif tag == _TRUE:
            shape = (_TRUE,)
        elif not ready:
            if tag == _UNTIL:
                visited.append(node)
            stack.append((node, True))
            if tag == _NOT:
                stack.append((node.arg, False))
            else:
                stack += ((node.right, False), (node.left, False))
            continue
        elif tag == _NOT:
            shape = (_NOT, number[id(node.arg)])
        else:
            shape = (tag, number[id(node.left)], number[id(node.right)])
        number[id(node)] = _number(shapes, table, shape)
    untils = list(dict.fromkeys(number[id(node)] for node in visited))
    return shapes, table, number[id(formula)], untils


def _shape_order(shapes, a, b) -> int:
    """-1, 0 or 1 as subformula ``a`` sorts before, as or after ``b``.  Equal
    shapes share a number, so the first operands that differ decide, and
    the comparison walks down one path of both, without recursion."""
    while a != b:
        x, y = shapes[a], shapes[b]
        if x[0] != y[0] or x[0] == _ATOM:
            return -1 if x < y else 1
        a, b = (x[1], y[1]) if x[1] != y[1] else (x[2], y[2])
    return 0


def _cross(combos1, combos2):
    """The consistent unions of a decomposition of each set.  Past
    ``TABLEAU_DECOMPOSITIONS`` it raises ``ExplosionGuard`` at the first row
    of the smaller set that takes the result there, so the whole cross of
    two large sets is never built."""
    if len(combos2) < len(combos1):
        combos1, combos2 = combos2, combos1
    result = set()
    for p1, n1, x1, f1 in combos1:
        result.update((p1 | p2, n1 | n2, x1 | x2, f1 | f2) for p2, n2, x2, f2 in combos2
                      if not (p1 | p2) & (n1 | n2))
        _bounded(result)
    return result


_UNIT = frozenset({(0, 0, 0, 0)})
_FLIP = str.maketrans("01", "10")

# The most decompositions one tableau set may hold: an obligation's, from
# ``_expansions``, or a state's after each cross, which ``_cross`` checks as
# it builds.  Their number sets the cost, as ``_prune_subsumed`` compares a
# state's edges pairwise, and it can double per operator: !(p1 U p1 U ... U p1) over n atoms needs 2^(n-1).
# On a 2-vCPU virtual machine that chain translates in 0.6 s at 12 atoms
# (2048) and 2.3 s at 13 (4096), and at 300 atoms it ran out of memory;
# (G F)^8 p needs 1830 (1.9 s) and (G F)^9 p 4791 (15 s), while the test
# corpora and the benchmark workloads stay at or below 267.  2048 keeps
# (G F)^8 p and the 12-atom chain and stops the next step of both.  The
# chain itself needs one per atom; 3000 atoms took 21.5 s and 3.8 GB.
TABLEAU_DECOMPOSITIONS = 2048


def _bounded(decompositions):
    """``decompositions``, once it is checked to hold at most
    ``TABLEAU_DECOMPOSITIONS``."""
    if len(decompositions) > TABLEAU_DECOMPOSITIONS:
        raise ExplosionGuard(
            f"a tableau set holds {len(decompositions)} decompositions "
            f"(at most {TABLEAU_DECOMPOSITIONS})")
    return decompositions


def _expansions(root, memo, rank, shapes, table):
    """Decompositions of obligation ``root``, a subformula number: the set
    of (atoms true now, atoms false now, obligations next, untils fulfilled
    now), each a bit mask.  ``memo`` starts with the decomposition of every
    literal, and ``rank`` gives the bit of each until and of its negation.
    A negation is pushed inward onto the numbers of its operands'
    negations, which join ``shapes``.  Any run step discharging the
    obligation must match one decomposition; their order does not matter
    (see :func:`ltl_to_buchi`).

    The walk keeps its own stack: ``(n, None)`` asks for subformula ``n``,
    and ``(n, parts)`` builds it once the decompositions of its parts are in
    ``memo``."""
    stack = [(root, None)]
    while stack:
        n, parts = stack.pop()
        if n in memo:
            continue
        shape = shapes[n]
        if parts is None:
            if shape[0] == _NOT:
                arg = shapes[shape[1]]
                # !!a needs a, !(a & b) and !(a U b) need !a and !b, !true nothing
                parts = ([_number(shapes, table, (_NOT, i)) for i in arg[1:]]
                         if arg[0] == _AND or arg[0] == _UNTIL else arg[1:])
            else:
                parts = shape[1:]
            stack.append((n, parts))
            stack += [(i, None) for i in parts if i not in memo]
            continue
        if shape[0] == _TRUE:
            result = _UNIT
        elif shape[0] == _AND:
            result = _cross(memo[parts[0]], memo[parts[1]])
        elif shape[0] == _UNTIL:
            u = rank[n]
            result = ({(p, q, x, f | u) for p, q, x, f in memo[parts[1]]}
                      | {(p, q, x | u, f) for p, q, x, f in memo[parts[0]]})
        elif not parts:
            result = set()
        elif len(parts) == 1:
            result = memo[parts[0]]
        elif shapes[shape[1]][0] == _AND:
            result = memo[parts[0]] | memo[parts[1]]
        else:
            # !(a U b)  ==  !b & (!a | next !(a U b))
            result = _cross(memo[parts[1]], memo[parts[0]] | {(0, 0, rank[n], 0)})
        memo[n] = _bounded(result)
    return memo[root]


def _bits(mask):
    """The set bits of ``mask``, ascending.  One scan of its binary digits,
    lowest first, so this is linear in the mask's length (a shift per bit
    would copy the mask once per bit)."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


def _bits_key(mask):
    """Sorts masks as their ``_bits`` lists do: binary digits lowest first,
    0 and 1 swapped, so a lower set bit and a prefix sort first."""
    return bin(mask)[:1:-1].translate(_FLIP) if mask else ""


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

    The tableau runs on the numbers of the formula's distinct subformulas
    (see ``_subformulas``) and on bit masks.  No formula node is hashed,
    compared or walked after the numbering, and no step recurses, so
    translation has no nesting limit; a set of decompositions past
    ``TABLEAU_DECOMPOSITIONS`` raises ``ExplosionGuard`` instead.  The
    atoms are ordered as the automaton's ``props`` will be, and atom ``i``
    is bit ``i`` of a literal mask and of a letter mask, so each edge's
    letter set is its row as it is.  After the
    first step a state holds only untils and their negations; sorted once,
    by tag, then atom name or operands, left first (``_shape_order``), rank
    ``i`` is bit ``i`` of an obligation, fulfilled or mark mask, and the
    initial state's other conjuncts take the bits after them.  A state's
    edges are sorted by the ascending set bits of (next, fulfilled), which
    orders them as their sorted subformulas would, so decompositions are
    crossed and merged as unordered sets.  Each obligation set's edges are
    kept once, in ``moves``, which is also the search's seen-set.

    The degeneralized (obligation set, level) nodes are numbered in one
    dict as they are discovered, and their edges, acceptance and liveness
    are kept by number.  Names come last: the live nodes, in number order,
    become ``s0``, ``s1``, ... as the automaton's rows are emitted.  The
    ``edges`` view reads them over the sorted atoms.

    ``props`` only orders the formula's atoms in the automaton's ``props``
    (and so in the guard text ``totalize`` renders); it does not widen the
    alphabet by propositions the formula does not read.
    """
    shapes, table, root, untils = _subformulas(formula)
    atoms = tuple(sorted(shape[1] for shape in shapes if shape[0] == _ATOM))
    alphabet = tuple(dict.fromkeys([*(p for p in props or () if p in atoms), *atoms]))
    memo = {}
    for i, a in enumerate(alphabet):
        n = table[_ATOM, a]
        memo[n] = {(1 << i, 0, 0, 0)}
        memo[_number(shapes, table, (_NOT, n))] = {(0, 1 << i, 0, 0)}
    # every negation sorts before every until, and in the untils' order
    ranked = sorted(untils, key=cmp_to_key(partial(_shape_order, shapes)))
    rank = {_number(shapes, table, (_NOT, u)): 1 << i for i, u in enumerate(ranked)}
    for u in ranked:
        rank[u] = 1 << len(rank)
    # the formula's conjuncts other than true, each once, in the order a
    # stack pops them, right operand first
    seen, stack = {}, [root]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen[n] = None
            if shapes[n][0] == _AND:
                stack += shapes[n][1:]
    conjuncts = [n for n in seen if shapes[n][0] != _AND and shapes[n][0] != _TRUE]
    for n in conjuncts:
        rank.setdefault(n, 1 << len(rank))
    obligations = list(rank)
    until_bits = [rank[u] for u in untils]
    until_mask = sum(until_bits)
    full = (1 << len(atoms)) - 1
    steps = {}

    # moves: obligation set -> its edges, and the set of those discovered
    init = sum(rank[n] for n in conjuncts)
    moves = {init: None}
    order = [init]
    for state in order:
        combos = _UNIT
        for i in _bits(state):
            if i not in steps:
                steps[i] = _expansions(obligations[i], memo, rank, shapes, table)
            combos = _cross(combos, steps[i])
        merged = {}
        for pos, neg, nexts, fulfilled in combos:
            merged.setdefault((nexts, fulfilled), set()).update(
                pos | sub for sub in _submasks(full & ~(pos | neg)))
        moves[state] = _prune_subsumed([
            (nexts, until_mask & ~nexts | fulfilled, merged[nexts, fulfilled])
            for nexts, fulfilled in sorted(merged, key=lambda k: (_bits_key(k[0]), _bits_key(k[1])))
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
    kept = {i: n for n, i in enumerate(sorted(live))}
    rows = [[(kept[j], minterms) for j, minterms in rows[i] if j in kept] for i in kept]
    return BuchiAutomaton._from_rows(
        states=[f"s{n}" for n in kept.values()],
        initial=("s0",),
        props=alphabet if any(rows) else (),
        rows=rows,
        accepting=[f"s{kept[i]}" for i in accepting if i in kept],
        atoms=atoms,
    )


# ---------------------------------------------------------------------------
# totality


def _targets(row):
    """Per target of ``row``, a state's edge rows, in row order: the union
    of its rows' letter sets, kept even when it is empty.  Returns
    ``(merged, covered)``, ``covered`` being the letters some row holds, or
    ``None`` when two targets share a letter, so the state is
    nondeterministic."""
    merged = {}
    for t, letters in row:
        merged[t] = merged[t] | letters if t in merged else letters
    covered = frozenset().union(*merged.values())
    if len(covered) != sum(map(len, merged.values())):
        return None
    return merged, covered


def is_total(automaton: BuchiAutomaton) -> bool:
    """Exactly one initial state and, for every state and letter, exactly one
    successor: each state's targets (see ``_targets``) share no letter and
    together hold all of them.  Decided once per automaton (``_total``)."""
    return automaton._total


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

    The search runs on state numbers (``index``) and rows: each reachable
    state's letter sets are merged per target (``_targets``), in the order
    the search discovered the targets, and the letters none of them holds
    make the state's row into the sink.  The edges view renders every guard
    over ``props``.
    """
    if len(automaton.initial) > 1:
        return None
    index, rows = automaton.index, automaton._rows
    reachable, place = _discovery([index[s] for s in automaton.initial],
                                  lambda i: (j for j, _ in rows[i]))
    props = automaton.props if reachable else ()
    size, sink = 1 << len(props), len(reachable)
    total, gapped = [], False
    for i in reachable:
        found = _targets(rows[i])
        if found is None:
            return None
        merged, covered = found
        row = [(place[j], merged[j]) for j in sorted(merged, key=place.__getitem__)]
        if len(covered) < size:
            row.append((sink, frozenset(range(size)).difference(covered)))
            gapped = True
        total.append(row)
    states = [automaton.states[i] for i in reachable]
    accepting = automaton.accepting.intersection(states)
    initial = automaton.initial
    if gapped or not initial:
        states.append(_fresh_name("sink", set(states)))
        total.append([(sink, frozenset(range(size)))])
        initial = initial or (states[-1],)
    return BuchiAutomaton._from_rows(states, initial, props, total, accepting, props, sink)


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
