"""Independent oracles for the test suite.

Everything here decides properties by a different route than the library:
truncated unrolling for formula satisfaction, networkx cycle enumeration
for emptiness, exhaustive positional-strategy search for games, the
layer-by-layer rescanning Buchi game solver over a tagged-node arena,
synthesis by one such game per candidate initial state, the per-state
counter game the library played before states shared move rows,
exhaustive plan-path matching for observed histories, automaton
completion over every declared proposition, automaton steps by a scan of
the state's edges with ``Guard.matches`` (the library steps on its
compiled successor table), guard text read by evaluating it per letter
(the library reads it in one truth-table pass), and recurrence-free
outcome prefixes found by rescanning every extension.  These stay
independent of the code paths they check.

The lasso, reachable-cycle and simplification references at the end are
the earlier quadratic implementations, kept to pin the exact outputs of
the linear ones: a cycle search confined to an explicit component map,
one breadth-first search per plan state, and prefix and suffix rescans.
The plan-violation references after them search the plan x automaton
product keyed by ``(plan state, automaton state)`` tuples, with Tarjan
over dicts, as the library did before it numbered the product.
The system x automaton product reference near the end keeps one target
list per (state, control, disturbance), keyed by product-state tuples, as
the library did before it kept one move list per (state, control); the
adversary reference after it plays ``astra simulate --policy adversarial``
on those tuples.  ``TupleProduct`` reads the library's numbered product
through its state names for the oracles that walk product states.
"""

import math
from itertools import combinations

import networkx as nx

from astra import buchi, ltl
from astra.core import Lasso
from astra.plan import SCR, Controller, ReactivePlan


def formula_size(formula):
    """The number of nodes of a core-grammar formula."""
    if isinstance(formula, (ltl.TrueF, ltl.Atom)):
        return 1
    if isinstance(formula, ltl.Not):
        return 1 + formula_size(formula.arg)
    return 1 + formula_size(formula.left) + formula_size(formula.right)


def oracle_eval(word, formula, position=1):
    """Unrolling evaluator: truth tables are computed bottom-up over an
    unrolled horizon whose end folds back one cycle length, and until is
    iterated from all-false to its least fixpoint on that folded range."""
    horizon = word.classes * (formula_size(formula) + 2) + position
    cycle_len = len(word.cycle)
    positions = range(1, horizon + 1)

    def nxt(i):
        return i + 1 if i < horizon else horizon + 1 - cycle_len

    def table(node):
        if isinstance(node, ltl.TrueF):
            return {i: True for i in positions}
        if isinstance(node, ltl.Atom):
            return {i: node.name in word.at(i) for i in positions}
        if isinstance(node, ltl.Not):
            inner = table(node.arg)
            return {i: not inner[i] for i in positions}
        left = table(node.left)
        right = table(node.right)
        if isinstance(node, ltl.And):
            return {i: left[i] and right[i] for i in positions}
        until = {i: False for i in positions}
        changed = True
        while changed:
            changed = False
            for i in reversed(positions):
                value = right[i] or (left[i] and until[nxt(i)])
                if value != until[i]:
                    until[i] = value
                    changed = True
        return until

    return table(formula)[position]


def graph_of(nodes, successors):
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    for n in nodes:
        for t in successors(n):
            g.add_edge(n, t)
    return g


def accepting_lasso_exists(nodes, successors, root, accepting):
    """Simple-cycle enumeration: some cycle touching an accepting node is
    reachable from the root."""
    g = graph_of(nodes, successors)
    if root not in g:
        return False
    reach = {root} | nx.descendants(g, root)
    for cycle in nx.simple_cycles(g):
        if any(n in accepting for n in cycle) and cycle[0] in reach:
            return True
    return False


def has_rejecting_cycle(nodes, successors, root, accepting):
    """Some reachable cycle entirely outside the accepting set."""
    g = graph_of(nodes, successors)
    reach = {root} | nx.descendants(g, root)
    for cycle in nx.simple_cycles(g):
        if all(n not in accepting for n in cycle) and cycle[0] in reach:
            return True
    return False


class TupleProduct:
    """A ``buchi.ProductAutomaton`` read through its state names, as the
    library read it before the product kept only state numbers:
    ``initial`` names state 0, ``accepting`` is the set of accepting names,
    ``index`` maps a name to its number, and ``successors(state, control)``
    lists the names reached under a control in discovery order."""

    def __init__(self, product):
        self.states = product.states
        self.initial = product.states[0]
        self.controls = product.system.controls
        self.accepting = frozenset(
            s for s, flag in zip(product.states, product.accepting) if flag)
        self.index = {s: i for i, s in enumerate(product.states)}
        self.moves = [product.rows[p] for p in product.pair]

    def successors(self, state, control):
        row = self.moves[self.index[state]][self.controls.index(control)]
        return tuple(self.states[j] for j in sorted(row))


def positional_winner_exists(prod, node_budget=None):
    """Exhaustive search over positional strategies on the product.

    Explores action assignments only for states actually reached under the
    partial strategy, pruning any branch whose assigned portion already
    contains a reachable cycle through non-accepting states (the adversary
    can trap the play there forever).
    """
    prod = TupleProduct(prod)

    def closure(assign):
        reach = [prod.initial]
        seen = {prod.initial}
        frontier = []
        for state in reach:
            if state not in assign:
                if state not in frontier:
                    frontier.append(state)
                continue
            for t in prod.successors(state, assign[state]):
                if t not in seen:
                    seen.add(t)
                    reach.append(t)
        return reach, frontier

    def trapped(assign, reach):
        g = nx.DiGraph()
        bad = [s for s in reach if s in assign and s not in prod.accepting]
        g.add_nodes_from(bad)
        bad_set = set(bad)
        for s in bad:
            for t in prod.successors(s, assign[s]):
                if t in bad_set:
                    g.add_edge(s, t)
        try:
            nx.find_cycle(g)
            return True
        except nx.NetworkXNoCycle:
            return False

    def search(assign):
        reach, frontier = closure(assign)
        if trapped(assign, reach):
            return False
        if not frontier:
            return True
        state = frontier[0]
        for action in prod.controls:
            assign[state] = action
            if search(assign):
                del assign[state]
                return True
        del assign[state]
        return False

    return search({})


class TaggedArena:
    """The bipartite game graph of a product, built node by node: control
    owns the ``("s", state)`` nodes and picks a control, the adversary owns
    the ``("c", state, control)`` choice nodes and picks any successor.
    A choice node exists only for a control with successors."""

    def __init__(self, product):
        product = self.product = TupleProduct(product)
        self.control_nodes = tuple(("s", s) for s in product.states)
        self.accepting = frozenset(("s", s) for s in product.accepting)
        self.moves = {}
        for node in self.control_nodes:
            choices = []
            for a in product.controls:
                targets = product.successors(node[1], a)
                if targets:
                    self.moves[("c", node[1], a)] = tuple(("s", t) for t in targets)
                    choices.append(("c", node[1], a))
            self.moves[node] = tuple(choices)
        self.choice_nodes = tuple(c for n in self.control_nodes for c in self.moves[n])
        self.nodes = self.control_nodes + self.choice_nodes

    def is_control(self, node):
        return node[0] == "s"


def layered_buchi_solution(arena):
    """Reference Buchi game solver: ``(winning, strategy, rank)``.

    Every attractor layer rescans all arena nodes: a control node joins
    when some move enters the ranked set, an adversary node when every
    move does.  The nested fixpoint, the ranks and the tie-breaks (rank,
    then declared action order) are those the library promises.
    """

    def controllable_predecessors(target):
        out = set()
        for node in arena.nodes:
            succs = arena.moves[node]
            if arena.is_control(node):
                if any(s in target for s in succs):
                    out.add(node)
            elif all(s in target for s in succs):
                out.add(node)
        return out

    def attractor(target):
        rank = {node: 0 for node in target}
        frontier = set(target)
        layer = 0
        while frontier:
            layer += 1
            grown = set()
            for node in arena.nodes:
                if node in rank:
                    continue
                succs = arena.moves[node]
                if arena.is_control(node):
                    if any(s in rank for s in succs):
                        grown.add(node)
                elif all(s in rank for s in succs):
                    grown.add(node)
            for node in grown:
                rank[node] = layer
            frontier = grown
        return rank

    region = set(arena.nodes)
    while True:
        cpre = controllable_predecessors(region)
        recurrent = {n for n in arena.accepting if n in region and n in cpre}
        rank = attractor(recurrent)
        if set(rank) == region:
            break
        region = set(rank)

    action_order = {a: i for i, a in enumerate(arena.product.controls)}
    strategy = {}
    for node in arena.control_nodes:
        if node not in region:
            continue
        candidates = sorted(
            (rank[choice], action_order[choice[2]], choice[2])
            for choice in arena.moves[node] if choice in region
        )
        if candidates:
            strategy[node[1]] = candidates[0][2]
    return frozenset(region), strategy, rank


def per_state_buchi_game(product):
    """``(strategy, rank)`` of ``planner.solve_buchi_game`` by the counter
    attractor the library ran before states shared move rows: one
    predecessor entry, unranked counter and completion layer per (state,
    control) choice, and a state enters at its own first complete choice.
    The nested fixpoint and the tie-breaks (layer, then declared control
    order) are the library's."""
    n, k = len(product.states), len(product.system.controls)
    predecessors = [[] for _ in range(n)]
    sizes = []
    for row in [product.rows[p] for p in product.pair]:
        for targets in row:
            for j in targets:
                predecessors[j].append(len(sizes))
            sizes.append(len(targets))

    def attractor(target):
        rank = [-1] * n
        for j in target:
            rank[j] = 0
        unranked, complete = sizes[:], [0] * len(sizes)
        queue = list(target)
        for j in queue:
            for choice in predecessors[j]:
                unranked[choice] -= 1
                if unranked[choice] == 0:
                    complete[choice] = rank[j] + 1
                    i = choice // k
                    if rank[i] < 0:
                        rank[i] = rank[j] + 1
                        queue.append(i)
        return rank, queue, complete

    rank, won, complete = [0] * n, range(n), [1] * len(sizes)
    while True:
        recurrent = [i for i, flag in enumerate(product.accepting)
                     if flag and rank[i] >= 0 and any(complete[i * k:i * k + k])]
        size = len(won)
        rank, won, complete = attractor(recurrent)
        if len(won) == size:
            break
    strategy = [-1] * n
    for i in won:
        layers = [(complete[i * k + c], c) for c in range(k) if complete[i * k + c]]
        strategy[i] = min(layers)[1] if layers else 0
    return strategy, rank


def per_candidate_synthesis(system, spec, valuation, initial_hint=None):
    """``(status, initial, plan)`` by the loop over candidates: for each
    initial state in declared order (or ``initial_hint`` alone), a product
    rooted there alone, its ``TaggedArena`` game solved by
    ``layered_buchi_solution``, and on the first win the strategy unfolded
    breadth-first in that product's successor order and simplified."""
    if spec is None:
        return "unknown", None, None
    candidates = [initial_hint] if initial_hint is not None else system.states
    for q0 in candidates:
        arena = TaggedArena(buchi.product(system, [q0], spec, valuation))
        winning, strategy, _ = layered_buchi_solution(arena)
        prod = arena.product
        if ("s", prod.initial) not in winning:
            continue
        ids, order = {prod.initial: 1}, [prod.initial]
        for state in order:
            for target in prod.successors(state, strategy[state]):
                if target not in ids:
                    ids[target] = len(order) + 1
                    order.append(target)
        plan = ReactivePlan([
            SCR(ids[s], s[0], strategy[s],
                frozenset(ids[t] for t in prod.successors(s, strategy[s])))
            for s in order
        ])
        return "found", q0, on_path_simplify_plan(plan)
    return "not-found", None, None


def recurrence_index(sequence, accepting):
    """The first position whose accepting state already occurred earlier,
    or infinity when no accepting state recurs.  Positions are 1-based."""
    seen = set()
    for n, state in enumerate(sequence, start=1):
        if state in accepting and state in seen:
            return n
        seen.add(state)
    return math.inf


def rescanning_accepting_system(product, controller):
    """``(nodes, actions, edges)`` of the recurrence-free outcome prefixes
    of a winning controller, by the definition: every extension is tested
    with ``recurrence_index``, and a repeating one folds back to the one
    recurrence-free prefix of it that ends in its last state.  Nodes are
    sequences of state names."""
    product = TupleProduct(product)
    root = (product.initial,)
    nodes, ids = [root], {root: 0}
    fed = {root: controller.feed(product.initial[0])}
    actions, edges = [], []
    for node in nodes:
        ctrl, action = fed[node]
        actions.append(action)
        targets = []
        for successor in product.successors(node[-1], action):
            extension = node + (successor,)
            if recurrence_index(extension, product.accepting) == math.inf:
                if extension not in ids:
                    ids[extension] = len(nodes)
                    nodes.append(extension)
                    fed[extension] = ctrl.feed(successor[0])
                target = extension
            else:
                (target,) = [
                    extension[: j + 1] for j in range(len(node))
                    if node[j] == successor
                    and recurrence_index(node[: j + 1], product.accepting) == math.inf
                ]
            if ids[target] not in targets:
                targets.append(ids[target])
        edges.append(tuple(targets))
    return tuple(nodes), tuple(actions), tuple(edges)


def matching_paths(plan, history):
    """Every plan-state path from plan state 1 whose worlds spell out the
    observed history, found by extending all candidate paths."""
    found = [[1]] if plan.world_of(1) == history[0] else []
    for observed in history[1:]:
        grown = []
        for path in found:
            for j in plan.successor_ids(path[-1]):
                if plan.world_of(j) == observed:
                    grown.append(path + [j])
        found = grown
    return found


def closed_loop_lassos(system, controller, start, bound, cap=10**6):
    """Lassos of the closed loop built by stepping the controller against
    the system, independently of the plan-graph enumeration."""
    from astra.errors import ExplosionGuard
    from astra.plan import Controller

    first, _ = controller.feed(start)
    root = (first.cursor, start)

    def successors(node):
        cursor, state = node
        ctrl = Controller(controller.plan, cursor)
        action = (
            ctrl.default_action
            if ctrl.detached
            else controller.plan.by_id[cursor].action
        )
        out = []
        for q2 in system.successors(state, action):
            stepped, _ = ctrl.feed(q2)
            out.append((stepped.cursor, q2))
        return out

    found = set()
    walks = [(root,)]
    examined = 0
    while walks:
        walk = walks.pop()
        examined += 1
        if examined > cap:
            raise ExplosionGuard(f"more than {cap} closed-loop walks")
        for nxt in successors(walk[-1]):
            for t, node in enumerate(walk):
                if node == nxt:
                    prefix = tuple(s for _, s in walk[:t])
                    cycle = tuple(s for _, s in walk[t:])
                    found.add(Lasso(prefix, cycle).canonical())
            if len(walk) < bound:
                walks.append(walk + (nxt,))
    return frozenset(found)


def replayable_on_plan(plan, lasso):
    """Whether the world lasso is a trajectory generated by the plan,
    decided on the product of the lasso's position graph with the plan."""
    positions = range(1, lasso.classes + 1)
    nodes = [
        (pos, s.id) for pos in positions for s in plan.scrs
        if s.world == lasso.at(pos)
    ]
    node_set = set(nodes)
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    for pos, pid in nodes:
        nxt_pos = lasso.successor(pos)
        for j in plan.successor_ids(pid):
            if (nxt_pos, j) in node_set:
                g.add_edge((pos, pid), (nxt_pos, j))
    root = (1, 1)
    if root not in node_set:
        return False
    reach = {root} | nx.descendants(g, root)
    sub = g.subgraph(reach)
    try:
        nx.find_cycle(sub)
        return True
    except nx.NetworkXNoCycle:
        return False


def edge_successors(automaton, state, letter):
    """The targets of ``state``'s edges whose guards match ``letter``, each
    once, in edge order: an automaton step by the guards' own semantics."""
    seen = []
    for edge in automaton.edges_from(state):
        if edge.guard.matches(letter) and edge.dst not in seen:
            seen.append(edge.dst)
    return tuple(seen)


def all_letters(props) -> tuple:
    """Every subset of ``props``; the one at position ``m`` has mask ``m``."""
    props = tuple(props)
    return tuple(frozenset(p for i, p in enumerate(props) if mask >> i & 1)
                 for mask in range(2 ** len(props)))


def letter_masks(props, letters):
    """The masks over ``props`` of ``letters`` (sets of propositions), as
    the library encodes letters: bit ``i`` is ``props[i]``."""
    return frozenset(sum(1 << i for i, p in enumerate(props) if p in letter)
                     for letter in letters)


def per_letter_guard(text):
    """The atoms and minterm masks of a written non-temporal guard, found
    by evaluating it with ``ltl.eval_lasso`` on the one-letter lasso of
    every letter of its atoms, as the library read guard text before its
    one-pass truth table."""
    expr = ltl.parse_formula(text, props=None)
    atoms = tuple(sorted(ltl.atoms(expr)))
    return atoms, frozenset(m for m, letter in enumerate(all_letters(atoms))
                            if ltl.eval_lasso(Lasso((), (letter,)), expr))


def guard_from_minterms(atoms, minterms):
    """A ``Guard`` over ``atoms`` holding each minterm of ``minterms``,
    given as the set of atoms it makes true."""
    atoms = tuple(atoms)
    return buchi.Guard(atoms, letter_masks(atoms, minterms))


def reference_totalize(automaton, declared):
    """Completion over every declared proposition, read or not: each guard's
    minterms are lifted to all letters over ``declared`` (then any other
    guard atom), merged per (source, target), checked for overlap, and the
    merged and missing letter sets rendered over all of those propositions.
    Guard text comes from the library's renderer, so what this checks is the
    alphabet, not the rendering.

    Returns ``(states, initial, accepting, [(src, guard text, dst)])``, or
    ``None`` when the automaton is properly nondeterministic.
    """
    if len(automaton.initial) > 1:
        return None
    universe = tuple(declared) + tuple(a for a in automaton.props if a not in declared)

    def subsets(props):
        return [frozenset(c) for k in range(len(props) + 1)
                for c in combinations(props, k)]

    def lift(guard):
        free = [p for p in universe if p not in guard.atoms]
        letters = {frozenset(a for i, a in enumerate(guard.atoms) if m >> i & 1)
                   for m in guard.minterms}
        return {m | extra for m in letters for extra in subsets(free)}

    def render(letters):
        return buchi._render_dnf(universe, letter_masks(universe, letters))

    reachable = list(automaton.initial)
    for state in reachable:
        for edge in automaton.edges_from(state):
            if edge.dst not in reachable:
                reachable.append(edge.dst)
    merged = {}
    for state in reachable:
        for edge in automaton.edges_from(state):
            merged.setdefault((state, edge.dst), set()).update(lift(edge.guard))
    full = set(subsets(universe))
    edges = []
    missing = {}
    for state in reachable:
        covered = set()
        for dst in reachable:
            minterms = merged.get((state, dst))
            if minterms is None:
                continue
            if covered & minterms:
                return None
            covered |= minterms
            edges.append((state, render(minterms), dst))
        missing[state] = full - covered
    states = list(reachable)
    initial = automaton.initial
    if any(missing.values()) or not initial:
        sink = "sink"
        i = 2
        while sink in states:
            sink = f"sink_{i}"
            i += 1
        states.append(sink)
        edges += [(s, render(missing[s]), sink)
                  for s in reachable if missing[s]]
        edges.append((sink, "true", sink))
        initial = initial or (sink,)
    return tuple(states), tuple(initial), automaton.accepting & set(reachable), edges


def shortest_path(sources, dst, successors):
    """A shortest path from one of ``sources`` to ``dst`` as a list, or
    ``None``; ties go to earlier sources, then to earlier successors."""
    parent = dict.fromkeys(sources)
    queue = list(parent)
    for node in queue:
        for nxt in successors(node):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    if dst not in parent:
        return None
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def component_accepting_lasso(root, successors, accepting, inside=None):
    """``buchi.accepting_lasso`` by its definition: the first accepting node
    in breadth-first order that lies on a cycle inside, a shortest prefix to
    it, and a shortest cycle search confined to its strongly connected
    component (networkx) of the subgraph inside."""
    order, succ = [root], {}
    for node in order:
        succ[node] = tuple(successors(node))
        for d in succ[node]:
            if d not in order:
                order.append(d)
    kept = {n for n in order if inside is None or inside(n)}
    sub = {n: tuple(d for d in succ[n] if d in kept) for n in order if n in kept}
    comp = {}
    for scc in nx.strongly_connected_components(graph_of(kept, sub.__getitem__)):
        if len(scc) > 1 or any(n in sub[n] for n in scc):
            comp.update(dict.fromkeys(scc, scc))
    entry = next((n for n in order if n in comp and accepting(n)), None)
    if entry is None:
        return None
    members = comp[entry]
    prefix = shortest_path((root,), entry, succ.__getitem__)
    cycle = shortest_path([d for d in sub[entry] if d in members], entry,
                          lambda n: [d for d in sub[n] if d in members])
    return Lasso(tuple(prefix), tuple(cycle))


def per_state_reachable_cycle(plan):
    """``plan.find_reachable_cycle`` by one breadth-first search per plan
    state in id order: the first state with a walk of at least one edge
    back to itself and one from plan state 1."""

    def walk(src, dst):
        path = shortest_path(plan.successor_ids(src), dst, plan.successor_ids)
        return None if path is None else (src,) + tuple(path)

    for i in sorted(plan.by_id):
        suffix = walk(i, i)
        if suffix is not None:
            prefix = walk(1, i)
            if prefix is not None:
                return prefix, suffix
    return None


def keeps_reachable_cycle(plan, simplified):
    """Whether every edge of ``per_state_reachable_cycle(plan)``, prefix and
    cycle, is an edge of ``simplified``: the lasso that simplification
    promises to keep."""
    return all(j in simplified.successor_ids(i)
               for path in per_state_reachable_cycle(plan)
               for i, j in zip(path, path[1:]))


def on_path_simplify_plan(plan):
    """``plan.simplify_plan`` by rescanning the prefix, then the suffix, of
    ``per_state_reachable_cycle`` for each same-world successor group."""
    cycle = per_state_reachable_cycle(plan)

    def on_path(path, i, group):
        for n in range(len(path) - 1):
            if path[n] == i and path[n + 1] in group:
                return path[n + 1]
        return None

    rules = []
    for s in plan.scrs:
        groups = {}
        for j in plan.successor_ids(s.id):
            groups.setdefault(plan.by_id[j].world, []).append(j)
        kept = set()
        for _, group in sorted(groups.items()):
            choice = on_path(cycle[0], s.id, group)
            if choice is None:
                choice = on_path(cycle[1], s.id, group)
            kept.add(group[0] if choice is None else choice)
        rules.append(SCR(s.id, s.world, s.action, frozenset(kept)))
    return ReactivePlan(rules)


def dict_cyclic_sccs(succ):
    """The strongly connected components of ``succ`` (every node -> its
    successor tuple) that contain a cycle, by iterative Tarjan over dicts
    from the nodes in key order."""
    index, low, onstack, stack, cyclic = {}, {}, set(), [], []
    for root in succ:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                onstack.add(node)
            succs = succ[node]
            for i in range(pi, len(succs)):
                nxt = succs[i]
                if nxt not in index:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    break
                if nxt in onstack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    if len(scc) > 1 or node in succs:
                        cyclic.append(tuple(scc))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return cyclic


def dict_accepting_lasso(root, successors, accepting, inside=None):
    """``buchi.accepting_lasso`` over node-keyed dicts: the first accepting
    node in breadth-first order on a cycle of ``dict_cyclic_sccs`` inside,
    a shortest prefix to it and a shortest walk back to it inside."""
    order, succ = [root], {}
    seen = {root}
    for node in order:
        succ[node] = tuple(successors(node))
        for d in succ[node]:
            if d not in seen:
                seen.add(d)
                order.append(d)
    kept = {n for n in order if inside is None or inside(n)}
    sub = {n: tuple(d for d in succ[n] if d in kept) for n in order if n in kept}
    cyclic = {n for scc in dict_cyclic_sccs(sub) for n in scc}
    entry = next((n for n in order if n in cyclic and accepting(n)), None)
    if entry is None:
        return None
    prefix = shortest_path((root,), entry, succ.__getitem__)
    cycle = shortest_path(sub[entry], entry, sub.__getitem__)
    return Lasso(tuple(prefix), tuple(cycle))


def tuple_violation(plan, automaton, valuation, accepting, inside=None):
    """The world lasso of a ``dict_accepting_lasso`` search from
    ``(1, initial automaton state)`` in the product of the plan graph with
    the automaton, its nodes ``(plan state, automaton state)`` tuples;
    ``accepting`` and ``inside`` are predicates over those nodes."""

    def successors(node):
        plan_state, x = node
        letter = valuation.label(plan.world_of(plan_state))
        targets = edge_successors(automaton, x, letter)
        return tuple((j, t) for j in plan.successor_ids(plan_state) for t in targets)

    witness = dict_accepting_lasso(
        (1, automaton.initial[0]), successors, accepting, inside
    )
    return None if witness is None else witness.map(lambda node: plan.world_of(node[0]))


def reached_cell_sizes(plan, automaton, valuation):
    """The number of automaton targets in the cell each reached product
    node ``(plan state, automaton state)`` steps on, from ``(1, initial)``,
    by guard matching."""
    order, sizes = [(1, automaton.initial[0])], set()
    seen = set(order)
    for plan_state, x in order:
        targets = edge_successors(automaton, x, valuation.label(plan.world_of(plan_state)))
        sizes.add(len(targets))
        for node in ((j, t) for j in plan.successor_ids(plan_state) for t in targets):
            if node not in seen:
                seen.add(node)
                order.append(node)
    return sizes


def tuple_plan_violation(plan, formula, valuation):
    """``plan.plan_violation`` on the tuple-keyed product."""
    negated = buchi.ltl_to_buchi(ltl.Not(formula), props=valuation.props)
    return tuple_violation(plan, negated, valuation,
                           lambda node: node[1] in negated.accepting)


def tuple_plan_violation_total(plan, automaton, valuation):
    """``plan.plan_violation_total`` on the tuple-keyed product."""

    def rejecting(node):
        return node[1] not in automaton.accepting

    return tuple_violation(plan, automaton, valuation, rejecting, inside=rejecting)


def per_disturbance_product(system, roots, automaton, valuation):
    """``(order, targets)`` for the product of ``system`` rooted at each of
    ``roots`` with the total ``automaton``: ``order`` lists the product
    states in breadth-first discovery order from the roots, and
    ``targets[state, control, disturbance]`` holds the states reached, in
    the system's successor order, its keys in construction order."""
    x0 = automaton.initial[0]
    order = list(dict.fromkeys((q0, x0) for q0 in roots))
    seen = set(order)
    targets = {}
    for q, x in order:
        x2 = edge_successors(automaton, x, valuation.label(q))[0]
        for a in system.controls:
            for b in system.disturbances:
                ts = tuple((q2, x2) for q2 in system.successors_under(q, a, b))
                for t in ts:
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
                targets[(q, x), a, b] = ts
    return order, targets


def tuple_adversary_run(system, valuation, spec, plan, steps, verified):
    """The stdout of ``astra simulate --policy adversarial`` for ``plan``
    from its first world state, ``spec`` its total automaton, by the rule
    on product-state tuples: each step plays the (disturbance, target) of
    largest attractor rank over ``per_disturbance_product``'s targets,
    disturbances in declared order and targets in discovery order, the
    first on ties.  Ranks come from ``layered_buchi_solution``; a lost
    state ranks above every won one.  A lasso under a plan that did not
    verify (``verified`` false) is not reported as satisfied."""
    start = plan.world_of(1)
    arena = TaggedArena(buchi.product(system, [start], spec, valuation))
    _, _, ranks = layered_buchi_solution(arena)
    order, targets = per_disturbance_product(system, [start], spec, valuation)
    place = {s: i for i, s in enumerate(order)}

    def rank(state):
        return ranks.get(("s", state), math.inf)

    controller, action = Controller(plan).feed(start)
    seen = {(controller.cursor, start)}
    state, lines, lasso = order[0], [], False
    for step in range(1, steps + 1):
        best = None
        for b in system.disturbances:
            for t in sorted(targets[state, action, b], key=place.__getitem__):
                if best is None or rank(t) > rank(best[1]):
                    best = (b, t)
        b, nxt = best
        lines.append(f"{step} {state[0]} {action} {b} {nxt[0]}")
        controller, action = controller.feed(nxt[0])
        lasso = lasso or (controller.cursor, nxt[0]) in seen
        seen.add((controller.cursor, nxt[0]))
        state = nxt
    if not lasso:
        lines.append("inconclusive prefix")
    else:
        lines.append("satisfied (lasso detected)" if verified
                     else "lasso detected (plan not verified)")
    return "".join(f"{line}\n" for line in lines)
