"""Deterministic DOT renderings of systems, plans, automata and products.
Node ordering follows declaration/discovery order so identical inputs
yield identical bytes."""

from __future__ import annotations


def _quote(text) -> str:
    escaped = str(text).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _digraph(name, lines) -> str:
    body = "\n".join(f"  {line}" for line in lines)
    return f"digraph {name} {{\n{body}\n}}\n"


def system_dot(system, valuation=None) -> str:
    lines = ["rankdir=LR;", "node [shape=circle];"]
    for q in system.states:
        parts = [q]
        if valuation is not None and valuation.label(q):
            parts.append("{" + ",".join(sorted(valuation.label(q))) + "}")
        if system.obs_map[q] != q:
            parts.append(f"obs={system.obs_map[q]}")
        lines.append(f"{_quote(q)} [label={_quote(chr(10).join(parts))}];")
    for q, a, b, q2 in system.transitions:
        lines.append(f"{_quote(q)} -> {_quote(q2)} [label={_quote(f'{a},{b}')}];")
    return _digraph("system", lines)


def plan_dot(plan) -> str:
    lines = ["rankdir=LR;", "node [shape=circle];"]
    ids = range(1, len(plan) + 1)
    for i in ids:
        label = f"{i}: {plan._worlds[i]} / {plan._actions[i]}"
        lines.append(f"{i} [label={_quote(label)}];")
    lines.append("__start [shape=point];")
    lines.append("__start -> 1;")
    for i in ids:
        for j in plan._successors[i]:
            lines.append(f"{i} -> {j};")
    return _digraph("plan", lines)


def automaton_dot(automaton) -> str:
    lines = ["rankdir=LR;", "node [shape=circle];"]
    for s in automaton.states:
        shape = "doublecircle" if s in automaton.accepting else "circle"
        lines.append(f"{_quote(s)} [shape={shape}];")
    lines.append("__start [shape=point];")
    for s in automaton.initial:
        lines.append(f"__start -> {_quote(s)};")
    for edge in automaton.edges:
        lines.append(
            f"{_quote(edge.src)} -> {_quote(edge.dst)} [label={_quote(edge.guard.text)}];"
        )
    return _digraph("automaton", lines)


def _product_name(state) -> str:
    q, x = state
    return f"{q},{x}"


def product_dot(prod) -> str:
    """One line per (state, control, disturbance, world successor), in
    state number, declared and system successor order; every successor of
    state ``i`` carries its one automaton successor, that of the first
    target in its pair's row, ``rows[pair[i]][0]``, which it only reads."""
    system = prod.system
    lines = ["rankdir=LR;", "node [shape=circle];"]
    for state, flag in zip(prod.states, prod.accepting):
        shape = "doublecircle" if flag else "circle"
        lines.append(f"{_quote(_product_name(state))} [shape={shape}];")
    lines.append("__start [shape=point];")
    lines.append(f"__start -> {_quote(_product_name(prod.states[0]))};")
    for state, p in zip(prod.states, prod.pair):
        source = _quote(_product_name(state))
        x2 = prod.states[prod.rows[p][0][0]][1]
        for a in system.controls:
            for b in system.disturbances:
                for q2 in system.successors_under(state[0], a, b):
                    lines.append(f"{source} -> {_quote(_product_name((q2, x2)))} "
                                 f"[label={_quote(f'{a},{b}')}];")
    return _digraph("product", lines)


def write_dot(path, content):
    data = content.encode("utf-8")  # a name UTF-8 cannot hold fails here
    with open(path, "wb") as fh:
        fh.write(data)
