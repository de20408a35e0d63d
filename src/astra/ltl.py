"""Next-free linear temporal logic: syntax, parsing, satisfaction on lassos.

The core grammar is atoms, ``true``, negation, conjunction, and until.
The parser reads these operators, binding tightest first, and rewrites
the others into the core grammar as it goes:

    !a   F a   G a    prefix        F a == true U a,  G a == !(true U !a)
    a & b             left-assoc
    a | b             left-assoc    a | b == !(!a & !b)
    a U b             right-assoc
    a -> b            right-assoc   a -> b == !(a & !b)

and ``false == !true``.  Double negations introduced by the source text
are kept as written.  There is no next operator; ``X`` is rejected.
Parsing, printing and the walks keep their own stacks, so they have no
nesting limit.

Satisfaction is evaluated on ultimately periodic words represented as
:class:`~astra.core.Lasso` values over proposition sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Lasso, Valuation
from .errors import FormulaSyntaxError, FormulaTooDeep, UnknownProposition


class Formula:
    """Base class of formula nodes; subclasses are frozen and hashable."""

    def __str__(self):
        return formula_to_str(self)


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueF()


def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def eventually(arg: Formula) -> Formula:
    return Until(TRUE, arg)


def always(arg: Formula) -> Formula:
    return Not(Until(TRUE, Not(arg)))


def false() -> Formula:
    return Not(TRUE)


# The operator table above, read by the parser and the printer: binary
# token -> (binding power, right-associative, builder).  The prefix
# operators bind tighter than every binary one.
_BINARY = {
    "->": (1, True, implies),
    "U": (2, True, Until),
    "|": (3, False, or_),
    "&": (4, False, And),
}
_PREFIX = {"!": Not, "F": eventually, "G": always}
_PREFIX_POWER = 5
# the core binary nodes are the operators built by their own class
_INFIX = {build: token for token, (_, _, build) in _BINARY.items() if isinstance(build, type)}


def _preorder(formula):
    """Every node, each before its operands, left operand first."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Until)):
            stack += (node.right, node.left)


def atoms(formula: Formula) -> frozenset:
    """Names of all atomic propositions occurring in the formula."""
    return frozenset(node.name for node in _preorder(formula) if isinstance(node, Atom))


def formula_to_str(formula: Formula) -> str:
    """Core-grammar rendering with minimal parentheses."""
    parts = []
    # (node or literal text, least binding power shown without parentheses)
    stack = [(formula, 0)]
    while stack:
        node, floor = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Atom):
            parts.append(node.name)
        elif isinstance(node, TrueF):
            parts.append("true")
        elif isinstance(node, Not):
            parts.append("!")
            stack.append((node.arg, _PREFIX_POWER))
        else:
            token = _INFIX[type(node)]
            power, right, _ = _BINARY[token]
            if power < floor:
                parts.append("(")
                stack.append((")", 0))
            # the operand on the associating side may bind as loosely as
            # the operator; the other one must bind tighter
            stack += ((node.right, power + (not right)), (f" {token} ", 0),
                      (node.left, power + right))
    return "".join(parts)


_TOKEN_RE = re.compile(r"\s*(?:(->)|([()!&|])|([A-Za-z_][A-Za-z0-9_]*))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", at + 1)
        arrow, op, word = m.groups()
        at = m.start(1 if arrow else 2 if op else 3) + 1
        tokens.append((arrow or op or word, at))
        pos = m.end()
    tokens.append(("<end>", len(text) + 1))
    return tokens


def parse_formula(text: str, props=None) -> Formula:
    """Parse ``text`` into the core grammar.

    ``props`` is the declared proposition set; when given, any other
    identifier raises :class:`UnknownProposition`.  ``None`` accepts all
    identifiers (used for guard expressions whose universe is inferred).
    """
    props = None if props is None else frozenset(props)
    operands = []
    pending = []  # (binding power, builder) not yet applied; (0, None) is "("
    depth = 0  # open parentheses

    def apply(floor):
        # innermost first, every pending operator binding at least ``floor``
        while pending and pending[-1][0] >= floor:
            power, build = pending.pop()
            if power == _PREFIX_POWER:
                operands[-1] = build(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = build(operands[-1], right)

    want_operand = True
    for token, at in _tokenize(text):
        if want_operand:
            if token == "(":
                pending.append((0, None))
                depth += 1
            elif token in _PREFIX:
                pending.append((_PREFIX_POWER, _PREFIX[token]))
            elif token == "X":
                raise FormulaSyntaxError("the next operator is not supported", at)
            elif token in _BINARY or not token.isidentifier():
                raise FormulaSyntaxError(f"unexpected {token!r}", at)
            else:
                if token == "true":
                    operands.append(TRUE)
                elif token == "false":
                    operands.append(false())
                elif props is not None and token not in props:
                    raise UnknownProposition(token, at)
                else:
                    operands.append(Atom(token))
                want_operand = False
        elif token in _BINARY:
            power, right, build = _BINARY[token]
            apply(power + right)
            pending.append((power, build))
            want_operand = True
        elif token == ")" and depth:
            apply(1)
            pending.pop()
            depth -= 1
        elif token == "<end>" and not depth:
            apply(1)
            return operands[0]
        else:
            raise FormulaSyntaxError(
                f"expected ')', found {token!r}" if depth else f"unexpected {token!r}", at)


def eval_lasso(word: Lasso, formula: Formula, position: int = 1) -> bool:
    """Satisfaction of ``formula`` at ``position`` of the ultimately periodic
    word; letters are proposition sets.

    Until is decided by walking the at most ``|prefix| + |cycle|`` distinct
    position classes reachable from ``position``; a position's verdict only
    depends on its suffix, so revisiting a class cannot change the answer.
    The evaluator recurses, as the reference semantics; a formula nested
    past the interpreter's recursion limit raises ``FormulaTooDeep``.
    """
    memo = {}

    def ev(node, i):
        i = word.normalize(i)
        key = (id(node), i)
        if key in memo:
            return memo[key]
        if isinstance(node, TrueF):
            value = True
        elif isinstance(node, Atom):
            value = node.name in word.at(i)
        elif isinstance(node, Not):
            value = not ev(node.arg, i)
        elif isinstance(node, And):
            value = ev(node.left, i) and ev(node.right, i)
        else:
            value = False
            seen = set()
            j = i
            while j not in seen:
                seen.add(j)
                if ev(node.right, j):
                    value = True
                    break
                if not ev(node.left, j):
                    break
                j = word.successor(j)
        memo[key] = value
        return value

    if position < 1:
        raise ValueError("positions are 1-based")
    try:
        return ev(formula, position)
    except RecursionError:
        raise FormulaTooDeep("the formula nests too deeply") from None


def trajectory_satisfies(trajectory: Lasso, formula: Formula, valuation: Valuation) -> bool:
    """Whether the state lasso satisfies the formula under the valuation,
    i.e. whether its pointwise proposition word does at position 1."""
    return eval_lasso(valuation.word(trajectory), formula, 1)
