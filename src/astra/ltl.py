"""Next-free linear temporal logic: syntax, parsing, satisfaction on lassos.

The core grammar is atoms, ``true``, negation, conjunction, and until.
Everything else the parser accepts is rewritten into the core grammar at
parse time using

    a | b   ==  !(!a & !b)
    a -> b  ==  !(a & !b)
    F a     ==  true U a
    G a     ==  !(true U !a)
    false   ==  !true

Double negations introduced by the source text are kept as written.
There is no next operator; ``X`` is rejected.

Satisfaction is evaluated on ultimately periodic words represented as
:class:`~astra.core.Lasso` values over proposition sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Lasso, Valuation
from .errors import FormulaSyntaxError, UnknownProposition


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


def atoms(formula: Formula) -> frozenset:
    """Names of all atomic propositions occurring in the formula."""
    out = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Until)):
            stack.extend((node.left, node.right))
    return frozenset(out)


def until_subformulas(formula: Formula) -> tuple:
    """All until nodes, in first-visit depth-first order (deduplicated)."""
    seen = {}
    def walk(node):
        if isinstance(node, Not):
            walk(node.arg)
        elif isinstance(node, And):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Until):
            seen.setdefault(node)
            walk(node.left)
            walk(node.right)
    walk(formula)
    return tuple(seen)


_PRECEDENCE = {TrueF: 100, Atom: 100, Not: 90, And: 80, Until: 70}


def formula_to_str(formula: Formula) -> str:
    """Core-grammar rendering with minimal parentheses."""
    def render(node, parent_prec):
        prec = _PRECEDENCE[type(node)]
        if isinstance(node, TrueF):
            text = "true"
        elif isinstance(node, Atom):
            text = node.name
        elif isinstance(node, Not):
            text = "!" + render(node.arg, prec)
        elif isinstance(node, And):
            text = f"{render(node.left, prec)} & {render(node.right, prec + 1)}"
        else:
            # until is right-associative
            text = f"{render(node.left, prec + 1)} U {render(node.right, prec)}"
        return f"({text})" if prec < parent_prec else text
    return render(formula, 0)


_TOKEN_RE = re.compile(r"\s*(?:(->)|([()!&|])|([A-Za-z_][A-Za-z0-9_]*))")
_RESERVED = {"U", "F", "G", "X", "true", "false"}


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


class _Parser:
    """Recursive descent with precedence  ! > & > | > U > ->  (U, -> right-assoc)."""

    def __init__(self, tokens, props):
        self.tokens = tokens
        self.index = 0
        self.props = None if props is None else frozenset(props)

    def peek(self):
        return self.tokens[self.index][0]

    def take(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, token):
        got, at = self.take()
        if got != token:
            raise FormulaSyntaxError(f"expected {token!r}, found {got!r}", at)

    def parse(self):
        node = self.implication()
        got, at = self.take()
        if got != "<end>":
            raise FormulaSyntaxError(f"unexpected {got!r}", at)
        return node

    def implication(self):
        left = self.until()
        if self.peek() == "->":
            self.take()
            return implies(left, self.implication())
        return left

    def until(self):
        left = self.disjunction()
        if self.peek() == "U":
            self.take()
            return Until(left, self.until())
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek() == "|":
            self.take()
            node = or_(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self):
        token, at = self.tokens[self.index]
        if token == "!":
            self.take()
            return Not(self.unary())
        if token == "F":
            self.take()
            return eventually(self.unary())
        if token == "G":
            self.take()
            return always(self.unary())
        return self.atom()

    def atom(self):
        token, at = self.take()
        if token == "(":
            node = self.implication()
            self.expect(")")
            return node
        if token == "true":
            return TRUE
        if token == "false":
            return false()
        if token == "X":
            raise FormulaSyntaxError("the next operator is not supported", at)
        if token in _RESERVED or not token[0].isalpha() and token[0] != "_":
            raise FormulaSyntaxError(f"unexpected {token!r}", at)
        if self.props is not None and token not in self.props:
            raise UnknownProposition(token, at)
        return Atom(token)


def parse_formula(text: str, props=None) -> Formula:
    """Parse ``text`` into the core grammar.

    ``props`` is the declared proposition set; when given, any other
    identifier raises :class:`UnknownProposition`.  ``None`` accepts all
    identifiers (used for guard expressions whose universe is inferred).
    """
    return _Parser(_tokenize(text), props).parse()


def eval_lasso(word: Lasso, formula: Formula, position: int = 1) -> bool:
    """Satisfaction of ``formula`` at ``position`` of the ultimately periodic
    word; letters are proposition sets.

    Until is decided by walking the at most ``|prefix| + |cycle|`` distinct
    position classes reachable from ``position``; a position's verdict only
    depends on its suffix, so revisiting a class cannot change the answer.
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
    return ev(formula, position)


def trajectory_satisfies(trajectory: Lasso, formula: Formula, valuation: Valuation) -> bool:
    """Whether the state lasso satisfies the formula under the valuation,
    i.e. whether its pointwise proposition word does at position 1."""
    return eval_lasso(valuation.word(trajectory), formula, 1)
