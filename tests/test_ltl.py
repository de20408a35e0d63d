import hashlib
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from astra import ltl
from astra.core import Lasso
from astra.errors import FormulaSyntaxError, FormulaTooDeep, UnknownProposition
from astra.ltl import And, Atom, Not, TRUE, Until

from generators import random_formula, random_letter_lasso
from oracles import oracle_eval

DATA = pathlib.Path(__file__).parent / "data"
PROPS = ("p1", "p2", "p3")
WORDS = ("p1", "p2", "q", "_r", "true", "false")
TOKENS = WORDS + ("X", "U", "F", "G", "!", "&", "|", "->", "(", ")", "#", "-", "1")


def letters(*sets):
    return tuple(frozenset(s) for s in sets)


def random_formula_tokens(rng, size):
    """The tokens of a random formula in the full surface syntax."""
    if size <= 1:
        return [rng.choice(WORDS)]
    if rng.random() < 0.3:
        tokens = [rng.choice("!FG")] + random_formula_tokens(rng, size - 1)
    else:
        left = rng.randint(1, size - 1)
        tokens = (random_formula_tokens(rng, left) + [rng.choice(("&", "|", "U", "->"))]
                  + random_formula_tokens(rng, size - left))
    return ["(", *tokens, ")"] if rng.random() < 0.3 else tokens


def random_token_text(rng):
    """A formula with up to two tokens deleted, inserted or replaced, or a
    token soup; tokens are joined by zero to two spaces, so neighbouring
    words may also run together."""
    if rng.random() < 0.2:
        tokens = [rng.choice(TOKENS) for _ in range(rng.randint(0, 8))]
    else:
        tokens = random_formula_tokens(rng, rng.randint(1, 8))
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(tokens) + 1)
            action = rng.choice(("insert", "replace", "delete")) if tokens else "insert"
            if action == "insert":
                tokens.insert(i, rng.choice(TOKENS))
            elif action == "replace":
                tokens[min(i, len(tokens) - 1)] = rng.choice(TOKENS)
            else:
                del tokens[min(i, len(tokens) - 1)]
    return "".join(rng.choice(("", " ", " ", "  ")) + t for t in tokens)


def parse_outcome(text, props):
    """``repr`` of the parsed formula, or the error's class, text and position."""
    try:
        return repr(ltl.parse_formula(text, props))
    except (FormulaSyntaxError, UnknownProposition) as err:
        return [type(err).__name__, str(err), err.position]


def parse_digests():
    """``{batch: digest}`` of ``parse_formula`` on 5000 seeded token strings,
    each parsed with any identifier and with ``PROPS`` declared."""
    rng = random.Random(2020)
    digests = {}
    for batch in range(100):
        outcomes = []
        for _ in range(50):
            text = random_token_text(rng)
            outcomes.append([text, parse_outcome(text, None), parse_outcome(text, PROPS)])
        payload = json.dumps(outcomes).encode("utf-8")
        digests[f"batch {batch}"] = hashlib.sha256(payload).hexdigest()[:16]
    return digests


class TestParser:
    def test_until_tree(self):
        assert ltl.parse_formula("p2 U p3", PROPS) == Until(Atom("p2"), Atom("p3"))

    def test_double_negation_is_kept(self):
        assert ltl.parse_formula("!(!p1)", PROPS) == Not(Not(Atom("p1")))

    def test_always_implies_eventually_desugars(self):
        # hand expansion with F a == true U a, G a == !(true U !a),
        # a -> b == !(a & !b)
        inner = ltl.implies(Atom("p1"), Until(TRUE, Atom("p2")))
        expected = Not(Until(TRUE, Not(inner)))
        assert ltl.parse_formula("G(p1 -> F p2)", PROPS) == expected
        assert expected == Not(Until(TRUE, Not(Not(And(Atom("p1"), Not(Until(TRUE, Atom("p2"))))))))

    def test_precedence(self):
        # ! > & > | > U > ->, until and implication right-associative
        assert ltl.parse_formula("p1 & p2 U p3", PROPS) == Until(
            And(Atom("p1"), Atom("p2")), Atom("p3")
        )
        assert ltl.parse_formula("p1 | p2 U p3", PROPS) == Until(
            ltl.or_(Atom("p1"), Atom("p2")), Atom("p3")
        )
        assert ltl.parse_formula("p1 U p2 -> p3", PROPS) == ltl.implies(
            Until(Atom("p1"), Atom("p2")), Atom("p3")
        )
        assert ltl.parse_formula("p1 U p2 U p3", PROPS) == Until(
            Atom("p1"), Until(Atom("p2"), Atom("p3"))
        )
        assert ltl.parse_formula("!p1 & p2", PROPS) == And(Not(Atom("p1")), Atom("p2"))

    def test_literals(self):
        assert ltl.parse_formula("true", PROPS) == TRUE
        assert ltl.parse_formula("false", PROPS) == Not(TRUE)

    def test_next_operator_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            ltl.parse_formula("X p1", PROPS)

    def test_unknown_proposition(self):
        with pytest.raises(UnknownProposition):
            ltl.parse_formula("p9", PROPS)

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            ltl.parse_formula("p1 & & p2", PROPS)
        assert err.value.position == 6

    def test_unbalanced_parens(self):
        with pytest.raises(FormulaSyntaxError):
            ltl.parse_formula("(p1 & p2", PROPS)

    def test_parses_match_recorded_digests(self):
        """The exact tree, or error class, message and position, of every
        string in a seeded corpus.  ``parse_digests()`` recorded
        ``tests/data/parse_digests.json``; record it again only for an
        intended change of the parser's output."""
        expected = json.loads((DATA / "parse_digests.json").read_text(encoding="utf-8"))
        actual = parse_digests()
        assert sorted(actual) == sorted(expected)
        assert [k for k in expected if actual[k] != expected[k]] == []

    def test_deep_formulas_need_no_recursion(self):
        # parsing, printing and the atom walk keep their own stacks, so a
        # 20,000-deep formula goes through them under a recursion limit of
        # 200
        n = 20_000
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            chain = ltl.parse_formula("(" * n + "p1" + " & F p2)" * n, PROPS)
            text = ltl.formula_to_str(chain)
            assert text == "p1" + " & (true U p2)" * n
            assert ltl.formula_to_str(ltl.parse_formula(text)) == text
            assert ltl.atoms(chain) == {"p1", "p2"}
            for text in ("!" * n + "(p1 U p2)", "p1 U " * n + "!p2"):
                assert ltl.formula_to_str(ltl.parse_formula(text, PROPS)) == text
            assert ltl.atoms(ltl.parse_formula("G " * n + "p3")) == {"p3"}
        finally:
            sys.setrecursionlimit(limit)

    def test_roundtrip_through_writer(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng, PROPS, rng.randint(1, 6))
            assert ltl.parse_formula(ltl.formula_to_str(f), PROPS) == f


class TestEvalLasso:
    def test_until_on_agent_word(self):
        # valuation word of the run q1 q2 q3 q3 ...
        word = Lasso(letters({"p1", "p2"}, {"p2", "p3"}), letters({"p1", "p3"}))
        assert ltl.eval_lasso(word, Until(Atom("p2"), Atom("p3")), 1) is True

    def test_atom_is_membership(self):
        word = Lasso((), letters({"p1"}))
        assert ltl.eval_lasso(word, Atom("p1"), 1) is True
        assert ltl.eval_lasso(word, Atom("p2"), 1) is False

    def test_against_unrolling_oracle(self):
        rng = random.Random(42)
        for _ in range(400):
            f = random_formula(rng, PROPS, rng.randint(1, 6))
            w = random_letter_lasso(rng, PROPS)
            position = rng.randint(1, w.classes)
            assert ltl.eval_lasso(w, f, position) == oracle_eval(w, f, position)

    def test_negation_law(self):
        rng = random.Random(43)
        for _ in range(200):
            f = random_formula(rng, PROPS, rng.randint(1, 5))
            w = random_letter_lasso(rng, PROPS)
            for i in range(1, w.classes + 1):
                assert ltl.eval_lasso(w, Not(f), i) == (not ltl.eval_lasso(w, f, i))

    def test_rotation_invariance(self):
        rng = random.Random(44)
        for _ in range(200):
            f = random_formula(rng, PROPS, rng.randint(1, 5))
            w = random_letter_lasso(rng, PROPS)
            shifted = Lasso(w.prefix + w.cycle, w.cycle)
            for i in range(1, w.classes + 1):
                assert ltl.eval_lasso(w, f, i) == ltl.eval_lasso(shifted, f, i)

    def test_until_expansion_law(self):
        rng = random.Random(45)
        for _ in range(200):
            left = random_formula(rng, PROPS, rng.randint(1, 3))
            right = random_formula(rng, PROPS, rng.randint(1, 3))
            u = Until(left, right)
            w = random_letter_lasso(rng, PROPS)
            for i in range(1, w.classes + 1):
                expanded = ltl.eval_lasso(w, right, i) or (
                    ltl.eval_lasso(w, left, i)
                    and ltl.eval_lasso(w, u, w.successor(i))
                )
                assert ltl.eval_lasso(w, u, i) == expanded

    def test_deep_formula_is_a_typed_error(self):
        # the evaluator recurses as the reference semantics, and says so
        # with a typed error once the formula nests past the limit
        chain = ltl.parse_formula(" & ".join(["p1"] * 2000), PROPS)
        word = Lasso((), letters({"p1"}))
        with pytest.raises(FormulaTooDeep, match="^the formula nests too deeply$"):
            ltl.eval_lasso(word, chain)
        assert ltl.eval_lasso(word, ltl.parse_formula(" & ".join(["p1"] * 200), PROPS))


@st.composite
def lassos(draw):
    total = draw(st.integers(1, 5))
    cycle_len = draw(st.integers(1, total))
    letters = [
        frozenset(p for p in PROPS if draw(st.booleans())) for _ in range(total)
    ]
    return Lasso(tuple(letters[: total - cycle_len]), tuple(letters[total - cycle_len:]))


@st.composite
def formulas(draw, max_size=5):
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(1, max_size))
    return random_formula(random.Random(seed), PROPS, size)


class TestEvalProperties:
    @settings(max_examples=150, deadline=None)
    @given(lassos(), formulas())
    def test_matches_oracle(self, word, formula):
        assert ltl.eval_lasso(word, formula, 1) == oracle_eval(word, formula, 1)

    @settings(max_examples=150, deadline=None)
    @given(lassos(), formulas())
    def test_negation(self, word, formula):
        assert ltl.eval_lasso(word, Not(formula), 1) == (
            not ltl.eval_lasso(word, formula, 1)
        )


class TestTrajectorySatisfies:
    def test_self_loop(self):
        from astra.core import Valuation

        val = Valuation(["p"], {"q": {"p"}})
        assert ltl.trajectory_satisfies(Lasso((), ("q",)), Atom("p"), val) is True

    def test_deep_formula_is_a_typed_error(self):
        from astra.core import Valuation

        val = Valuation(["p"], {"q": {"p"}})
        chain = ltl.parse_formula(" & ".join(["p"] * 2000))
        with pytest.raises(FormulaTooDeep, match="^the formula nests too deeply$"):
            ltl.trajectory_satisfies(Lasso((), ("q",)), chain, val)

    def test_detour_trajectory(self, agent_system):
        _, valuation = agent_system
        sigma2 = Lasso(("q1", "q2", "q1"), ("q3",))
        assert ltl.trajectory_satisfies(
            sigma2, Until(Atom("p2"), Atom("p3")), valuation
        ) is True

    def test_agrees_with_automaton_route(self, agent_system):
        from astra import buchi

        _, valuation = agent_system
        rng = random.Random(46)
        states = ("q1", "q2", "q3")
        for _ in range(100):
            f = random_formula(rng, PROPS, rng.randint(1, 5))
            total = rng.randint(1, 4)
            cycle_len = rng.randint(1, total)
            items = tuple(rng.choice(states) for _ in range(total))
            sigma = Lasso(items[: total - cycle_len], items[total - cycle_len:])
            direct = ltl.trajectory_satisfies(sigma, f, valuation)
            automaton = buchi.ltl_to_buchi(f, props=valuation.props)
            via_nba = buchi.nba_accepts(automaton, valuation.word(sigma))
            assert direct == via_nba
