import collections
import hashlib
import json
import pathlib
import random

import pytest

from astra import buchi, ltl
from astra.buchi import (
    BuchiAutomaton,
    Edge,
    accepting_lasso,
    guard_from_text,
    guard_true,
    is_total,
    load_automaton,
    ltl_to_buchi,
    nba_accepts,
    product,
    totalize,
)
from astra.core import AlternatingTransitionSystem, Lasso, Valuation
from astra.dot import automaton_dot, product_dot
from astra.errors import AutomatonError, ExplosionGuard
from astra.ltl import Atom, Until
from astra.planner import spec_automaton

from generators import random_formula, random_letter_lasso, random_system
from oracles import (
    accepting_lasso_exists,
    all_letters,
    component_accepting_lasso,
    has_rejecting_cycle,
    TupleProduct,
    edge_successors,
    guard_from_minterms,
    per_disturbance_product,
    per_letter_guard,
    reference_totalize,
)

DATA = pathlib.Path(__file__).parent / "data"
PROPS = ("p1", "p2", "p3")


def letters(*sets):
    return tuple(frozenset(s) for s in sets)


def g_ladder(k):
    """``!(G … G (p | q))`` with ``k`` nested ``G``."""
    formula = ltl.or_(Atom("p"), Atom("q"))
    for _ in range(k):
        formula = ltl.always(formula)
    return ltl.Not(formula)


def gf_ladder(k):
    """``(G F)^k p``."""
    formula = Atom("p")
    for _ in range(k):
        formula = ltl.always(ltl.eventually(formula))
    return formula


def automaton_digest(automaton):
    """A short sha256 over every part of an automaton, edges in order."""
    payload = json.dumps([
        automaton.states, automaton.initial, automaton.props,
        sorted(automaton.accepting),
        [(e.src, e.guard.text, e.dst) for e in automaton.edges],
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def translation_digests():
    """``{name: digest}`` of ``ltl_to_buchi`` on a seeded corpus: each
    random formula over four atoms with the atoms reversed as ``props``,
    its negation, and the depth and width ladders."""
    atoms = ("a", "b", "c", "d")
    rng = random.Random(2001)
    digests = {}
    for i in range(400):
        f = random_formula(rng, atoms, rng.randint(1, 12))
        digests[f"phi {i}"] = automaton_digest(ltl_to_buchi(f, props=atoms[::-1]))
        digests[f"not {i}"] = automaton_digest(ltl_to_buchi(ltl.Not(f)))
    for k in (10, 20, 40):
        digests[f"not G^{k} (p | q)"] = automaton_digest(ltl_to_buchi(g_ladder(k)))
    for k in (2, 4, 6):
        digests[f"(G F)^{k} p"] = automaton_digest(ltl_to_buchi(gf_ladder(k)))
    wide = Atom("x0")
    for i in range(1, 6):
        wide = ltl.or_(wide, Atom(f"x{i}"))
    digests["G (x0 | ... | x5)"] = automaton_digest(ltl_to_buchi(ltl.always(wide)))
    return digests


def wait_automaton():
    """Two-state automaton for p1 U p2 without the rejecting sink."""
    return BuchiAutomaton(
        states=["wait", "acc"],
        initial=["wait"],
        props=("p1", "p2"),
        edges=[
            Edge("wait", guard_from_text("p1 & !p2"), "wait"),
            Edge("wait", guard_from_text("p2"), "acc"),
            Edge("acc", guard_from_text("true"), "acc"),
        ],
        accepting={"acc"},
    )


def random_guard_text(rng, atoms):
    """A boolean guard written over a random subset of ``atoms``."""
    read = rng.sample(atoms, rng.randint(0, len(atoms)))
    if not read:
        return rng.choice(("true", "false"))
    terms = [" & ".join(a if rng.random() < 0.5 else "!" + a
                        for a in rng.sample(read, rng.randint(1, len(read))))
             for _ in range(rng.randint(1, 3))]
    return " | ".join(f"({t})" for t in terms)


def random_boolean_text(rng, atoms, size):
    """A written non-temporal formula with ``size`` leaves and operators:
    atoms of ``atoms``, constants, ``!``, ``&``, ``|`` and ``->``."""
    if size <= 1:
        return rng.choice(atoms + ["true", "false"])
    op = rng.choice(("!", "&", "|", "->"))
    if op == "!":
        return "!" + random_boolean_text(rng, atoms, size - 1)
    left = rng.randint(1, size - 1)
    return (f"({random_boolean_text(rng, atoms, left)} {op} "
            f"{random_boolean_text(rng, atoms, size - left)})")


def random_guarded_automaton(rng, atoms):
    """1-4 states with up to eight edges, guards from ``random_guard_text``
    and ``props`` a shuffled copy of ``atoms``."""
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    edges = [Edge(rng.choice(states), guard_from_text(random_guard_text(rng, atoms)),
                  rng.choice(states))
             for _ in range(rng.randint(0, 8))]
    props = list(atoms)
    rng.shuffle(props)
    return BuchiAutomaton(states, states[:1], props, edges,
                          [s for s in states if rng.random() < 0.5])


def assert_table_is_edge_scan(automaton):
    """Every cell of ``table`` lists the targets the edge scan finds on the
    letter of its mask, in the same order."""
    letters = all_letters(automaton.props)
    assert automaton.index == {s: i for i, s in enumerate(automaton.states)}
    assert len(automaton.table) == len(automaton.states)
    for i, state in enumerate(automaton.states):
        row = automaton.table[i]
        assert len(row) == len(letters)
        for letter, cell in zip(letters, row):
            assert tuple(automaton.states[j] for j in cell) == \
                edge_successors(automaton, state, letter)


class TestGuards:
    def test_parse_and_match(self):
        g = guard_from_text("p1 & !p2")
        assert g.matches(frozenset({"p1"}))
        assert not g.matches(frozenset({"p1", "p2"}))
        assert not g.matches(frozenset())

    def test_deep_guard_names_the_guard(self):
        # a 1500-term conjunction nests past the evaluator's recursion
        # limit; the error names the guard, not a formula
        text = " & ".join(["p1"] * 1499 + ["p2"])
        with pytest.raises(AutomatonError) as info:
            guard_from_text(text)
        assert str(info.value) == f"guard {text!r} nests too deeply"
        # the one minterm makes p1 (bit 0) and p2 (bit 1) true
        assert guard_from_text(" & ".join(["p1"] * 99 + ["p2"])).minterms == frozenset({0b11})

    def test_guard_text_is_read_without_the_temporal_evaluator(self, monkeypatch):
        calls = []

        def counted_eval_lasso(*args, _original=ltl.eval_lasso):
            calls.append(args)
            return _original(*args)
        monkeypatch.setattr(ltl, "eval_lasso", counted_eval_lasso)
        # a DNF over 7 atoms: one term per pair of distinct atoms
        atoms = [f"x{i}" for i in range(7)]
        text = " | ".join(f"({a} & !{b})" for a in atoms for b in atoms if a != b)
        guard = guard_from_text(text)
        assert calls == []
        assert (guard.atoms, guard.minterms) == per_letter_guard(text)

    def test_guard_text_matches_per_letter_evaluation(self):
        rng = random.Random(25)
        atoms = [f"p{i}" for i in range(1, 7)]
        for i in range(600):
            if i % 3:
                text = random_boolean_text(rng, atoms, rng.randint(1, 14))
            else:
                text = random_guard_text(rng, atoms)
            guard = guard_from_text(text)
            assert (guard.atoms, guard.minterms) == per_letter_guard(text), text

    def test_wide_guard_is_not_rendered_by_errors_or_repr(self):
        # nine atoms are past RENDER_ATOMS, so this guard has no text
        atoms = tuple(f"x{i}" for i in range(9))
        wide = buchi.Guard(atoms, frozenset({1, 2, 5}))
        with pytest.raises(AutomatonError,
                           match="^edge 'a' -> 'zz' references an undeclared state$"):
            BuchiAutomaton(["a"], ["a"], atoms, [Edge("a", wide, "zz")], [])
        assert repr(wide) == f"Guard(atoms={atoms!r}, minterms={frozenset({1, 2, 5})!r})"
        assert repr(guard_from_text(" p1 ")) == \
            "Guard(atoms=('p1',), minterms=frozenset({1}), text='p1')"

    def test_temporal_guard_rejected(self):
        with pytest.raises(AutomatonError):
            guard_from_text("p1 U p2")

    def test_deep_temporal_guard_rejected(self):
        # a 3000-term until chain is found by the iterative walk; hashing
        # the nested nodes would recurse past the interpreter's limit
        text = " U ".join(["p1"] * 2999 + ["p2"])
        with pytest.raises(AutomatonError, match="uses a temporal operator"):
            guard_from_text(text)

    def test_rendering_simplifies(self):
        minterms = [frozenset({"p1"}), frozenset({"p1", "p2"})]
        g = guard_from_minterms(("p1", "p2"), minterms)
        assert g.minterms == frozenset({0b01, 0b11})
        assert g.text == "p1"

    def test_lazy_text_is_the_rendered_dnf(self):
        rng = random.Random(89)
        for i in range(300):
            atoms = tuple(rng.sample(("p1", "p2", "p3", "p4"), rng.randint(0, 4)))
            minterms = frozenset(m for m in range(1 << len(atoms)) if rng.random() < 0.5)
            g = buchi.Guard(atoms, minterms)
            expected = buchi._render_dnf(atoms, minterms)
            # either read may come first; both give the rendered text
            first, second = (str(g), g.text) if i % 2 else (g.text, str(g))
            assert first == second == expected

    def test_rendered_text_is_pinned(self):
        # the exact text of 300 random guards over 1-6 atoms and 20 over 7,
        # at minterm densities 0.2, 0.5 and 0.8.  Each minterm is taken
        # from a written one-letter guard, so the corpus does not depend on
        # how a guard stores its minterms.
        one = {}
        for k in range(1, 8):
            atoms = [f"x{j}" for j in range(k)]
            for m in range(1 << k):
                text = " & ".join(a if m >> j & 1 else "!" + a for j, a in enumerate(atoms))
                (one[k, m],) = guard_from_text(text).minterms
        rng = random.Random(24)
        widths = [rng.randint(1, 6) for _ in range(300)] + [7] * 20
        texts = []
        for i, k in enumerate(widths):
            density = (0.2, 0.5, 0.8)[i % 3]
            minterms = frozenset(one[k, m] for m in range(1 << k) if rng.random() < density)
            texts.append(buchi.Guard(tuple(f"x{j}" for j in range(k)), minterms).text)
        assert hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest() == \
            "e9305a5393fa75af09ee2cb6ccc4e3e65b9d93b7064962f9ef3d91e051879a53"

    def test_text_guard_keeps_written_text(self):
        g = guard_from_text("  p2 &  !p1 ")
        assert g.text == str(g) == "p2 &  !p1"
        assert g.atoms == ("p1", "p2")

    def test_rendering_refuses_guards_past_the_atom_budget(self):
        # the budget counts the atoms a guard reads, however cheap its
        # Quine-McCluskey pass would be
        for k in (buchi.RENDER_ATOMS, buchi.RENDER_ATOMS + 1, 10):
            atoms = tuple(f"x{i}" for i in range(k))
            g = guard_from_minterms(atoms, [atoms])
            if k <= buchi.RENDER_ATOMS:
                assert g.text == " & ".join(atoms)
            else:
                with pytest.raises(ExplosionGuard, match=f"guard over {k} atoms"):
                    g.text
        # constant guards render at any width, and equal guards that were
        # not written compare equal without rendering
        atoms = tuple(f"x{i}" for i in range(10))
        wide = guard_from_minterms(atoms, [atoms])
        assert wide == guard_from_minterms(atoms, [atoms])
        assert wide != guard_from_minterms(atoms, [atoms[1:]])
        # a written guard never equals one that cannot be written out
        written = guard_from_text(" & ".join(atoms))
        assert written.atoms == wide.atoms and written.minterms == wide.minterms
        assert written != wide and wide != written
        assert Edge("s", written, "t") != Edge("s", wide, "t")
        assert guard_from_minterms(atoms, all_letters(atoms)).text == "true"
        assert guard_from_minterms(atoms, []).text == "false"

    def test_equality_compares_atoms_minterms_and_text(self):
        rendered = guard_from_minterms(("p1",), [{"p1"}])
        same = guard_from_minterms(("p1",), [frozenset({"p1"})])
        assert rendered == same and hash(rendered) == hash(same)
        # a written guard equals a rendered one with the same text
        assert rendered == guard_from_text("p1")
        assert hash(rendered) == hash(guard_from_text("p1"))
        assert rendered != guard_from_text("p1 & p1")
        assert rendered != guard_from_minterms(("p1",), [frozenset()])
        assert rendered != guard_from_minterms(
            ("p1", "p2"), [{"p1"}, {"p1", "p2"}])
        assert rendered != "p1"
        edge = Edge("s", rendered, "t")
        assert edge == Edge("s", guard_from_text("p1"), "t")
        assert edge != Edge("s", guard_from_text("p1 & p1"), "t")
        assert edge != Edge("s", rendered, "s")
        assert len({edge, Edge("s", same, "t"), Edge("s", guard_from_text("p1"), "t")}) == 1


class TestTranslation:
    def test_true_is_one_accepting_state(self):
        automaton = ltl_to_buchi(ltl.TRUE)
        assert len(automaton.states) == 1
        (state,) = automaton.states
        assert automaton.initial == (state,)
        assert automaton.accepting == {state}
        (edge,) = automaton.edges
        assert edge.src == edge.dst == state
        assert all(edge.guard.matches(l) for l in all_letters(PROPS))

    def test_until_language_samples(self):
        automaton = ltl_to_buchi(Until(Atom("p2"), Atom("p3")), props=PROPS)
        accepted = Lasso(letters({"p2"}), letters({"p3"}))
        rejected = Lasso((), letters({"p2"}))
        assert nba_accepts(automaton, accepted)
        assert not nba_accepts(automaton, rejected)

    def test_cross_oracle_random(self):
        rng = random.Random(90)
        for _ in range(200):
            f = random_formula(rng, PROPS, rng.randint(1, 6))
            w = random_letter_lasso(rng, PROPS)
            assert nba_accepts(ltl_to_buchi(f, props=PROPS), w) == ltl.eval_lasso(w, f, 1)

    def test_translations_match_recorded_digests(self):
        """The exact automata (states, edge order, guard text) of a seeded
        corpus.  ``translation_digests()`` recorded
        ``tests/data/translation_digests.json``; record it again only for an
        intended change of the translation's output."""
        expected = json.loads((DATA / "translation_digests.json").read_text(encoding="utf-8"))
        actual = translation_digests()
        assert sorted(actual) == sorted(expected)
        assert [k for k in expected if actual[k] != expected[k]] == []

    def test_formula_keys_once_per_obligation(self, monkeypatch):
        # the tableau sorts the untils and their negations once and runs on
        # their ranks; no node is keyed again per state or per edge
        original, depth, keyed = buchi._formula_key, [0], []

        def counted(node):
            if not depth[0]:
                keyed.append(node)
            depth[0] += 1
            try:
                return original(node)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(buchi, "_formula_key", counted)
        for formula, states in ((g_ladder(40), 42), (gf_ladder(6), 8)):
            keyed.clear()
            assert len(ltl_to_buchi(formula).states) == states
            assert len(keyed) == len(set(keyed))
            assert len(keyed) <= (2 * len(ltl.until_subformulas(formula))
                                  + len(buchi._initial_obligations(formula)))


class TestAlphabet:
    def test_props_are_the_read_atoms_in_declared_order(self):
        automaton = wait_automaton()
        assert automaton.props == ("p1", "p2")
        wider = BuchiAutomaton(automaton.states, automaton.initial,
                               ("z", "p2", "y", "p1"), automaton.edges,
                               automaton.accepting)
        assert wider.props == ("p2", "p1")
        assert BuchiAutomaton(["s"], ["s"], ("p1",), [Edge("s", guard_from_text("q"), "s")],
                              ()).props == ("q",)

    def test_repeated_props_are_kept_once(self):
        automaton = ltl_to_buchi(ltl.always(Atom("p")), props=("p", "p"))
        assert automaton.props == ("p",)
        total = totalize(automaton)
        assert total.props == ("p",)
        assert [e.guard.text for e in total.edges] == ["p", "!p", "true"]

    def test_totalize_matches_lift_then_render_reference(self):
        rng = random.Random(88)
        compared = 0
        for _ in range(60):
            f = random_formula(rng, PROPS, rng.randint(1, 6))
            declared = list(PROPS) + [f"z{i}" for i in range(rng.randint(0, 4))]
            rng.shuffle(declared)
            automaton = ltl_to_buchi(f, props=declared)
            read = tuple(p for p in declared if p in ltl.atoms(f))
            assert automaton.props in (read, ())
            expected = reference_totalize(automaton, declared)
            total = totalize(automaton)
            if expected is None:
                assert total is None
                continue
            compared += 1
            assert total.props == automaton.props
            assert (total.states, total.initial, total.accepting,
                    [(e.src, e.guard.text, e.dst) for e in total.edges]) == expected
            for _ in range(6):
                w = random_letter_lasso(rng, declared)
                assert nba_accepts(total, w) == nba_accepts(automaton, w) \
                    == ltl.eval_lasso(w, f, 1)
        assert compared >= 45


class TestSuccessorTable:
    """``table`` against the edge scan of ``oracles.edge_successors`` on every
    state and letter: translations, hand-guarded automata, their totalized
    forms and the automaton files."""

    def test_table_matches_edge_scan(self):
        rng = random.Random(95)
        atoms = ("p1", "p2", "p3", "p4")
        corpus = []
        for _ in range(80):
            f = random_formula(rng, PROPS, rng.randint(1, 7))
            declared = list(PROPS) + [f"z{i}" for i in range(rng.randint(0, 2))]
            rng.shuffle(declared)
            corpus.append(ltl_to_buchi(f, props=declared))
        corpus += [random_guarded_automaton(rng, atoms) for _ in range(120)]
        corpus += [t for t in map(totalize, corpus) if t is not None]
        corpus += [load_automaton(path) for path in sorted(DATA.glob("aut_*.json"))]
        assert len(corpus) > 300
        for automaton in corpus:
            assert_table_is_edge_scan(automaton)

    def test_guards_reading_fewer_atoms_fill_every_letter(self):
        automaton = BuchiAutomaton(
            ["s", "t"], ["s"], ("p3", "p1", "p2"),
            [Edge("s", guard_from_text("p1"), "t"), Edge("s", guard_from_text("p1 | p2"), "s"),
             Edge("s", guard_from_text("p2"), "t"), Edge("t", guard_true(), "t")],
            (),
        )
        assert automaton.props == ("p1", "p2")
        # bit 0 is p1 and bit 1 is p2; each target once, in edge order
        assert automaton.table == [[(), (1, 0), (0, 1), (1, 0)], [(1,)] * 4]
        assert_table_is_edge_scan(automaton)

    def test_successors_take_any_container_of_propositions(self):
        automaton = load_automaton(DATA / "aut_response.json")
        for letter in all_letters(("p1", "p2", "zz")):
            expected = edge_successors(automaton, "idle", letter)
            for container in (set(letter), list(letter), letter, tuple(letter)):
                assert automaton.successors("idle", container) == expected
        rng = random.Random(96)
        for _ in range(40):
            w = random_letter_lasso(rng, ("p1", "p2", "zz"))
            as_sets = Lasso(tuple(map(set, w.prefix)), tuple(map(set, w.cycle)))
            assert nba_accepts(automaton, as_sets) == nba_accepts(automaton, w)

    def test_undeclared_state_is_a_typed_error(self):
        automaton = load_automaton(DATA / "aut_response.json")
        with pytest.raises(AutomatonError, match="unknown automaton state 'zz'"):
            automaton.successors("zz", frozenset())
        with pytest.raises(AutomatonError, match="unknown automaton state 'zz'"):
            automaton.edges_from("zz")

    def test_loading_and_drawing_build_no_table(self, tmp_path):
        # four 5-atom guards over 20 atoms: the table would hold 2^20 cells
        atoms = [f"x{i}" for i in range(20)]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "states": ["s"], "initial": ["s"], "accepting": ["s"],
            "edges": [{"from": "s", "guard": " & ".join(atoms[k:k + 5]), "to": "s"}
                      for k in range(0, 20, 5)],
        }))
        automaton = load_automaton(path)
        assert automaton.props == tuple(atoms)
        assert automaton_dot(automaton).count("x0 & x1 & x2 & x3 & x4") == 1
        assert "table" not in vars(automaton)


class TestTotality:
    def test_true_automaton_is_total(self):
        assert is_total(ltl_to_buchi(ltl.TRUE))

    def test_hand_written_until_automaton(self):
        automaton = load_automaton(DATA / "aut_until.json")
        assert is_total(automaton)
        rng = random.Random(91)
        f = Until(Atom("p1"), Atom("p2"))
        for _ in range(100):
            w = random_letter_lasso(rng, ("p1", "p2"))
            assert nba_accepts(automaton, w) == ltl.eval_lasso(w, f, 1)

    def test_two_initial_states_not_total(self):
        automaton = BuchiAutomaton(
            ["s", "t"], ["s", "t"], ("p1",),
            [Edge("s", guard_true(), "s"), Edge("t", guard_true(), "t")],
            {"s"},
        )
        assert not is_total(automaton)
        assert totalize(automaton) is None

    def test_totalize_keeps_total_automata(self):
        automaton = load_automaton(DATA / "aut_until.json")
        again = totalize(automaton)
        assert is_total(again)
        assert set(again.states) == set(automaton.states)

    def test_totalize_completes_deterministic_automaton(self):
        incomplete = wait_automaton()
        assert not is_total(incomplete)
        total = totalize(incomplete)
        assert total is not None and is_total(total)
        assert len(total.states) == 3
        rng = random.Random(92)
        for _ in range(150):
            w = random_letter_lasso(rng, ("p1", "p2"))
            assert nba_accepts(total, w) == nba_accepts(incomplete, w)

    def test_totalize_sink_name_avoids_declared_states(self):
        automaton = BuchiAutomaton(
            ["sink", "acc"], ["sink"], ("p1", "p2"),
            [
                Edge("sink", guard_from_text("p1 & !p2"), "sink"),
                Edge("sink", guard_from_text("p2"), "acc"),
                Edge("acc", guard_true(), "acc"),
            ],
            {"acc"},
        )
        total = totalize(automaton)
        assert total.states == ("sink", "acc", "sink_2")
        assert is_total(total) and total.initial == ("sink",)
        assert total.successors("sink_2", frozenset()) == ("sink_2",)

    def test_totalize_without_initial_state_is_the_lone_sink(self):
        automaton = BuchiAutomaton(["s"], [], ("p1",), [Edge("s", guard_true(), "s")],
                                   {"s"})
        total = totalize(automaton)
        assert total.states == ("sink",) and total.initial == ("sink",)
        assert total.accepting == frozenset()
        assert is_total(total)

    def test_totalize_rejects_proper_nondeterminism(self):
        automaton = BuchiAutomaton(
            ["s", "t", "u"], ["s"], ("p1",),
            [
                Edge("s", guard_true(), "t"),
                Edge("s", guard_true(), "u"),
                Edge("t", guard_from_text("p1"), "t"),
                Edge("u", guard_from_text("!p1"), "u"),
            ],
            {"t", "u"},
        )
        assert totalize(automaton) is None

    def test_totalize_preserves_language_random(self):
        rng = random.Random(93)
        checked = 0
        while checked < 60:
            f = random_formula(rng, PROPS, rng.randint(1, 6))
            automaton = ltl_to_buchi(f, props=PROPS)
            total = totalize(automaton)
            if total is None:
                continue
            checked += 1
            for _ in range(10):
                w = random_letter_lasso(rng, PROPS)
                assert nba_accepts(total, w) == nba_accepts(automaton, w)

    def test_total_automata_have_unique_runs(self):
        automaton = load_automaton(DATA / "aut_response.json")
        assert is_total(automaton)
        rng = random.Random(94)
        for _ in range(50):
            w = random_letter_lasso(rng, ("p1", "p2"))
            state = automaton.initial[0]
            for i in range(1, 12):
                targets = automaton.successors(state, w.at(i))
                assert len(targets) == 1
                state = targets[0]


class TestAcceptingLasso:
    def test_accepting_self_loop_at_root(self):
        succ = {"r": ("r",)}
        lasso = accepting_lasso("r", lambda n: succ[n], lambda n: n == "r")
        assert lasso == Lasso(("r",), ("r",))

    def test_unreachable_accepting_state(self):
        succ = {"r": ("r",), "f": ("f",)}
        assert accepting_lasso("r", lambda n: succ[n], lambda n: n == "f") is None

    def test_prefix_reaches_cycle(self):
        succ = {"r": ("m",), "m": ("f",), "f": ("g",), "g": ("f",)}
        lasso = accepting_lasso("r", lambda n: succ[n], lambda n: n == "f")
        assert lasso.prefix == ("r", "m", "f")
        assert lasso.cycle == ("g", "f")
        # the denoted path walks real edges
        unrolled = lasso.unroll(8)
        for a, b in zip(unrolled, unrolled[1:]):
            assert b in succ[a]

    @staticmethod
    def random_graph(rng):
        n = rng.randint(1, 8)
        nodes = list(range(n))
        succ = {
            v: tuple(sorted(rng.sample(nodes, rng.randint(1, min(3, n)))))
            for v in nodes
        }
        return nodes, succ

    def test_matches_cycle_enumeration_oracle(self):
        rng = random.Random(95)
        for _ in range(300):
            nodes, succ = self.random_graph(rng)
            accepting = {v for v in nodes if rng.random() < 0.3}
            got = accepting_lasso(0, lambda v: succ[v], lambda v: v in accepting)
            expected = accepting_lasso_exists(
                nodes, lambda v: succ[v], 0, accepting
            )
            assert (got is not None) == expected
            if got is not None:
                assert any(v in accepting for v in got.cycle)
                unrolled = got.unroll(2 * got.classes + 2)
                assert unrolled[0] == 0
                for a, b in zip(unrolled, unrolled[1:]):
                    assert b in succ[a]


    def test_inside_matches_rejecting_cycle_oracle(self):
        rng = random.Random(98)
        found = 0
        for _ in range(300):
            nodes, succ = self.random_graph(rng)
            accepting = {v for v in nodes if rng.random() < 0.4}

            def rejecting(v):
                return v not in accepting

            got = accepting_lasso(0, lambda v: succ[v], rejecting, inside=rejecting)
            expected = has_rejecting_cycle(nodes, lambda v: succ[v], 0, accepting)
            assert (got is not None) == expected
            if got is not None:
                found += 1
                assert all(rejecting(v) for v in got.cycle)
                unrolled = got.unroll(2 * got.classes + 2)
                assert unrolled[0] == 0
                for a, b in zip(unrolled, unrolled[1:]):
                    assert b in succ[a]
        assert 50 <= found <= 250

    def test_exact_lasso_matches_component_search(self):
        # unsorted successor tuples exercise the tie-breaks too
        rng = random.Random(99)
        found = 0
        for case in range(3000):
            n = rng.randint(1, 9)
            succ = {v: tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
                    for v in range(n)}
            accepting = {v for v in range(n) if rng.random() < 0.3}
            inside = None
            if case % 2:
                inside = {v for v in range(n) if rng.random() < 0.7}.__contains__
            got = accepting_lasso(0, succ.__getitem__, accepting.__contains__, inside)
            assert got == component_accepting_lasso(
                0, succ.__getitem__, accepting.__contains__, inside)
            found += got is not None
        assert found > 500

    def test_one_pass_calls_each_predicate_once_and_keeps_the_bfs_prefix(self):
        # the prefix is the parent chain of the discovery: the path that a
        # breadth-first search from the root, with the same ties, rebuilds
        rng = random.Random(101)
        found = 0
        for case in range(2000):
            n = rng.randint(1, 12)
            succ = {v: tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
                    for v in range(n)}
            accepting = {v for v in range(n) if rng.random() < 0.3}
            inside = {v for v in range(n) if rng.random() < 0.7} if case % 2 else None
            calls = collections.Counter()

            def counted(name, fn):
                def call(v):
                    calls[name, v] += 1
                    return fn(v)
                return call

            got = accepting_lasso(
                0, counted("successors", succ.__getitem__),
                counted("accepting", accepting.__contains__),
                None if inside is None else counted("inside", inside.__contains__))
            reached = [0]
            for v in reached:
                reached += [d for d in succ[v] if d not in reached]
            names = ("successors", "accepting") + (() if inside is None else ("inside",))
            assert calls == collections.Counter(
                {(name, v): 1 for name in names for v in reached})
            if got is not None:
                found += 1
                assert list(got.prefix) == buchi._bfs_path(
                    (0,), got.prefix[-1], succ.__getitem__)
        assert found > 500


class TestNbaAccepts:
    def test_true_accepts_everything(self):
        automaton = ltl_to_buchi(ltl.TRUE, props=PROPS)
        rng = random.Random(96)
        for _ in range(50):
            assert nba_accepts(automaton, random_letter_lasso(rng, PROPS))

    def test_total_until_verdicts(self):
        automaton = load_automaton(DATA / "aut_until.json")
        assert nba_accepts(automaton, Lasso(letters({"p1"}), letters({"p2"})))
        assert not nba_accepts(automaton, Lasso((), letters({"p1"})))


class TestProduct:
    def test_with_true_automaton_mirrors_system(self, agent_system):
        system, valuation = agent_system
        spec = ltl_to_buchi(ltl.TRUE, props=valuation.props)
        prod = product(system, ["q1"], spec, valuation)
        assert {q for q, _ in prod.states} == set(system.states)
        assert len(prod.states) == len(system.states)
        assert len(prod.states) <= len(system.states) * len(spec.states)

    def test_eventually_reaches_accepting_component(self):
        system = _self_loop_system()
        valuation = Valuation(["p"], {"q": {"p"}})
        spec = totalize(ltl_to_buchi(ltl.eventually(Atom("p")), props=("p",)))
        prod = product(system, ["q"], spec, valuation)
        # two steps of hand unrolling: the first move consumes the letter {p}
        # and lands in an accepting component that then loops
        (x0,) = spec.initial
        assert prod.states[0] == ("q", x0) and not prod.accepting[0]
        assert [prod.rows[p] for p in prod.pair] == [((1,),), ((1,),)]
        assert prod.accepting[1]

    def test_requires_total_automaton(self, agent_system):
        system, valuation = agent_system
        with pytest.raises(AutomatonError):
            product(system, ["q1"], wait_automaton(), valuation)

    def test_requires_a_root(self, agent_system):
        system, valuation = agent_system
        spec = ltl_to_buchi(ltl.TRUE, props=valuation.props)
        with pytest.raises(AutomatonError, match="at least one root"):
            product(system, [], spec, valuation)

    def test_projections_of_accepted_lassos(self):
        # any accepting lasso in the product projects to a system trajectory
        # satisfying the formula and to an automaton run over its word
        rng = random.Random(97)
        checked = 0
        while checked < 40:
            system, valuation = random_system(rng)
            f = random_formula(rng, valuation.props, rng.randint(1, 5))
            total = totalize(ltl_to_buchi(f, props=valuation.props))
            if total is None:
                continue
            checked += 1
            prod = TupleProduct(product(system, [system.states[0]], total, valuation))

            def successors(node):
                out = []
                for a in prod.controls:
                    for t in prod.successors(node, a):
                        if t not in out:
                            out.append(t)
                return tuple(out)

            witness = accepting_lasso(
                prod.initial, successors, lambda n: n in prod.accepting
            )
            if witness is None:
                continue
            trajectory = witness.map(lambda node: node[0])
            assert ltl.trajectory_satisfies(trajectory, f, valuation)
            run = witness.map(lambda node: node[1])
            word = valuation.word(trajectory)
            for i in range(1, 2 * witness.classes + 2):
                (expected,) = total.successors(run.at(i), word.at(i))
                assert run.at(i + 1) == expected

    @staticmethod
    def assert_matches_reference(system, roots, total, valuation):
        prod = product(system, roots, total, valuation)
        view = TupleProduct(prod)
        order, targets = per_disturbance_product(system, roots, total, valuation)
        assert prod.states == tuple(order)
        assert prod.accepting == [s[1] in total.accepting for s in order]
        place = view.index.__getitem__
        for s in order:
            for c, a in enumerate(system.controls):
                union = [t for b in system.disturbances for t in targets[s, a, b]]
                assert prod.rows[prod.pair[place(s)]][c] == tuple(
                    place(t) for t in dict.fromkeys(union))
                assert view.successors(s, a) == tuple(sorted(set(union), key=place))
                # each per-disturbance target pairs a world successor with
                # the one automaton state of the control's targets, the
                # rule product_dot and the adversary read them by
                (x2,) = {t[1] for t in view.successors(s, a)}
                for b in system.disturbances:
                    assert targets[s, a, b] == tuple(
                        (q2, x2) for q2 in system.successors_under(s[0], a, b))

    def test_matches_per_disturbance_reference(self):
        # the views and the move table agree with a product that keeps one
        # target list per disturbance, on several roots in shuffled order,
        # and again on the same roots listed with repeats
        rng = random.Random(41)
        checked = 0
        while checked < 300:
            system, valuation = random_system(rng, max_states=6, max_controls=3,
                                              max_disturbances=3)
            f = random_formula(rng, valuation.props, rng.randint(1, 5))
            total = totalize(ltl_to_buchi(f, props=valuation.props))
            if total is None:
                continue
            checked += 1
            roots = rng.sample(system.states, rng.randint(1, len(system.states)))
            self.assert_matches_reference(system, roots, total, valuation)
            repeated = [r for pair in zip(roots[::-1], roots) for r in pair] + roots
            self.assert_matches_reference(system, repeated, total, valuation)

    def test_states_of_one_pair_share_one_row(self):
        # pair numbers the (world state, automaton state of the targets)
        # pairs in first-reach order, there is one row per pair, and each
        # state's pair row equals its row in the per-disturbance reference
        rng = random.Random(45)
        checked = shared = 0
        while checked < 300:
            system, valuation = random_system(rng, max_states=6, max_controls=3,
                                              max_disturbances=3)
            f = random_formula(rng, valuation.props, rng.randint(1, 5))
            total = totalize(ltl_to_buchi(f, props=valuation.props))
            if total is None:
                continue
            checked += 1
            roots = rng.choices(system.states, k=rng.randint(1, 2 * len(system.states)))
            self.assert_matches_reference(system, roots, total, valuation)
            prod = product(system, roots, total, valuation)
            keys = [(q, total.successors(x, valuation.label(q))[0]) for q, x in prod.states]
            first = {}
            for i, key in enumerate(keys):
                first.setdefault(key, i)
            number = {key: p for p, key in enumerate(first)}
            assert prod.pair == [number[key] for key in keys]
            assert len(prod.rows) == len(first)
            order, targets = per_disturbance_product(system, roots, total, valuation)
            place = {s: i for i, s in enumerate(order)}
            assert [prod.rows[p] for p in prod.pair] == [
                tuple(tuple(place[t] for t in dict.fromkeys(
                    t for b in system.disturbances for t in targets[s, a, b]))
                      for a in system.controls)
                for s in order]
            shared += len(first) < len(keys)
        assert shared >= 150

    def test_lost_system_keeps_fewer_rows_than_states(self):
        # a lost-style system: from every free state each control moves on
        # under one disturbance and into a goal-free trap labelled p under
        # the other.  Under "G (p -> F goal)" a world's label leads its
        # three automaton states to one or two next ones, so the 36
        # product states, three per world, share 15 rows
        n, traps = 12, 3
        free = [f"q{i}" for i in range(n - traps)]
        trap = [f"q{i}" for i in range(n - traps, n)]
        labels = {q: [["goal"], ["p"], []][i % 3] for i, q in enumerate(free)}
        labels.update({q: ["p"] for q in trap})
        transitions = []
        for j, a in enumerate(["a0", "a1", "a2"]):
            for i, q in enumerate(free):
                transitions += [(q, a, "b0", free[(i + 1 + j) % len(free)]),
                                (q, a, "b1", trap[(i + j) % traps])]
            transitions += [(q, a, b, trap[(i + 1 + j) % traps])
                            for i, q in enumerate(trap) for b in ("b0", "b1")]
        system = AlternatingTransitionSystem(free + trap, ["a0", "a1", "a2"],
                                             ["b0", "b1"], transitions)
        valuation = Valuation(["goal", "p"], labels)
        spec = spec_automaton(ltl.parse_formula("G (p -> F goal)", valuation.props),
                              valuation)
        prod = product(system, system.states, spec, valuation)
        assert len(prod.states) == 36 and len(set(prod.pair)) == 15
        assert len(prod.rows) == 15

    def test_reads_the_compiled_rows(self):
        # the system's successor rows are compiled once, at construction;
        # the product reads them and never asks the system for successors
        rng = random.Random(47)
        checked = 0
        while checked < 30:
            system, valuation = random_system(rng, max_states=6, max_controls=3,
                                              max_disturbances=3)
            total = totalize(ltl_to_buchi(random_formula(rng, valuation.props, 3),
                                          props=valuation.props))
            if total is None:
                continue
            checked += 1
            calls = []

            def counted(q, a, successors=system.successors):
                calls.append((q, a))
                return successors(q, a)

            system.successors = counted
            prod = product(system, system.states, total, valuation)
            assert calls == [] and len(prod.states) >= len(system.states)

    @pytest.mark.parametrize("filename", [
        "aut_until.json", "aut_always_implies.json", "aut_response.json",
    ])
    def test_named_automaton_states_match_reference(self, filename):
        # automaton states named in the file, not s0, s1, ...; each file is
        # total already, so dropping the edges into its last state makes
        # spec_automaton's completion add a sink
        loaded = load_automaton(DATA / filename)
        last = loaded.states[-1]
        partial = BuchiAutomaton(loaded.states, loaded.initial, loaded.props,
                                 [e for e in loaded.edges if e.dst != last],
                                 loaded.accepting)
        automata = [spec_automaton(automaton=loaded), spec_automaton(automaton=partial)]
        assert automata[0] is loaded
        assert "sink" in automata[1].states and "sink" not in loaded.states
        rng = random.Random(43)
        for _ in range(40):
            system, valuation = random_system(rng, max_states=6, max_controls=3,
                                              max_disturbances=3)
            roots = rng.choices(system.states, k=rng.randint(1, 2 * len(system.states)))
            for total in automata:
                self.assert_matches_reference(system, roots, total, valuation)

    def test_product_dot_follows_per_disturbance_construction(self):
        # the DOT export has one edge line per (state, control, disturbance,
        # target) of the per-disturbance reference, in its construction
        # order, on systems with two or three disturbances
        rng = random.Random(53)
        checked = 0
        while checked < 150:
            system, valuation = random_system(rng, max_states=6, max_controls=3,
                                              max_disturbances=3,
                                              double_successor_p=0.3)
            f = random_formula(rng, valuation.props, rng.randint(1, 5))
            total = totalize(ltl_to_buchi(f, props=valuation.props))
            if len(system.disturbances) < 2 or total is None:
                continue
            checked += 1
            roots = rng.sample(system.states, min(2, len(system.states)))
            order, targets = per_disturbance_product(system, roots, total, valuation)

            def name(state):
                return f'"{state[0]},{state[1]}"'

            lines = ["rankdir=LR;", "node [shape=circle];"]
            lines += [f"{name(s)} [shape="
                      f"{'doublecircle' if s[1] in total.accepting else 'circle'}];"
                      for s in order]
            lines += ["__start [shape=point];", f"__start -> {name(order[0])};"]
            lines += [f'{name(s)} -> {name(t)} [label="{a},{b}"];'
                      for (s, a, b), ts in targets.items() for t in ts]
            expected = "digraph product {\n" + "".join(f"  {l}\n" for l in lines) + "}\n"
            assert product_dot(product(system, roots, total, valuation)) == expected


def _self_loop_system():
    from astra.core import validate_ats

    return validate_ats({
        "states": ["q"],
        "controls": ["a"],
        "disturbances": ["b"],
        "transitions": [{"from": "q", "control": "a", "disturbance": "b", "to": "q"}],
    })


class TestAutomatonFiles:
    def test_unknown_keys_rejected(self, tmp_path):
        import json

        path = tmp_path / "aut.json"
        path.write_text(json.dumps({
            "states": ["s"], "initial": ["s"], "accepting": [], "edges": [],
            "comment": "no",
        }))
        with pytest.raises(AutomatonError):
            load_automaton(path)

    def test_dangling_edge_rejected(self, tmp_path):
        import json

        path = tmp_path / "aut.json"
        path.write_text(json.dumps({
            "states": ["s"], "initial": ["s"], "accepting": [],
            "edges": [{"from": "s", "guard": "true", "to": "t"}],
        }))
        with pytest.raises(AutomatonError):
            load_automaton(path)
