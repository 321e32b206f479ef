"""Serial parsing and attachment preferences.

The oracle here is a span-recursive chart parser written directly from the
grammar definition (memoized divide and conquer over word ranges), so parse
sets from enumerate_parses are checked against a second implementation. The
order of the parses is pinned against a bottom-up chart that builds every
tree of every cell, the way enumerate_parses worked before its packed
forest.
"""
from __future__ import annotations

import copy
import gc
import pickle
import weakref
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, run_cli
from pmodel import gardenpath
from pmodel.gardenpath import (
    BoundExceeded,
    Grammar,
    GrammarError,
    IncompleteParse,
    LexRule,
    NoAttachment,
    ParserState,
    ParseTree,
    Rule,
    count_parses,
    enumerate_parses,
    is_garden_path,
    load_grammar,
    parse_incremental,
    render_tree,
    step,
)

GRAMMAR = load_grammar(CORPUS_DIR / "grammar.cfg")
SENTENCES = [
    line.split()
    for line in (CORPUS_DIR / "sentences.txt").read_text().splitlines()
    if line and not line.startswith("#")
]
PP_SENTENCE = "the man saw the dog in the park".split()
GP_SENTENCE = "the woman knows the man left".split()


def oracle_trees(grammar: Grammar, words: list[str]) -> set[str]:
    """All parses of words, as rendered strings, by span recursion."""
    words = tuple(words)

    @lru_cache(maxsize=None)
    def spans(label: str, i: int, j: int) -> tuple[ParseTree, ...]:
        found = []
        if j - i == 1:
            for rule in grammar.lexical:
                if rule.category == label and rule.word == words[i]:
                    found.append(ParseTree(label, word=words[i]))
        for rule in grammar.rules:
            if rule.parent != label:
                continue
            for k in range(i + 1, j):
                for left in spans(rule.left, i, k):
                    for right in spans(rule.right, k, j):
                        found.append(ParseTree(label, (left, right)))
        return tuple(found)

    return {render_tree(t) for t in spans(grammar.start, 0, len(words))}


def reference_chart(grammar: Grammar, words: list[str]) -> list[str]:
    """All parses of words, rendered, in the order of a bottom-up chart that
    builds every tree of every cell: split point, then rule, then left tree,
    then right tree."""
    n = len(words)
    if n == 0:
        return []
    chart: dict[tuple[int, int], dict[str, list[ParseTree]]] = {}
    for i, w in enumerate(words):
        cell: dict[str, list[ParseTree]] = {}
        for category in grammar.categories_of(w):
            cell.setdefault(category, []).append(ParseTree(category, word=w))
        chart[(i, i + 1)] = cell
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            k = i + span
            cell = {}
            for j in range(i + 1, k):
                for rule in grammar.rules:
                    for lt in chart[(i, j)].get(rule.left, ()):
                        for rt in chart[(j, k)].get(rule.right, ()):
                            cell.setdefault(rule.parent, []).append(
                                ParseTree(rule.parent, (lt, rt))
                            )
            chart[(i, k)] = cell
    return [render_tree(t) for t in chart[(0, n)].get(grammar.start, ())]


def fewest_words(grammar: Grammar) -> dict[str, int]:
    """The fewest words each category can span."""
    least = {rule.category: 1 for rule in grammar.lexical}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            if rule.left in least and rule.right in least:
                m = least[rule.left] + least[rule.right]
                if m < least.get(rule.parent, m + 1):
                    least[rule.parent] = m
                    changed = True
    return least


LEAST = fewest_words(GRAMMAR)
VOCABULARY = sorted({rule.word for rule in GRAMMAR.lexical})


@st.composite
def derived_sentences(draw, max_words: int = 12) -> list[str]:
    """A sentence derived from the start symbol, of at most max_words."""

    def expand(category: str, budget: int) -> list[str]:
        choices: list = [l.word for l in GRAMMAR.lexical if l.category == category]
        choices += [
            r
            for r in GRAMMAR.rules
            if r.parent == category and LEAST[r.left] + LEAST[r.right] <= budget
        ]
        pick = draw(st.sampled_from(choices))
        if isinstance(pick, str):
            return [pick]
        left = expand(pick.left, budget - LEAST[pick.right])
        return left + expand(pick.right, budget - len(left))

    return expand(GRAMMAR.start, max_words)


SENTENCE_DRAWS = st.one_of(
    derived_sentences(), st.lists(st.sampled_from(VOCABULARY), max_size=8)
)


# ----------------------------------------------------------------- grammar


def test_load_grammar_shape():
    assert GRAMMAR.start == "S"
    assert Rule("S", "NP", "VP") in GRAMMAR.rules
    assert LexRule("DET", "the") in GRAMMAR.lexical
    assert "N" in GRAMMAR.categories_of("man")


def test_grammar_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("S -> NP VP PP\n")  # ternary rule
    with pytest.raises(GrammarError):
        load_grammar(bad)
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing\n")
    with pytest.raises(GrammarError):
        load_grammar(empty)


# ------------------------------------------------------------- enumeration


def test_enumerate_matches_oracle_on_corpus():
    for words in SENTENCES:
        got = {render_tree(t) for t in enumerate_parses(GRAMMAR, words)}
        assert got == oracle_trees(GRAMMAR, words), " ".join(words)


def test_enumerate_matches_oracle_on_junk():
    for words in (["man", "the"], ["saw"], ["the", "the", "the"], ["in", "the", "park"]):
        assert {render_tree(t) for t in enumerate_parses(GRAMMAR, words)} == oracle_trees(GRAMMAR, words)


def test_enumerate_keeps_the_chart_order_on_corpus():
    for words in SENTENCES + [PP_SENTENCE, GP_SENTENCE]:
        got = [render_tree(t) for t in enumerate_parses(GRAMMAR, words)]
        assert got == reference_chart(GRAMMAR, words), " ".join(words)


@settings(max_examples=200, deadline=None)
@given(SENTENCE_DRAWS)
def test_enumerate_keeps_the_chart_order(words):
    want = reference_chart(GRAMMAR, words)
    parses = enumerate_parses(GRAMMAR, words, max_words=12)
    assert [render_tree(t) for t in parses] == want
    assert count_parses(GRAMMAR, words) == len(want)
    # the CLI reports len(words) - 1 as the fewest nodes without a search
    assert {t.size for t in parses} <= {len(words) - 1}


def test_order_follows_the_grammar_not_the_cell():
    # 'a' is A before B, but the rule over B comes first in the grammar
    grammar = Grammar(
        "X",
        (Rule("X", "B", "C"), Rule("X", "A", "C")),
        (LexRule("A", "a"), LexRule("B", "a"), LexRule("C", "c")),
    )
    got = [render_tree(t) for t in enumerate_parses(grammar, ["a", "c"])]
    assert got == reference_chart(grammar, ["a", "c"]) == ["(X (B a) (C c))", "(X (A a) (C c))"]


def test_rules_with_left_keep_grammar_order():
    for category in {r.left for r in GRAMMAR.rules} | {"IV", "nothing"}:
        want = tuple(r for r in GRAMMAR.rules if r.left == category)
        assert GRAMMAR.rules_with_left(category) == want


def test_dropped_parses_need_no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        parses = enumerate_parses(GRAMMAR, PP_SENTENCE)
        tree = weakref.ref(parses[0])
        leaf = weakref.ref(parses[-1].children[0])
        del parses
        assert tree() is None and leaf() is None
    finally:
        if was_enabled:
            gc.enable()


def test_pp_attachment_is_twofold():
    parses = enumerate_parses(GRAMMAR, PP_SENTENCE)
    assert len(parses) == 2
    assert {t.size for t in parses} == {7}  # both attachments cost the same


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        enumerate_parses(GRAMMAR, ["the"] * 11)
    assert enumerate_parses(GRAMMAR, []) == ()


LADDER = "Jones saw Jones".split() + "in Jones".split() * 9  # 21 words


def test_counts_take_any_length():
    assert count_parses(GRAMMAR, LADDER) == 16796
    assert count_parses(GRAMMAR, ["the"] * 11) == 0
    assert count_parses(GRAMMAR, []) == 0
    assert not is_garden_path(GRAMMAR, LADDER)
    assert is_garden_path(GRAMMAR, "Jones knows the man in the park with the dog left".split())


@contextmanager
def collector(enabled: bool):
    """Run the block with the cycle collector on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_the_ladder_is_unpacked_without_a_collection():
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    with collector(True):
        gc.collect()  # empty the young generation: nothing before the pause can start a collection
        gc.callbacks.append(record)
        try:
            parses = enumerate_parses(GRAMMAR, LADDER, max_words=21)
        finally:
            gc.callbacks.remove(record)
    assert len(parses) == 16796
    assert collections == []


@pytest.mark.parametrize("enabled", [True, False])
def test_enumerate_restores_the_collector_state(enabled):
    with collector(enabled):
        enumerate_parses(GRAMMAR, PP_SENTENCE)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failed_unpacking_restores_the_collector_state(monkeypatch, enabled):
    built = []

    def failing_tree(*args, **kwargs):
        if len(built) == 3:
            raise RuntimeError("node budget spent")
        built.append(ParseTree(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(gardenpath, "ParseTree", failing_tree)
    with collector(enabled):
        with pytest.raises(RuntimeError, match="node budget spent"):
            enumerate_parses(GRAMMAR, PP_SENTENCE)
        assert gc.isenabled() is enabled


def test_cli_oracle_counts_a_21_word_ladder():
    code, out, err = run_cli(
        "gardenpath", "--grammar", str(CORPUS_DIR / "grammar.cfg"), "--oracle", " ".join(LADDER)
    )
    assert (code, err) == (0, "")
    assert out.endswith("parses: 16796\nminimal nodes: 20\ngarden path: no\n")


# ---------------------------------------------------------- serial parsing


def test_parse_incremental_simple():
    tree, steps = parse_incremental(GRAMMAR, ["the", "man", "left"])
    assert render_tree(tree) == "(S (NP (DET the) (N man)) (IV left))"
    assert [s.nodes for s in steps] == [1, 0, 1]
    assert tree.size == 2
    assert tree.leaves == ("the", "man", "left")


def test_step_trace_fields():
    _, steps = parse_incremental(GRAMMAR, ["the", "man", "left"])
    assert [(s.category, s.nodes, s.pops) for s in steps] == [("DET", 1, 0), ("N", 0, 1), ("IV", 1, 1)]


def test_no_attachment_carries_position():
    with pytest.raises(NoAttachment) as exc:
        parse_incremental(GRAMMAR, ["left", "the", "man"])
    assert exc.value.word == "left" and exc.value.position == 0


def test_incomplete_parse():
    with pytest.raises(IncompleteParse):
        parse_incremental(GRAMMAR, ["the", "man", "saw"])


def test_unknown_word_fails():
    with pytest.raises(NoAttachment):
        parse_incremental(GRAMMAR, ["the", "gorilla", "left"])


# ------------------------------------------------------------- preferences


def replay_options(words: list[str], upto: int):
    """Drive the parser to word `upto` and return that word's option list."""
    state = ParserState()
    for word in words[:upto]:
        options = step(GRAMMAR, state, word)
        best = min(range(len(options)), key=lambda k: (options[k][1].nodes, options[k][1].pops, k))
        state = options[best][0]
    return step(GRAMMAR, state, words[upto])


def test_late_closure_breaks_the_tie():
    # at "in" both attachments open the same number of new nodes; the parser
    # must keep the current noun phrase open (fewer pops) rather than close
    # it and attach high
    options = replay_options(PP_SENTENCE, 5)
    infos = [info for _, info in options]
    assert len(infos) == 2
    assert infos[0].nodes == infos[1].nodes
    assert infos[0].pops != infos[1].pops
    tree, steps = parse_incremental(GRAMMAR, PP_SENTENCE)
    assert steps[5].pops == min(i.pops for i in infos)
    assert "(NP (NP (DET the) (N dog)) (PP" in render_tree(tree)  # low attachment


def test_serial_choice_is_minimal_on_pp_sentence():
    tree, _ = parse_incremental(GRAMMAR, PP_SENTENCE)
    assert len(replay_options(PP_SENTENCE, 5)) == 2
    assert tree.size == min(t.size for t in enumerate_parses(GRAMMAR, PP_SENTENCE))


def test_minimality_across_corpus():
    for words in SENTENCES:
        try:
            tree, _ = parse_incremental(GRAMMAR, words)
        except (NoAttachment, IncompleteParse):
            continue
        best = min(t.size for t in enumerate_parses(GRAMMAR, words))
        assert tree.size == best, " ".join(words)


# ------------------------------------------------------------- garden path


def test_garden_path_witness():
    # grammatical (complement-clause reading exists) but the serial parser
    # commits to "knows the man" as a finished object and chokes on "left"
    assert enumerate_parses(GRAMMAR, GP_SENTENCE)
    with pytest.raises(NoAttachment):
        parse_incremental(GRAMMAR, GP_SENTENCE)
    assert is_garden_path(GRAMMAR, GP_SENTENCE)


def test_non_garden_paths():
    assert not is_garden_path(GRAMMAR, ["the", "man", "left"])
    assert not is_garden_path(GRAMMAR, PP_SENTENCE)
    assert not is_garden_path(GRAMMAR, ["the", "gorilla", "left"])  # ungrammatical
    assert not is_garden_path(GRAMMAR, iter(["the", "man", "left"]))  # read once


def test_corpus_contains_a_garden_path():
    assert any(is_garden_path(GRAMMAR, words) for words in SENTENCES)


# ------------------------------------------------------------------- trees


def test_parse_tree_is_a_frozen_value():
    t = ParseTree("S", (ParseTree("NP", word="Jones"), ParseTree("IV", word="left")))
    same = ParseTree("S", (ParseTree("NP", word="Jones"), ParseTree("IV", word="left")))
    assert t == same and hash(t) == hash(same) and len({t, same}) == 1
    assert t != ParseTree("S", (ParseTree("NP", word="Jones"), ParseTree("IV", word="fell")))
    assert (t.label, t.word, t.children[1].word) == ("S", None, "left")
    with pytest.raises(FrozenInstanceError):
        t.label = "VP"
    assert pickle.loads(pickle.dumps(t)) == t and copy.deepcopy(t) == t
    assert repr(t.children[0]) == "ParseTree(label='NP', children=(), word='Jones')"
    with pytest.raises(GrammarError):
        ParseTree("NP", (t,), word="Jones")
    with pytest.raises(GrammarError):
        ParseTree("NP")


def test_tree_size_counts_internal_nodes():
    t = ParseTree("S", (ParseTree("NP", word="Jones"), ParseTree("IV", word="left")))
    assert t.size == 1
    assert t.leaves == ("Jones", "left")

