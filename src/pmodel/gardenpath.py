"""Serial incremental parser that commits early and can be led up the garden
path.

The grammar is binary-branching (every rule has exactly two children) plus
lexical rules mapping categories to words. The parser consumes one word at a
time and keeps exactly one analysis:

  * each word's attachment options are enumerated (reduce the pending
    constituent zero or more times, hook it in as a left corner, then attach
    or project the new word);
  * the option building the fewest new nodes wins (minimal attachment);
  * ties go to the option that closes the fewest open constituents, which
    keeps material inside the most recent phrase (late closure);
  * remaining ties follow rule order in the grammar file.

Because the parser never backtracks, a locally best choice can doom a
globally fine sentence: parse_incremental raises NoAttachment mid-string
even though enumerate_parses (exhaustive chart) finds a tree. That gap is
what is_garden_path() reports.

The exhaustive side is a shared packed forest (Billot & Lang 1989) built in
two passes. The recognition pass fills a chart that keeps, per span and
category, only backpointers: None for a word, or (rule, split point). It
builds no trees and costs O(n^3 * |rules|) for n words. count_parses and
is_garden_path read that chart alone, so they run in polynomial time at
any length. enumerate_parses adds the unpacking pass, which builds trees
only for the cells that can reach the root, one per parse of each such
cell; its cost is the number of those trees, which can grow exponentially
with n, so it keeps a bound on the words it accepts. It runs both passes
with the cyclic garbage collector paused, since the chart and the trees are
acyclic and a collection among them could free nothing; the caller's
collector state is restored on every exit.

Reduction is lazy: a completed constituent stays "pending" until the next
word forces a decision about where it belongs, so attachment height is
chosen on evidence, not eagerly.
"""

from __future__ import annotations

import gc
import re
from typing import Optional

from .errors import PmodelError
from .frozen import Frozen

_CAT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WORD_RE = re.compile(r"[A-Za-z][a-z'-]*")


class GrammarError(PmodelError):
    pass


class BoundExceeded(PmodelError):
    def __init__(self, n_words: int, max_words: int):
        super().__init__(f"refusing to enumerate parses for {n_words} words (max {max_words})")
        self.n_words = n_words
        self.max_words = max_words


class NoAttachment(PmodelError):
    """The serial parser has nowhere to put `word`."""

    def __init__(self, word: str, position: int):
        super().__init__(f"no attachment for {word!r} at position {position}")
        self.word = word
        self.position = position


class IncompleteParse(PmodelError):
    pass


class Rule(Frozen):
    __slots__ = ("parent", "left", "right")
    parent: str
    left: str
    right: str


class LexRule(Frozen):
    __slots__ = ("category", "word")
    category: str
    word: str


class ParseTree(Frozen):
    # charts build hundreds of thousands of nodes (see frozen.Frozen); the
    # weak reference slot lets callers keep trees in weak containers
    __slots__ = ("label", "children", "word", "__weakref__")
    _defaults = {"children": (), "word": None}
    label: str
    children: tuple["ParseTree", ...]
    word: Optional[str]

    def _check(self) -> None:
        if (self.word is None) == (not self.children):
            raise GrammarError("a node is either a leaf with a word or has children")

    @property
    def size(self) -> int:
        """Internal node count."""
        if self.word is not None:
            return 0
        return 1 + sum(c.size for c in self.children)

    @property
    def leaves(self) -> tuple[str, ...]:
        if self.word is not None:
            return (self.word,)
        return tuple(w for c in self.children for w in c.leaves)


def render_tree(t: ParseTree) -> str:
    if t.word is not None:
        return f"({t.label} {t.word})"
    return "(" + " ".join([t.label] + [render_tree(c) for c in t.children]) + ")"


class Grammar(Frozen):
    __slots__ = ("start", "rules", "lexical", "_lc", "_by_left", "_by_word", "_rank")
    start: str
    rules: tuple[Rule, ...]
    lexical: tuple[LexRule, ...]

    def _check(self) -> None:
        if not self.rules and not self.lexical:
            raise GrammarError("empty grammar")
        if len(set(self.rules)) != len(self.rules) or len(set(self.lexical)) != len(self.lexical):
            raise GrammarError("duplicate rule")
        parents = {r.parent for r in self.rules}
        lexcats = {l.category for l in self.lexical}
        for r in self.rules:
            for child in (r.left, r.right):
                if child not in parents and child not in lexcats:
                    raise GrammarError(f"category {child!r} has no rules")
        if self.start not in parents and self.start not in lexcats:
            raise GrammarError(f"start symbol {self.start!r} has no rules")
        # left-corner closure: cat -> categories that can begin it
        cats = parents | lexcats | {r.left for r in self.rules} | {r.right for r in self.rules}
        lc = {c: {c} for c in cats}
        changed = True
        while changed:
            changed = False
            for c in cats:
                for r in self.rules:
                    if r.parent in lc[c] and r.left not in lc[c]:
                        lc[c].add(r.left)
                        changed = True
        Grammar._lc.__set__(self, {c: frozenset(s) for c, s in lc.items()})
        by_left: dict[str, list[Rule]] = {}
        for r in self.rules:
            by_left.setdefault(r.left, []).append(r)
        Grammar._by_left.__set__(self, {c: tuple(rs) for c, rs in by_left.items()})
        by_word: dict[str, list[str]] = {}
        for l in self.lexical:
            by_word.setdefault(l.word, []).append(l.category)
        Grammar._by_word.__set__(self, {w: tuple(cs) for w, cs in by_word.items()})
        Grammar._rank.__set__(self, {rule: r for r, rule in enumerate(self.rules)})

    def left_corners(self, category: str) -> frozenset[str]:
        return self._lc.get(category, frozenset({category}))

    def rules_with_left(self, category: str) -> tuple[Rule, ...]:
        """The binary rules whose left child is `category`, in grammar order."""
        return self._by_left.get(category, ())

    def categories_of(self, word: str) -> tuple[str, ...]:
        """The categories of `word`'s lexical rules, in grammar order."""
        return self._by_word.get(word, ())


def load_grammar(path) -> Grammar:
    """One rule per line: ``S -> NP VP`` or ``N -> 'man' | 'woman'``.

    ``start: S`` overrides the default start symbol (the first rule's
    parent). ``#`` comments and blank lines are skipped.
    """
    rules: list[Rule] = []
    lexical: list[LexRule] = []
    start: Optional[str] = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("start:"):
                start = line.split(":", 1)[1].strip()
                continue
            if "->" not in line:
                raise GrammarError(f"line {lineno}: expected '->'")
            lhs, rhs = (part.strip() for part in line.split("->", 1))
            if not _CAT_RE.fullmatch(lhs):
                raise GrammarError(f"line {lineno}: bad category {lhs!r}")
            for alt in rhs.split("|"):
                parts = alt.split()
                if len(parts) == 1 and parts[0].startswith("'") and parts[0].endswith("'"):
                    word = parts[0][1:-1]
                    if not _WORD_RE.fullmatch(word):
                        raise GrammarError(f"line {lineno}: bad word {parts[0]}")
                    lexical.append(LexRule(lhs, word))
                elif len(parts) == 2 and all(_CAT_RE.fullmatch(p) for p in parts):
                    rules.append(Rule(lhs, parts[0], parts[1]))
                else:
                    raise GrammarError(
                        f"line {lineno}: need two categories or one quoted word, got {alt.strip()!r}"
                    )
    if start is None:
        if not rules:
            raise GrammarError("no rules")
        start = rules[0].parent
    return Grammar(start, tuple(rules), tuple(lexical))


class Frame(Frozen):
    """An open binary node: left child built, right child expected."""

    __slots__ = ("rule", "left")
    rule: Rule
    left: ParseTree

    @property
    def expect(self) -> str:
        return self.rule.right


class ParserState(Frozen):
    __slots__ = ("frames", "pending")
    _defaults = {"frames": (), "pending": None}
    frames: tuple[Frame, ...]
    pending: Optional[ParseTree]  # completed, not yet attached


class StepInfo(Frozen):
    __slots__ = ("category", "nodes", "pops")
    category: str
    nodes: int  # new internal nodes this word forced
    pops: int  # constituents closed this word


def _expectation(grammar: Grammar, frames: list[Frame]) -> str:
    return frames[-1].expect if frames else grammar.start


def _dispose(grammar: Grammar, state: ParserState):
    """Ways to clear the pending slot: r reduces, then adjoin as a left
    corner. Yields (frames, pops, new_nodes), fewest reduces first.
    """
    if state.pending is None:
        return [(list(state.frames), 0, 0)]
    out = []
    frames = list(state.frames)
    pend = state.pending
    pops = 0
    while True:
        corners = grammar.left_corners(_expectation(grammar, frames))
        for rule in grammar.rules_with_left(pend.label):
            if rule.parent in corners:
                out.append((frames + [Frame(rule, pend)], pops, 1))
        if frames and frames[-1].expect == pend.label:
            top = frames.pop()
            pend = ParseTree(top.rule.parent, (top.left, pend))
            pops += 1
        else:
            return out


def step(grammar: Grammar, state: ParserState, word: str):
    """All one-word continuations as (state, info), in preference order
    before cost ranking."""
    options: list[tuple[ParserState, StepInfo]] = []
    for category in grammar.categories_of(word):
        leaf = ParseTree(category, word=word)
        for frames, pops, dnodes in _dispose(grammar, state):
            exp = _expectation(grammar, frames)
            if frames and exp == category:
                top = frames[-1]
                done = ParseTree(top.rule.parent, (top.left, leaf))
                options.append(
                    (
                        ParserState(tuple(frames[:-1]), done),
                        StepInfo(category, dnodes, pops + 1),
                    )
                )
            corners = grammar.left_corners(exp)
            for rule in grammar.rules_with_left(category):
                if rule.parent in corners:
                    options.append(
                        (
                            ParserState(tuple(frames) + (Frame(rule, leaf),)),
                            StepInfo(category, dnodes + 1, pops),
                        )
                    )
            if not frames and category == grammar.start:
                options.append((ParserState((), leaf), StepInfo(category, dnodes, pops)))
    return options


def parse_incremental(grammar: Grammar, words) -> tuple[ParseTree, tuple[StepInfo, ...]]:
    """Parse serially, committing at every word. Minimal attachment, then
    late closure, then rule order. Returns the tree and the chosen step of
    each word, in word order."""
    state = ParserState()
    trace: list[StepInfo] = []
    for position, word in enumerate(words):
        options = step(grammar, state, word)
        if not options:
            raise NoAttachment(word, position)
        best = min(range(len(options)), key=lambda k: (options[k][1].nodes, options[k][1].pops, k))
        state, info = options[best]
        trace.append(info)
    pend = state.pending
    frames = list(state.frames)
    if pend is not None:
        while frames and frames[-1].expect == pend.label:
            top = frames.pop()
            pend = ParseTree(top.rule.parent, (top.left, pend))
    if pend is None or frames or pend.label != grammar.start:
        raise IncompleteParse(f"input ended with unmet expectations after {len(trace)} words")
    return pend, tuple(trace)


def _recognize(grammar: Grammar, words: list[str]) -> dict:
    """The recognition pass: a packed chart of backpointers, no trees.

    chart[(i, k)] maps each category that spans words i..k to None for a
    word, or to its backpointers (rule, j): rule.left over i..j and
    rule.right over j..k. They are in tree order: split point ascending,
    then grammar rule order. Cells are inserted by span length, shortest
    first.
    """
    n = len(words)
    chart: dict[tuple[int, int], dict[str, Optional[list[tuple[Rule, int]]]]] = {}
    for i, w in enumerate(words):
        chart[(i, i + 1)] = dict.fromkeys(grammar.categories_of(w))
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            k = i + span
            cell: dict[str, Optional[list[tuple[Rule, int]]]] = {}
            for j in range(i + 1, k):
                lefts = chart[(i, j)]
                rights = chart[(j, k)]
                if not lefts or not rights:
                    continue
                hits = [
                    rule
                    for category in lefts
                    for rule in grammar.rules_with_left(category)
                    if rule.right in rights
                ]
                if len(hits) > 1:
                    hits.sort(key=grammar._rank.__getitem__)
                for rule in hits:
                    cell.setdefault(rule.parent, []).append((rule, j))
            chart[(i, k)] = cell
    return chart


def enumerate_parses(grammar: Grammar, words, max_words: int = 10) -> tuple[ParseTree, ...]:
    """Every parse, by exhaustive chart; the oracle the serial parser is
    measured against.

    Trees come split point ascending, then in grammar rule order, then by
    left subtree, then by right subtree. After the recognition pass, the
    unpacking pass marks the cells that can reach (start, 0, n), longest
    spans first, and then builds their trees, shortest spans first. Each
    such cell's trees are built once and shared by every parent, so the
    cost is one node per parse of a live cell; cells no parse uses build
    nothing. Sentences over `max_words` raise BoundExceeded, because the
    number of parses can grow exponentially with the length. Both passes run
    with the cycle collector paused (about a fifth of the time on a 21-word,
    16,796-parse sentence went to collections that freed nothing: the chart
    and the trees hold no cycles); gc.isenabled() is as the caller left it
    on return or raise.
    """
    words = list(words)
    n = len(words)
    if n == 0:
        return ()
    if n > max_words:
        raise BoundExceeded(n, max_words)
    # the chart and the trees are acyclic: a collection could free nothing
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        chart = _recognize(grammar, words)
        root = (grammar.start, 0, n)
        if grammar.start not in chart[(0, n)]:
            return ()
        live = {root}
        for (i, k) in reversed(chart):
            for category, backpointers in chart[(i, k)].items():
                if backpointers is not None and (category, i, k) in live:
                    for rule, j in backpointers:
                        live.add((rule.left, i, j))
                        live.add((rule.right, j, k))
        trees: dict[tuple[str, int, int], list[ParseTree]] = {}
        for (i, k), cell in chart.items():
            for category, backpointers in cell.items():
                key = (category, i, k)
                if key not in live:
                    continue
                if backpointers is None:
                    trees[key] = [ParseTree(category, word=words[i])]
                    continue
                built: list[ParseTree] = []
                for rule, j in backpointers:
                    lefts = trees[(rule.left, i, j)]
                    rights = trees[(rule.right, j, k)]
                    built += [ParseTree(category, (lt, rt)) for lt in lefts for rt in rights]
                trees[key] = built
        return tuple(trees[root])
    finally:
        if was_enabled:
            gc.enable()


def count_parses(grammar: Grammar, words) -> int:
    """How many parses `words` has, by dynamic programming over the packed
    chart. Builds no trees, so it takes any length. Every rule has two
    children and every leaf is a word, so each parse of n words has the same
    n - 1 internal nodes: the count is all there is to report."""
    words = list(words)
    chart = _recognize(grammar, words)
    tally: dict[tuple[str, int, int], int] = {}
    for (i, k), cell in chart.items():
        for category, backpointers in cell.items():
            tally[(category, i, k)] = (
                1
                if backpointers is None
                else sum(tally[(r.left, i, j)] * tally[(r.right, j, k)] for r, j in backpointers)
            )
    return tally.get((grammar.start, 0, len(words)), 0)


def is_garden_path(grammar: Grammar, words) -> bool:
    """Grammatical, yet the serial parser chokes. Grammaticality is read
    from the packed chart, so any length is accepted."""
    words = list(words)
    if not count_parses(grammar, words):
        return False
    try:
        parse_incremental(grammar, words)
    except (NoAttachment, IncompleteParse):
        return True
    return False
