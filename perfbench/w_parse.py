"""parse: the serial garden-path parser and its exhaustive chart oracle.

Sentences are generated from the corpus grammar, PER_LENGTH per length
from 3 to 24 words in each block, in a seeded order; within a length every
derivation is equally likely, except that sentences whose exhaustive chart
holds more than MAX_CHART trees are redrawn. Each block also holds one
ladder sentence: a verb, its object and LADDER_PPS prepositional phrases,
each of which can attach to the verb phrase or to any noun phrase before
it, so that it has exactly LADDER_TREES parses and the largest chart. One operation is what
`pmodel gardenpath --oracle` does: `parse_incremental`, `enumerate_parses`
with `max_words` set to the length, and `is_garden_path`. The program
refuses `is_garden_path` past ten words, so it is called up to that length.

Oracle, computed without the program: a CKY count of parses over the
benchmark's own reading of the grammar file; a serial tree must have the
words as leaves and n - 1 internal nodes (the grammar is binary); the
garden-path verdict must equal (count > 0 and the serial parse failed).
"""

from __future__ import annotations

import os
import random

LENGTHS = tuple(range(3, 25))
PER_LENGTH = 2
# The ladder: NP V NP, then LADDER_PPS times P NP (21 words). Its
# prepositional phrases attach in C(LADDER_PPS + 1) ways, the Catalan number.
LADDER = ("NP", "V", "NP")
LADDER_PPS = 9
LADDER_TREES = 16796
# Generated sentences whose chart holds more trees than this (over all spans,
# the work and memory of `enumerate_parses`) are redrawn: about half the
# ladder's 60,321. Chart size is heavy-tailed and lumpy past 20 words
# (sentences of 24 words have 1,430, 2,002, 3,640, 4,862, 7,072 or 16,796
# parses and more, up to 0.3 s of chart for one sentence), so the 99th
# percentile of a run jumped between those values from seed to seed, and
# the peak memory followed the largest chart of the run. Capped, the
# heaviest generated sentences take about half the time and memory of the
# ladder. The ladder is one operation in 45, so the 99th percentile falls
# near the middle of the ladder's times: it is the chart at a fixed size.
# The cap redraws 13 % of 24-word sentences and 2 % of 22-word ones.
MAX_CHART = 30000


def read_grammar(path):
    """(binary rules as (parent, left, right), lexical map word -> categories, start)."""
    rules, lexical, start = [], {}, None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("start:"):
                start = line.split(":", 1)[1].strip()
                continue
            lhs, rhs = (part.strip() for part in line.split("->", 1))
            for alt in rhs.split("|"):
                parts = alt.split()
                if len(parts) == 1:
                    lexical.setdefault(parts[0].strip("'"), []).append(lhs)
                else:
                    rules.append((lhs, parts[0], parts[1]))
    return rules, lexical, start or rules[0][0]


def cky_chart(rules, lexical, words):
    """Number of parse trees per category for every span (i, k) of the input."""
    n = len(words)
    chart = {}
    for i, w in enumerate(words):
        cell = {}
        for category in lexical.get(w, ()):
            cell[category] = cell.get(category, 0) + 1
        chart[(i, i + 1)] = cell
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            k = i + span
            cell = {}
            for j in range(i + 1, k):
                left, right = chart[(i, j)], chart[(j, k)]
                if not left or not right:
                    continue
                for parent, lcat, rcat in rules:
                    a = left.get(lcat)
                    if a:
                        b = right.get(rcat)
                        if b:
                            cell[parent] = cell.get(parent, 0) + a * b
            chart[(i, k)] = cell
    return chart


def cky_count(rules, lexical, words):
    """Number of parse trees per category over the whole input."""
    return cky_chart(rules, lexical, words)[(0, len(words))]


def chart_trees(chart):
    """Trees an exhaustive chart parser builds: every tree of every span."""
    return sum(sum(cell.values()) for cell in chart.values())


class Generator:
    """Uniform sampling over derivations of an exact length."""

    def __init__(self, rules, lexical):
        self.rules = rules
        self.words_of = {}
        for word, categories in lexical.items():
            for c in categories:
                self.words_of.setdefault(c, []).append(word)
        self.memo = {}

    def count(self, category, n):
        key = (category, n)
        if key not in self.memo:
            total = len(self.words_of.get(category, ())) if n == 1 else 0
            for parent, left, right in self.rules:
                if parent == category:
                    for k in range(1, n):
                        total += self.count(left, k) * self.count(right, n - k)
            self.memo[key] = total
        return self.memo[key]

    def sample(self, rng, category, n):
        pick = rng.randrange(self.count(category, n))
        if n == 1:
            words = self.words_of.get(category, ())
            if pick < len(words):
                return [words[pick]]
            pick -= len(words)
        for parent, left, right in self.rules:
            if parent != category:
                continue
            for k in range(1, n):
                ways = self.count(left, k) * self.count(right, n - k)
                if pick < ways:
                    return self.sample(rng, left, k) + self.sample(rng, right, n - k)
                pick -= ways
        raise AssertionError("count and sample disagree")

    def ladder(self, rng):
        """A ladder sentence with seeded words."""
        categories = LADDER + ("P", "NP") * LADDER_PPS
        return [rng.choice(self.words_of[c]) for c in categories]


class Workload:
    name = "parse"
    loader = "grammar"
    traced_blocks = 15
    patches = (
        ("gardenpath", "step"),
        ("gardenpath", "parse_incremental"),
        ("gardenpath", "enumerate_parses"),
    )

    def __init__(self, seed, workdir, corpus_dir):
        self.seed = seed
        path = os.path.join(corpus_dir, "grammar.cfg")
        self.input_files = [path]
        self.rules, self.lexical, self.start = read_grammar(path)
        self.generator = Generator(self.rules, self.lexical)
        self.grammar = None

    def load(self, loaded):
        (self.grammar,) = loaded

    def blocks(self, stream):
        """Endless blocks of PER_LENGTH sentences per length and a ladder,
        as (words, CKY count)."""
        rng = random.Random(f"parse/{self.seed}/{stream}")
        while True:
            lengths = list(LENGTHS) * PER_LENGTH
            rng.shuffle(lengths)
            block = []
            for n in lengths:
                while True:
                    words = self.generator.sample(rng, self.start, n)
                    chart = cky_chart(self.rules, self.lexical, words)
                    if chart_trees(chart) <= MAX_CHART:
                        break
                block.append((words, chart[(0, n)].get(self.start, 0)))
            words = self.generator.ladder(rng)
            count = cky_count(self.rules, self.lexical, words).get(self.start, 0)
            if count != LADDER_TREES:
                raise AssertionError(f"ladder {' '.join(words)!r} has {count} parses, not {LADDER_TREES}")
            block.insert(rng.randrange(len(block) + 1), (words, count))
            yield block

    def probe_items(self, block):
        """A short fixed list for comparing CPUs (run.CpuChooser)."""
        return sorted(block, key=lambda item: len(item[0]))[:12]

    def op(self, api, item):
        words = item[0]
        try:
            tree, _ = api.parse_incremental(self.grammar, words)
        except api.serial_failures:
            tree = None
        parses = api.enumerate_parses(self.grammar, words, max_words=len(words))
        verdict = api.is_garden_path(self.grammar, words) if len(words) <= 10 else None
        return tree, len(parses), verdict

    def check(self, item, out):
        words, count = item
        tree, parses, verdict = out
        if parses != count:
            return False
        if tree is not None and (list(tree.leaves) != words or tree.size != len(words) - 1):
            return False
        return verdict is None or verdict == (count > 0 and tree is None)
