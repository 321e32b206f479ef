"""recognize: cohort word recognition over a large lexicon.

The lexicon is the corpus lexicon plus seeded distractors, 5,000 entries in
all, written as TSV and loaded in set-up. Every distractor has a lower
frequency than every corpus word, so the original word is the right answer
for each corrupted token: it is at distance 1, and distractors lose ties.

One operation recognizes one token the way `pmodel recognize` does per slot.
A token is a corpus word with one `#`. Tokens are dealt from a deck holding
every (word, position) pair once, so each word's `#` position is uniform and
the share of position-0 tokens is the same from seed to seed and from block
to block. A `#` at
position 0 empties the clean prefix, so the cohort is the whole lexicon;
late positions give small cohorts. Half the tokens carry the word's
category as the slot's expected category.
"""

from __future__ import annotations

import os
import random
import string

LEXICON_SIZE = 5000
GROUPS = 5  # blocks per deck
CATEGORIES = ("N", "V", "Q", "WH", "DET", "P")


def read_corpus_lexicon(path):
    """(form, category, frequency, line) for each entry of a lexicon TSV."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            entries.append((cols[0], cols[1], int(cols[3]), line))
    return entries


class Workload:
    name = "recognize"
    loader = "lexicon"
    traced_blocks = 20  # four decks
    patches = (("lexicon", "access"), ("lexicon", "select"), ("lexicon", "integrate"))

    def __init__(self, seed, workdir, corpus_dir):
        self.seed = seed
        corpus = read_corpus_lexicon(os.path.join(corpus_dir, "lexicon.tsv"))
        self.words = [(form, category) for form, category, _, _ in corpus]
        floor = min(freq for _, _, freq, _ in corpus)
        rng = random.Random(f"recognize/{seed}/setup")
        taken = {(form.casefold(), category) for form, category, _, _ in corpus}
        forms = {form.casefold() for form, _, _, _ in corpus}
        lines = [line for _, _, _, line in corpus]
        while len(lines) < LEXICON_SIZE:
            form = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 10)))
            category = rng.choice(CATEGORIES)
            if form in forms or (form, category) in taken:
                continue
            taken.add((form, category))
            lines.append(f"{form}\t{category}\t-\t{rng.randrange(floor)}")
        rng.shuffle(lines)
        path = os.path.join(workdir, "lexicon.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.input_files = [path]
        self.lexicon = None

    def load(self, loaded):
        (self.lexicon,) = loaded

    def blocks(self, stream):
        """Endless lists of (token, expected, form, category).

        Each deck of every (word, position) pair is dealt into GROUPS blocks
        with the same number of position-0 tokens, longest first in snake
        order, so every block costs about the same."""
        rng = random.Random(f"recognize/{self.seed}/{stream}")
        first = [(form, category, 0) for form, category in self.words]
        later = [(form, category, pos) for form, category in self.words for pos in range(1, len(form))]
        while True:
            rng.shuffle(first)
            first.sort(key=lambda entry: -len(entry[0]))
            rng.shuffle(later)
            groups = [[] for _ in range(GROUPS)]
            for i, entry in enumerate(first):
                turn, slot = divmod(i, GROUPS)
                groups[slot if turn % 2 == 0 else GROUPS - 1 - slot].append(entry)
            for i, entry in enumerate(later):
                groups[i % GROUPS].append(entry)
            for group in groups:
                rng.shuffle(group)
                yield [
                    (form[:pos] + "#" + form[pos + 1:], [{category}] if rng.random() < 0.5 else None, form, category)
                    for form, category, pos in group
                ]

    def probe_items(self, block):
        """A short fixed list for comparing CPUs (run.CpuChooser)."""
        return [item for item in block if not item[0].startswith("#")][:10]

    def kind(self, item):
        return "position_0" if item[0].startswith("#") else "later_position"

    def op(self, api, item):
        token, expected, _, _ = item
        return api.recognize(self.lexicon, [token], expected, None)

    def check(self, item, out):
        _, _, form, category = item
        (entry,) = out
        return entry.form == form and entry.category == category
