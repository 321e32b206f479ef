"""derive: generated F-representations through both derivation pipelines.

Each operation is what `pmodel derive p` and the comparison harness do for
one representation: `frep_from_json`, `compare`, then `render` and `strip`
of every step of both derivations.

Inputs are drawn deck by deck. One deck enumerates every combination of
subject and object kind (name, forall, exists, wh; object also absent),
mood, emphasis target and `scope_order`, plus the corpus `.frep` files, in a
seeded order; names, verbs and quantifier words are seeded per input. A
fixed deck keeps the share of each known failure class the same from seed
to seed.

The oracle does not call the program: it knows the words each input must
surface as (from its own features, or from the golden corpus for the corpus
files) and which known defect class, if any, the input belongs to.
"""

from __future__ import annotations

import glob
import json
import os
import random

KINDS = ("name", "forall", "exists", "wh")
NAMES = (
    ("Jones", "J"), ("Smith", "M"), ("Kim", "K"), ("Lee", "E"),
    ("Brown", "B"), ("Taylor", "T"), ("Wilson", "W"), ("Garcia", "G"),
)
TRANSITIVE = (("saw", "S"), ("see", "S"), ("knew", "N"), ("met", "C"), ("liked", "D"))
INTRANSITIVE = (("left", "L"), ("slept", "Z"), ("ran", "R"), ("fell", "F"))
QWORDS = {
    "forall": ("everyone", "everybody"),
    "exists": ("someone", "somebody"),
    "wh": ("who", "whom"),
}
SORTS = (("H", "human"), ("P", "person"))

def feature_deck():
    """Every feature combination once, as (subject, object, mood, emphasis, order)."""
    deck = []
    for subj in KINDS:
        for obj in (None,) + KINDS:
            if subj == "wh" and obj == "wh":
                continue  # one overt Wh item per clause: outside the fragment
            quantified = sum(k in ("forall", "exists", "wh") for k in (subj, obj))
            orders = {0: (None,), 1: (None, "surface"), 2: (None, "surface", "reversed")}
            for mood in ("declarative", "interrogative"):
                for emphasis in (None, "subject") + (("object",) if obj else ()):
                    for order in orders[quantified]:
                        deck.append((subj, obj, mood, emphasis, order))
    return deck


def known_class(features):
    """The disagreement class, present when this benchmark was introduced,
    that an input belongs to, from its features alone; None if it must agree.

    name_emphasis             emphasis on a name: delexicalize rejects the
                              fronted name (passes where Wh fronting wins)
    wh_with_quantifier        a Wh question that also quantifies: lf_match=False
    emphasis_two_quantifiers  emphasis on one of two quantifiers: about half
                              fail with lf_match=False
    wh_declarative            a Wh item under declarative mood, not
                              emphasized: lf_match=False
    """
    subj, obj, mood, emphasis, _ = features
    kinds = [k for k in (subj, obj) if k is not None]
    emphasized = {"subject": subj, "object": obj}.get(emphasis)
    quantifiers = [k for k in kinds if k in ("forall", "exists")]
    if emphasized == "name":
        return "name_emphasis"
    if "wh" in kinds and quantifiers:
        return "wh_with_quantifier"
    if emphasized in ("forall", "exists") and len(quantifiers) == 2:
        return "emphasis_two_quantifiers"
    if "wh" in kinds and mood == "declarative" and emphasized != "wh":
        return "wh_declarative"
    return None


def build(features, rng):
    """One frep JSON dict plus the words its surface string must contain."""
    subj, obj, mood, emphasis, order = features
    sort_symbol, sort_word = rng.choice(SORTS)
    verb_word, verb_symbol = rng.choice(TRANSITIVE if obj else INTRANSITIVE)
    names = rng.sample(NAMES, 2)
    words = {"forall": list(QWORDS["forall"]), "exists": list(QWORDS["exists"]), "wh": list(QWORDS["wh"])}
    for pool in words.values():
        rng.shuffle(pool)
    lexical = [
        {"symbol": sort_symbol, "word": sort_word, "category": "N"},
        {"symbol": verb_symbol, "word": verb_word, "category": "V"},
    ]
    external = {}
    terms, quantified, surface = [], [], []
    for kind, variable in ((subj, "x"), (obj, "y")):
        if kind is None:
            continue
        if kind == "name":
            word, symbol = names.pop()
            external[word] = rng.randrange(1, 100)
            lexical.append({"symbol": symbol, "word": word, "category": "N"})
            terms.append(symbol)
        else:
            word = words[kind].pop()
            category = "WH" if kind == "wh" else "Q"
            lexical.append({"symbol": variable, "word": word, "category": category})
            quantified.append((kind, variable))
            terms.append(variable)
        surface.append(word)
    surface.insert(1, verb_word)

    core = f"{terms[0]} {verb_symbol} {terms[1]}" if obj else f"{terms[0]} in {verb_symbol}"
    plain = [v for k, v in quantified if k != "wh"]
    string = core
    if plain:
        guard = " & ".join(f"{v} in {sort_symbol}" for v in plain)
        string = f"({'(' + guard + ')' if len(plain) > 1 else guard} -> {core})"
        for kind, v in reversed([q for q in quantified if q[0] != "wh"]):
            string = f"{kind} {v}. {string}"
    wh = [v for k, v in quantified if k == "wh"]
    for v in wh:
        string = f"wh {v}. ({v} in {sort_symbol} , {string})"
    variables = wh + plain
    scope_order = {None: None, "surface": variables, "reversed": variables[::-1]}[order]
    target = {"subject": terms[0], "object": terms[-1], None: None}[emphasis]

    if mood == "interrogative" and wh and subj != "wh":
        surface.append("did")
    frep = {
        "frep_version": 1,
        "external": external,
        "lexical": lexical,
        "declarants": {
            "calculus": "predicate",
            "parameters": [[v, sort_symbol] for v in plain],
            "scope_order": scope_order,
            "locality": {},
        },
        "string": string,
        "force": {"mood": mood, "emphasis": target},
    }
    return frep, sorted(w.lower() for w in surface)


def corpus_items(corpus_dir):
    """The corpus .frep files with expectations from the golden corpus.

    A file with a plain `derive p FILE` case must surface as that case's
    last golden line; a probability assertion must come back formal-only.
    """
    golden = {}
    with open(os.path.join(corpus_dir, "cases.tsv"), encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields[1:3] == ["derive", "p"] and len(fields) == 4:
                with open(os.path.join(corpus_dir, "golden", fields[0] + ".txt"), encoding="utf-8") as g:
                    last = g.read().splitlines()[-1]
                golden[os.path.basename(fields[3])] = sorted(last.rstrip("?").lower().split())
    items = []
    for path in sorted(glob.glob(os.path.join(corpus_dir, "*.frep"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        name = os.path.basename(path)
        if data["string"].startswith("prob("):
            items.append((data, None, None))
        elif name in golden:
            items.append((data, golden[name], None))
        else:
            raise SystemExit(f"corpus file {name} has no golden derive case to check it against")
    return items


class Workload:
    name = "derive"
    loader = "frep"
    traced_blocks = 12  # one fixed traced pass, so per-layer counts repeat exactly
    patches = (
        ("pipeline", "derive_p"),
        ("pipeline", "derive_t"),
        ("pipeline", "delexicalize"),
        ("pipeline", "canonicalize"),
        ("pipeline", "resolve_scope"),
        ("pipeline", "apply_emphasis"),
        ("pipeline", "quantifier_lower"),
        ("pipeline", "quantifier_raise"),
        ("pipeline", "wh_lower"),
        ("pipeline", "wh_raise"),
        ("frep", "parse_formula"),
    )

    def __init__(self, seed, workdir, corpus_dir):
        self.seed = seed
        self.corpus = corpus_items(corpus_dir)
        self.input_files = sorted(glob.glob(os.path.join(corpus_dir, "*.frep")))
        self.deck = feature_deck()

    def load(self, loaded):
        """The corpus files loaded in set-up; operations start from JSON."""

    def blocks(self, stream):
        """Endless decks, each a list of (frep JSON, expected words, class)."""
        rng = random.Random(f"derive/{self.seed}/{stream}")
        while True:
            deck = [(True, f) for f in self.deck] + [(False, c) for c in self.corpus]
            rng.shuffle(deck)
            yield [
                build(entry, rng) + (known_class(entry),) if generated else entry
                for generated, entry in deck
            ]

    def probe_items(self, block):
        """A short fixed list for comparing CPUs (run.CpuChooser)."""
        return block[:30]

    def failure_class(self, item):
        """The recorded defect class that explains a failure, or None."""
        return item[2]

    def op(self, api, item):
        data = item[0]
        report = api.compare(api.frep_from_json(data))
        lines = []
        for d in (report.p, report.t):
            if d is None:
                continue
            for step in d.steps:
                lines.append(api.render(step.sstring))
                lines.append(api.strip(step.sstring))
        return report, lines

    def check(self, item, out):
        """True when the output is right; the known class explains a wrong one."""
        _, words, _ = item
        report, lines = out
        if words is None:
            return report.formal_only and not lines
        if not report.agreed:
            return False
        surface = report.p.steps[-1].sstring
        said = sorted(lines[3].rstrip("?").lower().split())  # P route, SS stripped
        audible = [it.text.lower() for it in surface.items if hasattr(it, "text")]
        return said == words and sorted(audible) == words
