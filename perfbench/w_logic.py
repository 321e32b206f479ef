"""logic: the formula kernel, used two ways.

rewrite      `to_sheffer` on propositional ASTs of depth 3 to 6 over p, q
             and r. The ASTs are built bottom-up from one seeded pool, so
             subterms are shared within and across inputs. Oracle: the
             8-row truth mask the generator computed for the input, compared
             with the mask of the output DAG, which must hold only strokes
             and atoms.
model-check  first-order sentence text with 2 or 3 quantifiers through
             `parse_formula`, `canonicalize` and `evaluate` on seeded models
             (domain 4 to 64 with 2 quantifiers, 4 to 16 with 3). Oracle: a
             loop-based evaluator of the generator's own formula tree, which
             also shows that canonicalization kept the truth value.

A block holds a fixed number of each kind, chosen so that the two halves
take about equal time at the seed commit. The rewrites of a block follow a
fixed deck of work targets, so that their cost is distributed the same way
for every seed (see `rewrite_work`).
"""

from __future__ import annotations

import bisect
import json
import os
import random

ATOM_MASKS = {"p": 0b11110000, "q": 0b11001100, "r": 0b10101010}
FULL = 0xFF
POOL_PER_LEVEL = 40
DEPTHS = (3, 4, 5, 6)
DOMAINS = {2: (4, 8, 16, 32, 64), 3: (4, 8, 16)}
MODELS_PER_DOMAIN = 2
REWRITES_PER_BLOCK = 288  # 72 per depth
CHECKS_PER_BLOCK = 2  # per (quantifier count, domain size) pair, so 16 per block
CAP_SAMPLE = 40
REFERENCE_POOL_PER_LEVEL = 400


# ------------------------------------------------------------------ rewrite


def build_pool(rng, formal, per_level=POOL_PER_LEVEL):
    """Levels of shared propositional nodes: (node, mask) per level."""
    levels = [[(formal.Atom(name), mask) for name, mask in ATOM_MASKS.items()]]
    for depth in range(1, max(DEPTHS) + 1):
        level = []
        for _ in range(per_level):
            deep, dmask = rng.choice(levels[depth - 1])
            op = rng.choice(("not", "and", "or", "implies", "sheffer"))
            if op == "not":
                level.append((formal.Not(deep), ~dmask & FULL))
                continue
            other, omask = rng.choice(levels[depth - 1] if rng.random() < 0.5 else rng.choice(levels))
            if rng.random() < 0.5:
                deep, dmask, other, omask = other, omask, deep, dmask
            node, mask = {
                "and": (formal.And, dmask & omask),
                "or": (formal.Or, dmask | omask),
                "implies": (formal.Implies, (~dmask | omask) & FULL),
                "sheffer": (formal.Sheffer, ~(dmask & omask) & FULL),
            }[op]
            level.append((node(deep, other), mask))
        levels.append(level)
    return levels


# Strokes `to_sheffer` builds per connective, by the rewrite rules it
# implements (a Sheffer input node is rebuilt as one stroke).
STROKES = {"Not": 1, "And": 2, "Or": 3, "Implies": 2, "Sheffer": 1}


def rewrite_work(node):
    """Work of rewriting a formula read as a tree: one visit per node plus
    the strokes built for it. The time of `to_sheffer` follows it, because
    the rewrite walks every path of the shared DAG."""
    memo = {}

    def work(n):
        key = id(n)
        if key not in memo:
            kids = [getattr(n, a) for a in ("left", "right", "body") if hasattr(n, a)]
            memo[key] = 1 + STROKES.get(type(n).__name__, 0) + sum(work(k) for k in kids)
        return memo[key]

    return work(node)


def work_targets(formal):
    """Per depth, REWRITES_PER_BLOCK / len(DEPTHS) rewrite-work values at
    evenly spaced quantiles of a large pool built from a fixed seed. Every
    seed's block draws, per target, a node of its own pool with the nearest
    work, so the cost of the rewrite half is distributed the same way from
    seed to seed; drawn freely from a pool of POOL_PER_LEVEL nodes, the
    median work moved by a quarter between seeds."""
    levels = build_pool(random.Random("logic/reference"), formal, REFERENCE_POOL_PER_LEVEL)
    per_depth = REWRITES_PER_BLOCK // len(DEPTHS)
    targets = {}
    for depth in DEPTHS:
        works = sorted(rewrite_work(node) for node, _ in levels[depth])
        targets[depth] = [works[int((i + 0.5) / per_depth * len(works))] for i in range(per_depth)]
    return targets


def sheffer_mask(node, formal):
    """Truth mask of a to_sheffer result, walked as a DAG; None if a node is
    not a stroke over the atoms p, q and r."""
    memo = {}
    Atom, Sheffer = formal.Atom, formal.Sheffer

    def mask(n):
        value = memo.get(id(n))
        if value is None:
            if type(n) is Sheffer:
                value = ~(mask(n.left) & mask(n.right)) & FULL
            elif type(n) is Atom and n.name in ATOM_MASKS:
                value = ATOM_MASKS[n.name]
            else:
                raise ValueError(n)
            memo[id(n)] = value
        return value

    try:
        return mask(node)
    except ValueError:
        return None


def tree_size(node):
    """Node count of a formula read as a tree, computed over the DAG."""
    memo = {}

    def size(n):
        key = id(n)
        if key not in memo:
            kids = [getattr(n, a) for a in ("left", "right", "body", "restrictor") if hasattr(n, a)]
            memo[key] = 1 + sum(size(k) for k in kids)
        return memo[key]

    return size(node)


# -------------------------------------------------------------- model-check

# Formula trees are tuples:
#   ("in", term, pred)  ("rel", term, rel, term)  ("not", f)
#   ("and"|"or"|"implies", f, g)  ("forall"|"exists", var, f)
VARIABLES = ("x", "y", "z")
CONSTANTS = ("A", "B")
PREDICATES = ("P", "Q")
RELATIONS = ("R", "S")


def random_atom(rng, scope):
    terms = list(scope) + list(CONSTANTS)
    if rng.random() < 0.4:
        return ("in", rng.choice(terms), rng.choice(PREDICATES))
    return ("rel", rng.choice(terms), rng.choice(RELATIONS), rng.choice(terms))


def random_matrix(rng, scope, depth=2):
    """Quantifier-free; negation and any connective allowed."""
    if depth == 0 or rng.random() < 0.35:
        atom = random_atom(rng, scope)
        return ("not", atom) if rng.random() < 0.2 else atom
    op = rng.choice(("and", "or", "implies"))
    return (op, random_matrix(rng, scope, depth - 1), random_matrix(rng, scope, depth - 1))


def random_sentence(rng, count, scope=(), fresh=VARIABLES):
    """A closed formula with `count` quantifiers, each where canonicalize can
    pull it to the prefix: never under negation or in an antecedent, and
    every variable bound once."""
    if count == 0:
        return random_matrix(rng, scope)
    if count >= 2 and rng.random() < 0.35:
        left = rng.randint(1, count - 1)
        op = rng.choice(("and", "or"))
        return (
            op,
            random_sentence(rng, left, scope, fresh[:left]),
            random_sentence(rng, count - left, scope, fresh[left:]),
        )
    v, rest = fresh[0], fresh[1:]
    kind = rng.choice(("forall", "exists"))
    guard = ("in", v, rng.choice(PREDICATES))
    body = random_sentence(rng, count - 1, scope + (v,), rest)
    if rng.random() < 0.3:
        return (kind, v, body)
    return (kind, v, ("implies" if kind == "forall" else "and", guard, body))


def render(f):
    tag = f[0]
    if tag == "in":
        return f"{f[1]} in {f[2]}"
    if tag == "rel":
        return f"{f[1]} {f[2]} {f[3]}"
    if tag == "not":
        return f"!({render(f[1])})"
    if tag in ("forall", "exists"):
        return f"{tag} {f[1]}. {render(f[2])}"
    glyph = {"and": "&", "or": "v", "implies": "->"}[tag]
    return f"({render(f[1])} {glyph} {render(f[2])})"


class OverBudget(Exception):
    pass


def reference_eval(f, model, env, visits=None):
    """Truth of a formula tree in a model; loops, no program code. Short-
    circuits the way `evaluate` does; `visits`, a list [count, budget],
    counts the nodes evaluated and stops the walk past the budget."""
    if visits is not None:
        visits[0] += 1
        if visits[0] > visits[1]:
            raise OverBudget
    tag = f[0]
    if tag == "in":
        return env.get(f[1], model["constants"].get(f[1])) in model["predicates"][f[2]]
    if tag == "rel":
        a = env.get(f[1], model["constants"].get(f[1]))
        b = env.get(f[3], model["constants"].get(f[3]))
        return (a, b) in model["relations"][f[2]]
    if tag == "not":
        return not reference_eval(f[1], model, env, visits)
    if tag == "and":
        return reference_eval(f[1], model, env, visits) and reference_eval(f[2], model, env, visits)
    if tag == "or":
        return reference_eval(f[1], model, env, visits) or reference_eval(f[2], model, env, visits)
    if tag == "implies":
        return (not reference_eval(f[1], model, env, visits)) or reference_eval(f[2], model, env, visits)
    found = f[0] == "forall"
    for e in model["domain"]:
        env[f[1]] = e
        if reference_eval(f[2], model, env, visits) != found:
            found = not found
            break
    del env[f[1]]
    return found


def prenex(f):
    """The generator's own prenex form, quantifiers pulled out in the order
    `canonicalize` uses: a quantifier stays ahead of its body's prefix, the
    left operand's prefix comes before the right's, and an implication
    keeps its consequent's prefix."""
    tag = f[0]
    if tag in ("forall", "exists"):
        prefix, matrix = prenex(f[2])
        return [(tag, f[1])] + prefix, matrix
    if tag in ("and", "or"):
        (pa, a), (pb, b) = prenex(f[1]), prenex(f[2])
        return pa + pb, (tag, a, b)
    if tag == "implies":
        pb, b = prenex(f[2])
        return pb, (tag, f[1], b)
    return [], f


def evaluation_cost(f, model, budget=float("inf")):
    """Nodes `evaluate` visits on the canonical form, with short-circuits
    (the model's domain is listed in sorted order, as `evaluate` walks it);
    None past the budget."""
    prefix, body = prenex(f)
    for tag, v in reversed(prefix):
        body = (tag, v, body)
    visits = [0, budget]
    try:
        reference_eval(body, model, {}, visits)
    except OverBudget:
        return None
    return visits[0]


def random_model(rng, n):
    domain = [f"e{i:02d}" for i in range(n)]  # listed in sorted order
    density = rng.uniform(0.3, 0.8)
    return {
        "domain": domain,
        "predicates": {p: sorted(e for e in domain if rng.random() < density) for p in PREDICATES},
        "relations": {
            r: sorted([a, b] for a in domain for b in domain if rng.random() < density)
            for r in RELATIONS
        },
        "constants": {c: rng.choice(domain) for c in CONSTANTS},
        "event_probs": {},
    }


class Workload:
    name = "logic"
    loader = "model"
    traced_blocks = 30
    patches = ()

    def __init__(self, seed, workdir, corpus_dir):
        import pmodel.formal as formal

        self.formal = formal
        self.seed = seed
        rng = random.Random(f"logic/{seed}/setup")
        self.pool = build_pool(rng, formal)
        # per depth: the pool's nodes sorted by rewrite work, and their works
        self.by_work = {}
        for depth in DEPTHS:
            ranked = sorted(self.pool[depth], key=lambda entry: rewrite_work(entry[0]))
            self.by_work[depth] = (ranked, [rewrite_work(node) for node, _ in ranked])
        self.targets = work_targets(formal)
        self.models = {}  # (n, k) -> reference model with sets
        self.input_files = []
        for n in sorted(set(DOMAINS[2]) | set(DOMAINS[3])):
            for k in range(MODELS_PER_DOMAIN):
                data = random_model(rng, n)
                path = os.path.join(workdir, f"model-{n}-{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                self.input_files.append(path)
                self.models[(n, k)] = {
                    "domain": data["domain"],
                    "predicates": {p: set(v) for p, v in data["predicates"].items()},
                    "relations": {r: {tuple(p) for p in v} for r, v in data["relations"].items()},
                    "constants": data["constants"],
                }
        self.loaded = None  # (n, k) -> program Model, set by load()
        # Evaluation cost is heavy-tailed (a sentence whose quantifiers never
        # short-circuit visits n^q nodes): cap each class at the 90th
        # percentile of a sample drawn the same way for every seed, so a few
        # sentences cannot decide a run.
        rng = random.Random("logic/caps")
        self.caps = {}
        for count, sizes in DOMAINS.items():
            for n in sizes:
                costs = sorted(
                    evaluation_cost(random_sentence(rng, count), self.models[(n, k % MODELS_PER_DOMAIN)])
                    for k in range(CAP_SAMPLE)
                )
                self.caps[(count, n)] = costs[int(0.9 * (CAP_SAMPLE - 1))]

    def load(self, models):
        keys = sorted(self.models)
        self.loaded = dict(zip(keys, models))

    def blocks(self, stream):
        rng = random.Random(f"logic/{self.seed}/{stream}")
        while True:
            block = []
            for depth in DEPTHS:
                for target in self.targets[depth]:
                    node, mask = self.nearest(rng, depth, target)
                    block.append(("rewrite", node, mask))
            for count, sizes in DOMAINS.items():
                for n in sizes:
                    for _ in range(CHECKS_PER_BLOCK):
                        tree, key = self.sentence(rng, count, n)
                        truth = reference_eval(tree, self.models[key], {})
                        block.append(("check", render(tree), key, truth))
            rng.shuffle(block)
            yield block

    def nearest(self, rng, depth, target):
        """A pool node of the given depth whose rewrite work is nearest the
        target; ties are broken by the seed."""
        ranked, works = self.by_work[depth]
        i = bisect.bisect_left(works, target)
        best = min((works[j] for j in (i - 1, i) if 0 <= j < len(works)), key=lambda w: abs(w - target))
        lo, hi = bisect.bisect_left(works, best), bisect.bisect_right(works, best)
        return ranked[rng.randrange(lo, hi)]

    def sentence(self, rng, count, n):
        """A sentence with `count` quantifiers and a model of size n, redrawn
        while its evaluation cost exceeds the class cap."""
        while True:
            tree = random_sentence(rng, count)
            key = (n, rng.randrange(MODELS_PER_DOMAIN))
            if evaluation_cost(tree, self.models[key], self.caps[(count, n)]) is not None:
                return tree, key

    def kind(self, item):
        return item[0]

    def probe_items(self, block):
        """A short fixed list for comparing CPUs (run.CpuChooser)."""
        return [item for item in block if item[0] == "rewrite"][:300]

    def op(self, api, item):
        if item[0] == "rewrite":
            return api.to_sheffer(item[1])
        model = self.loaded[item[2]]
        return api.evaluate(api.canonicalize(api.parse_formula(item[1])), model)

    def check(self, item, out):
        if item[0] == "rewrite":
            return sheffer_mask(out, self.formal) == item[2]
        return out is item[3]
