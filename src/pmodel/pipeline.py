"""The two derivation pipelines and their agreement check.

T direction: a deep structure is realized (apply_emphasis) and then raised
to logical form. P direction: a logical form is spelled straight out of the
F-representation and lowered to deep structure, so surface structure is the
last step and no logical-form level exists downstream. compare() runs both
from the same F-representation and checks that the T pipeline's recovered
logical form matches the canonicalized formal string. The two sides' DS -> SS
movement is not compared: the T pipeline starts from the P pipeline's DS, and
both realize SS with the same apply_emphasis, so it agrees by construction.

Lexicalization is deterministic: quantifier prefixes become fronted indexed
words, the matrix becomes subject-verb-object order, sort guards vanish into
the quantifier words, and interrogatives with a non-subject Wh get
do-support "did" (realization only; it has no formal symbol).
"""

from __future__ import annotations

from typing import Optional

from .errors import PmodelError
from .formal import (
    BINDERS,
    And,
    Formula,
    Implies,
    Membership,
    NotCanonicalizable,
    Term,
    WhQuery,
    canonicalize,
    const,
    is_variable_name,
    render_formula,
    split_prefix,
    var,
    wrap_prefix,
)
from .frep import Force, FRepresentation, binding_referents, resolve_scope
from .frozen import Frozen
from .movement import (
    DEFAULT_CONFIG,
    GrammarConfig,
    MovementError,
    MovementRecord,
    apply_emphasis,
    quantifier_lower,
    quantifier_raise,
    record_to_json,
    to_lf,
    wh_lower,
    wh_raise,
)
from .sstring import Indexed, OpenBracket, CloseBracket, SString, Trace, Word, render, strip


class DerivationError(PmodelError):
    pass


class UnlexicalizableNode(DerivationError):
    def __init__(self, kind: str):
        super().__init__(f"cannot spell out {kind}")
        self.kind = kind


class ReadingNotAvailable(DerivationError):
    pass


class DelexicalizeFailure(DerivationError):
    pass


class DerivationStep(Frozen):
    __slots__ = ("sstring", "movements")
    _defaults = {"movements": ()}
    sstring: SString
    movements: tuple[MovementRecord, ...]


class Derivation(Frozen):
    __slots__ = ("model", "steps", "warnings")
    _defaults = {"warnings": ()}
    model: str  # "T" | "P"
    steps: tuple[DerivationStep, ...]
    warnings: tuple[str, ...]

    def _check(self) -> None:
        expected = ("DS", "SS", "LF") if self.model == "T" else ("DS", "SS")
        levels = tuple(st.sstring.level for st in self.steps)
        if self.model not in ("T", "P") or levels != expected:
            raise ValueError(f"bad level sequence for {self.model}: {levels}")


def config_for(f: FRepresentation) -> GrammarConfig:
    """Extend the default grammar config with the frep's own quantifier and Wh words."""
    return GrammarConfig(
        quantifier_words=DEFAULT_CONFIG.quantifier_words
        | {r.word.lower() for r in f.lexical if r.category == "Q"},
        wh_words=DEFAULT_CONFIG.wh_words | {r.word.lower() for r in f.lexical if r.category == "WH"},
    )


def _conjuncts(f: Formula) -> list[Formula]:
    return _conjuncts(f.left) + _conjuncts(f.right) if isinstance(f, And) else [f]


def _strip_guard(matrix: Formula, prefix, sorts) -> Formula:
    """Drop a sort-guard antecedent: it is carried by the quantifier words."""
    if not isinstance(matrix, Implies):
        return matrix
    prefix_vars = {q.variable for q in prefix}
    for g in _conjuncts(matrix.left):
        if not (
            isinstance(g, Membership)
            and g.obj is None
            and g.subject.kind == "variable"
            and g.subject.name in prefix_vars
            and sorts.get(g.subject.name) == g.predicate
        ):
            return matrix
    return matrix.right


def _word_for(f: FRepresentation, symbol: str) -> str:
    word = f.word_of(symbol)
    if word is None:
        raise UnlexicalizableNode(f"symbol {symbol!r} without a lexical referent")
    return word


def _lexicalize(f: FRepresentation, reading: Formula) -> SString:
    """Spell the reading out as a flat logical-form string. With nothing
    fronted, logical form and deep structure coincide: the string is DS."""
    prefix, matrix = split_prefix(reading, BINDERS)
    sorts = dict(f.declarants.parameters)
    matrix = _strip_guard(matrix, prefix, sorts)
    if not isinstance(matrix, Membership):
        raise UnlexicalizableNode(type(matrix).__name__)

    index_of = {q.variable: i + 1 for i, q in enumerate(prefix)}

    def term_item(t: Term):
        if t.kind == "variable":
            if t.name not in index_of:
                raise UnlexicalizableNode(f"free variable {t.name!r}")
            return Trace("x", index_of[t.name])
        return Word(_word_for(f, t.name))

    verb = Word(_word_for(f, matrix.predicate))
    if matrix.obj is None:
        body = [term_item(matrix.subject), verb]
    else:
        body = [term_item(matrix.subject), verb, term_item(matrix.obj)]

    wh_vars = {q.variable for q in prefix if isinstance(q, WhQuery)}
    subject_is_wh = (
        matrix.subject.kind == "variable" and matrix.subject.name in wh_vars
    )
    if f.force.mood == "interrogative" and wh_vars and not subject_is_wh:
        body.insert(0, Word("did"))

    fronted = []
    for q in prefix:
        referent = f.referent(q.variable)
        if referent is None or referent.category not in ("Q", "WH"):
            raise UnlexicalizableNode(f"quantifier variable {q.variable!r} without a Q/WH referent")
        if Trace("x", index_of[q.variable]) not in body:
            raise UnlexicalizableNode(f"quantifier variable {q.variable!r} without a trace")
        fronted.append(Indexed(referent.word, index_of[q.variable]))

    items = fronted + body
    punctuation = "question" if f.force.mood == "interrogative" else None
    return SString("LF" if fronted else "DS", tuple(items), punctuation)


def _resolved_force(f: FRepresentation) -> Force:
    """Movement matches surface words; swap the emphasis symbol for its word."""
    if f.force.emphasis is None:
        return f.force
    return Force(f.force.mood, f.word_of(f.force.emphasis))


def derive_p(f: FRepresentation, reading: Optional[Formula] = None) -> Derivation:
    """F-representation -> DS -> SS. Ambiguity is resolved to the first
    reading and flagged in warnings."""
    cfg = config_for(f)
    readings = resolve_scope(f)
    warnings: tuple[str, ...] = ()
    if reading is None:
        reading = readings[0]
        if len(readings) > 1:
            warnings = (f"scope-ambiguous: derived reading 1 of {len(readings)}",)
    elif reading not in readings:
        raise ReadingNotAvailable(render_formula(reading))
    # every fronted item of the spell-out lowers, outermost first
    ds, lower_records = _lexicalize(f, reading), []
    for head in [it for it in ds.items if isinstance(it, Indexed)]:
        lower = wh_lower if head.text.lower() in cfg.wh_words else quantifier_lower
        ds, record = lower(ds, cfg)
        lower_records.append(record)
    ss, emphasis_record = apply_emphasis(ds, _resolved_force(f), binding_referents(f), cfg)
    steps = (
        DerivationStep(ds, tuple(lower_records)),
        DerivationStep(ss, (emphasis_record,) if emphasis_record else ()),
    )
    return Derivation("P", steps, warnings)


def derive_t(
    ds: SString,
    force: Force,
    config: GrammarConfig = DEFAULT_CONFIG,
    raise_order: Optional[tuple[str, ...]] = None,
) -> Derivation:
    """DS -> SS -> LF. force.emphasis here names a surface word.

    raise_order lists quantifier words outermost first; default is surface
    order. Raising happens innermost first so the outermost lands leftmost.
    """
    ss, emphasis_record = apply_emphasis(ds, force, frozenset(), config)
    s = ss
    records: list[MovementRecord] = []
    if any(isinstance(it, (Word, Indexed)) and it.text.lower() in config.wh_words for it in ss.items):
        lf = wh_raise(ss, config)
    else:
        if raise_order is None:
            raise_order = tuple(
                it.text for it in ss.items if isinstance(it, Word) and it.text.lower() in config.quantifier_words
            )
        for word in reversed(raise_order):
            wanted = word.lower()
            pos = next(
                (p for p, it in enumerate(s.items) if isinstance(it, Word) and it.text.lower() == wanted),
                None,
            )
            if pos is not None:
                s, record = quantifier_raise(s, pos, config)
                records.append(record)
            # a word that emphasis fronted already has its chain
            elif not any(isinstance(it, Indexed) and it.text.lower() == wanted for it in s.items):
                raise DerivationError(f"no in-situ quantifier word {word!r} to raise")
        lf = to_lf(s)
    steps = (
        DerivationStep(ds),
        DerivationStep(ss, (emphasis_record,) if emphasis_record else ()),
        DerivationStep(lf, tuple(records)),
    )
    return Derivation("T", steps)


# -------------------------------------------------------- delexicalization


def delexicalize(lf: SString, f: FRepresentation) -> Formula:
    """Invert lexicalization: read a formula back off a logical-form string."""
    symbol_by_word = {r.word.lower(): r.symbol for r in f.lexical}
    binders_of_string, original_matrix = split_prefix(f.string, BINDERS)
    binder_of = {q.variable: q for q in binders_of_string}

    flat = [it for it in lf.items if not isinstance(it, (OpenBracket, CloseBracket))]
    i = 0
    prefix: list[Formula] = []
    term_by_index: dict[int, Term] = {}
    while i < len(flat) and isinstance(flat[i], Indexed):
        word = flat[i].text.lower()
        symbol = symbol_by_word.get(word)
        if symbol is not None and not is_variable_name(symbol):
            # a fronted name is topicalization: its chain reads as the constant
            term_by_index[flat[i].index] = const(symbol)
        elif symbol in binder_of:
            prefix.append(binder_of[symbol])
            term_by_index[flat[i].index] = var(symbol)
        else:
            raise DelexicalizeFailure(f"fronted word {word!r} is not a known quantifier")
        i += 1

    terms: list = []
    for it in flat[i:]:
        if isinstance(it, Word):
            if f.force.mood == "interrogative" and it.text.lower() == "did":
                continue  # do-support carries no symbol
            symbol = symbol_by_word.get(it.text.lower())
            if symbol is None:
                raise DelexicalizeFailure(f"word {it.text!r} has no symbol")
            terms.append(symbol)
        elif isinstance(it, Trace):
            if it.index not in term_by_index:
                raise DelexicalizeFailure(f"trace {it.index} has no fronted binder")
            terms.append(term_by_index[it.index])
        else:
            raise DelexicalizeFailure(f"unexpected item {it!r} in the matrix")

    def as_term(x) -> Term:
        if isinstance(x, Term):
            return x
        return Term("variable" if is_variable_name(x) else "constant", x)

    if len(terms) == 2 and isinstance(terms[1], str):
        core: Formula = Membership(as_term(terms[0]), terms[1])
    elif len(terms) == 3 and isinstance(terms[1], str):
        core = Membership(as_term(terms[0]), terms[1], as_term(terms[2]))
    else:
        raise DelexicalizeFailure("matrix is not subject-verb(-object) shaped")

    sorts = dict(f.declarants.parameters)
    guards = [
        Membership(var(q.variable), sorts[q.variable])
        for q in prefix
        if not isinstance(q, WhQuery) and q.variable in sorts
    ]
    body = core
    if guards:
        # the guard came off f.string's antecedent; restore that exact shape
        if isinstance(original_matrix, Implies) and set(
            _conjuncts(original_matrix.left)
        ) == set(guards):
            body = Implies(original_matrix.left, body)
        else:
            acc = guards[-1]
            for g in reversed(guards[:-1]):
                acc = And(g, acc)
            body = Implies(acc, body)
    return wrap_prefix(prefix, body)


# ------------------------------------------------------------- comparison


class CompareReport(Frozen):
    """Both derivations of one F-representation and whether they agree.

    lf_match: the T route's recovered logical form is the canonical reading,
    and the routes agree exactly when it holds. Their DS -> SS movement is
    not reported: both realize SS with the same apply_emphasis on the same
    DS, so it cannot differ.
    """

    __slots__ = (
        "readings", "p", "t", "canonical", "recovered", "lf_match",
        "readings_matched", "formal_only", "warnings",
    )
    _defaults = {
        "p": None, "t": None, "canonical": None, "recovered": None, "lf_match": None,
        "readings_matched": (), "formal_only": False, "warnings": (),
    }
    readings: tuple[Formula, ...]
    p: Optional[Derivation]
    t: Optional[Derivation]
    canonical: Optional[Formula]
    recovered: Optional[Formula]
    lf_match: Optional[bool]
    readings_matched: tuple[bool, ...]
    formal_only: bool
    warnings: tuple[str, ...]

    @property
    def agreed(self) -> bool:
        return bool(self.lf_match)


def compare(f: FRepresentation) -> CompareReport:
    """Run both pipelines from one F-representation and report agreement.

    Unlexicalizable strings (probability assertions) come back formal_only;
    all other per-stage failures land in warnings rather than raising, and
    the report then does not agree.
    """
    cfg = config_for(f)
    readings = resolve_scope(f)
    warnings: tuple[str, ...] = ()
    if len(readings) > 1:
        warnings += (f"scope-ambiguous: comparing reading 1 of {len(readings)}",)
    try:
        p = derive_p(f, readings[0])
        raise_order = tuple(
            f.word_of(q.variable)
            for q in split_prefix(readings[0], BINDERS)[0]
            if not isinstance(q, WhQuery)
        )
        t = derive_t(p.steps[0].sstring, _resolved_force(f), cfg, raise_order)
    except UnlexicalizableNode as e:
        return CompareReport(readings=readings, formal_only=True, warnings=warnings + (str(e),))
    except (MovementError, DerivationError) as e:
        return CompareReport(readings=readings, warnings=warnings + (str(e),))

    recovered: Optional[Formula] = None
    canonical: Optional[Formula] = None
    lf_match: Optional[bool] = None
    matched: list[bool] = []
    try:
        recovered = delexicalize(t.steps[2].sstring, f)
    except DelexicalizeFailure as e:
        warnings += (str(e),)
    try:
        canonical = canonicalize(readings[0])
    except NotCanonicalizable as e:
        warnings += (str(e),)
    if recovered is not None and canonical is not None:
        lf_match = recovered == canonical
        matched.append(lf_match)  # canonical is the first reading's canonical form
        for r in readings[1:]:
            try:
                matched.append(canonicalize(r) == recovered)
            except NotCanonicalizable:
                matched.append(False)
    return CompareReport(
        readings=readings,
        p=p,
        t=t,
        canonical=canonical,
        recovered=recovered,
        lf_match=lf_match,
        readings_matched=tuple(matched),
        warnings=warnings,
    )


# -------------------------------------------------------------------- JSON


def derivation_to_json(d: Derivation) -> dict:
    return {
        "model": d.model,
        "steps": [
            {
                "level": st.sstring.level,
                "rendered": render(st.sstring),
                "stripped": strip(st.sstring),
                "movements": [record_to_json(r) for r in st.movements],
            }
            for st in d.steps
        ],
        "warnings": list(d.warnings),
    }


def report_to_json(r: CompareReport) -> dict:
    return {
        "readings": [render_formula(g) for g in r.readings],
        "p": derivation_to_json(r.p) if r.p else None,
        "t": derivation_to_json(r.t) if r.t else None,
        "canonical": render_formula(r.canonical) if r.canonical else None,
        "recovered": render_formula(r.recovered) if r.recovered else None,
        "lf_match": r.lf_match,
        "readings_matched": list(r.readings_matched),
        "formal_only": r.formal_only,
        "agreed": r.agreed,
        "warnings": list(r.warnings),
    }
