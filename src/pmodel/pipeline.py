"""The two derivation pipelines and their agreement check.

T direction: a deep structure is realized (apply_emphasis) and then raised
to logical form. It gets only what the T-model gives it, a DS and a force,
and reads quantifier scope off the DS's chains. P direction: a logical form
is spelled straight out of the F-representation and lowered to deep
structure, so surface structure is the last step and no logical-form level
exists downstream. compare() runs both from the same F-representation and
checks that the T pipeline's recovered logical form matches the
canonicalized formal string. The two sides' DS -> SS movement is not
compared: the T pipeline starts from the P pipeline's DS, and both realize
SS with the same apply_emphasis, so it agrees by construction.

Lexicalization is deterministic: quantifier prefixes become fronted indexed
words, the matrix becomes subject-verb-object order, sort guards vanish into
the quantifier words, and interrogatives with a non-subject Wh get
do-support "did" (realization only; it has no formal symbol). Which fronted
item lowers as a Wh item and which surface words raise as quantifiers is
read off the fixed word tables WH_WORDS and QUANTIFIER_WORDS; the frep
loader refuses a Q or WH referent whose word is in neither.
"""

from __future__ import annotations

from typing import Optional

from .errors import QUANTIFIER_WORDS, WH_WORDS, PmodelError
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


class DelexicalizeFailure(DerivationError):
    pass


class DerivationStep(Frozen):
    __slots__ = ("sstring", "movements")
    _defaults = {"movements": ()}
    sstring: SString
    movements: tuple[MovementRecord, ...]


class Derivation(Frozen):
    """A T derivation runs DS SS LF; a P derivation stops at SS."""

    __slots__ = ("steps", "warnings")
    _defaults = {"warnings": ()}
    steps: tuple[DerivationStep, ...]
    warnings: tuple[str, ...]

    def _check(self) -> None:
        levels = tuple(st.sstring.level for st in self.steps)
        if levels not in (("DS", "SS", "LF"), ("DS", "SS")):
            raise ValueError(f"bad level sequence: {levels}")

    @property
    def model(self) -> str:
        return "T" if self.steps[-1].sstring.level == "LF" else "P"


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


def _resolve_once(f: FRepresentation) -> tuple[Formula, ...]:
    """resolve_scope(f), kept on f: compare and the derive_p it calls share it."""
    if getattr(f, "_readings", None) is None:
        FRepresentation._readings.__set__(f, resolve_scope(f))
    return f._readings


def derive_p(f: FRepresentation, reading: Optional[int] = None) -> Derivation:
    """F-representation -> DS -> SS for the 1-based `reading` of
    resolve_scope(f). Without one, ambiguity is resolved to the first
    reading and flagged in warnings."""
    readings = _resolve_once(f)
    warnings: tuple[str, ...] = ()
    if reading is None:
        reading = 1
        if len(readings) > 1:
            warnings = (f"scope-ambiguous: derived reading 1 of {len(readings)}",)
    elif not 1 <= reading <= len(readings):
        raise DerivationError(f"reading {reading} out of range 1..{len(readings)}")
    # every fronted item of the spell-out lowers, outermost first
    ds, lower_records = _lexicalize(f, readings[reading - 1]), []
    for head in [it for it in ds.items if isinstance(it, Indexed)]:
        lower = wh_lower if head.text.lower() in WH_WORDS else quantifier_lower
        ds, record = lower(ds)
        lower_records.append(record)
    ss, emphasis_record = apply_emphasis(ds, _resolved_force(f), binding_referents(f))
    steps = (
        DerivationStep(ds, tuple(lower_records)),
        DerivationStep(ss, (emphasis_record,) if emphasis_record else ()),
    )
    return Derivation(steps, warnings)


def derive_t(ds: SString, force: Force) -> Derivation:
    """DS -> SS -> LF. force.emphasis here names a surface word.

    Scope is read off the DS: a quantifier with a chain takes scope at its
    trace, one without at its own position, and the leftmost is outermost.
    Raising happens innermost first so the outermost lands leftmost.
    """
    ss, emphasis_record = apply_emphasis(ds, force)
    s = ss
    records: list[MovementRecord] = []
    if any(isinstance(it, (Word, Indexed)) and it.text.lower() in WH_WORDS for it in ss.items):
        lf = wh_raise(ss)
    else:
        scope = sorted(
            (ds.coindex[it.index][1] if isinstance(it, Indexed) else pos, it.text.lower())
            for pos, it in enumerate(ds.items)
            if isinstance(it, (Word, Indexed)) and it.text.lower() in QUANTIFIER_WORDS
        )
        for _, word in reversed(scope):
            pos = next(
                (p for p, it in enumerate(s.items) if isinstance(it, Word) and it.text.lower() == word),
                None,
            )
            if pos is not None:  # a word that emphasis fronted already has its chain
                s, record = quantifier_raise(s, pos)
                records.append(record)
        lf = to_lf(s)
    steps = (
        DerivationStep(ds),
        DerivationStep(ss, (emphasis_record,) if emphasis_record else ()),
        DerivationStep(lf, tuple(records)),
    )
    return Derivation(steps)


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

    # lexicalization dropped f.string's antecedent exactly when it was a sort
    # guard of this prefix; restore it as it was
    if _strip_guard(original_matrix, prefix, dict(f.declarants.parameters)) is not original_matrix:
        core = Implies(original_matrix.left, core)
    return wrap_prefix(prefix, core)


# ------------------------------------------------------------- comparison


class CompareReport(Frozen):
    """Both derivations of one F-representation and whether they agree.

    agreed: the T route's recovered logical form is the canonical reading.
    Their DS -> SS movement is not reported: both realize SS with the same
    apply_emphasis on the same DS, so it cannot differ.
    """

    __slots__ = (
        "readings", "p", "t", "canonical", "recovered", "agreed",
        "readings_matched", "formal_only", "warnings",
    )
    _defaults = {
        "p": None, "t": None, "canonical": None, "recovered": None, "agreed": False,
        "readings_matched": (), "formal_only": False, "warnings": (),
    }
    readings: tuple[Formula, ...]
    p: Optional[Derivation]
    t: Optional[Derivation]
    canonical: Optional[Formula]
    recovered: Optional[Formula]
    agreed: bool
    readings_matched: tuple[bool, ...]
    formal_only: bool
    warnings: tuple[str, ...]


def compare(f: FRepresentation) -> CompareReport:
    """Run both pipelines from one F-representation and report agreement.

    Unlexicalizable strings (probability assertions) come back formal_only;
    all other per-stage failures land in warnings rather than raising, and
    the report then does not agree.
    """
    readings = _resolve_once(f)
    warnings: tuple[str, ...] = ()
    if len(readings) > 1:
        warnings += (f"scope-ambiguous: comparing reading 1 of {len(readings)}",)
    try:
        p = derive_p(f, 1)
        t = derive_t(p.steps[0].sstring, _resolved_force(f))
    except UnlexicalizableNode as e:
        return CompareReport(readings=readings, formal_only=True, warnings=warnings + (str(e),))
    except (MovementError, DerivationError) as e:
        return CompareReport(readings=readings, warnings=warnings + (str(e),))

    recovered: Optional[Formula] = None
    canonical: Optional[Formula] = None
    agreed = False
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
        agreed = recovered == canonical
        matched.append(agreed)  # canonical is the first reading's canonical form
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
        agreed=agreed,
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
        "readings_matched": list(r.readings_matched),
        "formal_only": r.formal_only,
        "agreed": r.agreed,
        "warnings": list(r.warnings),
    }
