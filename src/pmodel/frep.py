"""F-representations: the five-quality bundle a sentence derivation starts from.

external referents   word -> opaque entity id
lexical referents    formal symbol <-> word, with a category tag
formal declarants    calculus, sorted parameters, scope order
formal string        a Formula
force                mood plus optional emphasis target

Quantifier and Wh words bind to the string through the quantified variable:
their lexical referent uses the variable name as its symbol (category Q/WH).
"""

from __future__ import annotations

import json
from itertools import permutations
from typing import Mapping, Optional

from .errors import CATEGORIES, MOODS, PmodelError
from .formal import (
    BINDERS,
    Exists,
    Forall,
    Formula,
    Membership,
    _symbols,
    children,
    parse_formula,
    preorder,
    render_formula,
    split_prefix,
    well_formed,
    wrap_prefix,
)
from .frozen import Frozen

CALCULI = ("predicate", "probability")
FREP_VERSION = 1

BindingConstraints = frozenset


class LexicalReferent(Frozen):
    __slots__ = ("symbol", "word", "category")
    symbol: str
    word: str
    category: str

    def _check(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"bad category: {self.category!r}")
        if not all(isinstance(s, str) and s for s in (self.symbol, self.word)):
            raise ValueError("lexical referents need a symbol and a word")


class FormalDeclarants(Frozen):
    __slots__ = ("calculus", "parameters", "scope_order")
    _defaults = {"parameters": (), "scope_order": None}
    calculus: str
    parameters: tuple[tuple[str, str], ...]  # (variable, sort predicate)
    scope_order: Optional[tuple[str, ...]]

    def _check(self) -> None:
        if self.calculus not in CALCULI:
            raise ValueError(f"bad calculus: {self.calculus!r}")
        object.__setattr__(self, "parameters", tuple(tuple(p) for p in self.parameters))
        if self.scope_order is not None:
            object.__setattr__(self, "scope_order", tuple(self.scope_order))


class Force(Frozen):
    __slots__ = ("mood", "emphasis")
    _defaults = {"emphasis": None}
    mood: str
    emphasis: Optional[str]  # a formal symbol with a lexical referent

    def _check(self) -> None:
        if self.mood not in MOODS:
            raise ValueError(f"bad mood: {self.mood!r}")


# ------------------------------------------------------------- diagnostics


class MissingLexicalReferent(Frozen):
    __slots__ = ("symbol",)
    symbol: str


class DanglingExternalReferent(Frozen):
    __slots__ = ("word",)
    word: str


class DuplicateSymbol(Frozen):
    __slots__ = ("symbol",)
    symbol: str


class DuplicateWord(Frozen):
    __slots__ = ("word",)
    word: str


class IllFormedString(Frozen):
    __slots__ = ("diagnostics",)
    diagnostics: tuple[str, ...]


class EmphasisWithoutReferent(Frozen):
    __slots__ = ("symbol",)
    symbol: str


class EmphasisNotATerm(Frozen):
    """The emphasis names neither a constant nor a bound variable of the string."""

    __slots__ = ("symbol",)
    symbol: str


class VacuousBinder(Frozen):
    """A quantifier or query whose variable occurs free nowhere under it."""

    __slots__ = ("variable",)
    variable: str


class ScopeOrderUnknownVariable(Frozen):
    __slots__ = ("variable",)
    variable: str


class FRepValidationError(PmodelError):
    """Carries the full diagnostic list; an frep is never partially valid."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(repr(d) for d in self.diagnostics))


class FRepresentation(Frozen):
    __slots__ = ("external", "lexical", "declarants", "string", "force")
    external: Mapping[str, int]
    lexical: tuple[LexicalReferent, ...]
    declarants: FormalDeclarants
    string: Formula
    force: Force

    def _check(self) -> None:
        object.__setattr__(self, "external", dict(self.external))
        object.__setattr__(self, "lexical", tuple(self.lexical))

    def word_of(self, symbol: str) -> Optional[str]:
        return next((r.word for r in self.lexical if r.symbol == symbol), None)

    def symbol_of(self, word: str) -> Optional[str]:
        return next((r.symbol for r in self.lexical if r.word.casefold() == word.casefold()), None)

    def referent(self, symbol: str) -> Optional[LexicalReferent]:
        return next((r for r in self.lexical if r.symbol == symbol), None)


def quantified_variables(f: Formula) -> tuple[str, ...]:
    """Variables bound anywhere in f, outermost first, duplicates preserved."""
    return tuple(g.variable for g, _ in preorder(f) if isinstance(g, BINDERS))


def _vacuous_binders(f: Formula) -> list[VacuousBinder]:
    """A diagnostic for each binder of f whose variable occurs free nowhere
    under it, innermost first; one bottom-up walk."""
    found = []

    def free(g: Formula) -> set[str]:
        names: set[str] = set()
        for kid in children(g):
            names |= free(kid)
        if type(g) is Membership:
            names.update(t.name for t in (g.subject, g.obj) if t is not None and t.kind == "variable")
        elif isinstance(g, BINDERS):
            if g.variable not in names:
                found.append(VacuousBinder(g.variable))
            names.discard(g.variable)
        return names

    free(f)
    return found


def build_frep(external, lexical, declarants, string, force) -> FRepresentation:
    """Validating constructor: returns an FRepresentation or raises
    FRepValidationError carrying every diagnostic found."""
    diagnostics: list = []
    lexical = tuple(lexical)

    seen_symbols: set[str] = set()
    seen_words: set[str] = set()
    for r in lexical:
        if r.symbol in seen_symbols:
            diagnostics.append(DuplicateSymbol(r.symbol))
        if r.word in seen_words:
            diagnostics.append(DuplicateWord(r.word))
        seen_symbols.add(r.symbol)
        seen_words.add(r.word)

    for symbol in sorted(_symbols(string) - seen_symbols):
        diagnostics.append(MissingLexicalReferent(symbol))

    for word in sorted(set(external) - seen_words):
        diagnostics.append(DanglingExternalReferent(word))

    wf = well_formed(string, declarants, known_symbols=seen_symbols)
    if not wf.ok:
        diagnostics.append(IllFormedString(wf.diagnostics))
    diagnostics += _vacuous_binders(string)

    bound = set(quantified_variables(string))
    if force.emphasis is not None:
        terms = {
            t.name
            for g, _ in preorder(string)
            if isinstance(g, Membership)
            for t in (g.subject, g.obj)
            if t is not None and t.kind == "constant"
        }
        if force.emphasis not in seen_symbols:
            diagnostics.append(EmphasisWithoutReferent(force.emphasis))
        elif force.emphasis not in terms | bound:
            diagnostics.append(EmphasisNotATerm(force.emphasis))

    if declarants.scope_order is not None:
        order = declarants.scope_order
        if len(set(order)) != len(order):
            diagnostics.append(ScopeOrderUnknownVariable(",".join(order)))
        for v in order:
            if v not in bound:
                diagnostics.append(ScopeOrderUnknownVariable(v))

    if diagnostics:
        raise FRepValidationError(diagnostics)
    return FRepresentation(dict(external), lexical, declarants, string, force)


# ------------------------------------------------------------------- scope


def resolve_scope(f: FRepresentation) -> tuple[Formula, ...]:
    """Readings of the string under scope_order.

    Permutes the leading quantifier prefix only. The declared order comes
    first when admissible; the rest follow sorted by their variable sequence.
    Permutations with the same (type, variable) sequence are one reading,
    which a prefix that rebinds a variable would otherwise list twice.
    """
    prefix, matrix = split_prefix(f.string, (Forall, Exists))
    if len(prefix) <= 1:
        return (f.string,)
    order = f.declarants.scope_order
    constrained = list(order or ())

    def admissible(p) -> bool:
        listed = [q.variable for q in p if q.variable in constrained]
        return listed == constrained

    def kinds(p) -> tuple:
        return tuple((type(q), q.variable) for q in p)

    original = tuple(prefix)
    readings = []
    if admissible(original):
        readings.append(original)
    seen = {kinds(original)}
    for p in sorted(
        (p for p in permutations(prefix) if admissible(p)),
        key=lambda p: tuple(q.variable for q in p),
    ):
        if kinds(p) not in seen:
            seen.add(kinds(p))
            readings.append(p)
    return tuple(wrap_prefix(p, matrix) for p in readings)


def binding_referents(f: FRepresentation) -> BindingConstraints:
    """The (word, entity id) pairs movement must preserve."""
    return frozenset(f.external.items())


# -------------------------------------------------------------------- JSON


def frep_to_json(f: FRepresentation) -> dict:
    return {
        "frep_version": FREP_VERSION,
        "external": dict(sorted(f.external.items())),
        "lexical": [
            {"symbol": r.symbol, "word": r.word, "category": r.category} for r in f.lexical
        ],
        "declarants": {
            "calculus": f.declarants.calculus,
            "parameters": [list(p) for p in f.declarants.parameters],
            "scope_order": list(f.declarants.scope_order)
            if f.declarants.scope_order is not None
            else None,
        },
        "string": render_formula(f.string),
        "force": {"mood": f.force.mood, "emphasis": f.force.emphasis},
    }


def frep_from_json(data: Mapping) -> FRepresentation:
    """Build and validate an frep from v1 JSON, ignoring keys it does not read."""
    if not isinstance(data, dict):
        raise FRepValidationError([f"frep JSON must be an object, not {type(data).__name__}"])
    version = data.get("frep_version")
    if version != FREP_VERSION:
        raise FRepValidationError([f"unsupported frep_version: {version!r}"])
    declarants = FormalDeclarants(
        calculus=data["declarants"]["calculus"],
        parameters=tuple(tuple(p) for p in data["declarants"].get("parameters", ())),
        scope_order=(
            tuple(data["declarants"]["scope_order"])
            if data["declarants"].get("scope_order") is not None
            else None
        ),
    )
    lexical = tuple(
        LexicalReferent(e["symbol"], e["word"], e["category"]) for e in data.get("lexical", ())
    )
    force = Force(data["force"]["mood"], data["force"].get("emphasis"))
    if not isinstance(data["string"], str):
        raise FRepValidationError([f"frep string must be text, not {type(data['string']).__name__}"])
    return build_frep(
        external=data.get("external", {}),
        lexical=lexical,
        declarants=declarants,
        string=parse_formula(data["string"]),
        force=force,
    )


def load_frep(path) -> FRepresentation:
    with open(path, encoding="utf-8") as fh:
        return frep_from_json(json.load(fh))
