"""Predicate-calculus core: formula AST, concrete syntax, Tarskian evaluation.

Concrete syntax, bit for bit:

    forall x. (x in H -> J S x)     quantifiers prefix, dot-terminated
    exists y. (x S y v y in H)      "v" is disjunction in connective position
    wh x. (x in H , J S x)          query operator: (restrictor , body)
    !(x in H)                       negation
    (p |/ q)                        Sheffer stroke        (p !v q)  Pierce arrow
    prob(snow) = 4/5                exact-rational probability assertion

Rendering parenthesizes every binary connective and nothing else; the
parser additionally accepts redundant grouping parentheses. Terms are
single identifiers: a lowercase letter with optional digits ("x", "y2")
is a variable, anything else is a constant. A lone identifier in formula
position ("p" above) is a propositional atom.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import PmodelError
from .frozen import Frozen

# Deepest nesting parse_formula accepts. Each quantifier, query, negation and
# opening parenthesis is one level, except that a parenthesis directly after
# a negation shares the negation's level: render_formula writes a negation
# of a non-binary body as "!(...)", so every formula the parser accepts
# renders to text it accepts again. The parser uses at most two interpreter
# frames per level and the recursive functions of this module (rendering,
# rewriting, evaluation) about one, so parsed formulas stay well inside
# Python's default recursion limit of 1000.
MAX_NESTING = 200

_VARIABLE_RE = re.compile(r"[a-z][0-9]*\Z")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_RESERVED = frozenset({"forall", "exists", "wh", "in", "prob", "v"})


class FormulaSyntaxError(PmodelError):
    """Raised on malformed concrete syntax; carries offset and expectations."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"at offset {offset}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class UninterpretedSymbol(PmodelError):
    def __init__(self, name: str):
        super().__init__(f"symbol {name!r} has no interpretation in the model")
        self.name = name


class UnboundVariable(PmodelError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not bound by the assignment")
        self.name = name


class UnsupportedNode(PmodelError):
    def __init__(self, kind: str):
        super().__init__(f"operation does not accept {kind} nodes")
        self.kind = kind


class NotCanonicalizable(PmodelError):
    pass


class ModelError(PmodelError):
    pass


def is_variable_name(name: str) -> bool:
    return bool(_VARIABLE_RE.match(name))


def _check_symbol(name: str, role: str) -> None:
    if not _IDENT_RE.match(name) or name in _RESERVED:
        raise ValueError(f"invalid {role} symbol: {name!r}")


class Term(Frozen):
    __slots__ = ("kind", "name")  # kind is "constant" or "variable"

    def _check(self) -> None:
        if self.kind not in ("constant", "variable"):
            raise ValueError(f"bad term kind: {self.kind!r}")
        if self.kind == "variable" and not is_variable_name(self.name):
            raise ValueError(f"variable names look like 'x' or 'y2', got {self.name!r}")
        if self.kind == "constant":
            _check_symbol(self.name, "constant")
            # keeps parse(render(.)) total: shapes decide variablehood
            if is_variable_name(self.name):
                raise ValueError(f"constant {self.name!r} is shaped like a variable")


def var(name: str) -> Term:
    return Term("variable", name)


def const(name: str) -> Term:
    return Term("constant", name)


class _Node(Frozen):
    """A formula node. A node object may occur at several places in one
    formula or in many. Each keeps its hash and its to_sheffer rewrite once
    made, so hashing and rewriting never redo a shared subterm. Equality
    reads kept hashes but makes none, and compares each pair of subterms once."""

    __slots__ = ("_hash", "_sheffer")

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self), self._astuple()))
            _set_hash(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        h = getattr(self, "_hash", None)
        if h is not None and h != getattr(other, "_hash", h):
            return False
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            pair = (id(a), id(b))
            if a is not b and pair not in seen:
                seen.add(pair)
                for x, y in zip(a._astuple(), b._astuple()):
                    if isinstance(x, _Node) and type(y) is type(x):
                        stack.append((x, y))
                    elif x != y:
                        return False
        return True


_set_hash = _Node._hash.__set__
_set_sheffer = _Node._sheffer.__set__


class Atom(_Node):
    """A bare propositional letter such as "p"."""

    __slots__ = ("name",)

    def _check(self) -> None:
        _check_symbol(self.name, "atom")


class Membership(_Node):
    """`x in H` when obj is None, else the relational form `J S x`."""

    __slots__ = ("subject", "predicate", "obj")
    _defaults = {"obj": None}

    def _check(self) -> None:
        _check_symbol(self.predicate, "relation" if self.obj is not None else "predicate")


class Not(_Node):
    __slots__ = ("body",)


class And(_Node):
    __slots__ = ("left", "right")


class Or(_Node):
    __slots__ = ("left", "right")


class Implies(_Node):
    __slots__ = ("left", "right")


class Sheffer(_Node):
    __slots__ = ("left", "right")


class Pierce(_Node):
    __slots__ = ("left", "right")


class _Binder(_Node):
    __slots__ = ()

    def _check(self) -> None:
        if not is_variable_name(self.variable):
            raise ValueError(f"bad quantified variable: {self.variable!r}")


class Forall(_Binder):
    __slots__ = ("variable", "body")


class Exists(_Binder):
    __slots__ = ("variable", "body")


class WhQuery(_Binder):
    """A question: which values of `variable` satisfying `restrictor` make `body` true."""

    __slots__ = ("variable", "restrictor", "body")


class ProbAssertion(_Node):
    __slots__ = ("event", "p")

    def _check(self) -> None:
        _check_symbol(self.event, "event")
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"probability {self.p} outside [0, 1]")


Formula = Union[
    Atom, Membership, Not, And, Or, Implies, Sheffer, Pierce, Forall, Exists, WhQuery, ProbAssertion
]

_BINARY = {And: "&", Or: "v", Implies: "->", Sheffer: "|/", Pierce: "!v"}
_GLYPH_TO_BINARY = {g: cls for cls, g in _BINARY.items()}


class Model(Frozen):
    """Finite first-order model; domain entities are opaque strings."""

    __slots__ = ("domain", "predicates", "relations", "constants", "event_probs")
    _defaults = {"predicates": None, "relations": None, "constants": None, "event_probs": None}
    domain: frozenset[str]
    predicates: Mapping[str, frozenset[str]]
    relations: Mapping[str, frozenset[tuple[str, str]]]
    constants: Mapping[str, str]
    event_probs: Mapping[str, Fraction]

    def _check(self) -> None:
        object.__setattr__(self, "domain", frozenset(self.domain))
        object.__setattr__(self, "predicates", dict(self.predicates or {}))
        object.__setattr__(self, "relations", dict(self.relations or {}))
        object.__setattr__(self, "constants", dict(self.constants or {}))
        object.__setattr__(
            self, "event_probs", {k: Fraction(v) for k, v in (self.event_probs or {}).items()}
        )
        if not self.domain:
            raise ValueError("model domain must be nonempty")
        for name, ext in self.predicates.items():
            if not set(ext) <= self.domain:
                raise ValueError(f"predicate {name!r} mentions entities outside the domain")
        for name, ext in self.relations.items():
            for a, b in ext:
                if a not in self.domain or b not in self.domain:
                    raise ValueError(f"relation {name!r} mentions entities outside the domain")
        for name, e in self.constants.items():
            if e not in self.domain:
                raise ValueError(f"constant {name!r} denotes {e!r}, not in the domain")
        for name, p in self.event_probs.items():
            if not 0 <= p <= 1:
                raise ValueError(f"event {name!r} has probability {p} outside [0, 1]")


def model_to_json(m: Model) -> dict:
    return {
        "domain": sorted(m.domain),
        "predicates": {k: sorted(v) for k, v in sorted(m.predicates.items())},
        "relations": {k: sorted(list(p) for p in v) for k, v in sorted(m.relations.items())},
        "constants": dict(sorted(m.constants.items())),
        "event_probs": {k: str(v) for k, v in sorted(m.event_probs.items())},
    }


def model_from_json(data: Mapping) -> Model:
    maps = ("predicates", "relations", "event_probs")
    if not isinstance(data, dict) or not all(isinstance(data.get(k, {}), dict) for k in maps):
        raise ModelError("model JSON must be an object with object-valued " + ", ".join(maps))
    return Model(
        domain=frozenset(data.get("domain", ())),
        predicates={k: frozenset(v) for k, v in data.get("predicates", {}).items()},
        relations={k: frozenset(tuple(p) for p in v) for k, v in data.get("relations", {}).items()},
        constants=dict(data.get("constants", {})),
        event_probs={k: Fraction(v) for k, v in data.get("event_probs", {}).items()},
    )


# ---------------------------------------------------------------- rendering


def render_formula(f: Formula) -> str:
    """Canonical concrete syntax; parse_formula inverts it exactly."""
    match f:
        case Atom(name):
            return name
        case Membership(subject, predicate, None):
            return f"{subject.name} in {predicate}"
        case Membership(subject, predicate, obj):
            return f"{subject.name} {predicate} {obj.name}"
        case Not(body):
            inner = render_formula(body)
            if not isinstance(body, (And, Or, Implies, Sheffer, Pierce)):
                inner = f"({inner})"
            return f"!{inner}"
        case Forall(v, body):
            return f"forall {v}. {render_formula(body)}"
        case Exists(v, body):
            return f"exists {v}. {render_formula(body)}"
        case WhQuery(v, restrictor, body):
            return f"wh {v}. ({render_formula(restrictor)} , {render_formula(body)})"
        case ProbAssertion(event, p):
            return f"prob({event}) = {p.numerator}/{p.denominator}"
        case _:
            glyph = _BINARY[type(f)]
            return f"({render_formula(f.left)} {glyph} {render_formula(f.right)})"


# ------------------------------------------------------------------ lexing


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


def _lex(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "().,=/&":
            yield _Token(c, c, i)
        elif text[i : i + 2] in ("->", "|/"):
            yield _Token(text[i : i + 2], text[i : i + 2], i)
            i += 2
            continue
        elif c == "!":
            # "!v" glued to a word boundary is the Pierce arrow, bare "!" negation
            if text.startswith("!v", i) and (i + 2 == n or not text[i + 2].isalnum()):
                yield _Token("!v", "!v", i)
                i += 2
                continue
            yield _Token("!", c, i)
        elif c.isalpha() or c.isdigit():
            kind, more = ("ident", str.isalnum) if c.isalpha() else ("int", str.isdigit)
            j = i + 1
            while j < n and more(text[j]):
                j += 1
            yield _Token(kind, text[i:j], i)
            i = j
            continue
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", i)
        i += 1
    yield _Token("eof", "", n)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_lex(text))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"found {tok.text or 'end of input'!r}", tok.offset, (what,))
        return self.take()

    def term(self) -> Term:
        tok = self.expect("ident", "a term")
        if tok.text in _RESERVED:
            raise FormulaSyntaxError(f"reserved word {tok.text!r}", tok.offset, ("a term",))
        return var(tok.text) if is_variable_name(tok.text) else const(tok.text)

    def symbol(self, role: str) -> str:
        tok = self.expect("ident", f"a {role} symbol")
        if tok.text in _RESERVED:
            raise FormulaSyntaxError(f"reserved word {tok.text!r}", tok.offset, (f"a {role} symbol",))
        return tok.text

    def variable(self) -> str:
        tok = self.expect("ident", "a variable")
        if not is_variable_name(tok.text):
            raise FormulaSyntaxError(f"{tok.text!r} is not a variable", tok.offset, ("a variable",))
        return tok.text

    def formula(self, depth: int = 0) -> Formula:
        tok = self.peek()
        if depth > MAX_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", tok.offset)
        if tok.kind == "ident" and tok.text in ("forall", "exists"):
            self.take()
            v = self.variable()
            self.expect(".", "'.'")
            body = self.formula(depth + 1)
            return Forall(v, body) if tok.text == "forall" else Exists(v, body)
        if tok.kind == "ident" and tok.text == "wh":
            self.take()
            v = self.variable()
            self.expect(".", "'.'")
            self.expect("(", "'('")
            restrictor = self.formula(depth + 1)
            self.expect(",", "','")
            body = self.formula(depth + 1)
            self.expect(")", "')'")
            return WhQuery(v, restrictor, body)
        if tok.kind == "ident" and tok.text == "prob":
            self.take()
            self.expect("(", "'('")
            event = self.symbol("event")
            self.expect(")", "')'")
            self.expect("=", "'='")
            num = self.expect("int", "a numerator")
            self.expect("/", "'/'")
            den = self.expect("int", "a denominator")
            if int(den.text) == 0:
                raise FormulaSyntaxError("zero denominator", den.offset, ("a positive integer",))
            return ProbAssertion(event, Fraction(int(num.text), int(den.text)))
        if tok.kind == "!":
            self.take()
            return Not(self.formula(depth + (self.peek().kind != "(")))
        if tok.kind == "(":
            self.take()
            left = self.formula(depth + 1)
            nxt = self.peek()
            if nxt.kind == ")":
                self.take()
                return left
            op = self.binop()
            right = self.formula(depth + 1)
            self.expect(")", "')'")
            return op(left, right)
        return self.atom()

    def binop(self):
        tok = self.peek()
        if tok.kind in ("&", "->", "|/", "!v"):
            return _GLYPH_TO_BINARY[self.take().text]
        if tok.kind == "ident" and tok.text == "v":
            self.take()
            return Or
        raise FormulaSyntaxError(
            f"found {tok.text or 'end of input'!r}", tok.offset, ("')'", "a connective")
        )

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind != "ident":
            raise FormulaSyntaxError(
                f"found {tok.text or 'end of input'!r}", tok.offset, ("a formula",)
            )
        subject = self.term()
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text == "in":
            self.take()
            return Membership(subject, self.symbol("predicate"))
        if nxt.kind == "ident" and nxt.text not in _RESERVED:
            relation = self.symbol("relation")
            return Membership(subject, relation, self.term())
        return Atom(subject.name)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.formula()
    tail = parser.peek()
    if tail.kind != "eof":
        raise FormulaSyntaxError(f"trailing input {tail.text!r}", tail.offset, ("end of input",))
    return f


# -------------------------------------------------------------- evaluation


_UNBOUND = object()


def _entity(t: Term, m: Model, env: dict) -> Callable[[], str]:
    """A thunk for the entity t denotes; its error waits for the call."""
    name = t.name
    if t.kind == "variable":

        def variable():
            try:
                return env[name]
            except KeyError:
                raise UnboundVariable(name) from None

        return variable
    if name in m.constants:
        e = m.constants[name]
        return lambda: e

    def uninterpreted():
        raise UninterpretedSymbol(name)

    return uninterpreted


def evaluate(f: Formula, m: Model, assignment: Optional[Mapping[str, str]] = None) -> bool:
    """Tarskian truth in a finite model.

    Quantifiers range over m.domain. A WhQuery is read as answerability:
    true iff some domain element satisfies restrictor and body together.
    Probability assertions are exact comparisons against the model's event
    map. Propositional atoms read their truth value from the assignment.

    Each call sorts the domain once and turns f into nested closures, one per
    node, over a private copy of the assignment; the caller's mapping is never
    changed and nothing outlives the call. A quantifier binds its variable in
    that copy and restores the outer value on exit. Connectives short-circuit
    left to right, and UninterpretedSymbol, UnboundVariable and UnsupportedNode
    are raised only on the paths that are evaluated, in evaluation order.
    """
    env = dict(assignment or {})
    domain = sorted(m.domain)

    def build(g: Formula) -> Callable[[], bool]:
        t = type(g)
        if t is Membership:
            subject = _entity(g.subject, m, env)
            if g.obj is None:
                ext, read = m.predicates.get(g.predicate), subject
            else:
                obj = _entity(g.obj, m, env)
                ext = m.relations.get(g.predicate)
                read = lambda: (subject(), obj())
            if ext is None:

                def uninterpreted():
                    read()
                    raise UninterpretedSymbol(g.predicate)

                return uninterpreted
            if g.obj is None:
                return lambda: subject() in ext
            return lambda: (subject(), obj()) in ext
        if t is Not:
            body = build(g.body)
            return lambda: not body()
        if t in _BINARY:
            left, right = build(g.left), build(g.right)
            if t is And:
                return lambda: left() and right()
            if t is Or:
                return lambda: left() or right()
            if t is Implies:
                return lambda: (not left()) or right()
            if t is Sheffer:
                return lambda: not (left() and right())
            return lambda: not (left() or right())
        if t is Forall or t is Exists or t is WhQuery:
            v, body = g.variable, build(g.body)
            if t is WhQuery:
                restrictor, scope = build(g.restrictor), body
                body = lambda: restrictor() and scope()
            # Forall stops at the first false body, Exists and WhQuery at the first true
            stop = t is not Forall

            def quantifier():
                outer = env.get(v, _UNBOUND)
                try:
                    for e in domain:
                        env[v] = e
                        if body() is stop:
                            return stop
                    return not stop
                finally:
                    if outer is _UNBOUND:
                        del env[v]
                    else:
                        env[v] = outer

            return quantifier
        if t is Atom:
            name = g.name

            def atom():
                if name in env:
                    return bool(env[name])
                raise UninterpretedSymbol(name)

            return atom
        if t is ProbAssertion:
            if g.event in m.event_probs:
                truth = m.event_probs[g.event] == g.p
                return lambda: truth

            def uninterpreted_event():
                raise UninterpretedSymbol(g.event)

            return uninterpreted_event

        def unsupported():
            raise UnsupportedNode(t.__name__)

        return unsupported

    return build(f)()


# --------------------------------------------------------------- traversal

BINDERS = (Forall, Exists, WhQuery)


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f, a query's restrictor before its body."""
    t = type(f)
    if t in _BINARY:
        return (f.left, f.right)
    if t is WhQuery:
        return (f.restrictor, f.body)
    if t is Not or t is Forall or t is Exists:
        return (f.body,)
    if t is Atom or t is Membership or t is ProbAssertion:
        return ()
    raise UnsupportedNode(t.__name__)


def rebuild(f: Formula, kids: Sequence[Formula]) -> Formula:
    """f over new immediate subformulas, in `children` order; a leaf is f."""
    t = type(f)
    if t in _BINARY or t is Not:
        return t(*kids)
    if t in BINDERS:
        return t(f.variable, *kids)
    if t is Atom or t is Membership or t is ProbAssertion:
        return f
    raise UnsupportedNode(t.__name__)


def preorder(f: Formula) -> Iterator[tuple[Formula, frozenset[str]]]:
    """Every node of f, each before its children, with the variables bound
    above it (a binder's own variable is bound in its children only). Runs
    on an explicit stack, so depth costs no interpreter frames."""
    stack = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        yield g, bound
        if isinstance(g, BINDERS):
            bound = bound | {g.variable}
        for kid in reversed(children(g)):
            stack.append((kid, bound))


def free_vars(f: Formula) -> frozenset[str]:
    return _names(preorder(f))[0]


def _symbols(f: Formula) -> frozenset[str]:
    """Every predicate, relation, constant, atom and event symbol in f."""
    return _names(preorder(f))[1]


def _names(nodes) -> tuple[frozenset[str], frozenset[str]]:
    """The free variables and the symbols of the nodes of one walk."""
    free: set[str] = set()
    symbols: set[str] = set()
    for g, bound in nodes:
        t = type(g)
        if t is Membership:
            symbols.add(g.predicate)
            for term in (g.subject, g.obj):
                if term is None:
                    continue
                if term.kind == "constant":
                    symbols.add(term.name)
                elif term.name not in bound:
                    free.add(term.name)
        elif t is Atom:
            symbols.add(g.name)
        elif t is ProbAssertion:
            symbols.add(g.event)
    return frozenset(free), frozenset(symbols)


class WellFormedness(NamedTuple):
    ok: bool
    diagnostics: tuple[str, ...]


def well_formed(f: Formula, declarants=None, known_symbols=None) -> WellFormedness:
    """Well-formedness against a declaration context.

    `declarants` needs `.calculus` and `.parameters` (pairs of variable, sort
    predicate); `known_symbols` optionally closes the symbol vocabulary.
    Returns ok plus the full diagnostic list.
    """
    nodes = list(preorder(f))
    diagnostics = [
        f"Shadowing: {g.variable} rebound"
        for g, bound in nodes
        if isinstance(g, BINDERS) and g.variable in bound
    ]

    declared_vars: set[str] = set()
    sort_predicates: set[str] = set()
    calculus = getattr(declarants, "calculus", None)
    for v, sort in getattr(declarants, "parameters", ()) or ():
        declared_vars.add(v)
        sort_predicates.add(sort)

    free, symbols = _names(nodes)
    if declarants is not None:
        for name in sorted(free - declared_vars):
            diagnostics.append(f"UndeclaredVariable: {name}")

    if known_symbols is not None:
        allowed = set(known_symbols) | sort_predicates
        for name in sorted(symbols - allowed):
            diagnostics.append(f"UnknownSymbol: {name}")

    has_prob = any(type(g) is ProbAssertion for g, _ in nodes)
    has_quantifier = any(isinstance(g, BINDERS) for g, _ in nodes)
    if calculus == "predicate" and has_prob:
        diagnostics.append("CalculusMismatch: probability assertion under predicate calculus")
    if calculus == "propositional" and (has_quantifier or has_prob):
        diagnostics.append("CalculusMismatch: quantification under propositional calculus")

    return WellFormedness(not diagnostics, tuple(diagnostics))


# ------------------------------------------------------------ Sheffer basis


def to_sheffer(f: Formula) -> Formula:
    """Rewrite {not, and, or, implies} into the Sheffer stroke alone.

    Quantifier structure and atoms pass through untouched; Pierce input is
    rejected (its dual expansion is not part of this rewriting system).

    Each connective and binder node keeps its rewrite, which therefore lives
    exactly as long as the node. A subterm that occurs several times in f,
    or in formulas rewritten before, is rewritten once and its rewrite is
    shared in every output: the work is linear in the distinct nodes of f
    that were never rewritten, and a second call on f returns the identical
    object.
    """
    t = type(f)
    if t is Atom or t is Membership or t is ProbAssertion:
        return f
    out = getattr(f, "_sheffer", None)
    if out is not None:
        return out
    if t is And:
        once = Sheffer(to_sheffer(f.left), to_sheffer(f.right))
        out = Sheffer(once, once)
    elif t is Or:
        a, b = to_sheffer(f.left), to_sheffer(f.right)
        out = Sheffer(Sheffer(a, a), Sheffer(b, b))
    elif t is Implies:
        a, b = to_sheffer(f.left), to_sheffer(f.right)
        out = Sheffer(a, Sheffer(b, b))
    elif t is Not:
        inner = to_sheffer(f.body)
        out = Sheffer(inner, inner)
    elif t is Sheffer:
        out = Sheffer(to_sheffer(f.left), to_sheffer(f.right))
    elif t in BINDERS:
        out = rebuild(f, [to_sheffer(g) for g in children(f)])
    else:
        raise UnsupportedNode(t.__name__)
    _set_sheffer(f, out)
    return out


# ----------------------------------------------------------- canonical form


def split_prefix(f: Formula, binders: tuple[type, ...]) -> tuple[list[Formula], Formula]:
    """The leading run of binder nodes of the types in `binders`, outermost
    first, and the formula under the last of them."""
    prefix: list[Formula] = []
    while isinstance(f, binders):
        prefix.append(f)
        f = f.body
    return prefix, f


def wrap_prefix(prefix: Sequence[Formula], body: Formula) -> Formula:
    """Rebuild the binder nodes of prefix, outermost first, around body."""
    for b in reversed(prefix):
        body = rebuild(b, children(b)[:-1] + (body,))
    return body


def canonicalize(f: Formula) -> Formula:
    """Pull quantifiers into prenex-leading position, outermost first.

    Movement never changes a quantifier's type: a quantifier trapped under
    negation, a Sheffer/Pierce stroke, or an implication antecedent raises
    NotCanonicalizable, as do moves that would capture variables or stack
    two binders of the same name. Idempotent, and equivalence-preserving on
    every (nonempty-domain) finite model.
    """
    kids = [canonicalize(g) for g in children(f)]
    t = type(f)
    if t is And or t is Or:
        a, b = kids
        if isinstance(a, WhQuery) or isinstance(b, WhQuery):
            raise NotCanonicalizable("a query cannot move out of a connective")
        pa, abody = split_prefix(a, (Forall, Exists))
        pb, bbody = split_prefix(b, (Forall, Exists))
        _check_moves(pa, b, "right operand")
        _check_moves(pb, abody, "left operand")
        seen = [q.variable for q in pa + pb]
        if len(seen) != len(set(seen)):
            raise NotCanonicalizable("same variable bound on both sides")
        return wrap_prefix(pa + pb, t(abody, bbody))
    if t is Implies:
        a, b = kids
        if isinstance(a, BINDERS):
            raise NotCanonicalizable("a quantifier cannot move out of an antecedent")
        if isinstance(b, WhQuery):
            raise NotCanonicalizable("a query cannot move out of a connective")
        pb, bbody = split_prefix(b, (Forall, Exists))
        _check_moves(pb, a, "antecedent")
        return wrap_prefix(pb, Implies(a, bbody))
    if t is Not and isinstance(kids[0], BINDERS):
        raise NotCanonicalizable("a quantifier cannot move out of a negation")
    if (t is Sheffer or t is Pierce) and any(isinstance(g, BINDERS) for g in kids):
        raise NotCanonicalizable("a quantifier cannot move across a stroke connective")
    return rebuild(f, kids)


def _check_moves(prefix: list[Formula], other: Formula, where: str) -> None:
    if not prefix:
        return
    captured = {q.variable for q in prefix} & free_vars(other)
    if captured:
        names = ", ".join(sorted(captured))
        raise NotCanonicalizable(f"moving {names} would capture a free variable in the {where}")
