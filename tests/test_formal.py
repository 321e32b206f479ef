"""Formula parsing, evaluation, Sheffer rewriting, canonicalization.

The truth-table oracle here is written from scratch (plain dict-environment
recursion, no Model), so Sheffer and evaluation results are checked against
an implementation that shares no code with the package.
"""
from __future__ import annotations

import copy
import itertools
import pickle
import time
import typing
from dataclasses import FrozenInstanceError
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pmodel.formal import (
    MAX_NESTING,
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    Implies,
    Membership,
    Model,
    Not,
    NotCanonicalizable,
    Or,
    Pierce,
    ProbAssertion,
    Sheffer,
    UnboundVariable,
    UninterpretedSymbol,
    UnsupportedNode,
    WhQuery,
    canonicalize,
    const,
    evaluate,
    free_vars,
    model_from_json,
    model_to_json,
    parse_formula,
    render_formula,
    to_sheffer,
    var,
    well_formed,
)
from pmodel.frep import quantified_variables

P, Q, R = Atom("p"), Atom("q"), Atom("r")
DUMMY = Model(domain=frozenset({"e"}))


# --------------------------------------------------------------- oracles


def tt_eval(f, env: dict[str, bool]) -> bool:
    if isinstance(f, Atom):
        return env[f.name]
    if isinstance(f, Not):
        return not tt_eval(f.body, env)
    if isinstance(f, And):
        return tt_eval(f.left, env) and tt_eval(f.right, env)
    if isinstance(f, Or):
        return tt_eval(f.left, env) or tt_eval(f.right, env)
    if isinstance(f, Implies):
        return (not tt_eval(f.left, env)) or tt_eval(f.right, env)
    if isinstance(f, Sheffer):
        return not (tt_eval(f.left, env) and tt_eval(f.right, env))
    if isinstance(f, Pierce):
        return not (tt_eval(f.left, env) or tt_eval(f.right, env))
    raise TypeError(type(f).__name__)


def truth_table(f, names=("p", "q", "r")) -> int:
    """Bit i is set iff f holds when atom j is read off bit j of i."""
    bits = 0
    for i in range(1 << len(names)):
        if tt_eval(f, {name: bool(i >> j & 1) for j, name in enumerate(names)}):
            bits |= 1 << i
    return bits


def fo_eval(f, domain, predicates, relations, constants, env) -> bool:
    """First-order truth by plain nested loops; quantifiers scan the domain."""
    if isinstance(f, Membership) and f.obj is None:
        e = env[f.subject.name] if f.subject.kind == "variable" else constants[f.subject.name]
        return e in predicates[f.predicate]
    if isinstance(f, Membership):
        pair = tuple(
            env[t.name] if t.kind == "variable" else constants[t.name]
            for t in (f.subject, f.obj)
        )
        return pair in relations[f.predicate]
    if isinstance(f, Not):
        return not fo_eval(f.body, domain, predicates, relations, constants, env)
    if isinstance(f, And):
        return fo_eval(f.left, domain, predicates, relations, constants, env) and fo_eval(
            f.right, domain, predicates, relations, constants, env
        )
    if isinstance(f, Or):
        return fo_eval(f.left, domain, predicates, relations, constants, env) or fo_eval(
            f.right, domain, predicates, relations, constants, env
        )
    if isinstance(f, Implies):
        return (not fo_eval(f.left, domain, predicates, relations, constants, env)) or fo_eval(
            f.right, domain, predicates, relations, constants, env
        )
    if isinstance(f, Forall):
        return all(
            fo_eval(f.body, domain, predicates, relations, constants, {**env, f.variable: e})
            for e in domain
        )
    if isinstance(f, Exists):
        return any(
            fo_eval(f.body, domain, predicates, relations, constants, {**env, f.variable: e})
            for e in domain
        )
    raise TypeError(type(f).__name__)


# ------------------------------------------------------- parse and render

CANONICAL = [
    "forall x. (x in H -> J S x)",
    "wh x. (x in H , J S x)",
    "exists y. forall x. ((x in H & y in H) -> x S y)",
    "prob(snow) = 4/5",
    "(p & q)",
    "(p v q)",
    "(p -> q)",
    "(p |/ q)",
    "(p !v q)",
    "!(p)",
    "!(!(p))",
    "J in L",
    "forall x. exists y. (x S y v y S x)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_parse_render_fixpoint(text):
    assert render_formula(parse_formula(text)) == text


def test_parse_shapes():
    f = parse_formula("forall x. (x in H -> J S x)")
    assert f == Forall(
        "x", Implies(Membership(var("x"), "H"), Membership(const("J"), "S", var("x")))
    )
    g = parse_formula("wh x. (x in H , J S x)")
    assert isinstance(g, WhQuery) and g.variable == "x"
    p = parse_formula("prob(snow) = 4/5")
    assert p == ProbAssertion("snow", Fraction(4, 5))


def test_redundant_parens_collapse():
    assert render_formula(parse_formula("((x in H) -> (J S x))")) == "(x in H -> J S x)"


@pytest.mark.parametrize(
    "bad",
    ["", "forall x.", "(p &", "p q", "prob() = 1/2", "prob(snow) = 7/5", "forall X. (p & q)"],
)
def test_syntax_errors(bad):
    with pytest.raises((FormulaSyntaxError, ValueError)):
        parse_formula(bad)


def test_nesting_limit():
    deepest = "!" * MAX_NESTING + "p"
    f = parse_formula(deepest)
    # the recursive functions handle the deepest formula the parser accepts
    assert render_formula(f) == "!(" * MAX_NESTING + "p" + ")" * MAX_NESTING
    assert _dag_mask(to_sheffer(f), {}) == 0b10  # an even number of negations
    assert evaluate(f, DUMMY, {"p": True}) is True
    for text in (
        "!" + deepest,
        "(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1),
        "!(" * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1),
    ):
        with pytest.raises(FormulaSyntaxError, match="nested deeper"):
            parse_formula(text)


@pytest.mark.parametrize("n", [1, 101, MAX_NESTING])
def test_rendered_negation_chain_parses_back(n):
    # render_formula writes each of these negations as "!(...)"
    f = parse_formula("!" * n + "x in H")
    assert parse_formula(render_formula(f)) == f


def test_syntax_error_carries_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("(p &")
    assert exc.value.offset >= 3


# ----------------------------------------------------------------- atoms


def atoms_strategy():
    return st.sampled_from([P, Q, R])


def prop_formulas(connectives=(Not, And, Or, Implies, Sheffer, Pierce)):
    def extend(kids):
        parts = [st.builds(c, kids, kids) for c in connectives if c is not Not]
        if Not in connectives:
            parts.append(st.builds(Not, kids))
        return st.one_of(parts)

    return st.recursive(atoms_strategy(), extend, max_leaves=12)


VARIABLES = st.sampled_from(["x", "y", "z"])
TERMS = st.one_of(VARIABLES.map(var), st.sampled_from(["J", "M"]).map(const))


def fo_formulas():
    """First-order formulas over every node type. Binders draw from x, y, z
    only, so rebinding a bound variable and free occurrences both happen."""
    leaves = st.one_of(
        atoms_strategy(),
        st.builds(Membership, TERMS, st.sampled_from(["H", "L"])),
        st.builds(Membership, TERMS, st.sampled_from(["S", "T"]), TERMS),
        st.builds(
            ProbAssertion,
            st.sampled_from(["snow", "rain"]),
            st.fractions(min_value=0, max_value=1, max_denominator=9),
        ),
    )

    def extend(kids):
        return st.one_of(
            st.builds(Not, kids),
            *[st.builds(c, kids, kids) for c in (And, Or, Implies, Sheffer, Pierce)],
            st.builds(Forall, VARIABLES, kids),
            st.builds(Exists, VARIABLES, kids),
            st.builds(WhQuery, VARIABLES, kids, kids),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@given(st.one_of(prop_formulas(), fo_formulas()))
def test_render_parse_roundtrip(f):
    assert parse_formula(render_formula(f)) == f


@given(prop_formulas(), st.integers(min_value=0, max_value=7))
def test_evaluate_matches_oracle_on_propositions(f, i):
    env = {name: bool(i >> j & 1) for j, name in enumerate("pqr")}
    assert evaluate(f, DUMMY, env) == tt_eval(f, env)


def test_atom_without_assignment_is_uninterpreted():
    with pytest.raises(UninterpretedSymbol):
        evaluate(P, DUMMY)


# --------------------------------------------------------------- Sheffer


def test_sheffer_goldens():
    assert render_formula(to_sheffer(Not(P))) == "(p |/ p)"
    assert render_formula(to_sheffer(And(P, Q))) == "((p |/ q) |/ (p |/ q))"
    assert render_formula(to_sheffer(Or(P, Q))) == "((p |/ p) |/ (q |/ q))"
    assert render_formula(to_sheffer(Implies(P, Q))) == "(p |/ (q |/ q))"


def test_sheffer_passes_quantifiers_through():
    f = parse_formula("forall x. (x in H -> J S x)")
    g = to_sheffer(f)
    assert isinstance(g, Forall)
    assert render_formula(g) == "forall x. (x in H |/ (J S x |/ J S x))"


def test_sheffer_rejects_pierce():
    with pytest.raises(UnsupportedNode, match="does not accept Pierce nodes"):
        to_sheffer(Pierce(P, Q))
    with pytest.raises(UnsupportedNode, match="does not accept Pierce nodes"):
        to_sheffer(And(P, Not(Pierce(P, Q))))


def _distinct_nodes(f, seen=None) -> set[int]:
    seen = set() if seen is None else seen
    if id(f) not in seen:
        seen.add(id(f))
        for kid in ("left", "right", "body", "restrictor"):
            if hasattr(f, kid):
                _distinct_nodes(getattr(f, kid), seen)
    return seen


def _dag_mask(f, memo) -> int:
    """truth_table over p alone, walking each shared node once."""
    if id(f) not in memo:
        if isinstance(f, Atom):
            memo[id(f)] = 0b10
        else:
            memo[id(f)] = 0b11 ^ (_dag_mask(f.left, memo) & _dag_mask(f.right, memo))
    return memo[id(f)]


def test_sheffer_rewrites_each_shared_subterm_once():
    depth = 16
    chain = P
    for _ in range(depth):
        chain = And(chain, chain)  # a tree of 2**17 - 1 nodes, 17 distinct ones
    out = to_sheffer(chain)
    # plain values only: an assertion message that printed `out` would
    # render a tree of 2**33 nodes
    distinct, mask = len(_distinct_nodes(out)), _dag_mask(out, {})
    assert distinct <= 2 * depth + 1
    assert mask == 0b10  # (c & c) is c
    # a shared subterm keeps one rewrite, and the next call returns it
    shared_once = out.left.left is out.left.right
    kept = to_sheffer(chain) is out
    assert shared_once and kept


def _chain(depth):
    chain = P
    for _ in range(depth):
        chain = And(chain, chain)
    return chain


def test_equality_and_hash_are_linear_on_shared_dags():
    # two independently built rewrites of a tree of 2**65 - 1 nodes: any
    # walk that reads them as trees runs for ever
    t0 = time.perf_counter()
    a, b = to_sheffer(_chain(64)), to_sheffer(_chain(64))
    same, same_hash = a == b, hash(a) == hash(b)
    differ = a == to_sheffer(Not(_chain(63)))
    elapsed = time.perf_counter() - t0
    assert a is not b and same and same_hash and not differ
    assert elapsed < 0.5


def test_repr_writes_each_shared_node_once():
    # written as a tree, the depth-12 rewrite is 604 million characters
    t0 = time.perf_counter()
    texts = {depth: repr(to_sheffer(_chain(depth))) for depth in (6, 12)}
    elapsed = time.perf_counter() - t0
    sizes = {depth: len(_distinct_nodes(to_sheffer(_chain(depth)))) for depth in texts}
    assert elapsed < 1.0
    assert all(len(texts[d]) <= 40 * sizes[d] for d in texts)
    # a later occurrence is a back-reference to the labelled first one
    shared = And(P, P)
    assert repr(Or(shared, shared)) == (
        "Or(left=#1=And(left=#2=Atom(name='p'), right=#2#), right=#1#)"
    )
    # nothing shared, nothing labelled: the field-by-field form
    assert repr(And(Atom("p"), Atom("p"))) == "And(left=Atom(name='p'), right=Atom(name='p'))"


def test_sheffer_returns_the_kept_rewrite():
    f = parse_formula("forall x. (x in H -> !(J S x & p))")
    g = to_sheffer(f)
    assert to_sheffer(f) is g
    assert to_sheffer(f.body) is g.body  # the subterm's own rewrite, kept on it


NODES = [
    Atom("p"),
    Membership(var("x"), "H"),
    Membership(const("J"), "S", var("x")),
    Not(P),
    And(P, Q),
    Or(P, Q),
    Implies(P, Q),
    Sheffer(P, Q),
    Pierce(P, Q),
    Forall("x", Membership(var("x"), "H")),
    Exists("y", Not(P)),
    WhQuery("x", Membership(var("x"), "H"), P),
    ProbAssertion("snow", Fraction(4, 5)),
]


def _positional_match(f):
    """The fields of f read back through its positional match pattern."""
    match f:
        case Atom(name):
            return (name,)
        case Membership(subject, predicate, obj):
            return (subject, predicate, obj)
        case Not(body):
            return (body,)
        case And(left, right) | Or(left, right) | Implies(left, right):
            return (left, right)
        case Sheffer(left, right) | Pierce(left, right):
            return (left, right)
        case Forall(v, body) | Exists(v, body):
            return (v, body)
        case WhQuery(v, restrictor, body):
            return (v, restrictor, body)
        case ProbAssertion(event, p):
            return (event, p)


@pytest.mark.parametrize("f", NODES, ids=lambda f: type(f).__name__)
def test_node_contract(f):
    for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert copied == f and hash(copied) == hash(f) and type(copied) is type(f)
        assert render_formula(copied) == render_formula(f)
    fields = _positional_match(f)
    assert fields is not None and fields == tuple(getattr(f, n) for n in type(f).__match_args__)
    for name in type(f).__match_args__ + ("_sheffer", "anything"):
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(f, name)
    assert not hasattr(f, "__dict__")


def test_node_types_are_all_covered():
    covered = {type(f) for f in NODES}
    assert covered == set(typing.get_args(Formula))


def test_constructors_still_validate():
    with pytest.raises(ValueError, match="bad quantified variable"):
        Forall("X", P)
    with pytest.raises(ValueError, match="invalid atom symbol"):
        Atom("forall")
    with pytest.raises(ValueError, match="outside"):
        ProbAssertion("snow", Fraction(3, 2))
    with pytest.raises(ValueError, match="shaped like a variable"):
        const("x")
    assert ProbAssertion("snow", 0.5).p == Fraction(1, 2)
    assert Membership(subject=var("x"), predicate="H") == Membership(var("x"), "H", None)


def _only_sheffer_connectives(f) -> bool:
    if isinstance(f, (Atom, Membership, ProbAssertion)):
        return True
    if isinstance(f, Sheffer):
        return _only_sheffer_connectives(f.left) and _only_sheffer_connectives(f.right)
    if isinstance(f, (Forall, Exists)):
        return _only_sheffer_connectives(f.body)
    if isinstance(f, WhQuery):
        return _only_sheffer_connectives(f.restrictor) and _only_sheffer_connectives(f.body)
    return False


@given(prop_formulas(connectives=(Not, And, Or, Implies, Sheffer)))
def test_sheffer_output_is_stroke_only(f):
    assert _only_sheffer_connectives(to_sheffer(f))


@given(prop_formulas(connectives=(Not, And, Or, Implies, Sheffer)))
def test_sheffer_preserves_truth_table(f):
    assert truth_table(to_sheffer(f)) == truth_table(f)


def test_sheffer_templates_close_over_all_tables():
    """Inductive step for unbounded depth: for every pair of 8-row truth
    tables, each connective's stroke template computes the connective."""
    full = 0xFF
    nand = lambda a, b: full ^ (a & b)
    for ta, tb in itertools.product(range(256), repeat=2):
        assert nand(ta, ta) == full ^ ta
        assert nand(nand(ta, tb), nand(ta, tb)) == ta & tb
        assert nand(nand(ta, ta), nand(tb, tb)) == ta | tb
        assert nand(ta, nand(tb, tb)) == (full ^ ta) | tb
        assert nand(ta, tb) == full ^ (ta & tb)


# ------------------------------------------------------------ evaluation


def test_quantified_golden_model():
    m = Model(
        domain=frozenset({"j"}),
        predicates={"H": frozenset({"j"})},
        relations={"S": frozenset({("j", "j")})},
        constants={"J": "j"},
    )
    f = parse_formula("forall x. (x in H -> J S x)")
    assert evaluate(f, m) is True
    empty = Model(domain=frozenset({"j"}), predicates={"H": frozenset({"j"})}, relations={"S": frozenset()}, constants={"J": "j"})
    assert evaluate(f, empty) is False


def all_small_models(max_size=2):
    for size in range(1, max_size + 1):
        domain = tuple(f"e{i}" for i in range(size))
        for h in itertools.chain.from_iterable(
            itertools.combinations(domain, k) for k in range(size + 1)
        ):
            for s in itertools.chain.from_iterable(
                itertools.combinations(tuple(itertools.product(domain, domain)), k)
                for k in range(size * size + 1)
            ):
                yield domain, frozenset(h), frozenset(s)


def test_evaluate_matches_first_order_oracle_on_all_tiny_models():
    fs = [
        parse_formula("forall x. (x in H -> J S x)"),
        parse_formula("exists y. forall x. ((x in H & y in H) -> x S y)"),
        parse_formula("forall x. exists y. (x S y v !(y in H))"),
        # the inner binder shadows x; the outer x is restored for `x S x`
        parse_formula("forall x. ((exists x. x in H) & x S x)"),
    ]
    for domain, h, s in all_small_models(2):
        m = Model(
            domain=frozenset(domain),
            predicates={"H": h},
            relations={"S": s},
            constants={"J": domain[0]},
        )
        for f in fs:
            want = fo_eval(f, domain, {"H": h}, {"S": s}, {"J": domain[0]}, {})
            assert evaluate(f, m) == want


def test_evaluate_is_lazy_and_keeps_the_assignment():
    env = {"p": True}
    # q has no value, but the disjunction is settled before q is reached
    assert evaluate(parse_formula("(p v q)"), DUMMY, env) is True
    assert env == {"p": True}
    with pytest.raises(UninterpretedSymbol):
        evaluate(parse_formula("(q v p)"), DUMMY, env)
    m = Model(domain=frozenset({"a", "b"}), predicates={"H": frozenset({"a"})})
    bound = {"x": "b"}
    assert evaluate(parse_formula("(exists x. x in H & !(x in H))"), m, bound) is True
    assert bound == {"x": "b"}
    # the subject is resolved before the predicate, left before right
    with pytest.raises(UnboundVariable):
        evaluate(parse_formula("y in L"), m)
    with pytest.raises(UninterpretedSymbol, match="'L'"):
        evaluate(parse_formula("forall x. (x in L & y in H)"), m)
    with pytest.raises(UnboundVariable, match="'y'"):
        evaluate(parse_formula("exists x. (!(x in H) & y in H)"), m)


def test_wh_query_is_answerability():
    m = Model(domain=frozenset({"a", "b"}), predicates={"H": frozenset({"a"})}, relations={"L": frozenset()})
    has_answer = parse_formula("wh x. (x in H , x in H)")
    assert evaluate(has_answer, m) is True
    no_answer = parse_formula("wh x. (x in H , x in L)")
    with pytest.raises(UninterpretedSymbol):
        evaluate(no_answer, m)  # L declared as a relation, used as a predicate


def test_probability_is_exact_fraction():
    m = Model(domain=frozenset({"e"}), event_probs={"snow": Fraction(4, 5)})
    assert evaluate(ProbAssertion("snow", Fraction(4, 5)), m) is True
    assert evaluate(ProbAssertion("snow", Fraction(3, 5)), m) is False
    with pytest.raises(UninterpretedSymbol):
        evaluate(ProbAssertion("rain", Fraction(1, 2)), m)
    with pytest.raises(ValueError):
        ProbAssertion("snow", Fraction(6, 5))


def test_model_validation():
    with pytest.raises(ValueError):
        Model(domain=frozenset())
    with pytest.raises(ValueError):
        Model(domain=frozenset({"a"}), constants={"J": "b"})
    with pytest.raises(ValueError):
        Model(domain=frozenset({"a"}), predicates={"H": frozenset({"b"})})


def test_model_json_roundtrip():
    m = Model(
        domain=frozenset({"a", "b"}),
        predicates={"H": frozenset({"a"})},
        relations={"S": frozenset({("a", "b")})},
        constants={"J": "a"},
        event_probs={"snow": Fraction(4, 5)},
    )
    assert model_from_json(model_to_json(m)) == m


# --------------------------------------------------------- canonicalize


def test_canonicalize_pulls_prefixes_out():
    f = And(Forall("x", Membership(var("x"), "H")), Atom("p"))
    assert render_formula(canonicalize(f)) == "forall x. (x in H & p)"
    g = Implies(Atom("p"), Exists("y", Membership(var("y"), "H")))
    assert render_formula(canonicalize(g)) == "exists y. (p -> y in H)"


def test_canonicalize_orders_left_prefix_first():
    f = And(Forall("x", Membership(var("x"), "H")), Exists("y", Membership(var("y"), "H")))
    assert render_formula(canonicalize(f)) == "forall x. exists y. (x in H & y in H)"


@pytest.mark.parametrize(
    "text",
    [
        "!(forall x. x in H)",
        "(forall x. x in H |/ p)",
        "(forall x. x in H -> p)",
        "(forall x. x in H & forall x. x in L)",
    ],
)
def test_not_canonicalizable(text):
    with pytest.raises(NotCanonicalizable):
        canonicalize(parse_formula(text))


def test_canonicalize_refuses_variable_capture():
    # moving forall x over a free x on the other side would capture it
    f = And(Forall("x", Membership(var("x"), "H")), Membership(var("x"), "L"))
    with pytest.raises(NotCanonicalizable):
        canonicalize(f)


def test_canonicalize_idempotent_and_truth_preserving():
    shapes = [
        "(forall x. x in H & exists y. y in L)",
        "(p -> exists y. y in H)",
        "(exists y. y in H v q)",
        "forall x. (x in H -> exists y. x S y)",
    ]
    for text in shapes:
        f = parse_formula(text)
        c = canonicalize(f)
        assert canonicalize(c) == c
        for domain, h, s in all_small_models(2):
            m = Model(
                domain=frozenset(domain),
                predicates={"H": h, "L": h},
                relations={"S": s},
                constants={},
            )
            env = {"p": True, "q": False}
            assert evaluate(f, m, env) == evaluate(c, m, env)


# ---------------------------------------------------------- well-formed


def _kids(f) -> list:
    return [getattr(f, a) for a in ("restrictor", "body", "left", "right") if hasattr(f, a)]


def ref_free_vars(f) -> frozenset:
    if isinstance(f, Membership):
        return frozenset(t.name for t in (f.subject, f.obj) if t is not None and t.kind == "variable")
    inner = frozenset().union(*map(ref_free_vars, _kids(f)))
    return inner - {f.variable} if hasattr(f, "variable") else inner


def ref_binders(f, bound=frozenset()) -> list:
    """(variable, rebinds an enclosing binder) for each binder, outermost first."""
    if not hasattr(f, "variable"):
        return [b for k in _kids(f) for b in ref_binders(k, bound)]
    inner = bound | {f.variable}
    return [(f.variable, f.variable in bound)] + [b for k in _kids(f) for b in ref_binders(k, inner)]


def ref_symbols(f) -> frozenset:
    if isinstance(f, Atom):
        return frozenset({f.name})
    if isinstance(f, ProbAssertion):
        return frozenset({f.event})
    if isinstance(f, Membership):
        constants = {t.name for t in (f.subject, f.obj) if t is not None and t.kind == "constant"}
        return frozenset({f.predicate} | constants)
    return frozenset().union(*map(ref_symbols, _kids(f)))


def ref_has_prob(f) -> bool:
    return isinstance(f, ProbAssertion) or any(map(ref_has_prob, _kids(f)))


def ref_well_formed(f, declarants, known_symbols) -> tuple:
    out = [f"Shadowing: {v} rebound" for v, rebound in ref_binders(f) if rebound]
    params = declarants.parameters if declarants is not None else ()
    if declarants is not None:
        declared = {v for v, _ in params}
        out += [f"UndeclaredVariable: {v}" for v in sorted(ref_free_vars(f) - declared)]
    if known_symbols is not None:
        allowed = set(known_symbols) | {sort for _, sort in params}
        out += [f"UnknownSymbol: {s}" for s in sorted(ref_symbols(f) - allowed)]
    calculus = getattr(declarants, "calculus", None)
    if calculus == "predicate" and ref_has_prob(f):
        out.append("CalculusMismatch: probability assertion under predicate calculus")
    if calculus == "propositional" and (ref_binders(f) or ref_has_prob(f)):
        out.append("CalculusMismatch: quantification under propositional calculus")
    return tuple(out)


@given(fo_formulas())
@example(parse_formula("wh x. (forall y. y S x , exists z. exists y. z in H)"))
def test_free_and_bound_variables_match_reference(f):
    assert free_vars(f) == ref_free_vars(f)
    assert quantified_variables(f) == tuple(v for v, _ in ref_binders(f))


@given(
    fo_formulas(),
    st.sampled_from([None, "predicate", "probability", "propositional"]),
    st.lists(st.tuples(VARIABLES, st.sampled_from(["H", "K"])), max_size=2),
    st.sampled_from([None, set(), {"p", "H", "S", "J"}]),
)
def test_well_formed_matches_reference(f, calculus, parameters, known_symbols):
    declarants = None
    if calculus is not None:
        declarants = SimpleNamespace(calculus=calculus, parameters=tuple(parameters))
    got = well_formed(f, declarants, known_symbols)
    want = ref_well_formed(f, declarants, known_symbols)
    assert got.diagnostics == want and got.ok == (want == ())


def test_well_formed_diagnostics():
    ok = well_formed(parse_formula("forall x. (x in H -> J S x)"), known_symbols={"H", "J", "S"})
    assert ok.ok and ok.diagnostics == ()
    ctx = SimpleNamespace(calculus="predicate", parameters=())
    free = well_formed(parse_formula("x in H"), declarants=ctx, known_symbols={"H"})
    assert not free.ok and any("UndeclaredVariable" in d for d in free.diagnostics)
    shadow = well_formed(parse_formula("forall x. exists x. x in H"), known_symbols={"H"})
    assert not shadow.ok and any("Shadowing" in d for d in shadow.diagnostics)
    clash = well_formed(
        ProbAssertion("snow", Fraction(1, 2)),
        declarants=SimpleNamespace(calculus="predicate", parameters=()),
    )
    assert any("CalculusMismatch" in d for d in clash.diagnostics)


def test_free_vars():
    assert free_vars(parse_formula("x in H")) == frozenset({"x"})
    assert free_vars(parse_formula("forall x. (x in H -> x S y)")) == frozenset({"y"})
    assert free_vars(parse_formula("prob(snow) = 4/5")) == frozenset()
