"""F-representation construction, validation diagnostics, scope resolution.

Scope semantics are checked against exhaustive model enumeration: every model
with |domain| <= 2 for the separation witness, <= 3 for the entailment sweep,
evaluated by the loop-based oracle from test_formal.
"""
from __future__ import annotations

import itertools
import json

import pytest

from pmodel.formal import Forall, Exists, Model, evaluate, parse_formula, render_formula
from pmodel.frep import (
    FormalDeclarants,
    Force,
    FRepresentation,
    FRepValidationError,
    LexicalReferent,
    VacuousBinder,
    binding_referents,
    build_frep,
    frep_from_json,
    frep_to_json,
    load_frep,
    quantified_variables,
    resolve_scope,
)
from pmodel.pipeline import compare
from test_formal import fo_eval

LEX_EVERYONE_SOMEONE = (
    LexicalReferent("S", "saw", "V"),
    LexicalReferent("H", "human", "N"),
    LexicalReferent("x", "everyone", "Q"),
    LexicalReferent("y", "someone", "Q"),
)
AMBIGUOUS = "forall x. exists y. ((x in H & y in H) -> x S y)"


def make_frep(scope_order=None, string=AMBIGUOUS, force=Force("declarative")):
    return build_frep(
        external={},
        lexical=LEX_EVERYONE_SOMEONE,
        declarants=FormalDeclarants(
            calculus="predicate",
            parameters=(("x", "H"), ("y", "H")),
            scope_order=scope_order,
        ),
        string=parse_formula(string),
        force=force,
    )


# ------------------------------------------------------------ validation


def test_load_golden(corpus_dir):
    f = load_frep(corpus_dir / "jones-saw-everyone.frep")
    assert render_formula(f.string) == "forall x. (x in H -> J S x)"
    assert f.force == Force("declarative")
    assert f.external == {"Jones": 7}
    assert f.word_of("J") == "Jones"
    assert f.symbol_of("everyone") == "x"


def test_every_symbol_needs_a_lexical_referent():
    with pytest.raises(FRepValidationError) as exc:
        build_frep(
            external={},
            lexical=LEX_EVERYONE_SOMEONE[:1],  # S only: H, x, y unbound
            declarants=FormalDeclarants("predicate", (("x", "H"),)),
            string=parse_formula(AMBIGUOUS),
            force=Force("declarative"),
        )
    assert any("MissingLexicalReferent" in repr(d) for d in exc.value.diagnostics)


def test_dangling_external_referent():
    with pytest.raises(FRepValidationError) as exc:
        build_frep(
            external={"Smith": 3},
            lexical=LEX_EVERYONE_SOMEONE,
            declarants=FormalDeclarants("predicate", (("x", "H"), ("y", "H"))),
            string=parse_formula(AMBIGUOUS),
            force=Force("declarative"),
        )
    assert any("DanglingExternalReferent" in repr(d) for d in exc.value.diagnostics)


def test_duplicate_symbol_and_word():
    dup = LEX_EVERYONE_SOMEONE + (LexicalReferent("S", "spotted", "V"),)
    with pytest.raises(FRepValidationError) as exc:
        make_frep_with(dup)
    assert any("DuplicateSymbol" in repr(d) for d in exc.value.diagnostics)
    dup = LEX_EVERYONE_SOMEONE + (LexicalReferent("T", "saw", "V"),)
    with pytest.raises(FRepValidationError) as exc:
        make_frep_with(dup)
    assert any("DuplicateWord" in repr(d) for d in exc.value.diagnostics)


def make_frep_with(lexical):
    return build_frep(
        external={},
        lexical=lexical,
        declarants=FormalDeclarants("predicate", (("x", "H"), ("y", "H"))),
        string=parse_formula(AMBIGUOUS),
        force=Force("declarative"),
    )


def test_emphasis_must_name_a_symbol():
    with pytest.raises(FRepValidationError) as exc:
        make_frep(force=Force("declarative", emphasis="z"))
    assert any("EmphasisWithoutReferent" in repr(d) for d in exc.value.diagnostics)


@pytest.mark.parametrize("symbol", ["S", "H", "y"], ids=["relation", "sort", "unused-variable"])
def test_emphasis_must_name_a_term_of_the_string(symbol):
    with pytest.raises(FRepValidationError) as exc:
        make_frep(string="forall x. (x in H -> x S x)", force=Force("declarative", emphasis=symbol))
    assert f"EmphasisNotATerm(symbol='{symbol}')" in map(repr, exc.value.diagnostics)


@pytest.mark.parametrize(
    "string",
    ["forall x. exists y. y in H", "exists y. forall x. x S x", "wh x. (exists y. y in H , exists y. y S y)"],
    ids=["forall", "exists", "wh"],
)
def test_a_binder_whose_variable_occurs_nowhere_is_refused(string):
    with pytest.raises(FRepValidationError) as exc:
        make_frep(string=string)
    assert exc.value.diagnostics == (VacuousBinder(string.split()[1].rstrip(".")),)


def test_a_query_variable_in_its_restrictor_alone_is_not_vacuous():
    make_frep(string="wh x. (x in H , exists y. y in H)")


def test_symbol_of_ignores_case():
    f = make_frep()
    assert f.symbol_of("Everyone") == f.symbol_of("everyone") == "x"
    assert f.symbol_of("nobody") is None


def test_scope_order_must_name_known_variables():
    with pytest.raises(FRepValidationError) as exc:
        make_frep(scope_order=("y", "z"))
    assert any("ScopeOrderUnknownVariable" in repr(d) for d in exc.value.diagnostics)


def test_loader_ignores_a_locality_key(corpus_dir):
    # earlier v1 files carried per-variable locality notes that no
    # derivation read; a file with them, even unknown or bogus, loads as one
    # without
    data = json.loads((corpus_dir / "everyone-saw-someone.frep").read_text())
    noted = json.loads(json.dumps(data))
    noted["declarants"]["locality"] = {"x": "bogus", "w": "local"}
    f, plain = frep_from_json(noted), frep_from_json(data)
    assert f == plain
    assert frep_to_json(f) == frep_to_json(plain) == data
    assert compare(f) == compare(plain)


def test_force_fields():
    assert Force("interrogative").mood == "interrogative"
    with pytest.raises(ValueError):
        Force("imperative")


# ----------------------------------------------------------------- scope


def test_two_readings_without_declarant():
    readings = resolve_scope(make_frep())
    assert [render_formula(r) for r in readings] == [
        "forall x. exists y. ((x in H & y in H) -> x S y)",
        "exists y. forall x. ((x in H & y in H) -> x S y)",
    ]


def test_one_reading_with_scope_order():
    readings = resolve_scope(make_frep(scope_order=("y", "x")))
    assert [render_formula(r) for r in readings] == [
        "exists y. forall x. ((x in H & y in H) -> x S y)"
    ]


def test_rebound_variable_gives_each_reading_once():
    # build_frep rejects shadowing, so the representation is built in code
    valid = make_frep()
    string = parse_formula("forall x. forall x. exists y. x S y")
    f = FRepresentation(valid.external, valid.lexical, valid.declarants, string, valid.force)
    readings = [render_formula(r) for r in resolve_scope(f)]
    assert readings == [
        "forall x. forall x. exists y. x S y",
        "forall x. exists y. forall x. x S y",
        "exists y. forall x. forall x. x S y",
    ]


def test_single_quantifier_is_unambiguous(corpus_dir):
    assert len(resolve_scope(load_frep(corpus_dir / "jones-saw-everyone.frep"))) == 1
    assert len(resolve_scope(load_frep(corpus_dir / "who-did-jones-see.frep"))) == 1


def test_surface_reading_comes_first():
    f = make_frep()
    assert resolve_scope(f)[0] == f.string


def test_quantified_variables_order():
    assert quantified_variables(parse_formula(AMBIGUOUS)) == ("x", "y")


# --------------------------------------------- semantics of the readings


def all_hs_models(max_size):
    """Every model over predicate H and relation S with |domain| <= max_size."""
    for size in range(1, max_size + 1):
        domain = tuple(f"e{i}" for i in range(size))
        pairs = tuple(itertools.product(domain, domain))
        for h_bits in range(1 << size):
            h = frozenset(d for i, d in enumerate(domain) if h_bits >> i & 1)
            for s_bits in range(1 << len(pairs)):
                s = frozenset(p for i, p in enumerate(pairs) if s_bits >> i & 1)
                yield domain, h, s


def test_readings_separated_by_a_two_element_model():
    surface, inverse = resolve_scope(make_frep())
    witnesses = []
    for domain, h, s in all_hs_models(2):
        m = Model(domain=frozenset(domain), predicates={"H": h}, relations={"S": s})
        sv = evaluate(surface, m)
        iv = evaluate(inverse, m)
        # the oracle must agree with evaluate on every model we scan
        assert sv == fo_eval(surface, domain, {"H": h}, {"S": s}, {}, {})
        assert iv == fo_eval(inverse, domain, {"H": h}, {"S": s}, {}, {})
        if sv != iv:
            witnesses.append((domain, h, s, sv, iv))
    assert witnesses, "forall-exists and exists-forall never came apart"
    # direction check: surface true, inverse false (never the other way)
    assert all(sv and not iv for *_, sv, iv in witnesses)


def test_inverse_scope_entails_surface_scope_on_all_three_element_models():
    surface, inverse = resolve_scope(make_frep())
    checked = 0
    for domain, h, s in all_hs_models(3):
        if fo_eval(inverse, domain, {"H": h}, {"S": s}, {}, {}):
            assert fo_eval(surface, domain, {"H": h}, {"S": s}, {}, {})
        checked += 1
    assert checked == 2 * 2 + 2**2 * 2**4 + 2**3 * 2**9  # 1-, 2-, 3-element models


# ------------------------------------------------------------------ misc


def test_binding_referents(corpus_dir):
    f = load_frep(corpus_dir / "jones-saw-everyone.frep")
    assert binding_referents(f) == frozenset({("Jones", 7)})


def test_frep_json_roundtrip(corpus_dir):
    for name in ("jones-saw-everyone", "everyone-saw-someone-scoped", "who-did-jones-see", "prob-snow"):
        f = load_frep(corpus_dir / f"{name}.frep")
        assert frep_from_json(frep_to_json(f)) == f


def test_scope_order_roundtrips_through_json():
    f = make_frep(scope_order=("y", "x"))
    g = frep_from_json(frep_to_json(f))
    assert resolve_scope(g) == resolve_scope(f)
