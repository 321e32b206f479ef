"""End-to-end derivations in both directions and their agreement report."""
from __future__ import annotations

import json

import pytest

from conftest import CORPUS_DIR
from pmodel import pipeline
from pmodel.formal import canonicalize, parse_formula, render_formula
from pmodel.frep import (
    Force,
    FormalDeclarants,
    FRepValidationError,
    LexicalReferent,
    build_frep,
    frep_from_json,
    load_frep,
    resolve_scope,
)
from pmodel.pipeline import (
    CompareReport,
    Derivation,
    DerivationError,
    DerivationStep,
    UnlexicalizableNode,
    compare,
    delexicalize,
    derivation_to_json,
    derive_p,
    derive_t,
    report_to_json,
)
from pmodel.sstring import equivalent_mod_indices, parse_sstring, render, strip

DECL = Force("declarative")
ASK = Force("interrogative")

JONES = load_frep(CORPUS_DIR / "jones-saw-everyone.frep")
JONES_EMPH = load_frep(CORPUS_DIR / "jones-saw-everyone-emphasis.frep")
WHO = load_frep(CORPUS_DIR / "who-did-jones-see.frep")
AMBIG = load_frep(CORPUS_DIR / "everyone-saw-someone.frep")
SCOPED = load_frep(CORPUS_DIR / "everyone-saw-someone-scoped.frep")
PROB = load_frep(CORPUS_DIR / "prob-snow.frep")

ALL_FREPS = sorted(CORPUS_DIR.glob("*.frep"))


# ---------------------------------------------------------------- T model


def test_t_model_quantifier_golden():
    d = derive_t(parse_sstring("Jones saw everyone", "DS"), DECL)
    ds, ss, lf = (step.sstring for step in d.steps)
    assert render(ss) == "Jones saw everyone"
    assert render(lf) == "[ Everyone_1 [ Jones saw x_1 ] ]"
    assert strip(lf) == "Everyone Jones saw"
    (record,) = d.steps[2].movements
    assert record.operation == "quantifier_raise"


def test_t_model_wh_golden():
    d = derive_t(parse_sstring("y_1 did Jones see who_1 ?", "DS"), ASK)
    _, ss, lf = (step.sstring for step in d.steps)
    assert render(ss) == "[CP Who_1 did [IP Jones see t_1]] ?"
    assert render(lf) == "[CP Who_1 did [IP Jones see x_1]] ?"
    assert strip(ss) == "Who did Jones see?"


def test_t_model_reuses_emphasis_chain():
    d = derive_t(parse_sstring("y_1 Jones saw everyone_1", "DS"), Force("declarative", emphasis="everyone"))
    _, ss, lf = (step.sstring for step in d.steps)
    assert render(ss) == "Everyone_1 Jones saw t_1"
    assert render(lf) == "Everyone_1 Jones saw x_1"
    assert d.steps[2].movements == ()  # the chain already exists; no raise


def test_t_model_reads_scope_off_the_ds():
    # the y-traces list the quantifiers outermost first; without chains,
    # surface position decides
    inverse = derive_t(parse_sstring("y_1 y_2 everyone_2 saw someone_1", "DS"), DECL).steps[2].sstring
    surface = derive_t(parse_sstring("Everyone saw someone", "DS"), DECL).steps[2].sstring
    assert strip(inverse) == "Someone Everyone saw"
    assert strip(surface) == "Everyone Someone saw"
    assert not equivalent_mod_indices(surface, inverse)


# ---------------------------------------------------------------- P model


def test_p_model_quantifier_golden():
    d = derive_p(JONES)
    ds, ss = (step.sstring for step in d.steps)
    assert render(ds) == "y_1 Jones saw everyone_1"
    assert render(ss) == "Jones saw everyone"
    (lower,) = d.steps[0].movements
    assert lower.operation == "quantifier_lower"
    assert d.warnings == ()


def test_p_model_wh_golden():
    d = derive_p(WHO)
    ds, ss = (step.sstring for step in d.steps)
    assert render(ds) == "y_1 did Jones see who_1 ?"
    assert strip(ss) == "Who did Jones see?"
    assert d.steps[1].movements[0].operation == "wh_fronting"


def test_p_model_emphasis_golden():
    d = derive_p(JONES_EMPH)
    ss = d.steps[1].sstring
    assert render(ss) == "Everyone_1 Jones saw t_1"
    assert strip(ss) == "Everyone Jones saw"


def test_p_model_flags_ambiguity():
    d = derive_p(AMBIG)
    assert d.warnings == ("scope-ambiguous: derived reading 1 of 2",)
    assert derive_p(SCOPED).warnings == ()


def test_p_model_explicit_reading():
    d = derive_p(AMBIG, reading=2)
    assert render(d.steps[0].sstring) == "y_1 y_2 Everyone_2 saw someone_1"
    assert d.warnings == ()


def test_reading_must_come_from_the_frep():
    for f, n, k in ((AMBIG, 3, 2), (AMBIG, 0, 2), (JONES, 2, 1)):
        with pytest.raises(DerivationError, match=rf"^reading {n} out of range 1\.\.{k}$"):
            derive_p(f, reading=n)


def test_probability_strings_cannot_be_spelled_out():
    with pytest.raises(UnlexicalizableNode):
        derive_p(PROB)


# ------------------------------------------------------------- inversion


def test_delexicalize_recovers_the_canonical_string():
    for f in (JONES, WHO, SCOPED):
        lf = compare(f).t.steps[2].sstring
        assert delexicalize(lf, f) == compare(f).canonical


def test_delexicalize_golden():
    lf = parse_sstring("[ Everyone_1 [ Jones saw x_1 ] ]", "LF")
    assert render_formula(delexicalize(lf, JONES)) == "forall x. (x in H -> J S x)"


def _two_quantifier_frep(subject, obj, mood):
    words = {"forall": ["everyone", "everybody"], "exists": ["someone", "somebody"]}
    subject_word, object_word = words[subject].pop(), words[obj].pop()
    return build_frep(
        external={},
        lexical=(
            LexicalReferent("S", "saw", "V"),
            LexicalReferent("H", "human", "N"),
            LexicalReferent("x", subject_word, "Q"),
            LexicalReferent("y", object_word, "Q"),
        ),
        declarants=FormalDeclarants("predicate", (("x", "H"), ("y", "H"))),
        string=parse_formula(f"{subject} x. {obj} y. ((x in H & y in H) -> x S y)"),
        force=Force(mood),
    )


ROUND_TRIP_FREPS = [
    pytest.param(load_frep(path), id=path.stem) for path in ALL_FREPS if path.stem != "prob-snow"
] + [
    pytest.param(_two_quantifier_frep(subject, obj, mood), id=f"{subject}-{obj}-{mood}")
    for subject in ("forall", "exists")
    for obj in ("forall", "exists")
    for mood in ("declarative", "interrogative")
]


@pytest.mark.parametrize("f", ROUND_TRIP_FREPS)
def test_t_route_recovers_every_reading_from_its_ds(f):
    # the T route gets only the DS and the force, yet recovers each reading
    force = Force(f.force.mood, f.force.emphasis and f.word_of(f.force.emphasis))
    for k, reading in enumerate(resolve_scope(f), start=1):
        lf = derive_t(derive_p(f, k).steps[0].sstring, force).steps[2].sstring
        assert delexicalize(lf, f) == canonicalize(reading), k


# ------------------------------------------------------------- agreement


@pytest.mark.parametrize("path", ALL_FREPS, ids=lambda p: p.stem)
def test_compare_full_corpus(path):
    r = compare(load_frep(path))
    if r.formal_only:
        assert any("spell out" in w for w in r.warnings)
        assert r.p is None and r.t is None
    else:
        assert r.agreed
        assert render_formula(r.recovered) == render_formula(r.canonical)
        # the recovered formula identifies exactly the derived reading
        assert r.readings_matched[0] and sum(r.readings_matched) == 1


def test_compare_matches_movement_records():
    r = compare(WHO)
    p_ss = r.p.steps[1].movements
    t_ss = r.t.steps[1].movements
    assert p_ss == t_ss and p_ss[0].operation == "wh_fronting"


def _name_frep(string, emphasis, words):
    return frep_from_json(
        {
            "frep_version": 1,
            "external": {"Wilson": 3},
            "lexical": [
                {"symbol": symbol, "word": word, "category": category}
                for symbol, (word, category) in words.items()
            ],
            "declarants": {"calculus": "predicate", "parameters": [["y", "H"]]},
            "string": string,
            "force": {"mood": "declarative", "emphasis": emphasis},
        }
    )


WILSON = {"W": ("Wilson", "N"), "H": ("human", "N")}


@pytest.mark.parametrize(
    "string,emphasis,words,lf",
    [
        ("W in R", "W", {**WILSON, "R": ("ran", "V")}, "Wilson_1 x_1 ran"),
        ("W S J", "J", {**WILSON, "J": ("Jones", "N"), "S": ("saw", "V")}, "Jones_1 Wilson saw x_1"),
        (
            "forall y. (y in H -> W S y)",
            "W",
            {**WILSON, "S": ("saw", "V"), "y": ("everyone", "Q")},
            "[ Everyone_3 [ Wilson_2 x_2 saw x_3 ] ]",
        ),
    ],
    ids=["intransitive", "transitive", "with-quantifier"],
)
def test_fronted_name_is_topicalization(string, emphasis, words, lf):
    r = compare(_name_frep(string, emphasis, words))
    assert render(r.t.steps[2].sstring) == lf
    assert r.warnings == ()
    assert r.agreed and render_formula(r.recovered) == string


def test_compare_reports_a_movement_failure_as_a_warning():
    r = compare(_name_frep("W S W", None, {**WILSON, "S": ("saw", "V")}))
    assert r.warnings == ("binding constraint broken for 'Wilson'",)
    assert not r.agreed and not r.formal_only


def test_emphasis_on_a_name_outside_the_string_is_refused():
    with pytest.raises(FRepValidationError, match="EmphasisNotATerm"):
        _name_frep("W in R", "J", {**WILSON, "J": ("Jones", "N"), "R": ("ran", "V")})


def test_a_vacuous_binder_is_refused_before_compare():
    words = {**WILSON, "J": ("Jones", "N"), "S": ("saw", "V"), "x": ("everyone", "Q")}
    with pytest.raises(FRepValidationError, match="VacuousBinder"):
        _name_frep("forall x. W S J", None, words)


@pytest.mark.parametrize(
    "string,word",
    [("wh y. (y in H , W in R)", ("who", "WH")), ("forall y. (y in H -> W in R)", ("everyone", "Q"))],
    ids=["wh-restrictor-only", "forall-sort-guard-only"],
)
def test_a_binder_with_no_trace_in_the_matrix_comes_back_formal_only(string, word):
    r = compare(_name_frep(string, None, {**WILSON, "R": ("ran", "V"), "y": word}))
    assert r.formal_only and not r.agreed
    assert r.warnings == ("cannot spell out quantifier variable 'y' without a trace",)


@pytest.mark.parametrize(
    "string,variables",
    [("forall x. x S J", "x"), ("forall x. exists y. (x in H -> x S y)", "xy")],
    ids=["no-guard", "guard-on-one-of-two"],
)
def test_delexicalize_restores_only_the_guard_lexicalization_dropped(string, variables):
    # every prefix variable has sort H, but the string guards only some of them
    words = {"x": ("everyone", "Q"), "y": ("someone", "Q"), "H": ("human", "N"), "S": ("saw", "V"), "J": ("Jones", "N")}
    f = frep_from_json(
        {
            "frep_version": 1,
            "lexical": [{"symbol": s, "word": w, "category": c} for s, (w, c) in words.items()],
            "declarants": {"calculus": "predicate", "parameters": [[v, "H"] for v in variables]},
            "string": string,
            "force": {"mood": "declarative"},
        }
    )
    r = compare(f)
    assert r.agreed and r.recovered == r.canonical
    assert render_formula(delexicalize(r.t.steps[2].sstring, f)) == string


def test_compare_resolves_scope_once(monkeypatch):
    # compare and the derive_p it calls share one resolve_scope pass,
    # also where the report comes back formal-only (prob-snow)
    calls = []
    monkeypatch.setattr(pipeline, "resolve_scope", lambda f: calls.append(f) or resolve_scope(f))
    for path in ALL_FREPS:
        f = load_frep(path)
        report = compare(f)
        assert calls == [f], path.stem
        assert report.readings == resolve_scope(f)
        calls.clear()


def test_compare_scoped_reading():
    r = compare(SCOPED)
    assert render_formula(r.canonical) == "exists y. forall x. ((x in H & y in H) -> x S y)"
    assert r.agreed


# ------------------------------------------------------------------ JSON


def test_derivation_json_shape():
    d = derive_p(JONES)
    data = derivation_to_json(d)
    assert data["model"] == "P"
    assert [s["level"] for s in data["steps"]] == ["DS", "SS"]
    assert data["steps"][0]["movements"][0]["operation"] == "quantifier_lower"
    # deterministic: serializing twice gives identical text
    assert json.dumps(data, sort_keys=True) == json.dumps(derivation_to_json(derive_p(JONES)), sort_keys=True)


def test_report_json_shape():
    data = report_to_json(compare(JONES))
    assert set(data) == {
        "readings", "p", "t", "canonical", "recovered",
        "readings_matched", "formal_only", "agreed", "warnings",
    }
    assert data["agreed"] is True
    assert report_to_json(compare(PROB))["formal_only"] is True


def test_derivation_level_sequence_is_enforced():
    p, t = derive_p(JONES), derive_t(parse_sstring("Jones saw everyone", "DS"), DECL)
    assert (p.model, t.model) == ("P", "T")
    assert Derivation(t.steps).model == "T" and Derivation(p.steps).model == "P"
    for steps in (p.steps[:1], p.steps[::-1], t.steps[1:], (), t.steps + p.steps[1:]):
        with pytest.raises(ValueError):
            Derivation(steps)
