"""Movement operations: golden transitions, round-trip identities, fuzzing.

Round trips follow the derivational cycle: lowering leaves a vacuous y-trace
that the realization step erases, so the compositions are

  surface -> raise -> lower -> realize -> surface       (lower after raise)
  raised  -> lower -> realize -> raise  -> raised       (raise after lower)

and identity is judged with equivalent_mod_indices.
"""
from __future__ import annotations

from collections import Counter

import pytest

from genstrings import (
    fuzz_quantifier_surface,
    fuzz_wh_deep_structures,
    quantifier_logical_forms,
    quantifier_surface_sentences,
    wh_logical_forms,
    wh_surface_sentences,
)
from pmodel.errors import QUANTIFIER_WORDS
from pmodel.frep import Force
from pmodel.movement import (
    BindingViolation,
    BrokenCoindexation,
    EmphasisTargetMissing,
    LevelMismatch,
    MovementRecord,
    MultipleWhItems,
    NoFrontedQuantifier,
    NoWhItem,
    NotAQuantifier,
    apply_emphasis,
    quantifier_lower,
    quantifier_raise,
    wh_lower,
    wh_raise,
)
from pmodel.sstring import (
    Indexed,
    SString,
    Trace,
    Word,
    equivalent_mod_indices,
    parse_sstring,
    render,
    strip,
)

DECL = Force("declarative")
ASK = Force("interrogative")


def words_of(s: SString) -> Counter:
    return Counter(it.text.lower() for it in s.items if isinstance(it, (Word, Indexed)))


def realize(s: SString, force=DECL) -> SString:
    ss, _ = apply_emphasis(s, force)
    return ss


# ---------------------------------------------------------------- goldens


def test_quantifier_raise_golden():
    ss = parse_sstring("Jones saw everyone", "SS")
    lf, record = quantifier_raise(ss, 2)
    assert render(lf) == "[ Everyone_1 [ Jones saw x_1 ] ]"
    assert record == MovementRecord("quantifier_raise", 1, source=5, target=1)
    assert strip(lf) == "Everyone Jones saw"


def test_quantifier_lower_golden():
    lf = parse_sstring("[ Everyone_1 [ Jones saw x_1 ] ]", "LF")
    ds, record = quantifier_lower(lf)
    assert render(ds) == "y_1 Jones saw everyone_1"
    assert record == MovementRecord("quantifier_lower", 1, source=0, target=3)
    assert strip(ds) == "Jones saw everyone"


def test_wh_raise_golden():
    ss = parse_sstring("[CP Who_1 did [IP Jones see t_1]] ?", "SS")
    lf = wh_raise(ss)
    assert render(lf) == "[CP Who_1 did [IP Jones see x_1]] ?"


def test_wh_lower_golden():
    lf = parse_sstring("[CP Who_1 did [IP Jones see x_1]] ?", "LF")
    ds, record = wh_lower(lf)
    assert render(ds) == "y_1 did Jones see who_1 ?"
    assert record.operation == "wh_lower"
    assert strip(ds) == "did Jones see who?"


def test_realization_erases_vacuous_traces():
    ds = parse_sstring("y_1 Jones saw everyone_1", "DS")
    ss, record = apply_emphasis(ds, DECL)
    assert record is None
    assert render(ss) == "Jones saw everyone"


def test_wh_fronting_golden():
    ds = parse_sstring("y_1 did Jones see who_1 ?", "DS")
    ss, record = apply_emphasis(ds, ASK)
    assert render(ss) == "[CP Who_1 did [IP Jones see t_1]] ?"
    assert record.operation == "wh_fronting"
    assert strip(ss) == "Who did Jones see?"


def test_emphasis_fronting_golden():
    ds = parse_sstring("y_1 Jones saw everyone_1", "DS")
    ss, record = apply_emphasis(ds, Force("declarative", emphasis="everyone"))
    assert render(ss) == "Everyone_1 Jones saw t_1"
    assert record.operation == "emphasis_fronting"
    assert strip(ss) == "Everyone Jones saw"


def test_subject_quantifier_raises_without_decoration():
    ss = parse_sstring("Everyone slept", "SS")
    lf, _ = quantifier_raise(ss, 0)
    assert render(lf) == "Everyone_1 x_1 slept"


# ----------------------------------------------------------------- errors


def test_level_gates():
    ss = parse_sstring("Jones saw everyone", "SS")
    with pytest.raises(LevelMismatch):
        quantifier_raise(parse_sstring("Jones saw everyone", "DS"), 2)
    with pytest.raises(LevelMismatch):
        quantifier_lower(ss)
    with pytest.raises(LevelMismatch):
        apply_emphasis(ss, DECL)
    with pytest.raises(LevelMismatch):
        wh_raise(parse_sstring("Jones saw everyone", "LF"))


def test_raise_accepts_a_partly_raised_logical_form():
    lf = parse_sstring("Everyone_1 x_1 saw someone", "LF")
    raised, record = quantifier_raise(lf, 3)
    assert render(raised) == "[ Someone_2 [ Everyone_1 x_1 saw x_2 ] ]"
    assert record == MovementRecord("quantifier_raise", 2, source=6, target=1)


def test_lower_accepts_a_partly_lowered_deep_structure():
    ds = parse_sstring("y_1 Someone_2 everyone_1 saw x_2", "DS")
    lowered, record = quantifier_lower(ds)
    assert render(lowered) == "y_1 y_2 everyone_1 saw someone_2"
    assert record == MovementRecord("quantifier_lower", 2, source=1, target=4)


def test_level_mismatch_names_every_accepted_level():
    with pytest.raises(LevelMismatch, match="SS or LF string, got DS"):
        quantifier_raise(parse_sstring("Jones saw everyone", "DS"), 2)
    with pytest.raises(LevelMismatch, match="LF or DS string, got SS"):
        wh_lower(parse_sstring("Who_1 x_1 left", "SS"))


def test_raise_rejects_non_quantifier():
    ss = parse_sstring("Jones saw everyone", "SS")
    with pytest.raises(NotAQuantifier):
        quantifier_raise(ss, 0)  # a name
    with pytest.raises(NotAQuantifier):
        quantifier_raise(ss, 9)  # out of range


def test_lower_requires_fronted_quantifier():
    with pytest.raises(NoFrontedQuantifier):
        quantifier_lower(parse_sstring("Jones_1 x_1 slept", "LF"))


def test_lower_requires_an_x_trace():
    lf = SString("LF", (Indexed("Everyone", 1), Trace("t", 1), Word("slept")))
    with pytest.raises(BrokenCoindexation):
        quantifier_lower(lf)


def test_lower_needs_something_audible():
    with pytest.raises(NoFrontedQuantifier, match="nothing audible"):
        quantifier_lower(SString("LF", ()))


def test_wh_raise_needs_exactly_one_wh_item():
    with pytest.raises(NoWhItem):
        wh_raise(parse_sstring("Jones saw everyone", "SS"))
    with pytest.raises(MultipleWhItems):
        wh_raise(parse_sstring("who saw what", "SS"))


def test_wh_raise_rejects_two_t_traces():
    ss = parse_sstring("Who_1 Jones_2 saw t_1 t_2", "SS")
    with pytest.raises(BrokenCoindexation, match="more than one t-trace"):
        wh_raise(ss)


def test_emphasis_on_a_chain_needs_its_y_trace():
    ds = parse_sstring("everyone_1 Jones saw x_1", "DS")
    with pytest.raises(BrokenCoindexation):
        apply_emphasis(ds, Force("declarative", emphasis="everyone"))


def test_realization_keeps_each_bound_word_once():
    ds = parse_sstring("y_1 Jones saw everyone_1", "DS")
    with pytest.raises(BindingViolation):
        apply_emphasis(ds, DECL, frozenset({("Smith", 2)}))
    ss, _ = apply_emphasis(ds, DECL, frozenset({("Jones", 1)}))
    assert render(ss) == "Jones saw everyone"


def test_emphasis_target_missing():
    ds = parse_sstring("y_1 Jones saw everyone_1", "DS")
    with pytest.raises(EmphasisTargetMissing):
        apply_emphasis(ds, Force("declarative", emphasis="nobody"))


def test_multiple_wh_items_rejected():
    ds = SString(
        "DS",
        (Trace("y", 1), Word("did"), Word("who"), Word("see"), Indexed("what", 1)),
        "question",
    )
    with pytest.raises(MultipleWhItems):
        apply_emphasis(ds, ASK)


# ------------------------------------------------------------ round trips


def find_quantifier(s: SString) -> int:
    return next(
        pos
        for pos, it in enumerate(s.items)
        if isinstance(it, Word) and it.text.lower() in QUANTIFIER_WORDS
    )


def roundtrip_surface(ss: SString) -> SString:
    lf, _ = quantifier_raise(ss, find_quantifier(ss))
    ds, _ = quantifier_lower(lf)
    return realize(ds)


def roundtrip_raised(lf: SString) -> SString:
    ds, _ = quantifier_lower(lf)
    ss = realize(ds)
    out, _ = quantifier_raise(ss, find_quantifier(ss))
    return out


def roundtrip_wh_surface(ss: SString) -> SString:
    ds, _ = wh_lower(wh_raise(ss))
    return realize(ds, ASK)


def roundtrip_wh_raised(lf: SString) -> SString:
    ds, _ = wh_lower(lf)
    return wh_raise(realize(ds, ASK))


def test_sentence_corpus_is_big_enough():
    total = len(quantifier_surface_sentences()) + len(wh_surface_sentences())
    assert total >= 25


@pytest.mark.parametrize("ss", quantifier_surface_sentences(), ids=strip)
def test_lower_after_raise_is_identity(ss):
    assert equivalent_mod_indices(roundtrip_surface(ss), ss)


@pytest.mark.parametrize("lf", quantifier_logical_forms(), ids=strip)
def test_raise_after_lower_is_identity(lf):
    assert equivalent_mod_indices(roundtrip_raised(lf), lf)


@pytest.mark.parametrize("ss", wh_surface_sentences(), ids=strip)
def test_wh_lower_after_raise_is_identity(ss):
    assert equivalent_mod_indices(roundtrip_wh_surface(ss), ss)


@pytest.mark.parametrize("lf", wh_logical_forms(), ids=strip)
def test_wh_raise_after_lower_is_identity(lf):
    assert equivalent_mod_indices(roundtrip_wh_raised(lf), lf)


# ----------------------------------------------------------------- fuzzing


def test_word_multisets_preserved_on_fuzzed_strings():
    for ss in fuzz_quantifier_surface(700, seed=90125):
        bag = words_of(ss)
        lf, _ = quantifier_raise(ss, find_quantifier(ss))
        assert words_of(lf) == bag
        ds, _ = quantifier_lower(lf)
        assert words_of(ds) == bag
        assert words_of(realize(ds)) == bag
    for ds in fuzz_wh_deep_structures(300, seed=5150):
        bag = words_of(ds)
        ss, _ = apply_emphasis(ds, ASK)
        assert words_of(ss) == bag
        lf = wh_raise(ss)
        assert words_of(lf) == bag
        lowered, _ = wh_lower(lf)
        assert words_of(lowered) == bag
