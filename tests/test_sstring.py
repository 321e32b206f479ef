"""Structured strings: parse/render inverses, stripping, index equivalence."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmodel.sstring import (
    CloseBracket,
    Indexed,
    InvalidSString,
    OpenBracket,
    SString,
    Trace,
    Word,
    equivalent_mod_indices,
    parse_sstring,
    render,
    strip,
    to_dot,
)

RAISED = "[ Everyone_1 [ Jones saw x_1 ] ]"
WH_SS = "[CP Who_1 did [IP Jones see t_1]] ?"
LOWERED = "y_1 Jones saw everyone_1"


def test_parse_golden_shapes():
    s = parse_sstring(RAISED, "LF")
    assert s.level == "LF" and s.punctuation is None
    assert s.items[0] == OpenBracket()
    assert s.items[1] == Indexed("Everyone", 1)
    assert s.items[5] == Trace("x", 1)

    q = parse_sstring(WH_SS, "SS")
    assert q.punctuation == "question"
    assert q.items[0] == OpenBracket("CP")
    assert q.items[3] == OpenBracket("IP")
    assert q.items[6] == Trace("t", 1)


@pytest.mark.parametrize("text,level", [(RAISED, "LF"), (WH_SS, "SS"), (LOWERED, "DS"), ("Jones left", "SS")])
def test_render_parse_inverse(text, level):
    assert render(parse_sstring(text, level)) == text


def test_strip_goldens():
    assert strip(parse_sstring(RAISED, "LF")) == "Everyone Jones saw"
    assert strip(parse_sstring(WH_SS, "SS")) == "Who did Jones see?"
    assert strip(parse_sstring(LOWERED, "DS")) == "Jones saw everyone"


def test_coindex_map():
    s = parse_sstring(WH_SS, "SS")
    assert s.coindex == {1: (1, 6)}


def test_coindex_is_kept_outside_the_fields():
    s = parse_sstring(RAISED, "LF")
    fresh = parse_sstring(RAISED, "LF")
    before = (render(s), repr(s), hash(s))
    assert s.coindex == s.coindex == {1: (1, 5)}
    assert s.coindex is s.coindex  # computed once
    assert (render(s), repr(s), hash(s)) == before
    assert s == fresh and hash(s) == hash(fresh)


# ------------------------------------------------------------ invariants


def test_rejects_bad_level_and_punctuation():
    with pytest.raises(InvalidSString):
        SString("XX", (Word("hi"),))
    with pytest.raises(InvalidSString):
        SString("SS", (Word("hi"),), punctuation="bang")


def test_rejects_unbalanced_brackets():
    with pytest.raises(InvalidSString):
        SString("SS", (OpenBracket(), Word("a")))
    with pytest.raises(InvalidSString):
        SString("SS", (CloseBracket(), Word("a"), OpenBracket()))


def test_rejects_broken_coindexation():
    with pytest.raises(InvalidSString):
        SString("SS", (Indexed("Who", 1),))  # no trace
    with pytest.raises(InvalidSString):
        SString("SS", (Trace("t", 1), Word("a")))  # no binder
    with pytest.raises(InvalidSString):
        SString("SS", (Indexed("Who", 1), Trace("t", 1), Trace("t", 1)))


# ------------------------------------------------------- index renaming


def test_equivalent_mod_indices():
    a = parse_sstring("[ Everyone_1 [ Jones saw x_1 ] ]", "LF")
    b = parse_sstring("[ Everyone_7 [ Jones saw x_7 ] ]", "LF")
    assert equivalent_mod_indices(a, b)
    assert not equivalent_mod_indices(a, parse_sstring("[ Someone_1 [ Jones saw x_1 ] ]", "LF"))
    assert not equivalent_mod_indices(a, parse_sstring(RAISED, "SS"))  # level counts


def test_chain_structure_matters():
    # same items, but the chains are crossed in b: no renaming lines them up
    a = SString("SS", (Indexed("A", 1), Trace("t", 1), Indexed("B", 2), Trace("t", 2)))
    b = SString("SS", (Indexed("A", 1), Trace("t", 2), Indexed("B", 2), Trace("t", 1)))
    assert not equivalent_mod_indices(a, b)
    assert not equivalent_mod_indices(b, a)


def test_trace_kind_matters():
    a = parse_sstring("Who_1 saw t_1", "SS")
    b = parse_sstring("Who_1 saw x_1", "SS")
    assert not equivalent_mod_indices(a, b)


# ------------------------------------------------------------- property

WORDS = st.text(alphabet="abcdefg", min_size=1, max_size=5)


@st.composite
def sstrings(draw):
    level = draw(st.sampled_from(["DS", "SS", "LF"]))
    n = draw(st.integers(min_value=1, max_value=6))
    items: list = [Word(draw(WORDS)) for _ in range(n)]
    for index, kind in enumerate(draw(st.lists(st.sampled_from(["x", "y", "t"]), max_size=2))):
        items.insert(draw(st.integers(0, len(items))), Indexed(draw(WORDS), index))
        items.insert(draw(st.integers(0, len(items))), Trace(kind, index))
    if draw(st.booleans()):
        label = draw(st.sampled_from([None, "CP", "IP"]))
        items = [OpenBracket(label), *items, CloseBracket()]
    punctuation = draw(st.sampled_from([None, "question"]))
    return SString(level, tuple(items), punctuation)


@given(sstrings())
def test_render_parse_roundtrip(s):
    assert parse_sstring(render(s), s.level) == s


@given(sstrings())
def test_equivalence_is_reflexive(s):
    assert equivalent_mod_indices(s, s)


def test_dot_export_smoke():
    dot = to_dot(parse_sstring(RAISED, "LF"))
    assert dot.startswith("digraph")
    assert 'label="Everyone_1"' in dot
    assert "style=dashed" in dot  # the binder-to-trace edge
