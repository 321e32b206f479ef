"""Word recognition: edit distance, cohort access, selection, integration.

The distance oracle below is the textbook recursive Levenshtein definition,
memoized but otherwise untouched, so the package's bit-parallel version is
checked against an independent formulation. The stages are checked the same
way against plain references: a linear scan for access and the oracle's
distances, fully sorted, for select. `recognize` is checked against a
reference that ranks the whole cohort at once, on lexicons large enough for
its answer to sit past the first band it ranks.
"""
from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR
from pmodel.lexicon import (
    CATEGORIES,
    Cohort,
    LexEntry,
    Lexicon,
    LexiconError,
    NoCandidate,
    access,
    edit_distance,
    integrate,
    load_lexicon,
    recognize,
    select,
)

LEXICON = load_lexicon(CORPUS_DIR / "lexicon.tsv")


@lru_cache(maxsize=None)
def lev(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        lev(a[:-1], b) + 1,
        lev(a, b[:-1]) + 1,
        lev(a[:-1], b[:-1]) + (a[-1] != b[-1]),
    )


# ----------------------------------------------------------- edit distance


@pytest.mark.parametrize(
    "a,b,d",
    [
        ("kitten", "sitting", 3),
        ("saw", "see", 2),
        ("", "abc", 3),
        ("same", "same", 0),
        ("s#w", "saw", 1),
        ("ever#one", "everyone", 1),
    ],
)
def test_edit_distance_goldens(a, b, d):
    assert edit_distance(a, b) == d


@given(st.text(alphabet="ab#", max_size=7), st.text(alphabet="ab", max_size=7))
def test_edit_distance_matches_recursive_oracle(a, b):
    assert edit_distance(a, b) == lev(a, b)


@given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6))
def test_edit_distance_symmetry_and_identity(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)


@pytest.mark.parametrize(
    "a,b",
    [
        ("", ""),
        ("", "abc"),
        ("abc", ""),
        ("aaaa", "aa"),
        ("abcabc", "cbacba"),
        ("a" * 70, "a" * 64),  # needle longer than 64 characters
        ("a" * 64 + "b" + "a" * 5, "a" * 70),  # mismatch on bit 64
        ("ab" * 35, "ba" * 35),
        ("x" + "a" * 80, "a" * 80 + "x"),
        ("#" * 66, "a" * 66),
        ("kitten" * 12, "sitting" * 11),
    ],
)
def test_edit_distance_kernel_edges(a, b):
    assert edit_distance(a, b) == lev(a, b)
    assert edit_distance(b, a) == lev(a, b)


# ---------------------------------------------- stages against references


def ref_cohort_key(e):
    return (-e.frequency, e.form, e.category)


def ref_access(lexicon, prefix):
    needle = prefix.casefold()
    hits = [e for e in lexicon.entries if e.form.casefold().startswith(needle)]
    return tuple(sorted(hits, key=ref_cohort_key))


def ref_select(members, observed):
    needle = observed.casefold()
    ranked = [(e, lev(needle, e.form.casefold())) for e in members]
    return tuple(sorted(ranked, key=lambda pair: (pair[1], ref_cohort_key(pair[0]))))


def ref_recognize(lexicon, tokens, expected_per_slot, threshold):
    """The entries recognized, and the slot that failed (None if none did)."""
    out = []
    for slot, token in enumerate(tokens):
        expected = expected_per_slot[slot] if expected_per_slot is not None else None
        for e, d in ref_select(ref_access(lexicon, token.split("#", 1)[0]), token):
            budget = threshold if threshold is not None else (len(e.form) + 1) // 2
            if (expected is None or e.category in expected) and d <= budget:
                out.append(e)
                break
        else:
            return tuple(out), slot
    return tuple(out), None


# Forms collide under casefolding; tokens add "#", non-ASCII letters whose
# casefolds are ASCII ("ß" -> "ss", Kelvin sign -> "k") or not ("é").
_FORMS = st.builds(
    str.__add__, st.sampled_from("aAbBkKsS"), st.text(alphabet="aAbBkKsS'-", max_size=4)
)
_TOKENS = st.text(alphabet="aAbBkKsS'-#\u00e9\u00df\u212a", max_size=7).filter(
    lambda t: t.count("#") <= 3
)
_EXPECTED = st.one_of(st.none(), st.sets(st.sampled_from(["N", "V", "P"]), min_size=1))


@st.composite
def lexicons(draw):
    entries, seen = [], set()
    for form, category, frequency in draw(
        st.lists(
            st.tuples(_FORMS, st.sampled_from(["N", "V", "P"]), st.integers(0, 5)),
            max_size=80,
        )
    ):
        if (form.casefold(), category) not in seen:
            seen.add((form.casefold(), category))
            entries.append(LexEntry(form, category, frequency))
    return Lexicon(tuple(entries))


@st.composite
def tokens_for(draw, lexicon):
    """A free token, or a lexicon form with up to three positions unheard."""
    forms = [e.form for e in lexicon.entries]
    if not forms or draw(st.booleans()):
        return draw(_TOKENS)
    token = list(draw(st.sampled_from(forms)))
    for i in draw(st.lists(st.integers(0, len(token) - 1), max_size=3)):
        token[i] = "#"
    return "".join(token)


@settings(max_examples=300, deadline=None)
@given(lexicons(), st.data())
def test_stages_match_references(lexicon, data):
    token = data.draw(tokens_for(lexicon))
    prefix = token.split("#", 1)[0]
    cohort = access(lexicon, prefix)
    assert cohort.members == ref_access(lexicon, prefix)
    ranked = select(cohort, token)
    assert ranked == ref_select(cohort.members, token)
    expected = data.draw(_EXPECTED)
    assert integrate(ranked, expected) == tuple(
        (e, d) for e, d in ranked if expected is None or e.category in expected
    )


@settings(max_examples=300, deadline=None)
@given(lexicons(), st.data())
def test_recognize_matches_reference(lexicon, data):
    tokens = data.draw(st.lists(tokens_for(lexicon), min_size=1, max_size=3))
    per_slot = st.lists(_EXPECTED, min_size=len(tokens), max_size=len(tokens))
    expected = data.draw(st.one_of(st.none(), per_slot))
    threshold = data.draw(st.one_of(st.none(), st.integers(0, 3)))
    assert_recognize_matches_reference(lexicon, tokens, expected, threshold)


def assert_recognize_matches_reference(lexicon, tokens, expected=None, threshold=None):
    want, slot = ref_recognize(lexicon, tokens, expected, threshold)
    if slot is None:
        assert recognize(lexicon, tokens, expected, threshold) == want
        return
    with pytest.raises(NoCandidate) as exc:
        recognize(lexicon, tokens, expected, threshold)
    assert (exc.value.slot, exc.value.token, exc.value.partial) == (slot, tokens[slot], want)
    assert str(exc.value) == f"no candidate for token {tokens[slot]!r} at slot {slot}"


def _entry(form, frequency, category="N"):
    return LexEntry(form, category, frequency)


# Far from every token below and out of its budget; frequency 5 puts them
# ahead of every other entry in these lexicons, filling the first bands.
_PADDING = tuple(_entry(c * k, 5) for c in "sz" for k in range(1, 11))


def _selected(monkeypatch):
    """Patch `select` to record the members of each band it ranks."""
    import pmodel.lexicon as module

    bands = []
    real = module.select

    def counting(cohort, observed):
        bands.append(cohort.members)
        return real(cohort, observed)

    monkeypatch.setattr(module, "select", counting)
    return bands


def test_band_search_runs_on_when_the_best_exceeds_the_hash_count(monkeypatch):
    # "abkkab" is two edits from "#bkab", one more than its "#" count, so a
    # later band could still hold a distance-1 member: every band is ranked.
    winner, tie, far = _entry("abkkab", 3), _entry("bbkkab", 0), _entry("bbkkabab", 0)
    fillers = tuple(_entry("k" * k, 2) for k in (3, 4, 5))
    lexicon = Lexicon(_PADDING + (winner, tie, far) + fillers)
    order = access(lexicon, "").members
    assert 8 <= order.index(winner) < 24 <= order.index(tie)  # bands 2 and 3
    assert_recognize_matches_reference(lexicon, ["#bkab"])
    bands = _selected(monkeypatch)
    assert recognize(lexicon, ["#bkab"]) == (winner,)
    assert len(bands) == 3 and winner in bands[1] and tie in bands[2]


def test_band_search_keeps_the_earlier_band_on_equal_distance(monkeypatch):
    first, later = _entry("abkkab", 5), _entry("bbkkab", 0)  # both two edits away
    lexicon = Lexicon((first,) + _PADDING + (later,))
    assert_recognize_matches_reference(lexicon, ["#bkab"])
    bands = _selected(monkeypatch)
    assert recognize(lexicon, ["#bkab"]) == (first,)
    assert len(bands) == 2 and first in bands[0] and later in bands[1]


def test_band_search_replaces_the_best_at_a_smaller_distance():
    lexicon = Lexicon((_entry("abkkab", 5),) + _PADDING + (_entry("abkab", 0, "V"),))
    assert_recognize_matches_reference(lexicon, ["#bkab"])
    assert recognize(lexicon, ["#bkab"])[0].form == "abkab"
    assert_recognize_matches_reference(lexicon, ["#bkab"], [{"N"}])


def test_band_search_measures_the_casefolded_token():
    # "#ßß" casefolds to "#ssss", five characters: "sssss", one edit away,
    # must not be bounded by the three characters of the token as written.
    near, nearer = _entry("sss", 5), _entry("sssss", 0)
    lexicon = Lexicon((near,) + _PADDING[10:] + (nearer,))
    assert_recognize_matches_reference(lexicon, ["#\u00df\u00df"])
    assert recognize(lexicon, ["#\u00df\u00df"]) == (nearer,)


def test_band_search_with_a_zero_threshold(monkeypatch):
    longer = tuple(_entry("bab" + tail, 5) for tail in ("a", "b", "k", "s", "aa", "bb", "kk", "ss"))
    lexicon = Lexicon(longer + _PADDING + (_entry("bab", 0),))
    assert access(lexicon, "bab").members[8] == _entry("bab", 0)  # second band
    assert_recognize_matches_reference(lexicon, ["bab", "#ab"], threshold=0)
    assert recognize(lexicon, ["bab"], threshold=0) == (_entry("bab", 0),)
    bands = _selected(monkeypatch)
    with pytest.raises(NoCandidate):
        recognize(lexicon, ["#ab"], threshold=0)
    assert bands == []  # every member's "#" bound exceeds a budget of 0


# ------------------------------------------------------------- work bound


def _large_lexicon(size=5000, seed=4177):
    """The corpus lexicon plus seeded distractors of 3-10 lowercase letters,
    every one less frequent than every corpus word."""
    rng = random.Random(seed)
    entries = list(LEXICON.entries)
    floor = min(e.frequency for e in entries)
    taken = {e.form.casefold() for e in entries}
    while len(entries) < size:
        form = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 10)))
        if form not in taken:
            taken.add(form)
            entries.append(_entry(form, rng.randrange(floor), rng.choice(CATEGORIES)))
    rng.shuffle(entries)
    return Lexicon(tuple(entries))


def test_position_0_recognition_ranks_a_bounded_band(monkeypatch):
    lexicon = _large_lexicon()
    assert len(access(lexicon, "").members) == 5000
    bands = _selected(monkeypatch)
    for word in LEXICON.entries:
        token = "#" + word.form[1:]
        for expected in (None, [{word.category}]):
            bands.clear()
            assert recognize(lexicon, [token], expected) == (word,)
            ranked = sum(len(band) for band in bands)
            assert ranked <= 64, (token, expected, ranked)


# ----------------------------------------------------------------- entries


def test_lexicon_file_shape():
    assert len(LEXICON.entries) >= 20
    (jones,) = (e for e in LEXICON.entries if e.form == "Jones")
    assert jones.symbol == "J" and jones.frequency == 40


def test_entry_validation():
    with pytest.raises(LexiconError):
        LexEntry("9ball", "N", 1)
    with pytest.raises(LexiconError):
        LexEntry("fine", "XX", 1)
    with pytest.raises(LexiconError):
        LexEntry("fine", "N", -3)
    assert "Q" in CATEGORIES and "WH" in CATEGORIES


def test_duplicate_form_category_rejected():
    e = LexEntry("dog", "N", 10)
    with pytest.raises(LexiconError):
        Lexicon((e, LexEntry("Dog", "N", 4)))  # casefolded clash
    Lexicon((e, LexEntry("dog", "V", 4)))  # category disambiguates


# ------------------------------------------------------------------ access


def test_access_prefix_cohort():
    cohort = access(LEXICON, "s")
    forms = [e.form for e in cohort.members]
    assert forms == ["saw", "see", "someone", "snow"]  # frequency order
    assert access(LEXICON, "S").members == cohort.members  # casefolded
    assert access(LEXICON, "zzz").members == ()


def test_cohort_sorts_itself():
    a = LexEntry("aa", "N", 2)
    b = LexEntry("ab", "N", 9)
    assert Cohort((a, b)).members == (b, a)


def test_cohort_narrows_monotonically():
    rng = random.Random(8128)
    forms = [e.form for e in LEXICON.entries]
    for _ in range(1000):
        form = rng.choice(forms)
        i = rng.randint(0, len(form))
        j = rng.randint(i, len(form))
        wide = set(access(LEXICON, form[:i]).members)
        narrow = set(access(LEXICON, form[:j]).members)
        assert narrow <= wide


# ------------------------------------------------------ select / integrate


def test_select_ranks_by_distance_then_frequency():
    ranked = select(access(LEXICON, "s"), "saw")
    assert [(e.form, d) for e, d in ranked[:2]] == [("saw", 0), ("see", 2)]
    distances = [d for _, d in ranked]
    assert distances == sorted(distances)


def test_select_frequency_breaks_distance_ties():
    ranked = select(access(LEXICON, "s"), "s##")
    (f1, d1), (f2, d2) = [(e.form, d) for e, d in ranked[:2]]
    assert d1 == d2 == 2
    assert (f1, f2) == ("saw", "see")  # same distance, frequency decides


def test_integrate_filters_by_category():
    ranked = select(access(LEXICON, "s"), "s#w")
    assert integrate(ranked, None) == ranked
    verbs = integrate(ranked, "V")
    assert verbs and all(e.category == "V" for e, _ in verbs)
    assert integrate(ranked, "P") == ()


# --------------------------------------------------------------- recognize


def test_recognize_identity_on_clean_input():
    got = recognize(LEXICON, ["Jones", "saw", "everyone"])
    assert [e.form for e in got] == ["Jones", "saw", "everyone"]


def test_recognize_recovers_one_hash_per_word():
    got = recognize(LEXICON, ["Jon#s", "s#w", "ever#one"])
    assert [e.form for e in got] == ["Jones", "saw", "everyone"]


def test_recognize_every_single_corruption_of_every_entry():
    for entry in LEXICON.entries:
        for i in range(len(entry.form)):
            token = entry.form[:i] + "#" + entry.form[i + 1 :]
            (winner,) = recognize(LEXICON, [token])
            assert winner == entry, (token, winner.form, entry.form)


def test_recognize_respects_expected_categories():
    (entry,) = recognize(LEXICON, ["s#w"], expected_per_slot=["V"])
    assert entry.form == "saw"
    with pytest.raises(NoCandidate):
        recognize(LEXICON, ["s#w"], expected_per_slot=["P"])


def test_recognize_expectation_slots_align():
    got = recognize(LEXICON, ["Jon#s", "s#w"], expected_per_slot=["N", None])
    assert [e.form for e in got] == ["Jones", "saw"]


def test_recognize_failure_carries_partial_result():
    with pytest.raises(NoCandidate) as exc:
        recognize(LEXICON, ["Jones", "####", "everyone"])
    err = exc.value
    assert err.slot == 1 and err.token == "####"
    assert [e.form for e in err.partial] == ["Jones"]


def test_recognize_threshold_override():
    with pytest.raises(NoCandidate):
        recognize(LEXICON, ["s#w"], threshold=0)
    (entry,) = recognize(LEXICON, ["s#w"], threshold=1)
    assert entry.form == "saw"


def test_recognize_rejects_a_negative_threshold():
    with pytest.raises(LexiconError, match="negative threshold -1"):
        recognize(LEXICON, ["s#w"], threshold=-1)


def test_budget_counts_edits_not_unheard_graphemes():
    # Two of three graphemes unheard, yet "saw" is two edits away, within
    # ceil(3 / 2) = 2; "s###" is beyond the budget of every form in its cohort.
    (entry,) = recognize(LEXICON, ["##w"])
    assert entry.form == "saw"
    with pytest.raises(NoCandidate):
        recognize(LEXICON, ["s###"])


def test_default_budget_scales_with_form_length():
    # "telescope" (9 letters) tolerates ceil(9/2)=5 edits; "in" only 1
    (entry,) = recognize(LEXICON, ["tele#####"])
    assert entry.form == "telescope"
    with pytest.raises(NoCandidate):
        recognize(LEXICON, ["i#x"])
