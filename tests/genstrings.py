"""Generated sentence material shared by the movement and acceptance suites.

Round-trip sentences come in three canonical shapes, given as text and parsed,
so the expected structures are fixed independently of the movement code:

  surface    "Jones saw everyone"                      (SS)
  raised     "[ Everyone_1 [ Jones saw x_1 ] ]"        (LF)
  wh pair    "[CP Who_1 did [IP Jones see t_1]] ?"     (SS)
             "[CP Who_1 did [IP Jones see x_1]] ?"     (LF)
"""
from __future__ import annotations

import random

from pmodel.errors import QUANTIFIER_WORDS
from pmodel.sstring import Indexed, SString, Trace, Word, parse_sstring

SUBJECTS = ("Jones", "Mary", "Ralph", "Kim", "Lee")
VERBS = ("saw", "heard", "praised")
INTRANSITIVES = ("slept", "left")
QUANTIFIERS = tuple(sorted(QUANTIFIER_WORDS))
WH_WORDS = ("who", "what", "whom")

FILLER = ("ko", "ra", "mel", "tam", "bix", "sor", "den", "pol", "gart", "lun")


def _cap(word: str) -> str:
    return word[:1].upper() + word[1:]


def quantifier_surface_sentences() -> list[SString]:
    """Declarative SS strings holding exactly one quantifier word."""
    out = []
    for subject in SUBJECTS:
        for verb in VERBS:
            for q in QUANTIFIERS[:2]:
                out.append(parse_sstring(f"{subject} {verb} {q}", "SS"))
    for q in QUANTIFIERS:
        out.append(parse_sstring(f"{_cap(q)} slept", "SS"))
    return out


def quantifier_logical_forms() -> list[SString]:
    """LF strings with the quantifier already fronted and bound to its trace."""
    out = []
    for subject in SUBJECTS:
        for verb in VERBS:
            for q in QUANTIFIERS[:2]:
                out.append(parse_sstring(f"[ {_cap(q)}_1 [ {subject} {verb} x_1 ] ]", "LF"))
    for q in QUANTIFIERS:
        out.append(parse_sstring(f"{_cap(q)}_1 x_1 slept", "LF"))
    return out


def wh_surface_sentences() -> list[SString]:
    out = []
    for subject in SUBJECTS:
        for verb in ("see", "hear"):
            for wh in WH_WORDS:
                out.append(parse_sstring(f"[CP {_cap(wh)}_1 did [IP {subject} {verb} t_1]] ?", "SS"))
    return out


def wh_logical_forms() -> list[SString]:
    out = []
    for subject in SUBJECTS:
        for verb in ("see", "hear"):
            for wh in WH_WORDS:
                out.append(parse_sstring(f"[CP {_cap(wh)}_1 did [IP {subject} {verb} x_1]] ?", "LF"))
    return out


def fuzz_quantifier_surface(n: int, seed: int) -> list[SString]:
    """Random declarative SS strings, each with one quantifier word in-situ."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        words = [rng.choice(FILLER) for _ in range(rng.randint(1, 5))]
        words.insert(rng.randint(0, len(words)), rng.choice(QUANTIFIERS))
        words[0] = _cap(words[0])
        out.append(SString("SS", tuple(Word(w) for w in words)))
    return out


def fuzz_wh_deep_structures(n: int, seed: int) -> list[SString]:
    """Random interrogative DS strings in the lowered shape: a leading y-trace
    bound to an in-situ Wh item."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        mid = [rng.choice(FILLER) for _ in range(rng.randint(1, 4))]
        items = [Trace("y", 1), Word("did"), *map(Word, mid), Indexed(rng.choice(WH_WORDS), 1)]
        out.append(SString("DS", tuple(items), "question"))
    return out
