"""Level-annotated syntactic strings: words, indexed movers, traces, brackets.

Rendering conventions (the parser below inverts them):

    [ Everyone_1 [ Jones saw x_1 ] ]      unlabeled brackets stand alone
    [CP Who_1 did [IP Jones see t_1]] ?   labeled close brackets attach left
    y_1 did Jones see who_1 ?             question mark is its own token

Trace glyphs by level: t at SS, x at LF, y at DS. Indices pair each trace
with exactly one indexed item.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .errors import PmodelError
from .frozen import Frozen

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z'-]*\Z")
_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z'-]*)_([0-9]+)\Z")

LEVELS = ("DS", "SS", "LF")
TRACE_KINDS = ("t", "x", "y")
BRACKET_LABELS = (None, "CP", "IP")


class InvalidSString(PmodelError):
    pass


class Word(Frozen):
    __slots__ = ("text",)
    text: str

    def _check(self) -> None:
        if not _WORD_RE.match(self.text):
            raise InvalidSString(f"bad word text: {self.text!r}")


class Indexed(Frozen):
    """A word carrying a movement index, e.g. Everyone_1."""

    __slots__ = ("text", "index")
    text: str
    index: int

    def _check(self) -> None:
        if not _WORD_RE.match(self.text) or self.text in TRACE_KINDS:
            raise InvalidSString(f"bad indexed text: {self.text!r}")
        if self.index < 0:
            raise InvalidSString("negative index")


class Trace(Frozen):
    __slots__ = ("kind", "index")
    kind: str  # "t" | "x" | "y"
    index: int

    def _check(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise InvalidSString(f"bad trace kind: {self.kind!r}")
        if self.index < 0:
            raise InvalidSString("negative index")


class OpenBracket(Frozen):
    __slots__ = ("label",)
    _defaults = {"label": None}
    label: Optional[str]

    def _check(self) -> None:
        if self.label not in BRACKET_LABELS:
            raise InvalidSString(f"bad bracket label: {self.label!r}")


class CloseBracket(Frozen):
    __slots__ = ()


Item = Union[Word, Indexed, Trace, OpenBracket, CloseBracket]


class SString(Frozen):
    """A string at one level. Validation also records each chain's positions
    in `coindex` (index -> (Indexed position, Trace position), by index); it
    sits outside the fields, so ==, hash and repr ignore it, and callers
    must not change it."""

    __slots__ = ("level", "items", "punctuation", "_coindex")
    _defaults = {"punctuation": None}
    level: str
    items: tuple[Item, ...]
    punctuation: Optional[str]  # None | "question"

    def _check(self) -> None:
        if self.level not in LEVELS:
            raise InvalidSString(f"bad level: {self.level!r}")
        if self.punctuation not in (None, "question"):
            raise InvalidSString(f"bad punctuation: {self.punctuation!r}")
        object.__setattr__(self, "items", tuple(self.items))
        depth = 0
        chained = 0
        indexed: dict[int, int] = {}
        traces: dict[int, int] = {}
        for pos, item in enumerate(self.items):
            if isinstance(item, OpenBracket):
                depth += 1
            elif isinstance(item, CloseBracket):
                depth -= 1
                if depth < 0:
                    raise InvalidSString("unbalanced brackets")
            elif isinstance(item, Indexed):
                indexed[item.index] = pos
                chained += 1
            elif isinstance(item, Trace):
                traces[item.index] = pos
                chained += 1
            elif not isinstance(item, Word):
                raise InvalidSString(f"not an item: {item!r}")
        if depth != 0:
            raise InvalidSString("unbalanced brackets")
        if indexed.keys() != traces.keys() or chained != 2 * len(indexed):
            raise InvalidSString("coindexation must pair each index exactly once")
        SString._coindex.__set__(self, {i: (indexed[i], traces[i]) for i in sorted(indexed)})

    @property
    def coindex(self) -> dict[int, tuple[int, int]]:
        return self._coindex


def _token(item: Item) -> str:
    if isinstance(item, Word):
        return item.text
    if isinstance(item, Indexed):
        return f"{item.text}_{item.index}"
    if isinstance(item, Trace):
        return f"{item.kind}_{item.index}"
    if isinstance(item, OpenBracket):
        return "[" + (item.label or "")
    return "]"


def render(s: SString) -> str:
    tokens: list[str] = []
    labeled: list[bool] = []
    for item in s.items:
        if isinstance(item, OpenBracket):
            labeled.append(item.label is not None)
        elif isinstance(item, CloseBracket) and labeled.pop():
            tokens[-1] += "]"
            continue
        tokens.append(_token(item))
    if s.punctuation == "question":
        tokens.append("?")
    return " ".join(tokens)


def strip(s: SString) -> str:
    """Audible words only: traces and brackets are silent, punctuation attaches."""
    words = [i.text for i in s.items if isinstance(i, (Word, Indexed))]
    text = " ".join(words)
    if s.punctuation == "question":
        text += "?"
    return text


def parse_sstring(text: str, level: str = "SS") -> SString:
    """Inverse of render for the conventions above; tolerant of spacing."""
    items: list[Item] = []
    punctuation: Optional[str] = None
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if punctuation is not None:
            raise InvalidSString("material after the question mark")
        if c == "[":
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            items.append(OpenBracket(text[i + 1 : j] or None))
            i = j
        elif c == "]":
            items.append(CloseBracket())
            i += 1
        elif c == "?":
            punctuation = "question"
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t[]?":
                j += 1
            token = text[i:j]
            m = _TOKEN_RE.match(token)
            if m and m.group(1) in TRACE_KINDS:
                items.append(Trace(m.group(1), int(m.group(2))))
            elif m:
                items.append(Indexed(m.group(1), int(m.group(2))))
            elif _WORD_RE.match(token):
                items.append(Word(token))
            else:
                raise InvalidSString(f"bad token: {token!r}")
            i = j
    return SString(level, tuple(items), punctuation)


def equivalent_mod_indices(a: SString, b: SString) -> bool:
    """True iff a and b differ only by a bijective renaming of indices."""
    if a.level != b.level or a.punctuation != b.punctuation or len(a.items) != len(b.items):
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for x, y in zip(a.items, b.items):
        if type(x) is not type(y):
            return False
        if isinstance(x, (Word, Indexed)) and x.text != y.text:
            return False
        if isinstance(x, Trace) and x.kind != y.kind:
            return False
        if isinstance(x, OpenBracket) and x.label != y.label:
            return False
        if isinstance(x, (Indexed, Trace)):
            if fwd.setdefault(x.index, y.index) != y.index:
                return False
            if bwd.setdefault(y.index, x.index) != x.index:
                return False
    return True


def to_dot(s: SString) -> str:
    """Flat token chain with dashed coindexation arcs."""
    lines = ["digraph sstring {", "  rankdir=LR;", "  node [shape=box];"]
    names: list[str] = []
    for pos, item in enumerate(s.items):
        name = f"n{pos}"
        names.append(name)
        lines.append(f'  {name} [label="{_token(item)}"];')
    for a, b in zip(names, names[1:]):
        lines.append(f"  {a} -> {b};")
    for index, (ipos, tpos) in s.coindex.items():
        lines.append(f'  {names[ipos]} -> {names[tpos]} [style=dashed, label="{index}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
