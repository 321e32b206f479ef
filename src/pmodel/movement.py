"""Movement between representation levels.

Upward (surface to logical form): quantifier_raise fronts a quantifier word
and leaves an x-trace; wh_raise retypes the overt t-trace as an x-trace
without reordering. Downward (logical form to deep structure): the lowering
ops move the fronted item back into its trace slot, mark the vacated front
with a y-trace and flatten all brackets. apply_emphasis realizes deep
structure as surface structure: interrogative mood fronts the Wh item,
emphasis topicalizes its target, and with neither the vacuous y-traces are
erased. Each of these moves is one step (_move): the word lands with the
chain's index and leaves a trace of the level's kind. Raising also accepts
a partly raised LF, and lowering a partly lowered DS, so a clause's movers
move one at a time. A word's class decides which moves apply to it: the
quantifier and Wh words are the fixed tables QUANTIFIER_WORDS and WH_WORDS.

Index bookkeeping: new chains take max(used) + 1 starting at 1, which is
what the rendered subscripts in derivations look like.
"""

from __future__ import annotations

from typing import Optional

from .errors import QUANTIFIER_WORDS, WH_WORDS, PmodelError
from .frozen import Frozen
from .sstring import CloseBracket, Indexed, OpenBracket, SString, Trace, Word


class MovementError(PmodelError):
    pass


class LevelMismatch(MovementError):
    def __init__(self, expected: tuple[str, ...], got: str):
        super().__init__(f"operation needs a {' or '.join(expected)} string, got {got}")
        self.expected = expected
        self.got = got


def _check_level(s: SString, *expected: str) -> None:
    if s.level not in expected:
        raise LevelMismatch(expected, s.level)


class NotAQuantifier(MovementError):
    def __init__(self, position: int):
        super().__init__(f"item at position {position} is not a known quantifier word")
        self.position = position


class NoWhItem(MovementError):
    pass


class MultipleWhItems(MovementError):
    pass


class NoFrontedQuantifier(MovementError):
    pass


class BrokenCoindexation(MovementError):
    pass


class EmphasisTargetMissing(MovementError):
    def __init__(self, name: str):
        super().__init__(f"no audible item matches emphasis target {name!r}")
        self.name = name


class BindingViolation(MovementError):
    def __init__(self, word: str):
        super().__init__(f"binding constraint broken for {word!r}")
        self.word = word


class MovementRecord(Frozen):
    __slots__ = ("operation", "index", "source", "target")
    operation: str
    index: int
    source: int  # position of the trace in the resulting item sequence
    target: int  # position of the landed item in the resulting item sequence

    def _check(self) -> None:
        if self.source == self.target:
            raise ValueError("a movement record needs distinct source and target")


def record_to_json(r: MovementRecord) -> dict:
    return {"operation": r.operation, "index": r.index, "source": r.source, "target": r.target}


def _next_index(items) -> int:
    used = [it.index for it in items if isinstance(it, (Indexed, Trace))]
    return max(used, default=0) + 1


def _audible_positions(items) -> list[int]:
    return [pos for pos, it in enumerate(items) if isinstance(it, (Word, Indexed))]


def _matching(items, words) -> list[int]:
    """Positions of the audible items whose lowercased text is in words."""
    return [
        pos
        for pos, it in enumerate(items)
        if isinstance(it, (Word, Indexed)) and it.text.lower() in words
    ]


def _adjust_case(items: list, pos: int) -> None:
    """Sentence-position case: surface-initial items capitalize, others don't."""
    item = items[pos]
    initial = item.text[:1].upper() if pos == _audible_positions(items)[0] else item.text[:1].lower()
    text = initial + item.text[1:]
    items[pos] = Indexed(text, item.index) if isinstance(item, Indexed) else Word(text)


def _move(items: list, source: int, target: int, trace_kind: str, index: int) -> None:
    """Land items[source]'s word at target as Indexed(text, index) and leave
    Trace(trace_kind, index) at source, in place."""
    items[target] = Indexed(items[source].text, index)
    items[source] = Trace(trace_kind, index)
    _adjust_case(items, target)


def _trace_position(items, index: int, kind: str) -> int:
    for pos, it in enumerate(items):
        if isinstance(it, Trace) and it.index == index and it.kind == kind:
            return pos
    raise BrokenCoindexation(f"index {index} has no {kind}-trace")


def _wh_positions(items) -> list[int]:
    """Positions of the Wh items; the fragment allows at most one."""
    wh = _matching(items, WH_WORDS)
    if len(wh) > 1:
        raise MultipleWhItems("more than one Wh item")
    return wh


def quantifier_raise(s: SString, qpos: int) -> tuple[SString, MovementRecord]:
    """SS -> LF: front the quantifier word at qpos, leaving an x-trace.

    A logical form is accepted too, so the quantifiers of one clause raise
    one at a time. When the quantifier crosses audible material the landing
    is decorated as [ q [ ... ] ]; a quantifier that is already first stays
    undecorated.
    """
    _check_level(s, "SS", "LF")
    if qpos not in _matching(s.items, QUANTIFIER_WORDS) or not isinstance(s.items[qpos], Word):
        raise NotAQuantifier(qpos)

    index = _next_index(s.items)
    items = [None, *s.items]  # an empty landing slot
    _move(items, qpos + 1, 0, "x", index)
    if any(p < qpos for p in _audible_positions(s.items)):
        items = [OpenBracket(), items[0], OpenBracket(), *items[1:], CloseBracket(), CloseBracket()]
    result = SString("LF", tuple(items), s.punctuation)
    ipos, tpos = result.coindex[index]
    return result, MovementRecord("quantifier_raise", index, source=tpos, target=ipos)


def wh_raise(s: SString) -> SString:
    """SS -> LF: covert movement; t-traces become x-traces, order unchanged."""
    _check_level(s, "SS")
    if not _wh_positions(s.items):
        raise NoWhItem("no Wh item to interpret")
    if sum(isinstance(it, Trace) and it.kind == "t" for it in s.items) > 1:
        raise BrokenCoindexation("more than one t-trace")
    return to_lf(s)


def to_lf(s: SString) -> SString:
    """Read s at LF: every t-trace becomes an x-trace, order unchanged."""
    items = tuple(
        Trace("x", it.index) if isinstance(it, Trace) and it.kind == "t" else it for it in s.items
    )
    return SString("LF", items, s.punctuation)


def _lower(
    s: SString,
    words: frozenset[str],
    operation: str,
    missing_error: type,
) -> tuple[SString, MovementRecord]:
    _check_level(s, "LF", "DS")
    flat = [it for it in s.items if not isinstance(it, (OpenBracket, CloseBracket))]
    audible = _audible_positions(flat)
    if not audible:
        raise missing_error("nothing audible to lower")
    qpos = audible[0]
    fronted = flat[qpos]
    if not isinstance(fronted, Indexed) or fronted.text.lower() not in words:
        raise missing_error(f"first audible item {fronted!r} is not lowerable")
    tpos = _trace_position(flat, fronted.index, "x")
    _move(flat, qpos, tpos, "y", fronted.index)
    result = SString("DS", tuple(flat), s.punctuation)
    return result, MovementRecord(operation, fronted.index, source=qpos, target=tpos)


def quantifier_lower(s: SString) -> tuple[SString, MovementRecord]:
    """LF -> DS: the fronted quantifier returns to its x-trace slot; a y-trace
    marks the vacated front and the bracket decoration is dropped. A partly
    lowered deep structure is accepted too, so a clause's fronted items
    lower one at a time."""
    return _lower(s, QUANTIFIER_WORDS, "quantifier_lower", NoFrontedQuantifier)


def wh_lower(s: SString) -> tuple[SString, MovementRecord]:
    """LF (or partly lowered DS) -> DS: like quantifier_lower but for the
    fronted Wh item."""
    return _lower(s, WH_WORDS, "wh_lower", NoWhItem)


def _erase_vacuous(items: list) -> None:
    """Drop every y-trace and de-index its in-situ partner."""
    y_indices = {it.index for it in items if isinstance(it, Trace) and it.kind == "y"}
    kept = []
    for it in items:
        if isinstance(it, Trace) and it.kind == "y":
            continue
        if isinstance(it, Indexed) and it.index in y_indices:
            kept.append(Word(it.text))
        else:
            kept.append(it)
    items[:] = kept


def apply_emphasis(s: SString, force, binding=frozenset()) -> tuple[SString, Optional[MovementRecord]]:
    """DS -> SS realization driven by force.

    Interrogative mood fronts the Wh item into the y-trace position with a
    t-trace chain and decorates the clause as [CP wh aux [IP ...]]; emphasis
    topicalizes its target word the same way; with neither, vacuous y-traces
    are erased and the plain order surfaces. The word must come out exactly
    once for every word bound in the binding constraints.
    """
    _check_level(s, "DS")
    items = [it for it in s.items if not isinstance(it, (OpenBracket, CloseBracket))]

    moved_index: Optional[int] = None
    operation = None
    wh_positions = _wh_positions(items) if force.mood == "interrogative" else []
    if wh_positions:
        moved_index = _front(items, wh_positions[0])
        operation = "wh_fronting"
    elif force.emphasis is not None:
        target = _matching(items, {force.emphasis.lower()})
        if not target:
            raise EmphasisTargetMissing(force.emphasis)
        moved_index = _front(items, target[0])
        operation = "emphasis_fronting"

    _erase_vacuous(items)
    audible = _audible_positions(items)
    if audible:
        _adjust_case(items, audible[0])

    if operation == "wh_fronting":
        _decorate_interrogative(items)

    result = SString("SS", tuple(items), s.punctuation)
    for word, _ in binding:
        if len(_matching(result.items, {word.lower()})) != 1:
            raise BindingViolation(word)
    record = None
    if moved_index is not None:
        ipos, tpos = result.coindex[moved_index]
        record = MovementRecord(operation, moved_index, source=tpos, target=ipos)
    return result, record


def _front(items: list, pos: int) -> int:
    """Move items[pos] into its y-trace slot (or to the very front), leaving
    a t-trace behind. Returns the chain index."""
    item = items[pos]
    if isinstance(item, Indexed):
        _move(items, pos, _trace_position(items, item.index, "y"), "t", item.index)
        return item.index
    index = _next_index(items)
    items.insert(0, None)  # an empty landing slot
    _move(items, pos + 1, 0, "t", index)
    return index


def _decorate_interrogative(items: list) -> None:
    """[CP wh aux [IP rest]] decoration when an auxiliary and more follow."""
    audible = _audible_positions(items)
    if len(audible) < 3 or audible[:2] != [0, 1]:
        return
    head, aux, *rest = items
    items[:] = [OpenBracket("CP"), head, aux, OpenBracket("IP"), *rest, CloseBracket(), CloseBracket()]
