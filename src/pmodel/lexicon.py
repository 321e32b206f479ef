"""Cohort-style word recognition over a small lexicon.

A partially heard token is written with ``#`` for each unrecoverable
grapheme ("Jon#s", "s#w"). Recognition runs in three fixed stages, in this
order and never reordered:

  access     every entry whose form starts with the clean prefix (the part
             before the first ``#``), case-insensitive; the cohort is kept
             sorted by descending frequency then form. Cost: two bisections
             of the lexicon's sorted casefolded forms, then ordering the
             range found
  select     rank the cohort by edit distance to the full observed token;
             ties fall to higher frequency, then alphabetical form, then
             category. Cost: one bit-parallel pass per member, one step per
             character of its form, with the token's bit masks built once
  integrate  a stable filter by expected syntactic category; context acts
             only after selection and never reorders it

recognize() composes the stages per token and enforces a distance budget:
a candidate is accepted only at distance <= ceil(len(form) / 2), half its
form length rounded up. The budget counts edits, not unheard graphemes, so
a token more than half unheard can still be recognized: "##w" is two edits
from "saw", whose budget is 2. Failure on a slot raises NoCandidate carrying
the slot index and the entries recovered so far.

recognize() keeps one candidate per slot, so it does not rank the whole
cohort at once. It passes the cohort to select and integrate in bands of
doubling size (8, 16, 32, ...), in cohort order, most frequent first. Two
lower bounds on a member's distance cost no pass over its form: the token's
``#`` count (forms hold no ``#``) and the difference of the two lengths. A
member whose bound exceeds its budget, or is no smaller than the best
distance already found, is never ranked. The search stops once the best
distance equals the ``#`` count, which no later member can beat. Cost: when
the answer is frequent, a few small bands however large the cohort; at
worst, one pass per member whose length fits, plus one length test for each
of the others.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import CATEGORIES, PmodelError
from .frozen import Frozen

_FORM_RE = re.compile(r"[A-Za-z][A-Za-z'-]*")
# Appended to a prefix, sorts after every casefolded form that starts with
# it, since forms are ASCII (_FORM_RE).
_PAST_PREFIX = "\U0010ffff"

Ranked = tuple[tuple["LexEntry", int], ...]


class LexiconError(PmodelError):
    pass


class NoCandidate(PmodelError):
    """Recognition failed at slot `slot`; `partial` holds the slots before it."""

    def __init__(self, slot: int, token: str, partial: tuple["LexEntry", ...] = ()):
        super().__init__(f"no candidate for token {token!r} at slot {slot}")
        self.slot = slot
        self.token = token
        self.partial = partial


class LexEntry(Frozen):
    __slots__ = ("form", "category", "features", "frequency", "symbol")
    _defaults = {"features": frozenset(), "frequency": 1, "symbol": None}
    form: str
    category: str
    features: frozenset[str]
    frequency: int
    symbol: Optional[str]

    def _check(self) -> None:
        if not _FORM_RE.fullmatch(self.form):
            raise LexiconError(f"bad form {self.form!r}")
        if self.category not in CATEGORIES:
            raise LexiconError(f"bad category {self.category!r} for {self.form!r}")
        if self.frequency < 0:
            raise LexiconError(f"negative frequency for {self.form!r}")


class Lexicon(Frozen):
    __slots__ = ("entries", "_cache")
    entries: tuple[LexEntry, ...]

    def _check(self) -> None:
        seen = set()
        for e in self.entries:
            key = (e.form.casefold(), e.category)
            if key in seen:
                raise LexiconError(f"duplicate entry {e.form!r}/{e.category}")
            seen.add(key)

    def lookup(self, form: str) -> tuple[LexEntry, ...]:
        """Every entry spelled `form` up to case, in file order."""
        index = self._index
        needle = form.casefold()
        lo = bisect_left(index.folds, needle)
        hi = bisect_right(index.folds, needle, lo)
        return tuple(index.ordered[r] for r in index.ranks[lo:hi])

    @property
    def _index(self) -> _Index:
        # Depends on the entries alone, never on a query. Built on first use
        # rather than in _check, so loading a lexicon that is never searched
        # stays cheap, and kept in the _cache slot. Not a field: it takes no
        # part in ==, hash or repr.
        index = getattr(self, "_cache", None)
        if index is not None:
            return index
        entries = self.entries
        folds = [e.form.casefold() for e in entries]
        order = sorted(range(len(entries)), key=lambda i: _cohort_key(entries[i]))
        rank = [0] * len(entries)
        for r, i in enumerate(order):
            rank[i] = r
        by_fold = sorted(range(len(entries)), key=folds.__getitem__)  # stable: file order
        index = _Index(
            ordered=tuple(entries[i] for i in order),
            folds=[folds[i] for i in by_fold],
            ranks=[rank[i] for i in by_fold],
        )
        Lexicon._cache.__set__(self, index)
        return index


class _Index(NamedTuple):
    """A lexicon's entries arranged for prefix and exact-form search."""

    ordered: tuple[LexEntry, ...]  # cohort order (_cohort_key)
    folds: list[str]  # casefolded forms, sorted; equal forms in file order
    ranks: list[int]  # the position in `ordered` of each fold's entry


def load_lexicon(path) -> Lexicon:
    """Tab-separated: form, category, features, frequency, optional symbol.

    features is "-" or a comma-separated list; lines starting with "#" and
    blank lines are skipped.
    """
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) not in (4, 5):
                raise LexiconError(f"line {lineno}: expected 4 or 5 columns, got {len(cols)}")
            form, category, feats, freq = cols[:4]
            symbol = cols[4] if len(cols) == 5 and cols[4] else None
            features = frozenset() if feats == "-" else frozenset(feats.split(","))
            try:
                frequency = int(freq)
            except ValueError:
                raise LexiconError(f"line {lineno}: bad frequency {freq!r}") from None
            entries.append(LexEntry(form, category, features, frequency, symbol))
    return Lexicon(tuple(entries))


def _cohort_key(e: LexEntry):
    return (-e.frequency, e.form, e.category)


class Cohort(Frozen):
    __slots__ = ("prefix", "members")
    prefix: str
    members: tuple[LexEntry, ...]

    def _check(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members, key=_cohort_key)))

    @classmethod
    def _ordered(cls, prefix: str, members: tuple[LexEntry, ...]) -> Cohort:
        """A cohort of members already in cohort order, which it keeps as is."""
        cohort = object.__new__(cls)
        object.__setattr__(cohort, "prefix", prefix)
        object.__setattr__(cohort, "members", members)
        return cohort


def _masks(needle: str) -> dict[str, int]:
    """For each character, the bit set of its positions in `needle`."""
    masks: dict[str, int] = {}
    for i, c in enumerate(needle):
        masks[c] = masks.get(c, 0) | 1 << i
    return masks


def _distance(masks: dict[str, int], m: int, text: str) -> int:
    """Levenshtein distance from the length-`m` needle of `masks` to `text`.

    Myers' (1999) bit-vector algorithm in Hyyrö's (2001) form for global
    distance: `pv`/`mv` hold the +1/-1 vertical deltas of the current
    dynamic-programming column, one bit per needle position, in an int of
    any width. The last column then sums to the distance.
    """
    full = (1 << m) - 1
    pv, mv = full, 0
    get = masks.get
    for c in text:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1  # row 0 rises by one per column
        pv = ((pv & xh) << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return len(text) + pv.bit_count() - mv.bit_count()


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, unit costs."""
    return _distance(_masks(a), len(a), b)


def access(lexicon: Lexicon, prefix: str) -> Cohort:
    """Entries activated by an initial grapheme sequence.

    Two bisections of the lexicon's sorted casefolded forms find the range
    of forms with this prefix; only that range is put in cohort order. An
    empty prefix takes the whole lexicon, kept in cohort order since first use.
    """
    index = lexicon._index
    needle = prefix.casefold()
    if not needle:
        return Cohort._ordered(prefix, index.ordered)
    lo = bisect_left(index.folds, needle)
    hi = bisect_left(index.folds, needle + _PAST_PREFIX, lo)
    return Cohort._ordered(prefix, tuple(index.ordered[r] for r in sorted(index.ranks[lo:hi])))


def select(cohort: Cohort, observed: str) -> Ranked:
    """Rank the cohort by fit to the observed token, nearest first.

    ``#`` matches no grapheme, so every corrupted position costs one edit.
    The token's bit masks are built once; each member then costs one
    bit-parallel pass over its form. Members arrive in cohort order, so a
    stable sort on distance alone breaks ties by frequency, form, category.
    """
    needle = observed.casefold()
    masks, m = _masks(needle), len(needle)
    ranked = [(e, _distance(masks, m, e.form.casefold())) for e in cohort.members]
    ranked.sort(key=itemgetter(1))
    return tuple(ranked)


def integrate(ranked: Ranked, expected) -> Ranked:
    """Keep candidates whose category is expected; order untouched."""
    if expected is None:
        return tuple(ranked)
    allowed = set(expected)
    return tuple((e, d) for e, d in ranked if e.category in allowed)


def _budget(length: int, threshold: Optional[int]) -> int:
    """The most edits a form of `length` letters may be from its token."""
    if threshold is not None:
        return threshold
    return (length + 1) // 2


_FIRST_BAND = 8  # members in recognize's first band; each next band doubles


def _nearest(
    cohort: Cohort, token: str, expected, threshold: Optional[int]
) -> Optional[LexEntry]:
    """The first in-budget, expected member in (distance, cohort order).

    Walks the cohort in bands of doubling size, each ranked by `select` and
    filtered by `integrate`. A member is left out of its band when its lower
    bound exceeds its budget or is no smaller than the best distance found:
    it cannot win, since a later band wins only at a strictly smaller
    distance. The walk ends once the best distance equals the ``#`` count.
    """
    floor = token.count("#")  # forms hold no "#", so each costs an edit
    m = len(token.casefold())
    # A form of n letters is at least max(floor, |n - m|) edits away; past
    # 2m + 1 letters (m + threshold) that exceeds every budget. Only lengths
    # whose bound fits their budget are kept.
    longest = 2 * m + 1 if threshold is None else m + threshold
    bounds = {}
    for n in range(longest + 1):
        lb = max(floor, abs(n - m))
        if lb <= _budget(n, threshold):
            bounds[n] = lb
    members = cohort.members
    best, best_d = None, math.inf
    start, size = 0, _FIRST_BAND
    while start < len(members) and best_d > floor:
        # A length missing from `bounds` is out of budget: best_d < best_d.
        band = tuple(
            e for e in members[start : start + size] if bounds.get(len(e.form), best_d) < best_d
        )
        start, size = start + size, 2 * size
        if not band:
            continue
        ranked = integrate(select(Cohort._ordered(cohort.prefix, band), token), expected)
        hit = next(((e, d) for e, d in ranked if d <= _budget(len(e.form), threshold)), None)
        if hit is not None and hit[1] < best_d:
            best, best_d = hit
    return best


def recognize(
    lexicon: Lexicon,
    tokens: Sequence[str],
    expected_per_slot: Optional[Sequence] = None,
    threshold: Optional[int] = None,
) -> tuple[LexEntry, ...]:
    """Access, select, integrate for each token; top surviving candidate per
    slot. `expected_per_slot` aligns category sets (or None) with tokens;
    `threshold` overrides the per-form distance budget."""
    tokens = list(tokens)
    if not tokens:
        raise LexiconError("recognize needs at least one token")
    if expected_per_slot is not None and len(expected_per_slot) != len(tokens):
        raise LexiconError("expected_per_slot does not align with tokens")
    if threshold is not None and threshold < 0:
        raise LexiconError(f"negative threshold {threshold}")
    out: list[LexEntry] = []
    for slot, token in enumerate(tokens):
        expected = expected_per_slot[slot] if expected_per_slot is not None else None
        best = _nearest(access(lexicon, token.split("#", 1)[0]), token, expected, threshold)
        if best is None:
            raise NoCandidate(slot, token, tuple(out))
        out.append(best)
    return tuple(out)
