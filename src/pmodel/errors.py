"""What every module shares and that needs no other pmodel module: the
exception base, so callers (and the CLI) can catch one type; the word
categories and moods that frep, lexicon and the CLI's arguments check; and
the quantifier and Wh words, the word classes that decide what movement
raises, lowers and fronts, and that a Q or WH lexical referent must name."""

CATEGORIES = ("N", "V", "Q", "WH", "DET", "P")
MOODS = ("declarative", "interrogative")
QUANTIFIER_WORDS = frozenset(
    {"everyone", "everybody", "everything", "someone", "somebody", "something"}
)
WH_WORDS = frozenset({"who", "whom", "what", "which", "whose"})


class PmodelError(Exception):
    """Base class for every domain error raised by this package."""
