"""What every module shares and that needs no other pmodel module: the
exception base, so callers (and the CLI) can catch one type, and the word
categories and moods that frep, lexicon and the CLI's arguments check."""

CATEGORIES = ("N", "V", "Q", "WH", "DET", "P")
MOODS = ("declarative", "interrogative")


class PmodelError(Exception):
    """Base class for every domain error raised by this package."""
