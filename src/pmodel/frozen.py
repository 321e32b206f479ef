"""Immutable values kept in hand-written slots.

Formula nodes and parse trees are built by the hundred thousand, so they are
not frozen dataclasses. Those give each instance a __dict__, and their
generated __init__ stores every field with object.__setattr__. A `Frozen`
subclass names its fields in __slots__ instead, and its constructor writes
each field through the slot's descriptor, at about half the cost.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Frozen:
    """An immutable value whose fields are the slots of its class and of its
    bases, in order, that do not start with "_".

    A subclass gets a constructor that takes the fields by position or by
    keyword, `__match_args__`, `__repr__`, field-wise `__eq__` and `__hash__`
    as a dataclass has them, and a `__reduce__` through which pickle and copy
    rebuild the value with its constructor. `_defaults` maps trailing fields
    to default values. A `_check(self)` method, if the class has one, ends
    the constructor; it may normalize a field with object.__setattr__.
    Slots that start with "_" are caches: the constructor leaves them unset,
    and a class writes them through their descriptors.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_")]
        cls._fields = fields = cls._fields + tuple(own)
        cls.__match_args__ = fields
        # compiled per class, as dataclasses does it: the constructor makes
        # one call to a bound slot setter per field, then one to the check
        scope = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
        scope["_check"] = getattr(cls, "_check", None)
        scope.update({f"_default_{name}": value for name, value in cls._defaults.items()})
        params = "".join(
            f", {name}=_default_{name}" if name in cls._defaults else f", {name}" for name in fields
        )
        body = "".join(f" _set_{name}(self, {name})\n" for name in fields)
        body += " _check(self)\n" if scope["_check"] else ""
        values = "".join(f"self.{name}, " for name in fields)
        exec(
            f"def __init__(self{params}):\n{body or ' pass'}\n"
            f"def _astuple(self):\n return ({values})\n",
            scope,
        )
        cls.__init__, cls._astuple = scope["__init__"], scope["_astuple"]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())
