"""Immutable values kept in hand-written slots.

Every value class of the package is a `Frozen` subclass, not a frozen
dataclass. Formula nodes and parse trees are built by the hundred thousand:
a dataclass would give each instance a __dict__, and its generated __init__
stores every field with object.__setattr__, where a `Frozen` constructor
writes each field through its slot's descriptor at about half the cost.
Start-up gains too, since every command runs in a fresh process: a `Frozen`
class takes about 0.15 ms to create against about 0.8 ms for a frozen
dataclass, and `import pmodel` loads neither `dataclasses` nor the `inspect`
module it pulls in. For the package's 35 former dataclasses that was
28-38 ms of class generation and 11-13 ms of imports in every process
(Python 3.11.7 on a shared 2-CPU host). So pmodel values are not
dataclasses: `dataclasses.replace` and `dataclasses.fields` do not apply
to them; build a new value with the constructor instead.
"""

from __future__ import annotations

from itertools import count


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

    # dataclasses is imported only when a value is misused, so that importing
    # the package does not load it
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self) -> str:
        """`QualName(field=value, ...)` as a dataclass writes it, except that
        a value object met more than once is written in full only the first
        time, labelled `#n=`, and as `#n#` after, as Lisp writes shared
        structure. A shared DAG thus costs its distinct nodes, not its paths,
        and the repr of a value with nothing shared is the dataclass one."""
        counts: dict[int, int] = {}
        stack: list = [self]
        while stack:
            value = stack.pop()
            if isinstance(value, Frozen):
                counts[id(value)] = seen = counts.get(id(value), 0) + 1
                if seen == 1:
                    stack.extend(value._astuple())
            elif type(value) is tuple:
                stack.extend(value)
        labels = {key: 0 for key, n in counts.items() if n > 1}  # 0: not yet written
        parts: list[str] = []
        numbers = count(1)

        def write(value) -> None:
            if isinstance(value, Frozen):
                label = labels.get(id(value))
                if label:
                    parts.append(f"#{label}#")
                    return
                if label == 0:
                    label = labels[id(value)] = next(numbers)
                    parts.append(f"#{label}=")
                parts.append(f"{type(value).__qualname__}(")
                for i, (name, field) in enumerate(zip(value._fields, value._astuple())):
                    parts.append(f", {name}=" if i else f"{name}=")
                    write(field)
                parts.append(")")
            elif type(value) is tuple:
                parts.append("(")
                for i, item in enumerate(value):
                    if i:
                        parts.append(", ")
                    write(item)
                parts.append(",)" if len(value) == 1 else ")")
            else:
                parts.append(repr(value))

        write(self)
        return "".join(parts)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())
