"""The record base of the path, gauge, escape-path and glued-graph layers.

Their value classes are built a few hundred times per escape path, not
millions of times as the words and walls are, so one generic base serves
them all in place of dataclasses, which a cold command would pay to
import. It lives outside raag so that the word, wall and ray layers,
which do not use it, do not compile it.
"""

from __future__ import annotations

from .raag import _Frozen


class _Record(_Frozen):
    """A record whose fields are its class's annotated names, in order,
    after those of the record it extends; _fields lists them. It is built
    from them by position or keyword, then __post_init__ may validate or
    canonicalise them, and it compares, hashes and prints by them as a
    frozen dataclass does."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
