"""Immutable slotted records, the base of the library's small value classes."""


class Record:
    """A value whose fields are the subclass's ``__slots__``, in order.

    The subclass ``__init__`` validates and normalises its arguments, then
    stores them once with ``_set``.  Records compare and hash by type and
    field values, print as ``Name(field=value, ...)``, pickle and copy by
    calling the constructor again, and refuse assignment and deletion with
    ``AttributeError``.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
