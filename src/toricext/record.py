"""Immutable records on the standard library alone.

``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``: ~11 ms of start-up for a CLI call.  Every record of the
package derives from ``Record`` instead, so no command loads them.
"""

from __future__ import annotations


class Record:
    """Fields named by ``_fields``, each set once by ``__init__``; equality,
    hash and repr go by them in order, as a frozen dataclass's do."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
