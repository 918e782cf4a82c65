"""Record classes without generated code.

A frozen ``@dataclass`` builds its ``__init__``, ``__repr__``, ``__eq__``,
``__setattr__``, ``__delattr__`` and ``__hash__`` by ``exec`` of generated
source: about 1 ms a class, paid by every process that imports it.  A
:class:`Record` subclass reads its annotated fields and their defaults once,
in ``__init_subclass__``, into an ``inspect.Signature``, and shares generic
methods:

* the constructor binds its arguments to that signature, so it takes the
  fields in order, positionally or by keyword, fills in defaults, raises
  ``TypeError`` for a missing, unknown or repeated argument, and then calls
  ``__post_init__``;
* after ``__post_init__``, the record makes every ``numpy`` array it holds
  read-only, in a field or in a tuple field, so its state cannot change;
* ``repr`` is ``Name(field=value, ...)``, and records compare and hash by
  identity, as plain objects do;
* every record refuses assignment and deletion of attributes with
  ``dataclasses.FrozenInstanceError`` (imported only when raised).

    class Grid(Record):
        x_min: float
        n_bins: int = 40

A record stores no value its other fields fix: a derived value is a
property, or a ``functools.cached_property`` for a costly scalar, which
writes the instance's ``__dict__`` directly and so works on a record.  A
derived array is a plain property: a cached one would be stored after the
freeze, writable and free to go stale.
"""

from __future__ import annotations

import inspect

import numpy as np


class Record:
    """Base of a record class; see the module docstring."""

    #: The constructor's signature, one parameter per field, and the field names.
    _signature = inspect.Signature()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = dict(cls._signature.parameters)
        for name in cls.__dict__.get("__annotations__", {}):
            fields[name] = inspect.Parameter(
                name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=cls.__dict__.get(name, inspect.Parameter.empty),
            )
        cls._signature = inspect.Signature(fields.values())
        cls._fields = tuple(fields)

    def __init__(self, *args, **kwargs):
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        state = self.__dict__
        state.update(bound.arguments)
        self.__post_init__()
        for value in state.values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    item.flags.writeable = False

    def __post_init__(self):
        pass

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
