"""Record classes without generated code.

A frozen ``@dataclass`` builds its ``__init__``, ``__repr__``, ``__eq__``,
``__setattr__``, ``__delattr__`` and ``__hash__`` by ``exec`` of generated
source: about 1 ms a class, paid by every process that imports it.  A
:class:`Record` subclass reads its annotated fields and their defaults once,
in ``__init_subclass__``, and shares generic methods:

* the constructor takes the fields in order, positionally or by keyword,
  fills in defaults, raises ``TypeError`` for a missing, unknown or repeated
  argument, and then calls ``__post_init__``;
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

import numpy as np


class Record:
    """Base of a record class; see the module docstring."""

    #: Field names in constructor order, and the defaults of those that have one.
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(dict.fromkeys([*cls._fields, *own]))
        cls._defaults = dict(cls._defaults)
        for name in own:
            if name in cls.__dict__:
                cls._defaults[name] = cls.__dict__[name]

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(
                    f"{cls.__qualname__}() got an unexpected keyword argument {name!r}"
                )
            values[name] = value
        defaults = cls._defaults
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            raise TypeError(
                f"{cls.__qualname__}() missing required arguments: "
                + ", ".join(map(repr, missing))
            )
        state = self.__dict__
        for name in names:
            state[name] = values[name] if name in values else defaults[name]
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
