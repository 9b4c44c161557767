"""Frozen records: the package's value types, with their own fields() and
replace().

A record is a class whose annotations, in order, are its fields and
whose class attributes are their defaults.  ``@record`` compiles one
``__init__`` per class, shaped as dataclasses writes it for a frozen
class (one object.__setattr__ per field, then __post_init__ where the
class defines it), and gives every record the same frozen
__setattr__/__delattr__, __eq__, __hash__ and __repr__.  dataclasses
compiles all six per class, which made it most of the package's import.
"""

from __future__ import annotations


def record(cls):
    """Make cls a frozen record (see the module docstring); it has no base
    class, and a field with a default is followed by none without one."""
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[name] for name in names if name in cls.__dict__)
    if any(name not in cls.__dict__ for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default "
                        "follows one with a default")
    lines = [f"def __init__(self, {', '.join(names)}):"]
    lines += [f" _set(self, {name!r}, {name})" for name in names]
    if "__post_init__" in cls.__dict__:
        lines.append(" self.__post_init__()")
    namespace = {}
    exec("\n".join(lines), {"_set": object.__setattr__}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__record_fields__ = names
    cls.__init__ = init
    cls.__setattr__ = _frozen
    cls.__delattr__ = _frozen
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    return cls


def fields(record_or_cls) -> tuple[str, ...]:
    """The field names of a record or record class, in __init__ order."""
    return record_or_cls.__record_fields__


def replace(obj, **changes):
    """A new record of obj's class with obj's fields but changes; the
    class's __init__, and so its checks, run again."""
    return type(obj)(**{name: getattr(obj, name) for name in fields(obj)}
                     | changes)


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in fields(obj))


def _frozen(self, name, *value):
    raise AttributeError(
        f"cannot assign or delete {name!r} of a frozen {type(self).__name__}")


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self):
    return hash(_values(self))


def _repr(self):
    return (f"{type(self).__qualname__}("
            + ", ".join(f"{name}={getattr(self, name)!r}"
                        for name in fields(self)) + ")")
