"""Frozen, slotted dataclasses whose constructor stores each field through
its slot: a frozen dataclass stores each with ``object.__setattr__``, which
costs more than the rest of building a small record."""

import dataclasses
import inspect

__all__ = ["record"]


def record(cls):
    """``dataclass(frozen=True, slots=True)(cls)`` with an ``__init__`` that
    stores each field through ``cls.__dict__[name].__set__``.

    The new ``__init__`` has the signature of the one it replaces, defaults
    and ``default_factory`` included, and calls ``__post_init__`` last where
    the class defines one; like the dataclass's own, its source is generated
    once per class.  Assigning or deleting any attribute raises
    ``FrozenInstanceError``.  Instances have no ``__dict__``, so ``vars()``
    and weak references fail; a base class that declares no fields needs
    ``__slots__ = ()`` to keep it that way.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    init = cls.__init__
    params = inspect.signature(init).parameters
    env, body = {}, []
    for f in dataclasses.fields(cls):
        name = f.name
        env[f"_set_{name}"] = cls.__dict__[name].__set__
        if f.default_factory is not dataclasses.MISSING:
            # the default in the signature is the dataclass's "<factory>"
            env[f"_unset_{name}"] = params[name].default
            env[f"_new_{name}"] = f.default_factory
            body.append(f"    if {name} is _unset_{name}: {name} = _new_{name}()")
        body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n" + "\n".join(body), env)
    fn = env["__init__"]
    fn.__defaults__, fn.__kwdefaults__ = init.__defaults__, init.__kwdefaults__
    fn.__annotations__ = init.__annotations__
    fn.__module__, fn.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    # the dataclass's own __setattr__ and __delattr__ name the class it
    # replaced, so any name outside the fields raised a TypeError
    cls.__init__, cls.__setattr__, cls.__delattr__ = fn, _setattr, _delattr
    return cls


def _setattr(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
