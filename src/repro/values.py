"""Immutable wire values, built at slot speed.

Every hop of the simulated network builds its wire objects anew: Ethernet
frames, ARP and IP packets, TCP segments, application messages, and the
capture's and the hijacker's flow records.  Several receivers share each
one.  The addressee and every promiscuous NIC get the same frame object,
and the hijacker queues and re-sends the same packet.
So these are immutable values: frozen dataclasses, equal and hashable by
their fields, which no receiver can alter under another.

A stock ``@dataclass(frozen=True)`` stores each field through
``object.__setattr__``, because its own ``__setattr__`` raises, and that
generic store per field is most of what building a small frame costs.
:func:`value` makes a frozen, slotted dataclass whose ``__init__`` writes
each field through its slot's member descriptor instead, then calls
``__post_init__``.  Everything else is the dataclass's own: ``__eq__``,
``__hash__``, ``__repr__``, ``__match_args__``, ``fields()``,
``dataclasses.replace``, pickling, and
:class:`~dataclasses.FrozenInstanceError` on assignment or deletion.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import TypeVar

_T = TypeVar("_T", bound=type)

_PLAIN = inspect.Parameter.POSITIONAL_OR_KEYWORD


def value(cls: _T) -> _T:
    """Make ``cls`` a frozen, slotted dataclass with a per-slot ``__init__``.

    The ``__init__`` takes the dataclass's parameters, in its order and
    with its defaults, and runs a ``default_factory`` only when its
    argument is omitted.  Only plain fields, ``default`` and
    ``default_factory`` are supported.  Any other field form
    (``InitVar``, ``field(init=False)``, ``kw_only``) or a dataclass base
    class, whose slots live on the base, raises :class:`TypeError` here,
    when the class is decorated, instead of giving the class a
    constructor that differs from the dataclass's.
    """
    if any(is_dataclass(base) for base in cls.__mro__[1:]):
        raise TypeError(f"value type {cls.__qualname__} cannot extend a dataclass")
    cls = dataclass(frozen=True, slots=True)(cls)
    stock = cls.__init__
    params = list(inspect.signature(stock).parameters.values())[1:]
    members = fields(cls)
    if [(p.name, p.kind) for p in params] != [(f.name, _PLAIN) for f in members]:
        raise TypeError(
            f"value type {cls.__qualname__} supports only plain, default and "
            "default_factory fields"
        )
    namespace: dict[str, object] = {}
    args, body = ["self"], []
    for param, f in zip(params, members):
        name = f.name
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        stored = name
        if param.default is param.empty:
            args.append(name)
        else:
            # For a default_factory field this is the dataclass's own
            # "<factory>" sentinel, so the signature stays identical.
            namespace[f"_dflt_{name}"] = param.default
            args.append(f"{name}=_dflt_{name}")
        if f.default_factory is not MISSING:
            namespace[f"_factory_{name}"] = f.default_factory
            stored = f"_factory_{name}() if {name} is _dflt_{name} else {name}"
        body.append(f"    _set_{name}(self, {stored})\n")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    exec(f"def __init__({', '.join(args)}):\n{''.join(body)}", namespace)
    init = namespace["__init__"]
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = stock.__annotations__
    cls.__init__ = init
    return cls
