"""Record classes: the methods ``@dataclass`` would write, without its cost.

``@record`` gives a class with annotated fields the ``__init__``,
``__eq__``, ``__hash__`` and ``__repr__`` of a dataclass with the same
options, with the same behaviour, hash values and repr text.  The first
three are the code a dataclass generates, compiled from one small source
per class (records whose sources match share the compiled code), and
``__repr__`` is a closure.  So importing featmc loads neither
:mod:`dataclasses` nor the ``inspect``, ``ast``, ``dis`` and ``copy``
modules that it imports.

Fields are the class's own annotations, in order.  A class attribute of the
same name is the field's default, or a :func:`field` with a default, a
``default_factory``, ``compare=False`` (left out of ``==`` and the hash) or
``repr=False``.  ``__post_init__`` runs after ``__init__`` where the class
has one.  ``==`` holds only between instances of the same class.  A frozen
record is hashable and refuses assignment and deletion with
``AttributeError``; any other record is unhashable.
"""

from __future__ import annotations

_MISSING = object()

#: compiled method sources, shared by the records whose fields and options
#: give the same source (the four binary guard operators, for one)
_compiled: dict = {}


class _Field:
    """A field's default and flags, as given to :func:`field`."""

    __slots__ = ("default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare, repr):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=_MISSING, default_factory=None, compare=True, repr=True):
    return _Field(default, default_factory, compare, repr)


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr_of(names):
    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({fields})"

    return __repr__


def record(cls=None, /, *, frozen=False, repr=True):
    """Class decorator, as ``@record`` or ``@record(frozen=True, repr=False)``."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, repr=repr)
    scope = {"__name__": cls.__module__, "_MISSING": _MISSING, "_set": object.__setattr__}
    params, body, compared, shown = ["self"], [], [], []
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(spec, None, True, True)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        value = name
        if spec.default_factory is not None:
            scope[f"_new_{name}"] = spec.default_factory
            params.append(f"{name}=_MISSING")
            value = f"_new_{name}() if {name} is _MISSING else {name}"
        elif spec.default is not _MISSING:
            scope[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        elif "=" in params[-1]:
            raise TypeError(f"field {name!r} follows a field with a default")
        else:
            params.append(name)
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in compared)
    theirs = "".join(f"other.{name}," for name in compared)
    source = [
        f"def __init__({', '.join(params)}):",
        *(f" {line}" for line in body or ["pass"]),
        "def __eq__(self, other):",
        " if other.__class__ is self.__class__:",
        f"  return ({mine}) == ({theirs})",
        " return NotImplemented",
    ]
    if frozen:
        source += ["def __hash__(self):", f" return hash(({mine}))"]
    source = "\n".join(source)
    code = _compiled.get(source)
    if code is None:
        code = _compiled[source] = compile(source, "<record>", "exec")
    methods = {}
    exec(code, scope, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if repr:
        cls.__repr__ = _repr_of(shown)
    if frozen:
        cls.__setattr__ = _refuse_set
        cls.__delattr__ = _refuse_delete
    else:
        cls.__hash__ = None
    return cls
