"""Record classes: the methods ``@dataclass`` writes, without ``dataclasses``.

Importing :mod:`dataclasses` loads :mod:`inspect`, and with it ``ast``,
``dis`` and ``tokenize``; that, and the code ``@dataclass`` generates, was
most of what importing lleekit cost, and every CLI call pays it.

The fields are the names the class body annotates, in order.  The
annotations are only read as names, never evaluated.  A class attribute of
a field's name is its default.  A field whose name starts with ``_`` is
private: it is left out of ``repr``, ``==`` and ``hash``.

A record's ``__init__``, ``__eq__`` and ``__hash__`` are generated source,
compiled when the first of them is looked up: by construction, ``==``,
``hash``, ``inspect.signature`` or an unpickled instance.  Until then each
is a :class:`_Lazy` stand-in on the class, so importing the package
compiles none of them, and a call compiles only the classes it uses.
Compiling puts the plain functions on the class in place of the stand-ins.
"""

__all__ = ["record"]

# ``repr`` is not on any hot path and is one shared closure, which saves
# compiling it.
_TEMPLATE = """\
def __init__(self, {params}):
{assign}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({key}) == ({other_key})
    return NotImplemented
def __hash__(self):
    return hash(({key}))
"""


class _Lazy:
    """A generated method of a record class that is not compiled yet.

    ``compile`` compiles the class's generated methods, at most once, puts
    them on the class in place of every stand-in still there, and returns
    them by name.  A lookup through the stand-in then binds the function as
    the class attribute would.
    """

    __slots__ = ("name", "compile")

    def __init__(self, name, compile):
        self.name = name
        self.compile = compile

    def __get__(self, obj, owner=None):
        return self.compile()[self.name].__get__(obj, owner)


def record(cls=None, /, *, frozen=True):
    """Class decorator: what ``@dataclass(frozen=True)`` adds to ``cls``, or
    with ``frozen=False`` what ``@dataclass`` adds.

    That is ``__init__`` over the fields, positional or by keyword, which
    ends by calling ``__post_init__`` when the class has one; ``__repr__``
    as ``Name(field=value, ...)``; ``__eq__`` between instances of the same
    class, on their public fields; ``__hash__`` of those fields when frozen,
    and no hash otherwise; ``__match_args__``; and when frozen a
    ``__setattr__`` and ``__delattr__`` that raise
    :class:`dataclasses.FrozenInstanceError`.  A method the class defines
    itself is kept.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    body = cls.__dict__
    annotations = body.get("__annotations__", {})
    fields = tuple(annotations)
    defaults = tuple(body[f] for f in fields if f in body)
    if any(f not in body for f in fields[len(fields) - len(defaults):]):
        raise TypeError("%s: a field without a default follows one with a default" % cls.__name__)
    public = [f for f in fields if not f.startswith("_")]
    post_init = "__post_init__" in body
    methods = {}

    def compile_methods():
        if not methods:
            methods.update(_compile(cls, annotations, defaults, public, frozen, post_init))
        for name, method in methods.items():
            if body.get(name).__class__ is _Lazy:
                setattr(cls, name, method)
        return methods

    def __repr__(self):
        shown = ", ".join(["%s=%r" % (f, getattr(self, f)) for f in public])
        return "%s(%s)" % (self.__class__.__qualname__, shown)

    __repr__.__qualname__ = "%s.__repr__" % cls.__qualname__
    if "__repr__" not in body:
        cls.__repr__ = __repr__
    for name in ("__init__", "__eq__"):
        if name not in body:
            setattr(cls, name, _Lazy(name, compile_methods))
    # a class that defines __eq__ alone has __hash__ = None in its body
    if body.get("__hash__") is None:
        cls.__hash__ = _Lazy("__hash__", compile_methods) if frozen else None
    if frozen:
        cls.__setattr__ = _assign_frozen
        cls.__delattr__ = _delete_frozen
    if "__match_args__" not in body:
        cls.__match_args__ = fields
    return cls


def _compile(cls, annotations, defaults, public, frozen, post_init):
    """``__init__``, ``__eq__`` and ``__hash__`` of record class ``cls``,
    compiled from :data:`_TEMPLATE`: as fast as the methods ``@dataclass``
    generates."""
    fields = tuple(annotations)
    if frozen:
        assign = ["    _set(self, %r, %s)" % (f, f) for f in fields]
    else:
        assign = ["    self.%s = %s" % (f, f) for f in fields]
    if post_init:
        assign.append("    self.__post_init__()")
    source = _TEMPLATE.format(
        params=", ".join(fields),
        assign="\n".join(assign),
        key="".join("self.%s, " % f for f in public),
        other_key="".join("other.%s, " % f for f in public),
    )
    methods = {}
    exec(source, {"_set": object.__setattr__}, methods)
    for name, method in methods.items():
        method.__qualname__ = "%s.%s" % (cls.__qualname__, name)
    init = methods["__init__"]
    init.__defaults__ = defaults or None
    init.__annotations__ = {**annotations, "return": None}
    return methods


def _assign_frozen(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError("cannot assign to field %r" % (name,))


def _delete_frozen(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError("cannot delete field %r" % (name,))
