"""Process semantics for star expressions without 1, and loop elimination.

The toolkit covers: parsing and printing of the expression syntax
(:mod:`lleekit.expr`), charts and the interpretation of expressions as
charts (:mod:`lleekit.chart`), bisimilarity checking and collapse
(:mod:`lleekit.bisim`), loop elimination witnesses and their layered form
(:mod:`lleekit.lee`), reflecting loop structure through a collapse map
(:mod:`lleekit.reflect`), and extraction of solution expressions plus the
end-to-end equivalence decision (:mod:`lleekit.solve`).

Importing the package imports none of them: each public name, each
submodule and ``__all__`` is imported when it is first looked up
(PEP 562), so a ``lleekit`` command loads only the modules its run needs.
"""

__version__ = "0.1.0"

# the modules whose public names the package exports, in the order of
# __all__; each module's __all__ is the one list of its public names
_EXPORTING = ("errors", "expr", "chart", "bisim", "lee", "reflect", "solve")
# the order a name is searched in: each module imports only modules before
# it, and reflect comes last, so that only a name of its own imports it
_SEARCH = ("errors", "expr", "chart", "lee", "bisim", "solve", "reflect")
_SUBMODULES = frozenset(_EXPORTING) | {"cli"}


def _submodule(name):
    # a relative import with no from-list returns the submodule itself, and
    # binds it as an attribute of the package
    return __import__(name, globals(), level=1)


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name == "__all__":
        value = [n for m in _EXPORTING for n in _submodule(m).__all__]
        value.append("__version__")
    else:
        for m in _SEARCH:
            module = _submodule(m)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
