"""The record classes against their ``@dataclass`` twins in ``oracles``."""

import collections
import copy
import dataclasses
import inspect
import pickle
import re

import pytest

from conftest import run_python
from oracles import ParentRecords
from lleekit.bisim import BisimMap, CollapseResult, Partition, bisimilarity_partition, collapse
from lleekit.chart import NodeSetChart, Transition, _Exploration, chart_of_nodes
from lleekit.cli import Config
from lleekit.expr import parse
from lleekit.lee import (
    LoopingBackChart,
    PropertyReport,
    ReplayResult,
    ReplayStep,
    _Replay,
    all_looping_back_charts,
    check_lbc_properties,
)
from lleekit.reflect import (
    ImageHierarchy,
    ImageRecord,
    LemmaReport,
    _Image,
    check_lemma_conditions,
    images,
)
from lleekit.solve import (
    Distinction,
    EquationSystem,
    EquivResult,
    Solution,
    equation_system,
    equiv,
)

# the record classes, and the one public named tuple
RECORDS = (
    Partition,
    BisimMap,
    Transition,
    NodeSetChart,
    ReplayStep,
    ReplayResult,
    LoopingBackChart,
    PropertyReport,
    ImageRecord,
    ImageHierarchy,
    LemmaReport,
    EquationSystem,
    Solution,
    Distinction,
    EquivResult,
    Config,
    CollapseResult,
)
# the classes whose methods ``record`` compiles on first use
COMPILED = [cls for cls in RECORDS if cls is not CollapseResult]


@pytest.fixture(scope="module")
def instances(
    chart_g, witness_g_hat, chart_h, map_g_to_h, chart_cii, map_cii_to_ci, witness_cii_hat
):
    """Two or more instances of every record class, from the fixtures."""
    lbcs = list(all_looping_back_charts(witness_g_hat).values())
    hierarchy = images(map_cii_to_ci, witness_cii_hat)
    equal = equiv(parse("a*b"), parse("a.(a*b)+b"))
    unequal = equiv(parse("a.b"), parse("a.c"))
    nodes = sorted(chart_g.nodes)
    return {
        Partition: [bisimilarity_partition(chart_g), bisimilarity_partition(chart_cii)],
        BisimMap: [map_g_to_h, map_cii_to_ci, copy.copy(map_g_to_h)],
        Transition: sorted(chart_g.transitions, key=Transition.sort_key)[:3],
        NodeSetChart: [
            chart_of_nodes(chart_g, nodes, start=nodes[0]),
            chart_of_nodes(chart_g, nodes[:1]),
            NodeSetChart(chart_g, frozenset(nodes[:1]), explicit=()),
        ],
        ReplayStep: list(witness_g_hat.replay().steps[:2]),
        ReplayResult: [witness_g_hat.replay(), witness_cii_hat.replay()],
        LoopingBackChart: lbcs,
        PropertyReport: [check_lbc_properties(lbc) for lbc in lbcs],
        ImageRecord: list(hierarchy.records),
        ImageHierarchy: [hierarchy, images(map_cii_to_ci, witness_cii_hat)],
        LemmaReport: [check_lemma_conditions(map_cii_to_ci, witness_cii_hat)] * 2,
        EquationSystem: [equation_system(chart_g), equation_system(chart_cii)],
        Solution: [equal.certificate.solution, equal.certificate.solution],
        Distinction: [unequal.distinction, Distinction(frozenset(), frozenset())],
        EquivResult: [equal, unequal, EquivResult(False, distinction=unequal.distinction)],
        Config: [Config(), Config(cap=5, format="json"), Config(cap=5, format="json")],
        CollapseResult: [collapse(chart_g), collapse(chart_h), collapse(chart_cii)],
    }


def _twin(real):
    """The twin of ``real``, built from the same field values."""
    cls = getattr(ParentRecords, type(real).__name__)
    return cls(**{name: getattr(real, name) for name, _ in _fields(cls)})


def _fields(twin_cls):
    """The name of each field of ``twin_cls``, and whether it has a default."""
    if not dataclasses.is_dataclass(twin_cls):
        return [(name, name in twin_cls._field_defaults) for name in twin_cls._fields]
    return [
        (f.name, (f.default, f.default_factory) != (dataclasses.MISSING,) * 2)
        for f in dataclasses.fields(twin_cls)
    ]


def _plain(text):
    """``text`` about a twin as it reads about the real class, without the
    addresses in the ``repr`` of a field that has no ``repr`` of its own."""
    return re.sub(r" at 0x[0-9a-f]+>", ">", text.replace("ParentRecords.", ""))


def _outcome(f, *args):
    """The ``repr`` of what ``f(*args)`` returns, or the class and message
    of what it raises, as they read about the real classes."""
    try:
        return _plain(repr(f(*args)))
    except Exception as exc:
        return (type(exc), _plain(str(exc)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls, instances):
    twin_cls = getattr(ParentRecords, cls.__name__)
    reals = instances[cls]
    twins = [_twin(x) for x in reals]
    sig, twin_sig = inspect.signature(cls), inspect.signature(twin_cls)
    if dataclasses.is_dataclass(twin_cls):
        assert str(sig) == str(twin_sig)
    else:  # the named tuple's fields are not annotated
        assert list(sig.parameters) == list(twin_sig.parameters)
    assert cls.__match_args__ == twin_cls.__match_args__
    for x, tx in zip(reals, twins):
        assert _plain(repr(x)) == _plain(repr(tx))
        assert _outcome(hash, x) == _outcome(hash, tx)
        assert bool(x) == bool(tx)
        for y, ty in zip(reals, twins):
            assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
        assert (x == 1) == (tx == 1)
    # keyword construction, and the defaults
    for x in reals:
        kwargs = {name: getattr(x, name) for name, _ in _fields(twin_cls)}
        assert cls(**kwargs) == x and repr(cls(**kwargs)) == repr(x)
        required = {name: getattr(x, name) for name, default in _fields(twin_cls) if not default}
        assert _outcome(lambda: cls(**required)) == _outcome(lambda: twin_cls(**required))
    # a missing argument
    assert _outcome(cls) == _outcome(twin_cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_is_frozen_like_its_twin(cls, instances):
    x = instances[cls][0]
    tx = _twin(x)
    name = _fields(type(tx))[0][0]
    value = getattr(x, name)
    for change in (
        lambda o: setattr(o, name, value),
        lambda o: delattr(o, name),
        lambda o: setattr(o, "extra", 1),
        lambda o: delattr(o, "extra"),
    ):
        # on copies: a mutable record does change
        assert _outcome(change, copy.copy(x)) == _outcome(change, copy.copy(tx))


def test_records_validate_like_their_twins(chart_g, chart_h):
    g_node = sorted(chart_g.nodes)[0]
    cases = [
        (BisimMap, (chart_g, chart_h, {})),
        (BisimMap, (chart_g, chart_h, {x: "nowhere" for x in chart_g.nodes})),
        (NodeSetChart, (chart_g, frozenset({"nowhere"}))),
        (NodeSetChart, (chart_g, frozenset({g_node}), "nowhere")),
        (Config, (0,)),
    ]
    for cls, args in cases:
        twin_cls = getattr(ParentRecords, cls.__name__)
        raised = _outcome(cls, *args)
        assert raised == _outcome(twin_cls, *args) and isinstance(raised, tuple)


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_copies_like_its_twin(cls, roundtrip, instances):
    x = instances[cls][0]
    tx = _twin(x)
    y, ty = roundtrip(x), roundtrip(tx)
    assert type(y) is cls and type(ty) is type(tx)
    assert _plain(repr(y)) == _plain(repr(ty))
    assert (y == x) == (ty == tx)
    assert (_outcome(hash, y) == _outcome(hash, x)) == (_outcome(hash, ty) == _outcome(hash, tx))


def _lookups(cls):
    return (
        str(inspect.signature(cls)),
        cls.__init__.__defaults__,
        cls.__init__.__qualname__,
        cls.__match_args__,
    )


# Runs in a fresh interpreter: the generated methods each class named in its
# arguments has before it is compiled, then what looking them up gives.
_LOOKUPS = """\
import importlib, inspect, sys
from lleekit._record import _Lazy
for arg in sys.argv[1:]:
    module, name = arg.split(":")
    cls = getattr(importlib.import_module(module), name)
    lazy = [m for m in ("__init__", "__eq__", "__hash__") if vars(cls).get(m).__class__ is _Lazy]
    print(repr((lazy, str(inspect.signature(cls)), cls.__init__.__defaults__,
                cls.__init__.__qualname__, cls.__match_args__)))
"""


def test_compiled_methods_look_the_same_before_first_use(instances):
    # every class is compiled here, by the instances made of it
    names = ["%s:%s" % (cls.__module__, cls.__name__) for cls in COMPILED]
    proc = run_python(["-c", _LOOKUPS, *names], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    expected = []
    for cls in COMPILED:
        # here the generated methods are plain functions, compiled from source
        generated = [
            m
            for m in ("__init__", "__eq__", "__hash__")
            if inspect.isfunction(vars(cls).get(m))
            and vars(cls)[m].__code__.co_filename == "<string>"
        ]
        assert "__init__" in generated
        expected.append(repr((generated, *_lookups(cls))))
    assert proc.stdout.splitlines() == expected


# Runs in a fresh interpreter: unpickles instances of one record class and
# compares and hashes them before any of its methods is compiled.
_UNPICKLED = """\
import pickle, sys
from lleekit._record import _Lazy
xs = pickle.load(sys.stdin.buffer)
print(vars(type(xs[0]))["__init__"].__class__ is _Lazy)
print([[x == y for y in xs] for x in xs])
print([[x != y for y in xs] for x in xs])
def hashed(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)
print([[hashed(x) == hashed(y) for y in xs] for x in xs])
"""


@pytest.mark.parametrize("cls", COMPILED, ids=lambda c: c.__name__)
def test_unpickled_record_compares_before_first_use(cls, instances):
    xs = instances[cls]
    proc = run_python(["-c", _UNPICKLED], 0, input=pickle.dumps(xs))
    assert proc.returncode == 0, proc.stderr

    def hashed(x):
        try:
            return hash(x)
        except TypeError as exc:
            return str(exc)

    expected = [
        True,
        [[x == y for y in xs] for x in xs],
        [[x != y for y in xs] for x in xs],
        [[hashed(x) == hashed(y) for y in xs] for x in xs],
    ]
    assert proc.stdout.decode().splitlines() == [str(line) for line in expected]


# the private records, tuples written in source, and the fields of each
PRIVATE = {
    _Exploration: "space roots states out term loops base",
    _Replay: "ok reason llee llee_reason steps graph",
    _Image: "nodes start preimages chosen",
}


@pytest.mark.parametrize("cls", PRIVATE, ids=lambda c: c.__name__)
def test_private_record_reads_copies_and_pickles_as_a_named_tuple(cls):
    twin = collections.namedtuple(cls.__name__, PRIVATE[cls])
    values = [[i] for i in range(len(twin._fields))]
    x, tx = cls(*values), twin(*values)
    assert x == tx and tuple(x) == tuple(tx) and len(x) == len(tx)
    for name in twin._fields:
        assert getattr(x, name) is getattr(tx, name)
    for roundtrip in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        y = roundtrip(x)
        assert type(y) is cls and y == x
    for change in (
        lambda o: setattr(o, twin._fields[0], None),
        lambda o: setattr(o, "extra", 1),
    ):
        with pytest.raises(AttributeError):
            change(x)
