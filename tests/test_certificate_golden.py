"""Pinned ``lleekit equiv --certificate`` files and ``--format dot`` output.

An EQUAL builds its certificate's charts, maps, witness and solution only
when they are read; these pins hold the bytes of all five certificate files
and of one dot rendering, so the conversion at the edge cannot drift from
what the program printed when they were recorded.  The pairs are W(3), N(3)
and P(3) against rewritten copies, the README pair, and three EQUAL pairs of
the benchmark's mixed_small workload (seed 1).  The first chart of every
pair but mixed2 and the README pair is its own collapse, so its witness is
the first expression's own and its solution the state expressions; the
files extraction wrote for those pairs from the reflected witness are kept
under ``golden/reflected/``.  The mixed2 files written while the collapse
was named and numbered in name order are kept under ``golden/name_order/``.
To record them again, run this file::

    PYTHONPATH=src python tests/test_certificate_golden.py
"""

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from oracles import brute_interpret, naive_bisimilarity_pairs
from lleekit.bisim import bisimilarity
from lleekit.chart import Chart, Transition, interpret
from lleekit.cli import run
from lleekit.expr import Plus, Seq, Star, parse, size, unparse
from lleekit.lee import Witness, is_llee_witness

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "certificates"
UNFACTORED = GOLDEN.parent / "unfactored"
UNFOLDED = GOLDEN.parent / "unfolded"
UNFOLDED_ROOT = GOLDEN.parent / "unfolded_root"
REFLECTED = GOLDEN.parent / "reflected"
NAME_ORDER = GOLDEN.parent / "name_order"

W3 = "(x0.(y0*z0)+x1.(y1*z1)+x2.(y2*z2))*0"
N3 = "(a3.((a2.((a1.c0+b1)*c1)+b2)*c2)+b3)*c3"
P3 = "(x.(y0+z0).(y1+z1).(y2+z2))*0"

PAIRS = {
    "W3": (W3, "(x0.(y0*z0)+x1.(y1*z1)+x2.(y2*z2)).(%s)+0" % W3),
    "N3": (N3, "(b3+a3.((a2.((a1.c0+b1)*c1)+b2)*c2))*c3"),
    "P3": (P3, "(x.(y0.((y1+z1).(y2+z2))+z0.((y1+z1).(y2+z2))))*0"),
    "readme": ("((a+b).(a*b))*0", "(a+b)*0"),
    "mixed1": (
        "(b+(a+b.c).(b.a)+a.b)*(c*a.(a+b))+b.(a.0.c)",
        "(b+(a+b.c).(b.a)+a.b).(a.b+(b+(a+b.c).(b.a)))*(c*a.(a+b))+c*(a.(a+b))+b.(a.0.c)",
    ),
    "mixed2": (
        "a.(a.a).((a.c+(c*((a+c).(c+0.b))+(a+b.c))).((a+a).(c+b)))",
        "a.(a.a).(a.c.((a+a).(c+b))+((c.c*((a+c).(c+0.b))+(a+c).(c+0.b)).((a+a).(c+b))"
        "+(a+b.c).((a+a).(c+b))))",
    ),
    "mixed3": (
        "c.c.(c.(a+b+b))+((b+a)*c.(a.(0+c)))*(a*((b+a.c).c).(b.(0+a)))",
        "c.c.(c.(a+b+b))+(((b+a).(b+a)*c+c).(a.(0+c)))*((a.a*((b+a.c).c)+(b+a.c).c)"
        ".(b.(0+a)))",
    ),
}
FILES = ("h.chart", "g1_to_h.map", "g2_to_h.map", "h.witness", "h.solution")
DOT = ("W3.dot", ["--format", "dot", "equiv", *PAIRS["W3"]])
# the pairs whose first chart is its own collapse
COLLAPSED = ("N3", "P3", "W3", "mixed1", "mixed3")


def _certificate(name, directory):
    """``(exit code, stdout, stderr, {file: text})`` of ``equiv --certificate``."""
    e1, e2 = PAIRS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["equiv", e1, e2, "--certificate", str(directory)])
    files = {f: (directory / f).read_text(encoding="utf-8") for f in FILES}
    return code, out.getvalue(), err.getvalue(), files


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_certificate_files_are_pinned(tmp_path, name):
    code, out, err, files = _certificate(name, tmp_path)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name / "stdout").read_text(encoding="utf-8")
    for f in FILES:
        assert files[f] == (GOLDEN / name / f).read_text(encoding="utf-8"), f


def test_equiv_dot_is_pinned(capsys):
    name, argv = DOT
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")


def solution_lines(text):
    """``{node: expression}`` of a ``solution v1`` text."""
    header, *lines = text.splitlines()
    assert header == "solution v1"
    return {node: parse(e) for node, e in (line.split(" ", 1) for line in lines)}


def assert_same_processes(old, new):
    """Every node's expression in ``new`` is bisimilar to, and no larger
    than, its expression in ``old``."""
    assert old.keys() == new.keys()
    for node in old:
        g, h = interpret(old[node]), interpret(new[node])
        assert (g.initial, h.initial) in bisimilarity(g, h), node
        assert size(new[node]) <= size(old[node]), node


def reflected(name, f):
    """The certificate file ``f`` that the reflection route wrote for the
    pair ``name`` on the collapse in name order: kept under
    ``golden/reflected/`` or ``golden/name_order/`` where the pinned one
    changed, and the pinned one otherwise."""
    for path in (REFLECTED / name / f, NAME_ORDER / name / f):
        if path.exists():
            return path.read_text(encoding="utf-8")
    return (GOLDEN / name / f).read_text(encoding="utf-8")


def sums_as_sets(e):
    """``e`` up to BBP's A1 - A3: every sum read as the set of its
    summands."""
    if isinstance(e, Plus):
        summands, todo = set(), [e]
        while todo:
            x = todo.pop()
            if isinstance(x, Plus):
                todo += [x.left, x.right]
            else:
                summands.add(sums_as_sets(x))
        return frozenset(summands)
    if isinstance(e, (Seq, Star)):
        return (e.__class__, sums_as_sets(e.left), sums_as_sets(e.right))
    return e


def map_lines(text):
    """``{source node: target node}`` of a ``map v1`` text."""
    header, *lines = text.splitlines()
    assert header == "map v1"
    return dict(line.split(" ") for line in lines)


# The files of the golden pairs whose certificate changed when the collapse
# came to be numbered in exploration order and each class named after its
# first member there, not its least-named one: mixed2, on the reflection
# route.  Two classes took another member's name, and extraction on the new
# numbering lists three sums' summands in another order.  Through the two
# maps every old node is one new node; renamed so, the charts and the
# witnesses are equal, and every solution, the printed one too, is equal up
# to A1 - A3 and bisimilar (by the brute-force oracle).
@pytest.mark.parametrize("name", sorted(p.name for p in NAME_ORDER.iterdir()))
def test_name_order_certificates_equal_new_up_to_sums_as_sets(name):
    def read(directory, f):
        return (directory / name / f).read_text(encoding="utf-8")

    renamed = {}
    for f in ("g1_to_h.map", "g2_to_h.map"):
        old, new = map_lines(read(NAME_ORDER, f)), map_lines(read(GOLDEN, f))
        assert old.keys() == new.keys()
        for x in old:
            assert renamed.setdefault(old[x], new[x]) == new[x]
    assert len(set(renamed.values())) == len(renamed)
    old_chart = Chart.from_text(read(NAME_ORDER, "h.chart"))
    new_chart = Chart.from_text(read(GOLDEN, "h.chart"))

    def moved(t):
        return Transition(renamed[t.src], t.action, t.dst if t.terminal else renamed[t.dst])

    assert Chart(
        map(moved, old_chart.transitions), renamed.values(), renamed[old_chart.initial]
    ) == new_chart
    old_witness = Witness.from_text(read(NAME_ORDER, "h.witness"), old_chart)
    new_witness = Witness.from_text(read(GOLDEN, "h.witness"), new_chart)
    assert {moved(t): n for t, n in old_witness.order.items()} == new_witness.order
    old = solution_lines(read(NAME_ORDER, "h.solution"))
    new = solution_lines(read(GOLDEN, "h.solution"))
    assert {renamed[x] for x in old} == new.keys()
    pairs = [(old[x], new[renamed[x]]) for x in old]
    printed = [read(d, "stdout").split("\n") for d in (NAME_ORDER, GOLDEN)]
    assert [p[0] for p in printed] == ["EQUAL"] * 2
    pairs.append(tuple(parse(p[1]) for p in printed))
    assert pairs[-1][1] == new[new_chart.initial]
    for a, b in pairs:
        assert sums_as_sets(a) == sums_as_sets(b), (unparse(a), unparse(b))
        g, h = brute_interpret(a), brute_interpret(b)
        assert (g.initial, h.initial) in naive_bisimilarity_pairs(g, h)


# The files extraction wrote from the reflected witness for the pairs whose
# first chart is its own collapse.  The chart and the maps are unchanged;
# the old witness still replays layered on the chart, and the old dot and
# EQUAL text are its rendering and its initial node's solution.  Every
# node's state expression is bisimilar to its extracted solution, and the
# printed expression is the first input itself.
@pytest.mark.parametrize("name", COLLAPSED)
def test_reflected_certificates_bisimilar_to_new(name):
    chart = Chart.from_text((GOLDEN / name / "h.chart").read_text(encoding="utf-8"))
    witness = Witness.from_text(reflected(name, "h.witness"), chart)
    assert is_llee_witness(witness)
    if name == "W3":
        dot = (REFLECTED / "W3.dot").read_text(encoding="utf-8")
        assert dot == chart.to_dot(order=witness.order)
    old = solution_lines(reflected(name, "h.solution"))
    new = solution_lines((GOLDEN / name / "h.solution").read_text(encoding="utf-8"))
    assert old.keys() == new.keys()
    for node in old:
        g, h = interpret(old[node]), interpret(new[node])
        assert (g.initial, h.initial) in bisimilarity(g, h), node
    assert reflected(name, "stdout") == "EQUAL\n%s\n" % unparse(old[chart.initial])
    assert new[chart.initial] == parse(PAIRS[name][0])


# The solutions pinned before extraction factored them at join nodes; the
# printed expression of each pair is its collapse's initial node's.
@pytest.mark.parametrize("name", ["P3", "mixed1", "mixed2", "mixed3"])
def test_unfactored_solutions_bisimilar_to_new(name):
    old = solution_lines((UNFACTORED / (name + ".solution")).read_text(encoding="utf-8"))
    new = solution_lines(reflected(name, "h.solution"))
    assert_same_processes(old, new)


# The solutions pinned before extraction folded stars back by A8: where
# they read a+c.c*a, a sum with the star c*a unfolded once, they now read
# c*a.
@pytest.mark.parametrize("name", ["mixed1", "mixed3"])
def test_unfolded_solutions_bisimilar_to_new(name):
    old = solution_lines((UNFOLDED / (name + ".solution")).read_text(encoding="utf-8"))
    new = solution_lines(reflected(name, "h.solution"))
    assert_same_processes(old, new)


# The solutions pinned before extraction folded a node that no transition
# enters over the loop nodes it covers: the initial node of each wrote
# those nodes' solutions out unfolded once.  Only its line changed.
@pytest.mark.parametrize("name", ["mixed1", "mixed3"])
def test_unfolded_root_solutions_bisimilar_to_new(name):
    old_text = (UNFOLDED_ROOT / (name + ".solution")).read_text(encoding="utf-8")
    new_text = reflected(name, "h.solution")
    old, new = solution_lines(old_text), solution_lines(new_text)
    assert_same_processes(old, new)
    chart = (GOLDEN / name / "h.chart").read_text(encoding="utf-8").splitlines()
    assert chart[1].startswith("init ")
    changed = set(old_text.splitlines()) ^ set(new_text.splitlines())
    assert {line.split(" ", 1)[0] for line in changed} == {chart[1][len("init ") :]}


def _record():
    for name in sorted(PAIRS):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err, files = _certificate(name, pathlib.Path(tmp))
        if (code, err) != (0, ""):
            sys.exit("%s: exit %d, stderr %r" % (name, code, err))
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        (GOLDEN / name / "stdout").write_text(out, encoding="utf-8")
        for f, text in files.items():
            (GOLDEN / name / f).write_text(text, encoding="utf-8")
    name, argv = DOT
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if run(argv) != 0:
            sys.exit("%s: nonzero exit" % name)
    (GOLDEN / name).write_text(out.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    _record()
