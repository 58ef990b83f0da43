"""Pinned ``lleekit equiv`` output: exit codes and the exact text printed.

The expected text is the program's own output, recorded once, so any change
to interpretation, refinement, witnesses or solution extraction that alters
a printed certificate or distinction shows up here.  W(3), N(3) and P(3) are
the loop families of the benchmark, each against an axiom-rewritten copy;
W(8) and N(6) are pinned in JSON, and two NOT_EQUAL pairs in text and JSON,
from files under ``golden/``.
"""

import pathlib

import pytest

from lleekit.bisim import bisimilarity
from lleekit.chart import interpret
from lleekit.cli import run
from lleekit.expr import parse

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

W3 = "(x0.(y0*z0)+x1.(y1*z1)+x2.(y2*z2))*0"
N3 = "(a3.((a2.((a1.c0+b1)*c1)+b2)*c2)+b3)*c3"
P3 = "(x.(y0+z0).(y1+z1).(y2+z2))*0"
W8 = "(%s)*0" % "+".join("x%d.(y%d*z%d)" % (i, i, i) for i in range(8))
N5 = "(a5.((a4.((a3.((a2.((a1.c0+b1)*c1)+b2)*c2)+b3)*c3)+b4)*c4)+b5)*c5"
N6 = "(a6.(%s)+b6)*c6" % N5

# Each first chart below is its own collapse, so the EQUAL prints the
# first expression itself
W3_SOLUTION = "(x0.y0*z0+x1.y1*z1+x2.y2*z2)*0"
N3_SOLUTION = "(a3.(a2.(a1.c0+b1)*c1+b2)*c2+b3)*c3"
P3_SOLUTION = "(x.(y0+z0).(y1+z1).(y2+z2))*0"

GOLDEN = [
    # the README examples
    ("((a+b).(a*b))*0", "(a+b)*0", 0, "EQUAL\n(a+b)*0\n"),
    ("a.(b+c)", "a.b+a.c", 1, "NOT_EQUAL\nblock1: g:a.(b+c)\nblock2: h:a.b+a.c\n"),
    ("a+b", "b+a", 0, "EQUAL\na+b\n"),
    # A8 unfolding, then A6
    (W3, "(x0.(y0*z0)+x1.(y1*z1)+x2.(y2*z2)).(%s)+0" % W3, 0, "EQUAL\n%s\n" % W3_SOLUTION),
    # A2
    (W3, "(x0.(y0*z0)+(x1.(y1*z1)+x2.(y2*z2)))*0", 0, "EQUAL\n%s\n" % W3_SOLUTION),
    # A1
    (N3, "(b3+a3.((a2.((a1.c0+b1)*c1)+b2)*c2))*c3", 0, "EQUAL\n%s\n" % N3_SOLUTION),
    # A1 inside, A3 in the exit
    (N3, "(a3.((b2+a2.((a1.c0+b1)*c1))*c2)+b3)*(c3+c3)", 0, "EQUAL\n%s\n" % N3_SOLUTION),
    # A5 and A4
    (P3, "(x.(y0.((y1+z1).(y2+z2))+z0.((y1+z1).(y2+z2))))*0", 0, "EQUAL\n%s\n" % P3_SOLUTION),
    # A1 in the last factor
    (P3, "(x.(y0+z0).(y1+z1).(z2+y2))*0", 0, "EQUAL\n%s\n" % P3_SOLUTION),
    ("a*b", "a.(a*b)+b", 0, "EQUAL\na*b\n"),
    ("(a*b).c", "a*(b.c)", 0, "EQUAL\na*b.c\n"),
    ("0", "0.a", 0, "EQUAL\n0\n"),
    ("a.b.c.x", "a.b.c.y", 1, "NOT_EQUAL\nblock1: g:a.b.c.x\nblock2: h:a.b.c.y\n"),
    (
        "c.a.b.a.b.x",
        "c.a.b.a.b.y",
        1,
        "NOT_EQUAL\nblock1: g:c.a.b.a.b.x\nblock2: h:c.a.b.a.b.y\n",
    ),
    ("a*b", "a*c", 1, "NOT_EQUAL\nblock1: g:a*b\nblock2: h:a*c\n"),
    ("(a.b)*0", "(a.b)*(a.0)", 1, "NOT_EQUAL\nblock1: g:(a.b)*0\nblock2: h:(a.b)*(a.0)\n"),
]


@pytest.mark.parametrize("e1,e2,code,out", GOLDEN)
def test_equiv_golden(capsys, e1, e2, code, out):
    assert run(["equiv", e1, e2]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ""


# The JSON form prints the whole collapse, so these pin its node ids: the
# printed states of the first interpretation, named after exploration.
GOLDEN_JSON = [
    # A8 unfolding, then A6
    ("equiv_W8.json", W8, "(%s).(%s)+0" % (W8[1:-3], W8)),
    # A1
    ("equiv_N6.json", N6, "(b6+a6.(%s))*c6" % N5),
]


@pytest.mark.parametrize("name,e1,e2", GOLDEN_JSON)
def test_equiv_golden_json(capsys, name, e1, e2):
    assert run(["--format", "json", "equiv", e1, e2]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN_DIR / name).read_text()
    assert captured.err == ""


# NOT_EQUAL prints the members of its two blocks, each named on demand from
# the explored state; these pin the names byte for byte, in both formats.
# The chain is a pair of the benchmark's shape, and the mixed pair (seed 1
# of the mixed_small workload) has two members in each printed block.
CHAIN120 = ".".join("abc"[(i * i + i // 7) % 3] for i in range(120))
MIXED_NE = "a*((c+(a+a))*(b+a.(c.a)+c.(b.b.(c.a+c.(a.b)))))"
GOLDEN_NOT_EQUAL = [
    ("equiv_chain120", CHAIN120 + ".x", CHAIN120 + ".y"),
    ("equiv_mixed_not_equal", "%s.x" % MIXED_NE, "%s.y" % MIXED_NE),
]


@pytest.mark.parametrize("fmt,suffix", [("text", ".txt"), ("json", ".json")])
@pytest.mark.parametrize("name,e1,e2", GOLDEN_NOT_EQUAL)
def test_equiv_golden_not_equal(capsys, name, e1, e2, fmt, suffix):
    assert run(["--format", fmt, "equiv", e1, e2]) == 1
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN_DIR / (name + suffix)).read_text()
    assert captured.err == ""


# The EQUAL expressions W(3) and W(8) printed while equiv searched for a
# witness and layered it twice.  The witness read off the expression gives
# the shorter ones pinned above; both must denote the same process.
_W_ALL = "x0.y0*z0+x1.y1*z1+x2.y2*z2+x3.y3*z3+x4.y4*z4+x5.y5*z5+x6.y6*z6"
OLD_W_SOLUTIONS = [
    ("(x0.y0*z0+x1.y1*z1)*(x2.(y2+z2.(x0.y0*z0+x1.y1*z1)*x2)*0)", W3_SOLUTION),
    (
        "(%s)*(x7.(y7+z7.(%s)*x7)*0)" % (_W_ALL, _W_ALL),
        "(%s+x7.y7*z7)*0" % _W_ALL,
    ),
]


@pytest.mark.parametrize("old,new", OLD_W_SOLUTIONS)
def test_old_w_solutions_bisimilar_to_new(old, new):
    g, h = interpret(parse(old)), interpret(parse(new))
    assert (g.initial, h.initial) in bisimilarity(g, h)


# The EQUAL expressions extracted from the reflected witness, printed
# before equiv certified a first chart that is its own collapse by the
# first expression itself.  Both must denote the same process.
REFLECTED_P3_SOLUTION = "(x.((y0+z0).((y1+z1).(y2+z2))))*0"
REFLECTED_SOLUTIONS = [(REFLECTED_P3_SOLUTION, P3_SOLUTION), ("a*(b.c)", "a*b.c")]


@pytest.mark.parametrize("old,new", REFLECTED_SOLUTIONS)
def test_reflected_solutions_bisimilar_to_new(old, new):
    g, h = interpret(parse(old)), interpret(parse(new))
    assert (g.initial, h.initial) in bisimilarity(g, h)


# The EQUAL expression of P(3) before extraction factored it at join nodes:
# each summand of a factor repeated the rest of the product.
UNFACTORED_P3_SOLUTION = "(x.(y0.(y1.(y2+z2)+z1.(y2+z2))+z0.(y1.(y2+z2)+z1.(y2+z2))))*0"


def test_unfactored_p3_solution_bisimilar_to_new():
    g, h = interpret(parse(UNFACTORED_P3_SOLUTION)), interpret(parse(REFLECTED_P3_SOLUTION))
    assert (g.initial, h.initial) in bisimilarity(g, h)
