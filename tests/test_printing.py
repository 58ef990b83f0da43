"""Printing: :func:`unparse` against the reference printer, node ids
against the expressions they stand for, the text EQUAL's cap, and the
memory printing takes on long inputs.

Printing is one token stream per output (:func:`lleekit.expr._emit`): the
reference printer in ``oracles.py`` built a text per subterm instead.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lleekit.cli as cli
from conftest import load_chart, load_witness
from generators import expressions, random_expression
from oracles import reference_unparse
from test_certificate_golden import PAIRS
from test_chart import SPINES, _nested_stars
from test_elimination_pins import family_n, family_p, family_w
from test_equiv_golden import GOLDEN
from lleekit.bisim import _refine
from lleekit.chart import _explore, _interpreting
from lleekit.cli import run
from lleekit.expr import Action, Plus, Seq, Star, Zero, _emit, _unparse_within, parse, size, unparse
from lleekit.lee import lee_to_llee
from lleekit.solve import _blocks, equiv, extract_solution

A, B, C = Action("a"), Action("b"), Action("c")


class _Forgetful:
    """A mapping for :func:`reference_unparse` that keeps nothing, so the
    reference prints a long chain in linear memory."""

    def get(self, key):
        return None

    def __setitem__(self, key, value):
        pass


@st.composite
def shared_dags(draw):
    """An expression whose operator nodes may be shared by several parents:
    each new node takes two operands from the leaves and the nodes built
    before it, so the tree can be exponentially larger than the DAG."""
    pool = [A, B, C, Zero()]
    for _ in range(draw(st.integers(1, 12))):
        cls = draw(st.sampled_from((Plus, Seq, Star)))
        pool.append(cls(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return pool[-1]


def _assert_prints_as_the_reference(e, printed=None):
    text = unparse(e)
    assert text == reference_unparse(e, printed)
    assert parse(text) == e
    return text


@settings(max_examples=200, deadline=None)
@given(st.one_of(expressions, shared_dags()))
def test_unparse_equals_the_reference_printer(e):
    text = _assert_prints_as_the_reference(e)
    # the capped print of the text EQUAL is the same text up to the cap
    nodes = size(e)
    assert _unparse_within(e, nodes) == text
    if nodes > 1:
        assert _unparse_within(e, nodes - 1) is None


def _sum(n, right_nested=False):
    e = Action("a0")
    for i in range(1, n):
        leaf = Action("a%d" % i)
        e = Plus(leaf, e) if right_nested else Plus(e, leaf)
    return e


def _exit_nested_stars(n):
    e = A
    for _ in range(n):
        e = Star(A, e)
    return e


def _chain(n, right_nested=False):
    e = C
    for _ in range(n - 1):
        e = Seq(C, e) if right_nested else Seq(e, C)
    return e


@pytest.mark.parametrize(
    "make",
    [
        lambda: _sum(3000),
        lambda: _sum(3000, right_nested=True),
        lambda: _nested_stars(1500),
        lambda: _exit_nested_stars(1500),
        lambda: _chain(16000),
        lambda: _chain(16000, right_nested=True),
    ],
    ids=["sum3000", "sum3000_right", "stars1500", "exit_stars1500", "chain16000", "chain16000_right"],
)
def test_unparse_equals_the_reference_printer_on_deep_expressions(make):
    # one explicit stack, under the default recursion limit; the reference
    # keeps no subterm's text here, which on a chain would be quadratic
    _assert_prints_as_the_reference(make(), _Forgetful())


@pytest.mark.parametrize("value", ["a", "", 3, None, (A, B), [A]])
def test_unparse_rejects_a_non_expression(value):
    with pytest.raises(TypeError, match="not an expression"):
        unparse(value)


# --- node ids ----------------------------------------------------------------


def _stands_for(state):
    """The expression a state stands for, rebuilt from its head and its
    continuation as :func:`lleekit.chart.step` rebuilds a target."""
    e, k = state.expr, state.rest
    while k is not None:
        e = Seq(e, k.expr)
        k = k.rest
    return e


def _assert_node_ids(roots):
    for labelled in (False, True):
        x = _explore(roots, None, str, labelled=labelled)
        space = x.space
        expected = [unparse(_stands_for(s)) for s in x.states]
        # alone first, then every state with the roots' text and the
        # suffix cache, then alone again with the cache filled in
        assert [space.name_one(s) for s in x.states] == expected
        assert [space.name(s) for s in x.states] == expected
        assert [space.name_one(s) for s in x.states] == expected
        for r, e in zip(x.roots, roots):
            assert expected[r - x.base] == unparse(e)


def _sweep():
    rng = random.Random(23)
    sweep = [random_expression(rng, rng.randint(1, 15)) for _ in range(200)]
    return sweep + [parse(text) for text in SPINES]


def _golden():
    return [parse(e) for e1, e2, _, _ in GOLDEN for e in (e1, e2)]


def _families():
    out = [parse(family_w(n)) for n in range(1, 9)]
    out += [parse(family_n(n)) for n in range(1, 9)]
    out += [parse(family_p(k)) for k in range(1, 7)]
    out += [_nested_stars(n) for n in range(1, 25)]
    return out


def _fixture_solutions():
    # each witness under fixtures/, layered first when it is not, and the
    # solution it gives: one root per node, sharing their sub-solutions
    out = []
    for chart, witness in [
        ("g", "g_hat"),
        ("h", "h_hat"),
        ("ci", "ci_hat"),
        ("ci", "ci_hat_prime"),
        ("cii", "cii_hat"),
    ]:
        w = load_witness(witness + ".witness", load_chart(chart + ".chart"))
        if not w.replay().llee:
            w = lee_to_llee(w)
        sol = extract_solution(w)
        out.append([sol.assign[x] for x in sorted(sol.assign)])
    return out


@pytest.mark.parametrize("source", [_sweep, _golden, _families], ids=["sweep", "golden", "families"])
def test_node_ids_print_the_expressions_of_one_root(source):
    for e in source():
        _assert_node_ids([e])


def test_node_ids_print_the_expressions_of_several_roots():
    # the roots are printed together, once, and each state's head and
    # operands are slices of that text: shared subterms and equal subterms
    # of different roots included
    _assert_node_ids(_sweep())
    _assert_node_ids(_golden())
    _assert_node_ids(_families())
    for roots in _fixture_solutions():
        _assert_node_ids(roots)
    # certificate solutions whose initial node folds in a loop node's
    # solution, which it shares
    for e1, e2 in PAIRS.values():
        sol = equiv(parse(e1), parse(e2)).certificate.solution
        _assert_node_ids([sol.assign[x] for x in sorted(sol.assign)])


def _spans(roots):
    """``{id: text}`` of the operator nodes that :func:`_emit` records a
    span for when it prints ``roots``."""
    out, starts, ends = [], {}, {}
    _emit(roots[::-1], out, starts, ends)
    assert starts.keys() == ends.keys()
    return {i: "".join(out[starts[i] : ends[i]]) for i in starts}


def test_inner_nodes_of_a_run_get_no_span():
    # a.b.c.d is ((a.b).c).d: only the root is a head or a continuation's
    # operand; its left spine is neither, and is printed without spans
    e = parse("a.b.c.d")
    assert _spans([e]) == {id(e): "a.b.c.d"}


def test_spans_only_where_a_state_reads_them():
    # a state's head or a continuation's operand is a root, a star, or an
    # operand of a "." other than a "." on its left; the operands of a "+"
    # and of a "*" are stepped through, never read, unless they are stars
    e = parse("x.(a.b.c)+(a.b)*(c.d+y.z)+(u+v).w")
    abc, star, sum_ = e.left.left.right, e.left.right, e.right.left
    assert _spans([e]) == {
        id(e): "x.(a.b.c)+(a.b)*(c.d+y.z)+(u+v).w",
        id(abc): "a.b.c",
        id(star): "(a.b)*(c.d+y.z)",
        id(sum_): "u+v",
    }
    # a star under a "+" or a "*" is read, and so are the operands of a "."
    # under it
    e = parse("a+(b*(c.(d+e)))*f")
    star, inner = e.right, e.right.left
    assert _spans([e]) == {
        id(e): "a+(b*(c.(d+e)))*f",
        id(star): "(b*(c.(d+e)))*f",
        id(inner): "b*(c.(d+e))",
        id(inner.right.right): "d+e",
    }
    # a node shared as an inner node of one run and the right operand of
    # another gets the span of the occurrence that reads it
    ab = parse("a.b")
    assert _spans([Seq(ab, C), Seq(C, ab)])[id(ab)] == "a.b"


# --- the text EQUAL's cap ----------------------------------------------------


@pytest.mark.parametrize(
    "e1, e2",
    [
        ("a.b.c.d.e.f.g.h", "a.b.c.d.e.f.g.(h+h)"),
        ("a+b", "b+a"),
        ("(a+b).c", "a.c+b.c"),
        ("a.(b.c+c.b).a", "a.(c.b+b.c).a"),
        (family_n(3), "(b3+a3.((a2.((a1.c0+b1)*c1)+b2)*c2))*c3"),
        (family_p(3), "(x.(y0+z0).(y1+z1).(z2+y2))*0"),
    ],
)
def test_text_equal_passes_at_the_cap_and_fails_past_it(capsys, tmp_path, e1, e2):
    expression = equiv(parse(e1), parse(e2)).certificate.expression
    nodes = size(expression)
    # the state cap bounds the explorations and the solution check too:
    # these stay under it
    assert equiv(parse(e1), parse(e2), cap=nodes - 1).equal
    at = tmp_path / "at"
    assert run(["--cap", str(nodes), "equiv", e1, e2, "--certificate", str(at)]) == 0
    assert capsys.readouterr().out == "EQUAL\n%s\n" % unparse(expression)
    assert sorted(p.name for p in at.iterdir()) == [
        "g1_to_h.map",
        "g2_to_h.map",
        "h.chart",
        "h.solution",
        "h.witness",
    ]
    past = tmp_path / "past"
    for fmt in ("text", "json"):
        argv = ["--cap", str(nodes - 1), "--format", fmt, "equiv", e1, e2, "--certificate", str(past)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the solution has more than %d syntax nodes\n" % (nodes - 1)
        assert not past.exists()


def _dag(levels):
    e = parse("a.b")
    for level in range(levels):
        e = (Plus if level % 2 else Star)(e, e)
    return e


@pytest.mark.parametrize("levels", [4, 9, 64])
def test_text_equal_cap_counts_the_tree_of_a_shared_dag(monkeypatch, capsys, tmp_path, levels):
    # a solution that shares its sub-solutions passes the cap by its tree,
    # however few its distinct nodes.  The text stops printing at the cap:
    # the tree of 64 levels has about 2^66 nodes and would never print
    dag = _dag(levels)
    answer = cli.equiv

    def equiv_with_dag(e1, e2, cap=None):
        res = answer(e1, e2, cap=cap)
        res.certificate.expression = dag
        return res

    monkeypatch.setattr(cli, "equiv", equiv_with_dag)
    cap = 1000
    if levels == 4:
        assert size(dag) <= cap
        assert run(["--cap", str(cap), "equiv", "a", "a+a"]) == 0
        assert capsys.readouterr().out == "EQUAL\n%s\n" % unparse(dag)
        return
    for fmt in ("text", "json"):
        cert = tmp_path / fmt
        assert run(["--cap", str(cap), "--format", fmt, "equiv", "a", "a+a", "--certificate", str(cert)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the solution has more than %d syntax nodes\n" % cap
        assert not cert.exists()


# --- memory on long inputs ---------------------------------------------------


def _traced_peak(call):
    """The peak of memory traced while ``call`` runs, in bytes, and its
    result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_unparse_memory_is_linear_in_the_text():
    # a text per subterm held every prefix of the chain: 257 MB at 16000
    # actions, about 8000 bytes per character; one token stream holds a
    # token and a stack entry per node and the text, about 13
    text = ".".join(["c"] * 16000)
    e = parse(text)
    peak, printed = _traced_peak(lambda: unparse(e))
    assert printed == text
    assert peak < 32 * len(text)


def _star_chains(n):
    chain = ".".join(["c"] * n)
    return "(%s)*x" % chain, "(%s)*y" % chain


def test_not_equal_naming_memory_is_linear_at_16000_actions():
    # the two block lines name the two roots, each a star over a chain of
    # 16000 actions: printed alone as one token stream, about 7 bytes per
    # character of input, where a text per subterm took 8000
    e1, e2 = (parse(t) for t in _star_chains(16000))
    x1 = _explore([e1], None, _interpreting, labelled=True)
    x2 = _explore([e2], None, _interpreting, base=len(x1.states))
    block = _refine(x1.out + x2.out, x1.term + x2.term)
    b1, b2 = block[x1.roots[0]], block[x2.roots[0]]
    peak, blocks = _traced_peak(lambda: _blocks(b1, b2, block, (("g:", x1), ("h:", x2))))
    assert blocks == ({"g:" + unparse(e1)}, {"h:" + unparse(e2)})
    assert peak < 32 * (len(unparse(e1)) + len(unparse(e2)))


def test_not_equal_through_the_command_line_memory_is_linear(capsys):
    # the whole query, exploration and refinement included, at 4000 actions
    # (tracing slows refinement's many small allocations about thirtyfold,
    # so 16000 actions would take seconds): about 490 bytes per character
    # of input, where a text per subterm took 2300 here and 8300 at 16000
    e1, e2 = _star_chains(4000)
    peak, code = _traced_peak(lambda: run(["equiv", e1, e2]))
    assert code == 1
    assert capsys.readouterr().out == "NOT_EQUAL\nblock1: g:%s\nblock2: h:%s\n" % (e1, e2)
    assert peak < 1000 * (len(e1) + len(e2))


def test_equal_on_nested_loops_names_nothing_and_stays_linear(capsys):
    # a text EQUAL on N(400) prints the first input and names no state: a
    # state at depth d prints the d stars around it, so naming every state
    # held about 105 000 bytes per character of input (680 MB); without
    # names it takes about 220
    e1 = family_n(400)
    e2 = e1 + "+0"
    peak, code = _traced_peak(lambda: run(["equiv", e1, e2]))
    assert code == 0
    assert capsys.readouterr().out == "EQUAL\n%s\n" % e1
    assert peak < 500 * (len(e1) + len(e2))
