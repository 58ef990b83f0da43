"""Extraction, reflection and certificates on every small input.

Every chart rooted at ``n0`` on the nodes ``n0 … n2`` over ``{a}``, and on
``n0, n1`` over ``{a, b}``, is built.  Each one the witness search
accepts is given a layered witness, the search's own or its layering.
Extraction must pass the equation-by-equation check, and it must agree,
byte for byte, with the reference extraction that finds the order of the
loops by itself (:func:`oracles.reference_unfolded_solution`) at every
node some transition enters.  Only a node that no transition enters may
be folded over its loop nodes.  The equation-by-equation check and the
generator kernel it replaced (:func:`oracles.reference_provable_check`)
must both pass it.  On each such chart that is its own
collapse, the witness reflected through the collapse must replay
layered, and extraction from it must agree with extraction from the
witness itself up to bisimilarity.

Every expression over ``a``, ``b`` and ``0`` with at most 5 syntax nodes
whose chart is its own collapse is certified against itself ``+0`` by
its own witness and state expressions, and prints as itself.
"""

import itertools

import pytest

from oracles import (
    brute_interpret,
    naive_bisimilarity_pairs,
    reference_provable_check,
    reference_unfolded_solution,
)
from test_solve import reflected_route
from lleekit.bisim import collapse
from lleekit.chart import TERMINATION, Chart, Transition, interpret
from lleekit.cli import run
from lleekit.expr import Action, Plus, Seq, Star, Zero, unparse
from lleekit.lee import find_lee_witness, is_llee_witness, lee_to_llee
from lleekit.solve import _provable_check, equiv, extract_solution


def _rooted_charts(nodes, actions):
    """Every chart on ``nodes`` with initial node ``n0`` that reaches every
    node, each transition over ``actions`` to a node or to √ present or
    not."""
    names = ["n%d" % i for i in range(nodes)]
    candidates = [
        Transition(x, a, d) for x in names for a in actions for d in names + [TERMINATION]
    ]
    for present in itertools.product((False, True), repeat=len(candidates)):
        ts = [t for t, p in zip(candidates, present) if p]
        try:
            yield Chart(ts, nodes=names, initial="n0")
        except ValueError:
            # a node that n0 does not reach
            pass


@pytest.mark.parametrize(
    "nodes,actions,rooted,lee",
    [(3, "a", 2048, 1168), (2, "ab", 3072, 1776)],
    ids=["3-nodes-a", "2-nodes-ab"],
)
def test_extraction_on_every_small_chart(nodes, actions, rooted, lee):
    counts = [0, 0]
    for c in _rooted_charts(nodes, actions):
        counts[0] += 1
        w = find_lee_witness(c)
        if w is None:
            continue
        counts[1] += 1
        if not is_llee_witness(w):
            w = lee_to_llee(w)
        sol = extract_solution(w)
        assert _provable_check(sol) == [] == reference_provable_check(sol), c.to_text()
        ref = reference_unfolded_solution(w)
        for x in {t.dst for t in c.transitions if not t.terminal}:
            assert unparse(sol[x]) == unparse(ref[x]), (c.to_text(), x)
    assert counts == [rooted, lee]


def _bisimilar(e, f):
    g, h = brute_interpret(e), brute_interpret(f)
    return (g.initial, h.initial) in naive_bisimilarity_pairs(g, h)


@pytest.mark.parametrize(
    "nodes,actions,collapsed",
    [(3, "a", 756), (2, "ab", 1656)],
    ids=["3-nodes-a", "2-nodes-ab"],
)
def test_reflection_on_every_small_collapsed_chart(nodes, actions, collapsed):
    count = 0
    for c in _rooted_charts(nodes, actions):
        w = find_lee_witness(c)
        if w is None:
            continue
        res = collapse(c)
        h = res.chart
        if len(h.names) != len(c.names):
            continue
        count += 1
        if not is_llee_witness(w):
            w = lee_to_llee(w)
        theta = [h.ids[res.theta(x)] for x in c.names]
        reflected = reflected_route(h, theta, w)
        own = extract_solution(w)
        assert _provable_check(own) == [], c.to_text()
        assert _bisimilar(own[c.initial], reflected[h.initial]), c.to_text()
    assert count == collapsed


def _expressions(budget):
    """Every expression over ``a``, ``b`` and ``0`` with at most ``budget``
    syntax nodes, by size."""
    by_size = {1: [Action("a"), Action("b"), Zero()]}
    for n in range(3, budget + 1, 2):
        by_size[n] = [
            op(left, right)
            for op in (Plus, Seq, Star)
            for k in range(1, n - 1, 2)
            for left in by_size[k]
            for right in by_size[n - 1 - k]
        ]
    return [e for n in sorted(by_size) for e in by_size[n]]


def test_every_small_collapsed_expression_prints_as_itself(capsys):
    count = 0
    for e in _expressions(5):
        g = interpret(e)
        if len(collapse(g).chart.names) != len(g.names):
            continue
        count += 1
        text = unparse(e)
        assert run(["equiv", text, text + "+0"]) == 0
        assert capsys.readouterr().out == "EQUAL\n%s\n" % text
        assert _provable_check(equiv(e, Plus(e, Zero())).certificate.solution) == []
    assert count == 474
