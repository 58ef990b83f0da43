"""Extraction on every small chart.

Every chart rooted at ``n0`` on the nodes ``n0 … n2`` over ``{a}``, and on
``n0, n1`` over ``{a, b}``, is built.  Each one the witness search
accepts is given a layered witness, the search's own or its layering.
Extraction must pass the equation-by-equation check, and it must agree,
byte for byte, with the reference extraction that finds the order of the
loops by itself (:func:`oracles.reference_unfolded_solution`) at every
node some transition enters.  Only a node that no transition enters may
be folded over its loop nodes.
"""

import itertools

import pytest

from oracles import reference_unfolded_solution
from lleekit.chart import TERMINATION, Chart, Transition
from lleekit.expr import unparse
from lleekit.lee import find_lee_witness, is_llee_witness, lee_to_llee
from lleekit.solve import _provable_check, extract_solution


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
        assert _provable_check(sol) == [], c.to_text()
        ref = reference_unfolded_solution(w)
        for x in {t.dst for t in c.transitions if not t.terminal}:
            assert unparse(sol[x]) == unparse(ref[x]), (c.to_text(), x)
    assert counts == [rooted, lee]
