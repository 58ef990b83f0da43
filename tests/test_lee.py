"""Loop sub-charts, witnesses, replay, witness search, and layering."""

import itertools
import random
import sys

import pytest

from generators import random_chart, random_expression
from oracles import (
    _gc,
    brute_generated_transitions,
    brute_is_loop_chart,
    brute_max_entry_set,
    brute_expression_witness,
    brute_interpret,
    brute_replay,
    brute_simple_cycles,
    exhaustive_lee_search,
    reference_closure,
    reference_loops_back,
)
import lleekit.lee
from lleekit.chart import Chart, TERMINATION, Transition, chart_of_nodes, interpret
from lleekit.errors import (
    EmptyEntrySet,
    InvalidWitness,
    NotALoopChart,
    NotLEE,
    NotLLEE,
    ParseError,
    UnknownNode,
)
from lleekit.lee import (
    LoopingBackChart,
    ReplayStep,
    Witness,
    all_looping_back_charts,
    check_lbc_properties,
    eliminate,
    expression_witness,
    find_lee_witness,
    generated_chart,
    is_llee_witness,
    is_loop_chart,
    lee_to_llee,
    looping_back_chart,
    loops_back_to,
    max_entry_set,
)
from lleekit.expr import parse, unparse

T = Transition

TOGGLE = Chart(
    [T("X", "a", "Y"), T("Y", "a", "X"), T("X", "b", TERMINATION), T("Y", "c", TERMINATION)]
)


def _zero_witness(chart):
    return Witness(chart, {t: 0 for t in chart.transitions if not t.terminal})


# --- generated sub-charts ---------------------------------------------------


def test_generated_chart_self_loop(chart_g):
    gen = generated_chart(chart_g, "x'", [T("x'", "a", "x'")])
    assert gen.nodes == {"x'"}
    assert set(gen.transitions) == {T("x'", "a", "x'")}
    assert not gen.is_induced
    assert gen.start == "x'"
    # its own transitions from x', not the parent's two; x is not its node
    assert gen.out("x'") == (T("x'", "a", "x'"),)
    with pytest.raises(UnknownNode):
        gen.out("x")


def test_generated_chart_continuation(chart_g):
    gen = generated_chart(chart_g, "x'", [T("x'", "a", "x'"), T("x'", "b", "x")])
    assert gen.nodes == {"x", "x'"}
    assert set(gen.transitions) == set(chart_g.transitions)


def test_generated_chart_ci(chart_ci):
    gen = generated_chart(chart_ci, "X", [T("X", "b1", "Z")])
    assert gen.nodes == {"X", "Z", "Y", "K"}
    assert set(gen.transitions) == set(chart_ci.transitions)


def test_generated_chart_includes_continuation_terminals():
    g = Chart([T("X", "a", "Y"), T("Y", "b", TERMINATION), T("Y", "c", "X")])
    gen = generated_chart(g, "X", [T("X", "a", "Y")])
    assert T("Y", "b", TERMINATION) in set(gen.transitions)
    assert not is_loop_chart(gen, "X")


def test_generated_chart_errors(chart_g):
    with pytest.raises(EmptyEntrySet):
        generated_chart(chart_g, "x", [])
    with pytest.raises(UnknownNode):
        generated_chart(chart_g, "nope", [T("x", "a", "x'")])
    with pytest.raises(UnknownNode):
        generated_chart(chart_g, "x", [T("x", "c", "x'")])  # not a transition
    with pytest.raises(ValueError):
        generated_chart(chart_g, "x", [T("x'", "a", "x'")])  # wrong source


def test_generated_chart_vs_brute():
    rng = random.Random(43)
    checked = 0
    while checked < 150:
        g = random_chart(rng, max_nodes=5)
        for node in sorted(g.nodes):
            outs = [t for t in g.out(node) if not t.terminal]
            if not outs:
                continue
            entries = rng.sample(outs, rng.randint(1, len(outs)))
            gen = generated_chart(g, node, entries)
            assert set(gen.transitions) == brute_generated_transitions(
                g.transitions, node, entries
            )
            assert is_loop_chart(gen, node) == brute_is_loop_chart(
                set(gen.transitions), node
            )
            checked += 1


# --- loop conditions --------------------------------------------------------


def _assert_closures_agree(g):
    # every start and every set of its live targets, duplicates and the
    # start itself included
    for x in sorted(g.nodes):
        targets = [g._dst[k] for k in g.out(x) if g._dst[k] is not None]
        for size in range(1, len(targets) + 1):
            for chosen in itertools.combinations(targets, size):
                assert g.closure(x, list(chosen)) == reference_closure(g, x, chosen), (x, chosen)


def test_closure_vs_reference():
    # the one walk gives the body, (L1) and (L2)/(L3) that the four passes
    # gave, on whole charts and between the steps of elimination runs
    rng = random.Random(23)
    for _ in range(300):
        c = random_chart(rng, max_nodes=7, rooted=rng.random() < 0.5)
        g = lleekit.lee._Graph(c, lleekit.lee._roots(c))
        _assert_closures_agree(g)
        for _ in range(3):
            live = [k for x in sorted(g.nodes) for k in g.out(x) if g._dst[k] is not None]
            if not live:
                break
            k = rng.choice(live)
            g.remove(c.src[k], [k])
            _assert_closures_agree(g)


def test_is_loop_chart_fixture_cases(chart_g, chart_ci):
    both = generated_chart(chart_g, "x'", [T("x'", "a", "x'"), T("x'", "b", "x")])
    assert is_loop_chart(both, "x'")
    # x' keeps a self-loop that avoids x: L2 fails
    half = generated_chart(chart_g, "x", [T("x", "a", "x'")])
    assert not is_loop_chart(half, "x")
    assert is_loop_chart(chart_of_nodes(chart_ci, chart_ci.nodes, start="Z"), "Z")
    assert not is_loop_chart(chart_of_nodes(chart_ci, chart_ci.nodes, start="X"), "X")
    with pytest.raises(UnknownNode):
        is_loop_chart(chart_of_nodes(chart_ci, {"Z"}), "X")


def test_is_loop_chart_no_cycle(chart_ci):
    assert not is_loop_chart(chart_of_nodes(chart_ci, {"X"}, start="X"), "X")


def test_induced_loop_chart_ignores_start_terminals():
    g = interpret(parse("a*b"))
    sub = chart_of_nodes(g, {"a*b"}, start="a*b")
    # the start's own exit to √ does not disqualify the loop
    assert is_loop_chart(sub, "a*b")
    assert not is_loop_chart(chart_of_nodes(TOGGLE, {"X", "Y"}, start="X"), "X")


# --- elimination ------------------------------------------------------------


def test_eliminate(chart_g):
    after = eliminate(
        chart_g, "x'", [T("x'", "a", "x'"), T("x'", "b", "x")], roots={"x"}
    )
    assert after == Chart(
        [T("x", "a", "x'"), T("x", "b", "x'")], nodes={"x", "x'"}, initial="x"
    )
    assert not after.has_cycle()


def test_eliminate_not_a_loop(chart_g):
    with pytest.raises(NotALoopChart):
        eliminate(chart_g, "x", [T("x", "a", "x'")], roots={"x"})
    # an entry to √ never returns to the start
    c = Chart([T("X", "a", "X"), T("X", "b", TERMINATION)])
    with pytest.raises(NotALoopChart):
        eliminate(c, "X", [T("X", "b", TERMINATION)], roots={"X"})


def test_eliminate_garbage_collects(chart_ci):
    after = eliminate(
        chart_ci,
        "Z",
        [T("Z", "a1", "Z"), T("Z", "a3", "Y")],
        roots={"Z"},
    )
    # Y became unreachable, so its transition disappears
    assert after.nodes == {"Z", "X", "K"}
    assert T("Y", "d1", "Z") not in after.transitions


# --- maximal entry sets -----------------------------------------------------


def test_max_entry_set_fixture_values(chart_g, chart_ci, chart_cii):
    assert max_entry_set(chart_g, "x'") == {T("x'", "a", "x'"), T("x'", "b", "x")}
    assert max_entry_set(chart_g, "x") == frozenset()
    assert max_entry_set(chart_ci, "Z") == {
        T("Z", "a1", "Z"),
        T("Z", "a2", "X"),
        T("Z", "a3", "Y"),
        T("Z", "a4", "K"),
    }
    assert max_entry_set(chart_ci, "X") == frozenset()
    for node in ("z", "x", "x'", "y", "k"):
        assert max_entry_set(chart_cii, node) == frozenset()
    assert max_entry_set(chart_cii, "z'") == {T("z'", "a2", "x'")}
    assert max_entry_set(chart_cii, "z''") == {
        T("z''", "a1", "z''"),
        T("z''", "a3", "y"),
    }


def test_max_entry_set_vs_brute():
    rng = random.Random(47)
    for _ in range(200):
        g = random_chart(rng, max_nodes=6)
        for node in sorted(g.nodes):
            assert max_entry_set(g, node) == brute_max_entry_set(g, node)


def test_max_entry_set_generates_loop_chart():
    # whenever the maximal entry set is non-empty it spans a loop sub-chart
    rng = random.Random(53)
    for _ in range(200):
        g = random_chart(rng, max_nodes=6)
        for node in sorted(g.nodes):
            entries = max_entry_set(g, node)
            if entries:
                assert is_loop_chart(generated_chart(g, node, entries), node)


# --- witness well-formedness ------------------------------------------------


def test_witness_validation(chart_g):
    order = {t: 0 for t in chart_g.transitions}
    del order[T("x", "a", "x'")]
    with pytest.raises(InvalidWitness):
        Witness(chart_g, order)  # missing a transition
    order = {t: 0 for t in chart_g.transitions}
    order[T("x", "c", "x'")] = 0
    with pytest.raises(InvalidWitness):
        Witness(chart_g, order)  # spurious transition
    order = {t: 0 for t in chart_g.transitions}
    order[T("x", "a", "x'")] = -1
    with pytest.raises(InvalidWitness):
        Witness(chart_g, order)
    order = {t: 0 for t in chart_g.transitions}
    order[T("x", "a", "x'")] = 2
    with pytest.raises(InvalidWitness):
        Witness(chart_g, order)  # positive orders must be 1..m
    order = {t: 0 for t in chart_g.transitions}
    order[T("x", "a", "x'")] = 1.5
    with pytest.raises(InvalidWitness):
        Witness(chart_g, order)
    order = {t: 0 for t in chart_g.transitions}
    order[T("x", "a", "x'")] = True
    with pytest.raises(InvalidWitness):
        Witness(chart_g, order)  # a bool is no order number


def test_witness_accessors(witness_ci_hat):
    w = witness_ci_hat
    assert w.max_order == 3
    assert w.entries() == (
        T("X", "b1", "Z"),
        T("Z", "a1", "Z"),
        T("Z", "a2", "X"),
        T("Z", "a3", "Y"),
    )
    assert w.entries("Z") == (T("Z", "a1", "Z"), T("Z", "a2", "X"), T("Z", "a3", "Y"))
    assert w.body_transitions() == (
        T("K", "d2", "X"),
        T("Y", "d1", "Z"),
        T("Z", "a4", "K"),
    )


def test_witness_text_roundtrip(chart_ci, witness_ci_hat):
    again = Witness.from_text(witness_ci_hat.to_text(), chart_ci)
    assert again == witness_ci_hat
    assert Witness.from_json(witness_ci_hat.to_json()) == witness_ci_hat
    assert witness_ci_hat.to_json_dict()["v"] == 1


@pytest.mark.parametrize(
    "text",
    [
        "X a Y 1\n",
        "witness v2\n",
        "witness v1\nX a Y\n",
        "witness v1\nX b ! 1\n",
        "witness v1\nX a X 1\nY a X 0\n",
        "witness v1\nX a Y 0\nX a Y 0\nY a X 0\n",
        "witness v1\nX a Y q\nY a X 0\n",
    ],
)
def test_witness_from_text_errors(text):
    with pytest.raises(ParseError):
        Witness.from_text(text, TOGGLE)


def test_witness_to_dot(witness_ci_hat):
    dot = witness_ci_hat.to_dot()
    assert "[3]" in dot and "#b40000" in dot


# --- replay -----------------------------------------------------------------


def test_replay_g_hat(witness_g_hat):
    rep = witness_g_hat.replay()
    assert rep.ok and rep.llee
    assert rep.steps == (
        ReplayStep(1, "x'", (T("x'", "a", "x'"),), frozenset()),
        ReplayStep(2, "x", (T("x", "a", "x'"), T("x", "b", "x'")), frozenset({"x'"})),
    )
    assert rep.final.nodes == {"x"}
    assert not rep.final.transitions
    assert witness_g_hat.is_lee
    assert is_llee_witness(witness_g_hat)


def test_replay_h_hat(witness_h_hat):
    rep = witness_h_hat.replay()
    assert rep.ok and rep.llee
    assert len(rep.steps) == 1
    assert rep.steps[0].start == "X"


def test_replay_ci_hat_not_layered(witness_ci_hat):
    rep = witness_ci_hat.replay()
    assert rep.ok and not rep.llee
    assert [s.start for s in rep.steps] == ["Z", "Z", "X"]
    assert [s.body for s in rep.steps] == [
        frozenset({"Y"}),
        frozenset({"X"}),
        frozenset({"Z", "K"}),
    ]
    assert "step 3" in rep.llee_reason and "X" in rep.llee_reason
    assert not is_llee_witness(witness_ci_hat)


def test_replay_ci_hat_prime_layered(witness_ci_hat_prime):
    rep = witness_ci_hat_prime.replay()
    assert rep.ok and rep.llee
    assert is_llee_witness(witness_ci_hat_prime)


def test_replay_cii_hat_layered(witness_cii_hat):
    rep = witness_cii_hat.replay()
    assert rep.ok and rep.llee
    assert is_llee_witness(witness_cii_hat)


def test_replay_garbage_collected_entry(chart_ci):
    w = Witness(
        chart_ci,
        {
            T("Z", "a1", "Z"): 1,
            T("Z", "a3", "Y"): 1,
            T("Y", "d1", "Z"): 2,
            T("Z", "a2", "X"): 3,
            T("X", "b1", "Z"): 4,
            T("Z", "a4", "K"): 0,
            T("K", "d2", "X"): 0,
        },
    )
    rep = w.replay()
    assert not rep.ok
    assert "garbage-collected" in rep.reason
    assert len(rep.steps) == 1
    with pytest.raises(InvalidWitness):
        is_llee_witness(w)


def test_replay_entries_not_a_loop():
    w = Witness(TOGGLE, {T("X", "a", "Y"): 1, T("Y", "a", "X"): 0})
    rep = w.replay()
    assert not rep.ok
    assert "do not span a loop sub-chart" in rep.reason


def test_replay_surviving_cycle(chart_g):
    rep = _zero_witness(chart_g).replay()
    assert not rep.ok
    assert "cycle survives" in rep.reason


def _rename_tokens(text, mapping):
    lines = []
    for line in text.splitlines():
        parts = line.split()
        lines.append(" ".join(mapping.get(p, p) for p in parts))
    return "\n".join(lines) + "\n"


def test_replay_defers_blocked_group():
    # same shape as the two-level chart fixture, renamed so that the group
    # whose sub-chart only becomes a loop chart after its sibling is gone
    # comes FIRST in node order: the replay must defer and retry it
    mapping = {
        "z": "aa", "z'": "ab", "z''": "ac",
        "x": "ba", "x'": "bb", "y": "ca", "k": "da",
    }
    from conftest import fixture_path

    chart = Chart.from_text(_rename_tokens(fixture_path("cii.chart").read_text(), mapping))
    w = Witness.from_text(
        _rename_tokens(fixture_path("cii_hat.witness").read_text(), mapping), chart
    )
    rep = w.replay()
    assert rep.ok and rep.llee
    # order 2 runs the blocked group second despite its start sorting first
    order2 = [s.start for s in rep.steps if s.order == 2]
    assert order2 == ["ba", "aa"]


def _replay_outcome(w):
    """A replay in the oracle's shape."""
    rep = w.replay()
    final = None
    if rep.final is not None:
        assert rep.final.initial == w.chart.initial
        final = (rep.final.nodes, rep.final.transitions)
    steps = tuple((s.order, s.start, s.entries, s.body) for s in rep.steps)
    return (rep.ok, rep.reason, steps, final, rep.llee, rep.llee_reason)


def _compact(order):
    """Renumber the positive orders of a map to 1..m, keeping their order."""
    used = sorted(set(k for k in order.values() if k > 0))
    rank = {k: i for i, k in enumerate(used, start=1)}
    return {t: rank.get(k, 0) for t, k in order.items()}


def _nonterminal(chart):
    # sorted, so the draws below do not depend on the string hash seed
    return sorted((t for t in chart.transitions if not t.terminal), key=Transition.sort_key)


def _random_order(rng, chart):
    top = rng.randint(1, 4)
    return _compact({t: rng.randint(0, top) for t in _nonterminal(chart)})


def _random_run(rng, chart):
    """Orders of a random elimination run, and the same with steps merged.

    Each step takes a random set of still unordered transitions of one node
    and is kept when the oracle replays it as one more step; merging steps
    ``2i-1`` and ``2i`` into order ``i`` makes same-order groups, which may
    or may not still replay.
    """
    order = {t: 0 for t in _nonterminal(chart)}
    steps = 0
    for _ in range(10):
        free = [t for t, k in order.items() if k == 0]
        if not free:
            break
        x = rng.choice(free).src
        outs = [t for t in free if t.src == x]
        trial = dict(order)
        for t in rng.sample(outs, rng.randint(1, len(outs))):
            trial[t] = steps + 1
        if len(brute_replay(chart, trial)[2]) == steps + 1:
            order = trial
            steps += 1
    return order, {t: (k + 1) // 2 for t, k in order.items()}


def _orders_for(rng, chart):
    orders = [_random_order(rng, chart) for _ in range(3)]
    orders.extend(_random_run(rng, chart))
    found = find_lee_witness(chart)
    if found is not None:
        orders.append(found.order)
        orders.append(lee_to_llee(found).order)
    return orders


def test_replay_vs_brute(chart_g, chart_h, chart_ci, chart_cii, witness_cii_hat):
    # the working graph collects garbage only inside each eliminated body;
    # the oracle rebuilds and collects the whole chart after every step
    rng = random.Random(67)
    cases = []
    for i in range(240):
        chart = random_chart(rng, max_nodes=7, rooted=(i % 2 == 0))
        cases.extend((chart, order) for order in _orders_for(rng, chart))
    # on the fixtures, random runs are often not layered, and same-order
    # groups often collect each other's start
    for chart in (chart_g, chart_h, chart_ci, chart_cii):
        for _ in range(40):
            cases.extend((chart, order) for order in _orders_for(rng, chart))
    cases.append((chart_cii, witness_cii_hat.order))
    outcomes = set()
    for chart, order in cases:
        expected = brute_replay(chart, order)
        assert _replay_outcome(Witness(chart, order)) == expected, (chart.to_text(), order)
        ok, reason, _, _, llee, _ = expected
        outcomes.add("collected" if reason and reason.endswith("an earlier step") else (ok, llee))
    assert outcomes == {"collected", (False, False), (True, False), (True, True)}


# --- witness search ---------------------------------------------------------


def test_find_lee_witness_g(chart_g):
    w = find_lee_witness(chart_g)
    assert w.order == {
        T("x'", "a", "x'"): 1,
        T("x'", "b", "x"): 1,
        T("x", "a", "x'"): 0,
        T("x", "b", "x'"): 0,
    }
    assert is_llee_witness(w)
    assert find_lee_witness(chart_g) == w  # deterministic


def test_find_lee_witness_ci(chart_ci):
    w = find_lee_witness(chart_ci)
    assert w.order == {
        T("Z", "a1", "Z"): 1,
        T("Z", "a2", "X"): 1,
        T("Z", "a3", "Y"): 1,
        T("Z", "a4", "K"): 1,
        T("X", "b1", "Z"): 0,
        T("Y", "d1", "Z"): 0,
        T("K", "d2", "X"): 0,
    }
    assert is_llee_witness(w)


def test_find_lee_witness_none():
    # the alternating loop with exits: no elimination sequence exists
    assert find_lee_witness(TOGGLE) is None
    assert not exhaustive_lee_search(TOGGLE)


def test_find_lee_witness_vs_exhaustive():
    # one greedy pass answers as the search over every elimination sequence
    rng = random.Random(59)
    found = 0
    for i in range(3000):
        g = random_chart(rng, max_nodes=9, alphabet=("a", "b", "c"), rooted=(i % 3 == 0))
        w = find_lee_witness(g)
        assert (w is not None) == exhaustive_lee_search(g), g.to_text()
        if w is not None:
            assert w.is_lee
            found += 1
    # both answers occur often
    assert 300 < found < 2700


def _dead_end_chart(k):
    """A chain ``x0 … x{k-1}`` of self-looping nodes, each stepping by ``b``
    to the next and the last into the two-node loop with exits, which has
    no witness."""
    lines = ["chart v1", "init x0"]
    for i in range(k):
        lines.append("x%d a x%d" % (i, i))
        lines.append("x%d b %s" % (i, "x%d" % (i + 1) if i + 1 < k else "X"))
    lines.extend(["X a Y", "Y a X", "X b !", "Y c !"])
    return Chart.from_text("\n".join(lines) + "\n")


def test_find_lee_witness_stops_at_the_first_dead_end(monkeypatch):
    # one pass stops at its first dead end, after at most k+3 steps that
    # each scan at most k+3 nodes
    k = 14
    calls = []
    max_entries = lleekit.lee._max_entries
    monkeypatch.setattr(
        lleekit.lee, "_max_entries", lambda g, x: calls.append(x) or max_entries(g, x)
    )
    assert find_lee_witness(_dead_end_chart(k)) is None
    assert 0 < len(calls) <= (k + 3) ** 2


def test_find_lee_witness_without_recursion():
    # 150 elimination steps, one per factor, within a recursion limit of 120
    chart = interpret(parse(".".join(["(a*b)"] * 150)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        w = find_lee_witness(chart)
    finally:
        sys.setrecursionlimit(limit)
    assert w is not None and w.max_order == 150
    assert w.is_lee


def test_interpreted_expressions_always_have_witnesses():
    rng = random.Random(61)
    for _ in range(60):
        e = random_expression(rng, rng.randint(1, 14))
        w = find_lee_witness(interpret(e))
        assert w is not None and w.is_lee


# --- the witness an expression carries ---------------------------------------


def _orders(w):
    return {(t.src, t.action, t.dst): n for t, n in w.order.items() if n > 0}


@pytest.mark.parametrize(
    "text,orders",
    [
        ("a*b", {("a*b", "a", "a*b"): 1}),
        # the inner loop is order 1, the outer one order 2; the inner exit
        # back to the outer loop is a body transition
        (
            "(a*b)*c",
            {
                ("a*b.(a*b)*c", "a", "a*b.(a*b)*c"): 1,
                ("(a*b)*c", "a", "a*b.(a*b)*c"): 2,
                ("(a*b)*c", "b", "(a*b)*c"): 2,
            },
        ),
        ("(a.b)*c.d", {("(a.b)*c.d", "a", "b.(a.b)*c.d"): 1}),
        # the step of the star under + is not an entry; the star state's is
        ("a*b+c", {("a*b", "a", "a*b"): 1}),
        # a body that cannot terminate never returns: no entries at all
        ("(a.0)*b", {}),
    ],
)
def test_expression_witness_orders(text, orders):
    w = expression_witness(parse(text))
    assert w.chart == interpret(parse(text))
    assert _orders(w) == orders
    assert is_llee_witness(w)


def test_expression_witness_vs_brute():
    # the labelling rule applied to whole expressions, step by step, gives
    # the same chart and orders as the labels read off during exploration;
    # every such witness replays layered, also by the rebuilding replay
    rng = random.Random(71)
    for _ in range(300):
        e = random_expression(rng, rng.randint(1, 16))
        w = expression_witness(e)
        assert w.chart == brute_interpret(e)
        assert w.order == brute_expression_witness(e), unparse(e)
        ok, _, _, _, llee, _ = brute_replay(w.chart, w.order)
        assert ok and llee, unparse(e)
        assert is_llee_witness(w)


# --- looping-back structure -------------------------------------------------


def test_loops_back_to_g_hat(witness_g_hat):
    direct, closure = loops_back_to(witness_g_hat)
    assert direct == {("x", "x'")}
    assert closure == {("x", "x'")}


def test_loops_back_to_cii_hat(witness_cii_hat):
    direct, closure = loops_back_to(witness_cii_hat)
    assert direct == {
        ("z", "z'"), ("z", "x"), ("z", "y"), ("z", "k"), ("z", "z''"),
        ("x", "z''"), ("x", "k"),
        ("z'", "x'"),
        ("z''", "y"),
    }
    assert closure == direct | {("z", "x'"), ("x", "y")}


def test_loops_back_to_needs_layering(witness_ci_hat):
    with pytest.raises(NotLLEE):
        loops_back_to(witness_ci_hat)


def test_looping_back_charts_g_hat(witness_g_hat):
    lbcs = all_looping_back_charts(witness_g_hat)
    assert sorted(lbcs) == ["x", "x'"]
    assert lbcs["x"].nodes == {"x", "x'"}
    assert lbcs["x"].body == {"x'"}
    assert lbcs["x'"].nodes == {"x'"}
    assert lbcs["x'"].chart.has_cycle()
    with pytest.raises(UnknownNode):
        looping_back_chart(witness_g_hat, "nope")


def test_looping_back_charts_cii_hat(witness_cii_hat):
    lbcs = all_looping_back_charts(witness_cii_hat)
    assert sorted(lbcs) == ["x", "z", "z'", "z''"]
    assert lbcs["z"].nodes == {"z", "z'", "z''", "x", "x'", "y", "k"}
    assert lbcs["x"].nodes == {"x", "z''", "k", "y"}
    assert lbcs["z'"].nodes == {"z'", "x'"}
    assert lbcs["z''"].nodes == {"z''", "y"}


def test_looping_back_chart_of_one_node(witness_cii_hat):
    lbc = looping_back_chart(witness_cii_hat, "x")
    assert lbc == all_looping_back_charts(witness_cii_hat)["x"]
    assert lbc.start == "x" and lbc.nodes == {"x", "z''", "k", "y"}
    # k has no entries, so it has no looping-back chart
    assert looping_back_chart(witness_cii_hat, "k") is None


def test_looping_back_charts_ci_hat_prime(witness_ci_hat_prime):
    lbcs = all_looping_back_charts(witness_ci_hat_prime)
    assert sorted(lbcs) == ["Z"]
    assert lbcs["Z"].nodes == {"Z", "X", "Y", "K"}


def _assert_loops_match_reference(w):
    direct, below, lbcs = w._loops
    ref_direct, ref_below, ref_lbcs = reference_loops_back(w)
    assert list(direct) == ref_direct, w.to_text()
    assert list(below) == ref_below, w.to_text()
    assert list(lbcs.items()) == list(ref_lbcs.items()), w.to_text()


def test_loops_read_off_the_replay_fixtures(
    witness_g_hat, witness_h_hat, witness_ci_hat_prime, witness_cii_hat
):
    for w in (witness_g_hat, witness_h_hat, witness_ci_hat_prime, witness_cii_hat):
        _assert_loops_match_reference(w)


def test_loops_read_off_the_replay_random():
    # layered runs on random charts, the layering of found witnesses, and
    # the witnesses of random expressions; the runs must include starts
    # with entries of several orders and orders with several starts
    rng = random.Random(89)
    witnesses = []
    for i in range(300):
        chart = random_chart(rng, max_nodes=7, rooted=(i % 2 == 0))
        for order in _orders_for(rng, chart):
            w = Witness(chart, order)
            if w.is_lee and is_llee_witness(w):
                witnesses.append(w)
    for _ in range(200):
        witnesses.append(expression_witness(random_expression(rng, rng.randint(1, 18))))
    several_orders = same_order = 0
    for w in witnesses:
        _assert_loops_match_reference(w)
        starts = {}
        for s in w._replayed.steps:
            starts.setdefault(s[1], set()).add(s[0])
        several_orders += any(len(orders) > 1 for orders in starts.values())
        step_orders = [s[0] for s in w._replayed.steps]
        same_order += len(set(step_orders)) < len(step_orders)
    assert several_orders >= 20 and same_order >= 20, (several_orders, same_order)


def _nested_stars(n):
    e = "a"
    for i in range(n):
        e = "(%s)*b%d" % (e, i)
    return e


@pytest.mark.parametrize(
    "text",
    [
        "(%s)*0" % "+".join("x%d.y%d*z%d" % (i, i, i) for i in range(6)),  # W(6)
        "(a5.(a4.(a3.(a2.(a1.c0+b1)*c1+b2)*c2+b3)*c3+b4)*c4+b5)*c5",  # N(5)
        "(x.%s)*0" % ".".join("(y%d+z%d)" % (i, i) for i in range(5)),  # P(5)
        "(x.%s)*0" % ".".join("(y%d.u%d+z%d.v%d)" % (i, i, i, i) for i in range(4)),  # Q(4)
        _nested_stars(10),  # S(10)
    ],
    ids=["W6", "N5", "P5", "Q4", "S10"],
)
def test_loops_read_off_the_replay_families(text):
    _assert_loops_match_reference(expression_witness(parse(text)))


def test_loops_need_a_whole_layered_run(chart_g, chart_ci, witness_ci_hat):
    # a replay that fails, after some steps or at its end, or that is not
    # layered has no loops-back structure, partial or not
    stopped = Witness(
        chart_ci,
        {
            T("Z", "a1", "Z"): 1,
            T("Z", "a3", "Y"): 1,
            T("Y", "d1", "Z"): 2,
            T("Z", "a2", "X"): 3,
            T("X", "b1", "Z"): 4,
            T("Z", "a4", "K"): 0,
            T("K", "d2", "X"): 0,
        },
    )
    assert not stopped._replayed.ok and stopped._replayed.steps
    cyclic = Witness(
        chart_g,
        {T("x", "a", "x'"): 0, T("x", "b", "x'"): 0, T("x'", "a", "x'"): 1, T("x'", "b", "x"): 0},
    )
    assert not cyclic._replayed.ok and cyclic._replayed.steps
    assert witness_ci_hat._replayed.ok and not witness_ci_hat._replayed.llee
    for w in (stopped, cyclic, witness_ci_hat):
        with pytest.raises(NotLLEE):
            w._loops


def test_graph_kernel_vs_brute():
    # has_cycle, also within a node set, and remove with its body-only
    # collection against rebuilding and collecting the whole chart
    rng = random.Random(97)
    for i in range(300):
        c = random_chart(rng, max_nodes=7, rooted=(i % 2 == 0))
        g = lleekit.lee._Graph(c, lleekit.lee._roots(c))
        roots = {c.initial} if c.initial is not None else set(c.nodes)
        transitions, nodes = frozenset(c.transitions), frozenset(c.nodes)
        for _ in range(4):
            live = {c.numbered[k] for k in range(len(c.dst)) if g.is_live(k)}
            assert ({c.names[x] for x in g.nodes}, live) == (nodes, transitions)
            inner = [t for t in transitions if not t.terminal]
            assert g.has_cycle() == bool(brute_simple_cycles(inner))
            within = {x for x in g.nodes if rng.random() < 0.6}
            names = {c.names[x] for x in within}
            assert g.has_cycle(within) == bool(
                brute_simple_cycles([t for t in inner if t.src in names and t.dst in names])
            )
            if not inner:
                break
            x = rng.choice(sorted(inner, key=Transition.sort_key)).src
            removed = rng.sample(
                sorted((t for t in inner if t.src == x), key=Transition.sort_key),
                rng.randint(1, len([t for t in inner if t.src == x])),
            )
            g.remove(c.ids[x], [c.numbered.index(t) for t in removed])
            transitions, nodes = _gc(transitions - set(removed), nodes, roots)


def test_check_lbc_properties_fixtures(
    witness_g_hat, witness_h_hat, witness_ci_hat_prime, witness_cii_hat
):
    for w in (witness_g_hat, witness_h_hat, witness_ci_hat_prime, witness_cii_hat):
        for lbc in all_looping_back_charts(w).values():
            report = check_lbc_properties(lbc)
            assert report.ok and not report.violations
            assert bool(report)


def test_check_lbc_properties_violations(chart_cii, witness_cii_hat):
    # drop y from the looping-back chart of x: its sub-chart (i) no longer
    # fits and z'' (ii) escapes to the missing node
    broken = LoopingBackChart(
        chart_cii, witness_cii_hat, "x", frozenset({"x", "z''", "k"})
    )
    report = check_lbc_properties(broken)
    assert not report.ok
    assert {code for code, _ in report.violations} == {"i", "ii"}


def test_check_lbc_properties_terminal_violation():
    g = Chart([T("X", "a", "Y"), T("Y", "b", "X"), T("Y", "c", TERMINATION)])
    w = Witness(g, {T("X", "a", "Y"): 0, T("Y", "b", "X"): 1})
    assert is_llee_witness(w)
    broken = LoopingBackChart(g, w, "X", frozenset({"X", "Y"}))
    report = check_lbc_properties(broken)
    codes = {code for code, _ in report.violations}
    assert "iii" in codes


# --- layering ---------------------------------------------------------------


def test_lee_to_llee_ci_hat(chart_ci, witness_ci_hat):
    w2 = lee_to_llee(witness_ci_hat)
    assert w2.chart == chart_ci
    demoted = {t for t in witness_ci_hat.order if witness_ci_hat.order[t] > 0 and w2.order[t] == 0}
    promoted = {t for t in witness_ci_hat.order if witness_ci_hat.order[t] == 0 and w2.order[t] > 0}
    assert demoted == {T("X", "b1", "Z")}
    assert promoted == {T("Z", "a4", "K")}
    assert w2.order == {
        T("Z", "a1", "Z"): 1,
        T("Z", "a3", "Y"): 2,
        T("Z", "a2", "X"): 3,
        T("Z", "a4", "K"): 4,
        T("X", "b1", "Z"): 0,
        T("Y", "d1", "Z"): 0,
        T("K", "d2", "X"): 0,
    }
    assert is_llee_witness(w2)


def test_lee_to_llee_already_layered(
    witness_g_hat, witness_h_hat, witness_ci_hat_prime, witness_cii_hat
):
    for w in (witness_g_hat, witness_h_hat, witness_ci_hat_prime, witness_cii_hat):
        w2 = lee_to_llee(w)
        assert w2.chart == w.chart
        assert set(w2.order) == set(w.order)
        # layered inputs keep their entry set: orders are only renumbered
        assert set(w2.entries()) == set(w.entries())
        assert set(w2.body_transitions()) == set(w.body_transitions())
        for s in w.entries():
            for t in w.entries():
                if w.order[s] < w.order[t]:
                    assert w2.order[s] < w2.order[t]
        assert is_llee_witness(w2)


def test_lee_to_llee_requires_replay(chart_g):
    with pytest.raises(NotLEE):
        lee_to_llee(_zero_witness(chart_g))


def test_lee_to_llee_random():
    rng = random.Random(67)
    done = 0
    while done < 60:
        g = random_chart(rng, max_nodes=5, rooted=(done % 2 == 0))
        w = find_lee_witness(g)
        if w is None:
            continue
        w2 = lee_to_llee(w)
        assert w2.chart == g
        assert set(w2.order) == set(w.order)
        assert is_llee_witness(w2)
        done += 1


def test_lee_to_llee_random_expressions():
    rng = random.Random(71)
    for _ in range(40):
        e = random_expression(rng, rng.randint(1, 14))
        w = find_lee_witness(interpret(e))
        w2 = lee_to_llee(w)
        assert is_llee_witness(w2)
