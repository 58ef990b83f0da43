"""Charts: construction, formats, sub-charts, cycles, and the process semantics."""

import gc
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_both_collector_states
from generators import charts, expressions, random_chart, random_expression
from oracles import (
    bfs_reachable,
    brute_expression_witness,
    brute_interpret,
    brute_is_loop_chart,
    brute_simple_cycles,
    brute_step,
    naive_bisimilarity_pairs,
    _normed,
    _star_height,
)
from lleekit.bisim import _refine, collapse
from lleekit.chart import (
    Chart,
    _check_token,
    NodeSetChart,
    TERMINATION,
    Transition,
    _States,
    _collection_paused,
    _explore,
    _explored_chart,
    chart_of_nodes,
    cycle_nodes,
    interpret,
    simple_cycles,
    step,
    union_chart,
)
from lleekit.cli import run
from lleekit.errors import (
    ParentMismatch,
    ParseError,
    StateExplosion,
    UnknownNode,
)
from lleekit.expr import Action, Plus, Seq, Star, Zero, parse, size, unparse
from lleekit.lee import (
    Witness,
    expression_witness,
    generated_chart,
    is_llee_witness,
    is_loop_chart,
)

TOGGLE = Chart(
    [
        Transition("X", "a", "Y"),
        Transition("Y", "a", "X"),
        Transition("X", "b", TERMINATION),
        Transition("Y", "c", TERMINATION),
    ]
)

# node ids that are also the keywords of the text format's directives
DIRECTIVE_NAMES = Chart(
    [
        Transition("init", "a", "y"),
        Transition("node", "a", "y"),
        Transition("y", "b", "init"),
        Transition("y", "c", "node"),
        Transition("node", "c", TERMINATION),
    ],
    initial="init",
)


def test_transition_basics():
    t = Transition("x", "a", TERMINATION)
    assert t.terminal
    assert "√" in repr(t)
    u = Transition("x", "a", "y")
    assert not u.terminal
    # terminal transitions sort before targets with the same source and action
    assert sorted([u, t], key=Transition.sort_key) == [t, u]


def test_chart_construction_and_validation():
    g = Chart([Transition("x", "a", "y")], nodes={"z"}, alphabet={"c"})
    assert g.nodes == {"x", "y", "z"}
    assert g.alphabet == {"a", "c"}
    assert g.initial is None
    with pytest.raises(UnknownNode):
        Chart([Transition("x", "a", "y")], initial="w")
    with pytest.raises(ValueError):
        # z is unreachable from the initial node
        Chart([Transition("x", "a", "y")], nodes={"z"}, initial="x")
    with pytest.raises(ValueError):
        Chart([Transition("!", "a", "y")])
    with pytest.raises(ValueError):
        Chart([Transition("x", "a", "y y")])
    with pytest.raises(ValueError):
        Chart([Transition("x", "A", "y")])
    with pytest.raises(ValueError, match="invalid action token"):
        Chart([Transition("x", 5, "y")])
    # the alphabet's extra actions are checked as the transitions' are
    for action in ("Not An Action", "5", 5):
        with pytest.raises(ValueError, match="invalid action token"):
            Chart([Transition("x", "a", "y")], alphabet={"c", action})
    with pytest.raises(ValueError):
        Chart([], nodes={""})
    with pytest.raises(TypeError):
        Chart([("x", "a", "y")])


@pytest.mark.parametrize("token", ["a b", " ", "\x1c", "a\u2028", "!", "#x"])
def test_node_tokens_rejected(token):
    with pytest.raises(ValueError):
        Chart([], nodes={token})
    with pytest.raises(ValueError):
        Chart([Transition("x", "a", token)])


def test_node_tokens_are_whitespace_free_strings():
    # exhaustive over code points: a token is accepted exactly when no
    # character of it is whitespace by str.isspace
    chars = [chr(i) for i in range(0x110000)]
    spaces = [c for c in chars if c.isspace()]
    assert "\x1c" in spaces
    for c in spaces:
        with pytest.raises(ValueError):
            _check_token("node", "x" + c + "y")
    _check_token("node", "".join(c for c in chars if not c.isspace()))


def test_out_and_terminal_actions(chart_g):
    assert [t.action for t in chart_g.out("x")] == ["a", "b"]
    assert chart_g.terminal_actions("x") == frozenset()
    assert TOGGLE.terminal_actions("X") == {"b"}
    assert TOGGLE.terminal_actions("Y") == {"c"}
    with pytest.raises(UnknownNode):
        chart_g.out("nope")
    with pytest.raises(UnknownNode):
        chart_g.terminal_actions("nope")


def test_reachable(chart_g):
    assert chart_g.reachable(["x"]) == {"x", "x'"}
    assert TOGGLE.reachable(["Y"]) == {"X", "Y"}
    assert chart_g.reachable(["nope"]) == frozenset()


def test_has_cycle(chart_g):
    assert chart_g.has_cycle()
    assert not chart_g.has_cycle(within={"x"})
    assert chart_g.has_cycle(within={"x'"})
    assert not interpret(parse("a.b")).has_cycle()


def test_rooted_at(chart_g):
    sub = chart_g.rooted_at("x'")
    assert sub.initial == "x'"
    assert sub.nodes == {"x", "x'"}
    with pytest.raises(UnknownNode):
        chart_g.rooted_at("nope")


def test_equality_and_hash(chart_g):
    again = Chart(chart_g.transitions, nodes=chart_g.nodes, initial="x")
    assert again == chart_g
    assert hash(again) == hash(chart_g)
    assert Chart(chart_g.transitions, nodes=chart_g.nodes) != chart_g  # no initial
    assert len({chart_g, again}) == 1


def test_text_roundtrip_fixtures(chart_g, chart_h, chart_ci, chart_cii):
    for g in (chart_g, chart_h, chart_ci, chart_cii, TOGGLE, DIRECTIVE_NAMES):
        assert Chart.from_text(g.to_text()) == g


def test_text_format_details():
    g = Chart.from_text("chart v1\n# comment\n\nnode u\nx a !\n")
    assert g.nodes == {"u", "x"}
    assert g.transitions == {Transition("x", "a", TERMINATION)}
    assert "node u" in g.to_text()
    assert Chart.from_text(g.to_text()) == g


@pytest.mark.parametrize(
    "text",
    [
        "x a y\n",
        "chart v2\n",
        "chart v1\ninit\n",
        "chart v1\ninit x\ninit x\n",
        "chart v1\nx a\n",
        "chart v1\nnode\n",
    ],
)
def test_text_parse_errors(text):
    with pytest.raises(ParseError):
        Chart.from_text(text)


def test_json_roundtrip(chart_g):
    doc = chart_g.to_json_dict()
    assert doc["v"] == 1
    assert Chart.from_json(chart_g.to_json()) == chart_g
    toggle = TOGGLE.to_json_dict()
    terminals = [d for d in toggle["transitions"] if d["dst"] is None]
    assert len(terminals) == 2
    assert Chart.from_json(TOGGLE.to_json()) == TOGGLE


@settings(max_examples=60, deadline=None)
@given(charts())
def test_text_and_json_roundtrip_random(g):
    assert Chart.from_text(g.to_text()) == g
    assert Chart.from_json(g.to_json()) == g


def test_dot_rendering(chart_g):
    dot = chart_g.to_dot()
    assert dot.startswith("digraph chart {")
    assert '"#init" -> "x"' in dot
    assert "doublecircle" not in dot  # no terminal transitions in g
    assert "doublecircle" in TOGGLE.to_dot()
    order = {t: (2 if t.src == "x" else 0) for t in chart_g.transitions}
    coloured = chart_g.to_dot(order=order)
    assert "[2]" in coloured and "#b40000" in coloured
    clustered = chart_g.to_dot(clusters=[("inner", {"x"}), ("outer", {"x", "x'"})])
    assert 'subgraph "cluster_inner"' in clustered
    assert "// image outer also contains: x" in clustered


def test_induced_subchart(chart_g):
    sub = chart_of_nodes(chart_g, {"x'"}, start="x'")
    assert sub.is_induced
    assert sub.transitions == (Transition("x'", "a", "x'"),)
    assert sub.out("x'") == (Transition("x'", "a", "x'"),)
    assert sub.has_cycle()
    # induced sub-charts never include terminal transitions
    toggled = chart_of_nodes(TOGGLE, {"X", "Y"})
    assert all(not t.terminal for t in toggled.transitions)
    with pytest.raises(UnknownNode):
        chart_of_nodes(chart_g, {"nope"})
    with pytest.raises(UnknownNode):
        chart_of_nodes(chart_g, {"x"}, start="x'")


def test_explicit_subchart_takes_only_parent_transitions_from_its_nodes():
    c = interpret(parse("(a.b)*c"))
    x = c.initial
    with pytest.raises(UnknownNode):
        NodeSetChart(c, frozenset({x}), start=x, explicit=(Transition(x, "zz", x),))
    # a parent transition whose source is outside the node set
    t = next(t for t in c.transitions if t.src != x and not t.terminal)
    with pytest.raises(UnknownNode):
        NodeSetChart(c, frozenset({x}), start=x, explicit=(t,))
    # the parent transitions leaving the node set are accepted, √ included
    sub = NodeSetChart(c, frozenset({x, t.dst}), explicit=tuple(c.out(x)))
    assert sub.transitions == c.out(x)


def _brute_has_cycle(transitions, within):
    return bool(brute_simple_cycles([t for t in transitions if {t.src, t.dst} <= within]))


def test_graph_kernel_vs_brute():
    # every walk of the graph kernel a chart or sub-chart answers through,
    # against a plain BFS and explicit cycle enumeration
    rng = random.Random(271)
    kinds = {"induced": 0, "generated": 0}
    for _ in range(300):
        g = random_chart(rng, max_nodes=7, rooted=rng.random() < 0.3)
        nodes = sorted(g.nodes)
        roots = rng.sample(nodes, rng.randint(0, len(nodes))) + ["nope"]
        assert g.reachable(roots) == bfs_reachable(g.transitions, roots[:-1])
        within = set(rng.sample(nodes, rng.randint(0, len(nodes))))
        assert g.has_cycle() == bool(brute_simple_cycles(g.transitions))
        assert g.has_cycle(within | {"nope"}) == _brute_has_cycle(g.transitions, within)
        subs = []
        if within:
            start = rng.choice(sorted(within))
            subs.append(("induced", start, chart_of_nodes(g, within, start=start)))
        for x in nodes:
            outs = [t for t in g.out(x) if not t.terminal]
            if outs:
                entries = rng.sample(outs, rng.randint(1, len(outs)))
                subs.append(("generated", x, generated_chart(g, x, entries)))
        for kind, start, sub in subs:
            kinds[kind] += 1
            trans = set(sub.transitions)
            assert sub.has_cycle() == _brute_has_cycle(trans, set(sub.nodes))
            if kind == "induced":
                # L3 of an induced sub-chart reads the parent's terminal
                # transitions of every member but the start
                exits = any(g.terminal_actions(n) for n in sub.nodes - {start})
                expected = not exits and brute_is_loop_chart(trans, start)
            else:
                expected = brute_is_loop_chart(trans, start)
            assert is_loop_chart(sub, start) == expected
    assert min(kinds.values()) > 200


def test_subchart_relations(chart_g):
    small = chart_of_nodes(chart_g, {"x'"})
    big = chart_of_nodes(chart_g, {"x", "x'"})
    assert small.subchart_of(big)
    assert small.proper_subchart_of(big)
    assert not big.subchart_of(small)
    assert big.same_chart(chart_of_nodes(chart_g, {"x", "x'"}))
    other = chart_of_nodes(TOGGLE, {"X"})
    with pytest.raises(ParentMismatch):
        small.subchart_of(other)
    with pytest.raises(ParentMismatch):
        union_chart(small, other)


def test_union_chart(chart_g):
    a = chart_of_nodes(chart_g, {"x"})
    b = chart_of_nodes(chart_g, {"x'"})
    joined = union_chart(a, b)
    assert joined.nodes == {"x", "x'"}
    assert joined.is_induced
    assert len(joined.transitions) == 4
    ex_a = NodeSetChart(
        chart_g, frozenset({"x"}), explicit=(Transition("x", "a", "x'"),)
    )
    ex_b = NodeSetChart(
        chart_g, frozenset({"x'"}), explicit=(Transition("x'", "b", "x"),)
    )
    merged = union_chart(ex_a, ex_b)
    assert not merged.is_induced
    assert set(merged.transitions) == {
        Transition("x", "a", "x'"),
        Transition("x'", "b", "x"),
    }


def test_simple_cycles_examples(chart_g):
    found = set(simple_cycles(chart_g))
    assert found == {
        (Transition("x'", "a", "x'"),),
        (Transition("x", "a", "x'"), Transition("x'", "b", "x")),
        (Transition("x", "b", "x'"), Transition("x'", "b", "x")),
    }
    by_nodes = simple_cycles(chart_g, distinct_nodes=True)
    assert sorted(cycle_nodes(c) for c in by_nodes) == [("x", "x'"), ("x'",)]


def _recursive_simple_cycles(chart):
    # the enumeration as it was written before it became iterative
    out = {}
    for t in sorted((t for t in chart.transitions if not t.terminal), key=Transition.sort_key):
        out.setdefault(t.src, []).append(t)
    cycles = []
    for s in sorted(out):
        path = []
        on_path = set()

        def dfs(n):
            on_path.add(n)
            for t in out.get(n, ()):
                d = t.dst
                if d == s:
                    cycles.append(tuple(path) + (t,))
                elif d > s and d not in on_path:
                    path.append(t)
                    dfs(d)
                    path.pop()
            on_path.discard(n)

        dfs(s)
    return cycles


def test_simple_cycles_keeps_the_recursive_order():
    rng = random.Random(71)
    for _ in range(300):
        g = random_chart(rng, max_nodes=8, alphabet=("a", "b", "c"))
        expected = _recursive_simple_cycles(g)
        assert simple_cycles(g) == expected
        unique = {}
        for cyc in expected:
            unique.setdefault(cycle_nodes(cyc), cyc)
        assert simple_cycles(g, distinct_nodes=True) == list(unique.values())


def test_simple_cycles_vs_brute():
    rng = random.Random(11)
    for _ in range(250):
        g = random_chart(rng, max_nodes=6)
        assert set(simple_cycles(g)) == brute_simple_cycles(g.transitions)


def test_step_examples():
    a, b, c = Action("a"), Action("b"), Action("c")
    assert step(a) == [("a", TERMINATION)]
    assert step(Zero()) == []
    assert step(parse("a+0")) == [("a", TERMINATION)]
    assert step(parse("a.b")) == [("a", b)]
    loop = Star(Seq(a, b), c)
    assert step(loop) == [("a", Seq(b, loop)), ("c", TERMINATION)]
    tight = Star(a, b)
    assert step(tight) == [("a", tight), ("b", TERMINATION)]
    with pytest.raises(TypeError):
        step("a")


# Heads that need parentheses only before a continuation, and right operands
# that are sequences themselves.
SPINES = {
    "(a+b).c.d": {"(a+b).c.d", "c.d", "d"},
    "a.(b+c)": {"a.(b+c)", "b+c"},
    "a.(b+c).d": {"a.(b+c).d", "(b+c).d", "d"},
    "(a.b).(c.d)": {"a.b.(c.d)", "b.(c.d)", "c.d", "d"},
    "(a.b)*c.d": {"(a.b)*c.d", "b.(a.b)*c.d", "d"},
    "((a+b)*c).d": {"(a+b)*c.d", "d"},
    "(a.(b+c.d))*(e.f)": {"(a.(b+c.d))*(e.f)", "(b+c.d).(a.(b+c.d))*(e.f)", "d.(a.(b+c.d))*(e.f)", "f"},
}


def test_step_vs_brute():
    rng = random.Random(13)
    for _ in range(200):
        e = random_expression(rng, rng.randint(1, 15))
        assert set(step(e)) == brute_step(e)
    for text in SPINES:
        assert set(step(parse(text))) == brute_step(parse(text))


def _steps_in_order(e):
    """:func:`step` by recursion: the left operand's steps first, and a
    target is the step's rest followed by what comes after."""
    if isinstance(e, Action):
        return [(e.name, TERMINATION)]
    if isinstance(e, Zero):
        return []
    if isinstance(e, Plus):
        return _steps_in_order(e.left) + _steps_in_order(e.right)
    after = e.right if isinstance(e, Seq) else e
    steps = [(a, after if t is TERMINATION else Seq(t, after)) for a, t in _steps_in_order(e.left)]
    return steps + _steps_in_order(e.right) if isinstance(e, Star) else steps


def test_step_order_is_left_operand_first():
    # the explicit stack of _States.steps keeps the order of the recursion
    # it replaced
    rng = random.Random(19)
    for _ in range(200):
        e = random_expression(rng, rng.randint(1, 15))
        assert step(e) == _steps_in_order(e)
    for text in SPINES:
        assert step(parse(text)) == _steps_in_order(parse(text))


def test_step_of_nested_stars_does_not_recurse():
    # 1500 stars nested in their exits: one step per star body and one to
    # exit the last, under the default recursion limit
    e = a = Action("a")
    for _ in range(1500):
        e = Star(a, e)
    assert sys.getrecursionlimit() <= 1000
    steps = step(e)
    assert len(steps) == 1501
    assert steps[0] == ("a", e)
    assert steps[1] == ("a", e.right)
    assert steps[-1] == ("a", TERMINATION)


def _breadth_first_names(e):
    """The expressions reachable from ``e`` under :func:`step`, printed, in
    the order a breadth-first walk finds them, each step's targets in
    :func:`step`'s order."""
    names = [unparse(e)]
    seen = set(names)
    todo = [e]
    for x in todo:
        for _, target in step(x):
            if target is not TERMINATION:
                name = unparse(target)
                if name not in seen:
                    seen.add(name)
                    names.append(name)
                    todo.append(target)
    return names


def _nested_stars(n):
    """S(n) = ((…((a*b0)*b1)…)*b{n-1}): a star in the body of every star."""
    e = Action("a")
    for i in range(n):
        e = Star(e, Action("b%d" % i))
    return e


def _exploration_order_cases():
    rng = random.Random(23)
    sweep = [random_expression(rng, rng.randint(1, 15)) for _ in range(200)]
    yield pytest.param(sweep + [parse(text) for text in SPINES], id="sweep")
    # step and unparse take time linear in a chain state's length, so the
    # walk is quadratic in the chain: 500 actions take about 0.4 s
    yield pytest.param([parse(".".join("abc"[i % 3] for i in range(500)))], id="chain500")
    yield pytest.param([parse("+".join("a%d" % i for i in range(3000)))], id="sum3000")
    yield pytest.param([_nested_stars(24)], id="s24")


@pytest.mark.parametrize("roots", _exploration_order_cases())
def test_exploration_order_is_breadth_first_over_step(roots):
    # _explore steps a state whose head is an action in its own loop, and
    # every other state through _States.steps: either way its states are
    # numbered as a breadth-first walk over the public step finds them
    for e in roots:
        names = _breadth_first_names(e)
        for labelled in (False, True):
            x = _explore([e], None, str, labelled=labelled, base=3)
            assert x.roots == [3]
            assert [x.space.name(s) for s in x.states] == names, unparse(e)


def test_interpret_self_loop():
    g = interpret(parse("a*0"))
    assert g.nodes == {"a*0"}
    assert g.initial == "a*0"
    assert g.transitions == {Transition("a*0", "a", "a*0")}


def test_interpret_two_state_loop():
    g = interpret(parse("((a+b).(a*b))*0"))
    x = "((a+b).a*b)*0"
    x2 = "a*b.((a+b).a*b)*0"
    assert g.initial == x
    assert g.nodes == {x, x2}
    assert g.transitions == {
        Transition(x, "a", x2),
        Transition(x, "b", x2),
        Transition(x2, "a", x2),
        Transition(x2, "b", x),
    }


def test_interpret_sequential():
    g = interpret(parse("a.b"))
    assert g.nodes == {"a.b", "b"}
    assert g.transitions == {
        Transition("a.b", "a", "b"),
        Transition("b", "b", TERMINATION),
    }


def test_interpret_vs_brute():
    rng = random.Random(17)
    for _ in range(120):
        e = random_expression(rng, rng.randint(1, 12))
        assert interpret(e) == brute_interpret(e)
    for text in SPINES:
        assert interpret(parse(text)) == brute_interpret(parse(text))


def _assert_twins(a, b):
    assert a == b and hash(a) == hash(b)


def test_derived_objects_equal_their_validated_twins():
    # interpret, collapse and expression_witness build their charts and
    # witnesses unchecked; each equals, hash included, the one its text form
    # reads back through the checking constructors; transitions are numbered
    # in Transition.sort_key order, whatever order they come in
    rng = random.Random(1409)
    # "\x01" sorts before "!", as which √ sorts in Transition.sort_key
    low = Chart(
        [
            Transition("x", "a", "\x01"),
            Transition("x", "a", TERMINATION),
            Transition("x", "a", "y"),
            Transition("\x01", "b", TERMINATION),
            Transition("y", "b", TERMINATION),
        ],
        initial="x",
    )
    charts = [low, collapse(low).chart]
    for _ in range(150):
        e = random_expression(rng, rng.randint(1, 16))
        g = interpret(e)
        charts += [g, collapse(g).chart]
        w = expression_witness(e)
        _assert_twins(w, Witness.from_text(w.to_text(), Chart.from_text(w.chart.to_text())))
    for g in charts:
        assert g.numbered == sorted(g.transitions, key=Transition.sort_key)
        _assert_twins(g, Chart.from_text(g.to_text()))
        transitions, nodes = list(g.transitions), list(g.nodes)
        rng.shuffle(transitions)
        rng.shuffle(nodes)
        _assert_twins(g, Chart(transitions, nodes=nodes, initial=g.initial))


@settings(max_examples=120, deadline=None)
@given(expressions, expressions, st.booleans())
def test_exploration_tables_refine_to_bisimilarity(e1, e2, labelled):
    # the tables an exploration writes are the refiner's input as they are:
    # a second exploration numbered after the first is refined with it as
    # their disjoint union, and the blocks are the greatest bisimulation of
    # the two interpretations
    x1 = _explore([e1], None, str, labelled=labelled)
    x2 = _explore([e2], None, str, labelled=labelled, base=len(x1.states))
    for x in (x1, x2):
        assert len(x.out) == len(x.term) == len(x.states)
        assert x.roots == [x.base]
        assert (x.loops is not None) == labelled
        if labelled:
            assert len(x.loops) == len(x.out)
            assert all(loop <= len(out) for (loop, _), out in zip(x.loops, x.out))
    block = _refine(x1.out + x2.out, x1.term + x2.term)
    names1 = [x1.space.name(s) for s in x1.states]
    names2 = [x2.space.name(s) for s in x2.states]
    pairs = {
        (u, v)
        for i, u in enumerate(names1)
        for j, v in enumerate(names2, start=x2.base)
        if block[i] == block[j]
    }
    assert pairs == naive_bisimilarity_pairs(brute_interpret(e1), brute_interpret(e2))


def test_explored_chart_reads_the_tables():
    # the chart and loop labels read off the tables are the interpretation
    # and the labelling rule's witness, numbered from any base, and the
    # witness replays layered
    rng = random.Random(1307)
    for _ in range(150):
        e = random_expression(rng, rng.randint(1, 16))
        g = brute_interpret(e)
        for labelled, base in ((False, 0), (True, 0), (True, 5)):
            x = _explore([e], None, str, labelled=labelled, base=base)
            chart, order, ranks = _explored_chart(x)
            assert chart == g
            assert chart.names == sorted(x.space.name(x.states[i]) for i in order)
            if labelled:
                orders = {t: r for t, r in zip(chart.numbered, ranks) if not t.terminal}
                assert orders == brute_expression_witness(e), unparse(e)
            else:
                assert ranks == [0] * len(ranks)
        assert is_llee_witness(expression_witness(e))


def test_interpret_vs_brute_larger():
    rng = random.Random(37)
    checked = 0
    while checked < 150:
        e = random_expression(rng, 40)
        if size(e) >= 25:
            assert interpret(e) == brute_interpret(e)
            checked += 1


def test_measure_deep_expression():
    # 5000 nested stars, built without the parser: normedness and star
    # height come from an explicit stack, not from recursion
    e = Action("a")
    for _ in range(5000):
        e = Star(e, Action("b"))
    assert _States().measure(e) == (True, 5000)
    assert _States().measure(Seq(e, Zero())) == (False, 5000)
    assert _States().measure(Star(Zero(), e)) == (True, 5000)


def test_measure_matches_the_recursive_definitions():
    # the flat walk against the oracles' recursive normedness and star
    # height: random expressions, each subterm measured in one space that
    # memoises across them, and a DAG whose shared subterm sits under both
    # operands of every level
    rng = random.Random(71)
    for _ in range(300):
        e = random_expression(rng, rng.randint(1, 30))
        space = _States()
        for x in [e, e.left, e.right] if isinstance(e, (Plus, Seq, Star)) else [e]:
            assert space.measure(x) == (_normed(x), _star_height(x)), unparse(x)
    shared = Star(Seq(Action("a"), Zero()), Action("b"))
    for level in range(12):
        shared = (Plus, Seq, Star)[level % 3](shared, shared)
        space = _States()
        assert space.measure(shared) == (_normed(shared), _star_height(shared))
        # each distinct operator node is measured once, and only those
        assert len(space._measures) == level + 3


@pytest.mark.parametrize("text", sorted(SPINES))
def test_interpret_spine_node_ids(text):
    g = interpret(parse(text))
    assert g.nodes == SPINES[text]
    assert g.initial == unparse(parse(text))


def test_state_named_alone_as_when_every_state_is_named():
    # equiv names a distinction's members one at a time, with no suffix
    # cached; interpret names every state and caches the suffixes
    rng = random.Random(61)
    exprs = [parse(text) for text in sorted(SPINES)]
    exprs += [random_expression(rng, rng.randint(1, 14)) for _ in range(150)]
    for e in exprs:
        x = _explore([e], None, str)
        space, states = x.space, x.states
        alone = [space.name_one(s) for s in states]
        assert alone == [space.name(s) for s in states]
        assert alone == [space.name_one(s) for s in states]
        assert set(alone) == interpret(e).nodes


def test_interpret_initial_always_printed():
    rng = random.Random(19)
    for _ in range(50):
        e = random_expression(rng, rng.randint(1, 10))
        g = interpret(e)
        assert g.initial == unparse(e)
        assert g.reachable([g.initial]) == g.nodes


def test_state_cap():
    with pytest.raises(StateExplosion, match=r"^more than 2 states while interpreting 'a\.b\.c'$"):
        interpret(parse("a.b.c"), cap=2)
    with pytest.raises(StateExplosion, match=r"interpreting '\(a\+b\)\.c'$"):
        interpret(parse("(a+b).c"), cap=0)
    interpret(parse("a.b.c"), cap=3)
    # the state past the cap is a successor of a sum and of a star
    with pytest.raises(StateExplosion, match=r"^more than 2 states while .* 'a\.b\+a\.c'$"):
        interpret(parse("a.b+a.c"), cap=2)
    with pytest.raises(StateExplosion, match=r"^more than 1 states while .* '\(a\.b\)\*c'$"):
        interpret(parse("(a.b)*c"), cap=1)
    interpret(parse("a.b+a.c"), cap=3)
    interpret(parse("(a.b)*c"), cap=2)


def test_state_cap_environment(monkeypatch):
    monkeypatch.setenv("LLEEKIT_STATE_CAP", "2")
    with pytest.raises(StateExplosion):
        interpret(parse("a.b.c"))
    # an explicit cap wins over the environment
    interpret(parse("a.b.c"), cap=50)


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_state_cap_environment_rejected(monkeypatch, capsys, value):
    monkeypatch.setenv("LLEEKIT_STATE_CAP", value)
    message = "^LLEEKIT_STATE_CAP must be a positive integer, got '%s'$" % value
    with pytest.raises(ValueError, match=message) as exc:
        interpret(parse("a.b"))
    # the command line rejects it with the same message
    assert run(["chart", "a.b"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % exc.value


def test_collection_paused_restores_the_collector_and_nests():
    # the collector is off inside, a nested use leaves it off, and leaving
    # by an exception restores it as the outermost use found it
    def paused():
        with pytest.raises(KeyError):
            with _collection_paused():
                assert not gc.isenabled()
                with _collection_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
                raise KeyError

    in_both_collector_states(paused)


def test_push_interns_each_pair_once():
    # _States.push stores a spare continuation under a new pair and fills
    # it in: after an exploration every state and every continuation is
    # the one interned for its pair, equal pairs give the same object, and
    # no empty spare is left among them
    rng = random.Random(71)
    for i in range(150):
        e = random_expression(rng, rng.randint(1, 30))
        if i % 3 == 0:
            e = Star(e, parse("(a.b.c.a.b)*b+c.c.c.a"))
        x = _explore([e], None, str)
        space = x.space
        conts = space._conts
        assert all(k.expr is not None for k in conts.values())
        assert all(s.expr is not None for s in x.states)
        assert all(k.expr is e and k.rest is rest for (e, rest), k in conts.items())
        assert len({id(k) for k in conts.values()}) == len(conts)
        # the spare is made empty, with no slot set, until it is interned
        assert not hasattr(space._spare, "expr") and space._spare not in conts.values()
        pending = list(x.states)
        seen = set()
        while pending:
            k = pending.pop()
            if k is None or id(k) in seen:
                continue
            seen.add(id(k))
            assert conts[k.expr, k.rest] is k
            # an equal expression that is another object finds the same pair
            assert space.push(parse(unparse(k.expr)), k.rest) is k
            pending.append(k.rest)
