"""Bisimulation: partitions, the two-chart relation, maps, and collapse."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings

from generators import charts, random_chart, random_expression
from oracles import (
    exists_bisimulation_containing,
    naive_bisimilarity,
    naive_bisimilarity_pairs,
    relation_is_bisimulation,
)
import lleekit.bisim
from lleekit.bisim import (
    BisimMap,
    _index_tables,
    _refine,
    bisimilarity,
    bisimilarity_partition,
    collapse,
    image,
    is_bisimulation,
)
from lleekit.chart import (
    Chart,
    TERMINATION,
    Transition,
    _explore,
    chart_of_nodes,
    interpret,
)
from lleekit.cli import run
from lleekit.errors import NotABisimulation, ParseError, UnknownNode
from lleekit.expr import Seq, parse, unparse


def _partition_pairs(part):
    return {(x, y) for block in part.blocks for x in block for y in block}


def test_partition_fixture(chart_g, chart_ci, chart_cii):
    assert _partition_pairs(bisimilarity_partition(chart_g)) == {
        (x, y) for x in chart_g.nodes for y in chart_g.nodes
    }
    # CI is already collapsed: every block is a singleton
    assert all(len(b) == 1 for b in bisimilarity_partition(chart_ci).blocks)
    part = bisimilarity_partition(chart_cii)
    assert set(part.blocks) == {
        frozenset({"z", "z'", "z''"}),
        frozenset({"x", "x'"}),
        frozenset({"y"}),
        frozenset({"k"}),
    }
    assert part.block_of("z'") == frozenset({"z", "z'", "z''"})
    with pytest.raises(UnknownNode):
        part.block_of("nope")


def test_partition_vs_naive():
    rng = random.Random(23)
    for _ in range(120):
        g = random_chart(rng, max_nodes=6)
        assert _partition_pairs(bisimilarity_partition(g)) == naive_bisimilarity(g)


def _paths(rng, n):
    """Two paths of ``n`` actions that agree except possibly in the last one,
    with a few back edges, so splits travel back one node per batch."""
    acts = [rng.choice("ab") for _ in range(n)]
    ts = []
    for side, last in (("p", acts[-1]), ("q", rng.choice("ab"))):
        for i in range(n - 1):
            ts.append(Transition("%s%d" % (side, i), acts[i], "%s%d" % (side, i + 1)))
        ts.append(Transition("%s%d" % (side, n - 1), last, TERMINATION))
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(n), 2))
        side = rng.choice("pq")
        ts.append(Transition("%s%d" % (side, j), "a", "%s%d" % (side, i)))
    return Chart(ts)


def _copies(rng, g, k):
    """``k`` renamed copies of ``g``, plus a few transitions between copies."""
    ts = [
        Transition("%s_%d" % (t.src, c), t.action, t.dst if t.terminal else "%s_%d" % (t.dst, c))
        for t in g.transitions
        for c in range(k)
    ]
    names = sorted(g.nodes)
    for _ in range(rng.randint(0, 3)):
        src, dst = rng.choice(names), rng.choice(names)
        ts.append(Transition("%s_%d" % (src, rng.randrange(k)), "a", "%s_%d" % (dst, rng.randrange(k))))
    return Chart(ts, nodes=["%s_%d" % (n, c) for n in names for c in range(k)])


def test_partition_vs_naive_larger_charts():
    rng = random.Random(41)
    for i in range(90):
        if i % 3 == 0:
            g = random_chart(rng, max_nodes=35, alphabet=rng.choice((("a",), ("a", "b"))))
        elif i % 3 == 1:
            g = _paths(rng, rng.randint(2, 17))
        else:
            g = _copies(rng, random_chart(rng, max_nodes=8), rng.randint(2, 4))
        assert _partition_pairs(bisimilarity_partition(g)) == naive_bisimilarity(g)


def test_bisimilarity_vs_naive_pairs():
    rng = random.Random(29)
    for _ in range(100):
        g = random_chart(rng, max_nodes=5)
        h = random_chart(rng, max_nodes=5)
        assert bisimilarity(g, h) == naive_bisimilarity_pairs(g, h)


def test_bisimilarity_is_a_bisimulation():
    rng = random.Random(31)
    for _ in range(40):
        g = random_chart(rng, max_nodes=5)
        h = random_chart(rng, max_nodes=5)
        rel = bisimilarity(g, h)
        assert relation_is_bisimulation(rel, g, h)
        assert is_bisimulation(rel, g, h)


def test_bisimilarity_vs_lattice_search():
    # the greatest bisimulation contains a pair iff SOME bisimulation does
    rng = random.Random(37)
    for _ in range(12):
        g = random_chart(rng, max_nodes=3, alphabet=("a",))
        h = random_chart(rng, max_nodes=3, alphabet=("a",))
        rel = bisimilarity(g, h)
        for x in sorted(g.nodes):
            for y in sorted(h.nodes):
                assert ((x, y) in rel) == exists_bisimulation_containing(
                    (x, y), g, h
                )


def test_is_bisimulation_cases(chart_g):
    assert is_bisimulation(set(), chart_g, chart_g)
    identity = {(n, n) for n in chart_g.nodes}
    assert is_bisimulation(identity, chart_g, chart_g)
    assert is_bisimulation({("x", "x'"), ("x'", "x"), ("x", "x"), ("x'", "x'")},
                           chart_g, chart_g)
    toggle = Chart(
        [
            Transition("X", "a", "Y"),
            Transition("Y", "a", "X"),
            Transition("X", "b", TERMINATION),
            Transition("Y", "c", TERMINATION),
        ]
    )
    # X and Y disagree on terminal actions
    assert not is_bisimulation({("X", "Y")}, toggle, toggle)
    with pytest.raises(UnknownNode):
        is_bisimulation({("x", "nope")}, chart_g, chart_g)


def test_bisim_map_fixture(chart_g, chart_h, map_g_to_h):
    theta = map_g_to_h
    assert theta("x") == "X"
    assert theta("x'") == "X"
    with pytest.raises(UnknownNode):
        theta("X")
    assert theta.to_text() == "map v1\nx X\nx' X\n"
    again = BisimMap.from_text(theta.to_text(), chart_g, chart_h)
    assert again == theta
    assert hash(again) == hash(theta)
    assert theta.to_json_dict() == {"v": 1, "map": {"x": "X", "x'": "X"}}


def test_bisim_map_validation(chart_g, chart_h):
    with pytest.raises(NotABisimulation):
        BisimMap(chart_g, chart_h, {"x": "X"})  # not total
    with pytest.raises(NotABisimulation):
        BisimMap(chart_g, chart_h, {"x": "X", "x'": "W"})  # not a target node
    one = interpret(parse("a*0"))
    with pytest.raises(NotABisimulation):
        # x can do b, the target cannot: transfer fails
        BisimMap(chart_g, one, {"x": "a*0", "x'": "a*0"})
    flipped = Chart(chart_h.transitions, nodes=chart_h.nodes)  # drop the initial
    BisimMap(chart_g, flipped, {"x": "X", "x'": "X"})  # fine without initials


def test_bisim_map_initial_condition(chart_g):
    shifted = chart_g.rooted_at("x'")
    with pytest.raises(NotABisimulation):
        # identity transfer holds but x must map to the initial x'
        BisimMap(chart_g, shifted, {n: n for n in chart_g.nodes})


@pytest.mark.parametrize(
    "text",
    ["x X\n", "map v2\n", "map v1\nx\n", "map v1\nx X\nx X\n"],
)
def test_bisim_map_text_errors(text, chart_g, chart_h):
    with pytest.raises(ParseError):
        BisimMap.from_text(text, chart_g, chart_h)


def test_image(chart_g, chart_h, map_g_to_h):
    sub = chart_of_nodes(chart_g, {"x", "x'"}, start="x'")
    img = image(map_g_to_h, sub)
    assert img.parent == chart_h
    assert img.nodes == {"X"}
    assert img.start == "X"
    foreign = chart_of_nodes(chart_h, {"X"})
    with pytest.raises(UnknownNode):
        image(map_g_to_h, foreign)


def test_collapse_g(chart_g):
    res = collapse(chart_g)
    assert res.chart is not chart_g
    assert res.chart.nodes == {"x"}
    assert res.chart.initial == "x"
    assert res.chart.transitions == {
        Transition("x", "a", "x"),
        Transition("x", "b", "x"),
    }
    assert res.theta.mapping == {"x": "x", "x'": "x"}
    assert res.theta.source == chart_g
    assert res.theta.target == res.chart


def test_collapse_checks_its_map_once(monkeypatch, chart_g):
    calls = []

    def counted(*tables, transfers=lleekit.bisim._transfers):
        calls.append(1)
        return transfers(*tables)

    monkeypatch.setattr(lleekit.bisim, "_transfers", counted)
    rng = random.Random(17)
    for i in range(1, 41):
        res = collapse(random_chart(rng, max_nodes=6, rooted=rng.random() < 0.5))
        assert len(calls) == i
        # the unchecked map is the map a checked construction gives
        assert res.theta == BisimMap(res.theta.source, res.chart, dict(res.theta.mapping))
        assert len(calls) == i + 1
        del calls[-1]
    # a map given by the user is still checked
    with pytest.raises(NotABisimulation):
        BisimMap(chart_g, interpret(parse("a*0")), {"x": "a*0", "x'": "a*0"})
    assert len(calls) == 41


def test_collapse_cii(chart_cii, chart_ci):
    res = collapse(chart_cii)
    assert res.chart is not chart_cii
    assert res.chart.nodes == {"z", "x", "y", "k"}
    assert res.chart.initial == "z"
    # structurally CI with lower-case class representatives
    renamed = {
        Transition(t.src.lower(), t.action, t.dst.lower())
        for t in chart_ci.transitions
    }
    assert res.chart.transitions == renamed
    assert res.theta.mapping == {
        "z": "z",
        "z'": "z",
        "z''": "z",
        "x": "x",
        "x'": "x",
        "y": "y",
        "k": "k",
    }


def test_a_minimal_chart_is_its_own_collapse(chart_h, chart_ci):
    # no two nodes of h or ci are bisimilar: the quotient is the chart
    # itself, and the map the identity
    for c in (chart_h, chart_ci):
        res = collapse(c)
        assert res.chart is c
        assert res.theta == BisimMap(c, c, {x: x for x in c.nodes})


@pytest.mark.parametrize(
    "transitions",
    [
        # one node: minimal, its own collapse
        [Transition("x", "a", "x")],
        # x and y are bisimilar: the collapse merges them
        [Transition("x", "a", "y"), Transition("y", "a", "x")],
    ],
    ids=["minimal", "merged"],
)
def test_collapse_keeps_the_declared_alphabet(transitions, tmp_path, capsys):
    # an action the chart declares and no transition uses stays in the
    # collapse's alphabet, the one output that shows it being JSON's
    c = Chart(transitions, initial="x", alphabet=["a", "z"])
    res = collapse(c)
    assert len(res.chart.names) == 1
    assert res.chart.alphabet == {"a", "z"}
    path = tmp_path / "chart.json"
    path.write_text(c.to_json())
    assert run(["--format", "json", "collapse", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chart"]["alphabet"] == ["a", "z"]


def test_is_bisimulation_vs_the_oracle_on_random_relations():
    # random non-empty relations over random charts with terminal
    # transitions, most of them no bisimulation: every other one a subset
    # of the greatest bisimulation, whose pairs agree on their terminal
    # actions, so that an unmatched move is its only possible fault
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    unmatched = 0
    for i in range(400):
        g = random_chart(rng, max_nodes=4)
        h = g if rng.random() < 0.5 else random_chart(rng, max_nodes=4)
        if i % 2:
            pairs = sorted(bisimilarity(g, h))
        else:
            pairs = [(x, y) for x in sorted(g.nodes) for y in sorted(h.nodes)]
        if not pairs:
            continue
        rel = set(rng.sample(pairs, rng.randint(1, len(pairs))))
        expected = relation_is_bisimulation(rel, g, h)
        assert is_bisimulation(rel, g, h) is expected
        verdicts[expected] += 1
        agree = all(g.terminal_actions(x) == h.terminal_actions(y) for x, y in rel)
        unmatched += agree and not expected
    assert verdicts[False] > verdicts[True] >= 100
    assert unmatched >= 50


def test_collapse_random_properties():
    rng = random.Random(41)
    for _ in range(60):
        g = random_chart(rng, max_nodes=6, rooted=True)
        res = collapse(g)
        # no two distinct collapse nodes are bisimilar
        part = bisimilarity_partition(res.chart)
        assert all(len(b) == 1 for b in part.blocks)
        # collapsing again changes nothing
        assert collapse(res.chart).chart == res.chart
        # the quotient map is a bisimulation relating initials
        assert (g.initial, res.chart.initial) in bisimilarity(g, res.chart)


@settings(max_examples=40, deadline=None)
@given(charts())
def test_partition_blocks_cover_nodes(g):
    part = bisimilarity_partition(g)
    seen = set()
    for block in part.blocks:
        assert not (block & seen)
        seen |= block
    assert seen == g.nodes


# --- charts whose nodes cannot all reach a cycle ----------------------------
#
# Refinement settles the nodes that reach no cycle in one bottom-up pass and
# refines the rest by signature; these charts mix both kinds and join them
# in every direction.


def _dag(rng, prefix, count, alphabet=("a", "b")):
    """Transitions of a random DAG over ``prefix0..``: edges only go up."""
    names = ["%s%d" % (prefix, i) for i in range(count)]
    ts = []
    for i, src in enumerate(names):
        for _ in range(rng.randint(0, 3)):
            action = rng.choice(alphabet)
            if i == count - 1 or rng.random() < 0.25:
                ts.append(Transition(src, action, TERMINATION))
            else:
                ts.append(Transition(src, action, names[rng.randrange(i + 1, count)]))
    return names, ts


def _with_copy(rng, names, ts):
    """``ts`` plus a renamed copy of what one node reaches, and new nodes
    that lead into both the original and the copy."""
    g = Chart(ts, nodes=names)
    sub = g.reachable([rng.choice(names)])
    ren = {n: n + "'" for n in sub}
    ts = ts + [
        Transition(ren[t.src], t.action, t.dst if t.terminal else ren[t.dst])
        for t in g.transitions
        if t.src in sub
    ]
    for i in range(rng.randint(1, 3)):
        top = "top%d" % i
        for n in rng.sample(sorted(sub), min(2, len(sub))):
            ts.append(Transition(top, rng.choice("ab"), rng.choice((n, ren[n]))))
    return ts, list(names) + list(ren.values())


def _cycle(rng, prefix, count):
    names = ["%s%d" % (prefix, i) for i in range(count)]
    ts = [
        Transition(names[i], rng.choice("ab"), names[(i + 1) % count]) for i in range(count)
    ]
    return names, ts


def _well_founded_mix(rng):
    kind = rng.randrange(4)
    names, ts = _dag(rng, "d", rng.randint(1, 12))
    if kind == 0:
        # duplicated sub-DAGs: bisimilar copies that only the pass can merge
        ts, names = _with_copy(rng, names, ts)
    elif kind == 1:
        # DAG tails that lead into cycles, and cycles that exit into DAGs
        for c in range(rng.randint(1, 2)):
            cyc, cts = _cycle(rng, "c%d_" % c, rng.randint(1, 4))
            ts += cts
            for _ in range(rng.randint(1, 3)):
                ts.append(Transition(rng.choice(names), rng.choice("ab"), rng.choice(cyc)))
                ts.append(Transition(rng.choice(cyc), rng.choice("ab"), rng.choice(names)))
            names += cyc
    elif kind == 2:
        # repeated (action, target class) pairs: a node with two steps to
        # bisimilar targets, and nodes with the same steps
        ts, names = _with_copy(rng, names, ts)
        for i in range(rng.randint(1, 3)):
            n = rng.choice(names)
            m = n + "'" if n + "'" in names else n
            a = rng.choice("ab")
            ts += [Transition("r%d" % i, a, n), Transition("r%d" % i, a, m)]
            ts += [Transition("s%d" % i, a, m)]
    # isolated nodes, terminal-only nodes and loose self-loops
    extra = ["iso%d" % i for i in range(rng.randint(0, 2))]
    for i in range(rng.randint(0, 2)):
        ts.append(Transition("t%d" % i, rng.choice("ab"), TERMINATION))
    if rng.random() < 0.3:
        ts.append(Transition("loop", "a", "loop"))
    return Chart(ts, nodes=names + extra)


def test_partition_vs_naive_well_founded_mixes():
    rng = random.Random(53)
    for _ in range(150):
        g = _well_founded_mix(rng)
        assert _partition_pairs(bisimilarity_partition(g)) == naive_bisimilarity(g)


def test_refine_repeated_steps_and_isolated_ids():
    # _refine's tables may list the same (action, dst) pair twice, as a
    # state of ``a+a`` does; the repeats change no class
    rng = random.Random(59)
    for _ in range(60):
        g = _well_founded_mix(rng)
        outmap, term = [], []
        _index_tables(g, outmap, term)
        ids = g.ids
        plain = _refine([list(out) for out in outmap], term)
        doubled = _refine([out + out[::-1] for out in outmap], term)
        for x, i in ids.items():
            for y, j in ids.items():
                assert (plain[i] == plain[j]) == (doubled[i] == doubled[j])
    # ids with no step at all: one class per terminal-action set
    none, ab = frozenset(), frozenset({"a"})
    block = _refine([[], [], [], []], [none, ab, none, ab])
    assert block[0] == block[2] != block[1] == block[3]


def _permuted(outmap, term, rng):
    """``_refine``'s tables with the ids renumbered at random, and the new
    id of every old one."""
    perm = list(range(len(outmap)))
    rng.shuffle(perm)
    new_out, new_term = [None] * len(outmap), [None] * len(outmap)
    for i, p in enumerate(perm):
        new_out[p] = [(a, perm[d]) for a, d in outmap[i]]
        new_term[p] = term[i]
    return new_out, new_term, perm


def _walked_blocks(outmap, term):
    """The block ids of well-founded tables as one post-order walk per
    root, roots from the last id down, interns them: the first phase of
    ``_refine`` without its settled-root shortcut."""
    block = [None] * len(outmap)
    settled = {}
    for root in range(len(outmap) - 1, -1, -1):
        stack = [root]
        while stack:
            n = stack[-1]
            todo = [d for _, d in outmap[n] if block[d] is None]
            if block[n] is not None:
                stack.pop()
            elif todo:
                stack.append(todo[0])
            else:
                stack.pop()
                pairs = frozenset((a, block[d]) for a, d in outmap[n])
                block[n] = settled.setdefault((term[n], pairs), len(settled))
    return block


def test_refine_on_permuted_explorations():
    # an exploration numbers a state's successors after it, so a root of
    # _refine's first phase whose successors are all settled takes its
    # block without a walk; renumbered at random, many roots fall back to
    # the walk instead.  Either way the partition is bisimilarity, and on
    # well-founded tables the block ids are the ones the walk alone gives
    rng = random.Random(67)
    acyclic = 0
    for i in range(200):
        e = random_expression(rng, rng.randint(1, 30))
        if i % 4 == 0:
            e = Seq(e, parse(".".join("abc"[rng.randrange(3)] for _ in range(rng.randint(1, 40)))))
        x = _explore([e], None, str)
        names = [x.space.name(s) for s in x.states]
        g = interpret(e)
        expected = naive_bisimilarity_pairs(g, g)
        for out, term, perm in [(x.out, x.term, range(len(names)))] + [
            _permuted(x.out, x.term, rng) for _ in range(3)
        ]:
            block = _refine(out, term)
            got = {
                (u, v)
                for u, p in zip(names, perm)
                for v, q in zip(names, perm)
                if block[p] == block[q]
            }
            assert got == expected, unparse(e)
            if not g.has_cycle():
                assert block == _walked_blocks(out, term), unparse(e)
                acyclic += 1
    assert acyclic > 100


@pytest.mark.parametrize(
    "transitions",
    [
        # n2, n1, n0 in turn find their successors settled
        ["n0 a n1", "n1 a n2", "n2 b !"],
        # n2's successor n0 is not visited yet: the walk settles both
        ["n2 a n0", "n0 b !", "n1 a n2"],
        # n0's successor n1 reaches the cycle n1 n2: n0 reaches it too
        ["n0 a n1", "n1 a n2", "n2 a n1", "n3 a n4", "n4 b !"],
        # a self-loop at n1, below a settled n2
        ["n0 a n1", "n1 a n1", "n1 a n2", "n2 b !", "n3 a n2"],
    ],
    ids=["settled", "unvisited", "cycle", "self-loop"],
)
def test_refine_settled_roots_and_walks(transitions):
    def t(line):
        src, a, dst = line.split()
        return Transition(src, a, TERMINATION if dst == "!" else dst)

    g = Chart([t(line) for line in transitions])
    outmap, term = [], []
    _index_tables(g, outmap, term)
    block = _refine(outmap, term)
    ids = g.ids
    got = {(x, y) for x in ids for y in ids if block[ids[x]] == block[ids[y]]}
    assert got == naive_bisimilarity_pairs(g, g)
    if not g.has_cycle():
        assert block == _walked_blocks(outmap, term)


# --- one key per signature ---------------------------------------------------
#
# _refine keys a signature of one (action, block) pair by the pair itself,
# not by a one-element set.  Below, x reaches the class of y1 ~ y2 by two
# steps, or by one step twice, and z by the single step a: x ~ z must come
# out of every route, however the ids are numbered.

_ENDS = {"y1": {"b"}, "y2": {"b"}}
_ONE_CLASS = {
    "two steps": {"x": [("a", "y1"), ("a", "y2")], "z": [("a", "y1")], "y1": [], "y2": []},
    "repeated step": {"x": [("a", "y1"), ("a", "y1")], "z": [("a", "y1")], "y1": [], "y2": []},
}


def _hand_tables(steps, order):
    """``_refine``'s tables for ``steps``, node ``order[i]`` as id ``i``."""
    ids = {n: i for i, n in enumerate(order)}
    outmap = [[(a, ids[d]) for a, d in steps[n]] for n in order]
    term = [frozenset(_ENDS.get(n, ())) for n in order]
    return outmap, term, ids


def _check_hand_tables(steps, orders, acyclic):
    # repeated steps are one transition of the chart
    ts = [Transition(n, a, d) for n, out in steps.items() for a, d in out]
    ts += [Transition(n, a, TERMINATION) for n, ends in _ENDS.items() for a in ends]
    g = Chart(list(dict.fromkeys(ts)), nodes=list(steps))
    expected = naive_bisimilarity_pairs(g, g)
    assert ("x", "z") in expected
    for order in orders:
        outmap, term, ids = _hand_tables(steps, order)
        block = _refine(outmap, term)
        got = {(u, v) for u in ids for v in ids if block[ids[u]] == block[ids[v]]}
        assert got == expected, order
        if acyclic:
            assert block == _walked_blocks(outmap, term), order


@pytest.mark.parametrize("steps", list(_ONE_CLASS.values()), ids=list(_ONE_CLASS))
def test_one_pair_keys_on_settled_roots(steps):
    # successors numbered after their sources, as an exploration numbers
    # them: z takes the one-step shortcut and x the loop over its steps
    _check_hand_tables(steps, [("x", "z", "y1", "y2"), ("z", "x", "y1", "y2")], acyclic=True)


@pytest.mark.parametrize("steps", list(_ONE_CLASS.values()), ids=list(_ONE_CLASS))
def test_one_pair_keys_on_walks(steps):
    # every numbering: roots met before their successors start the walk
    _check_hand_tables(steps, itertools.permutations(steps), acyclic=True)


@pytest.mark.parametrize("steps", list(_ONE_CLASS.values()), ids=list(_ONE_CLASS))
@pytest.mark.parametrize("looped", ["every node", "targets"])
def test_one_pair_keys_in_batches(steps, looped):
    # a self-loop makes the nodes it is added to reach a cycle, so the
    # batch phase signs them.  On the targets alone, x and z have one
    # distinct pair each, x from two steps and z from one
    steps = {
        n: out + [("c", n)] if looped == "every node" or n.startswith("y") else out
        for n, out in steps.items()
    }
    _check_hand_tables(steps, itertools.permutations(steps), acyclic=False)


def test_chain_states_are_keyed_without_sets(monkeypatch):
    # refining two 2000-action chains that differ in their last action
    # keys every chain state by its one pair; only the two last states,
    # which have no step, build a set.  Keyed by sets, it took one a state
    calls = []

    def counting(*args):
        calls.append(args)
        return frozenset(*args)

    run = ".".join(["c"] * 1999)
    x1 = _explore([parse(run + ".x")], None, str)
    x2 = _explore([parse(run + ".y")], None, str, base=len(x1.states))
    monkeypatch.setattr(lleekit.bisim, "frozenset", counting, raising=False)
    block = _refine(x1.out + x2.out, x1.term + x2.term)
    assert block[x1.roots[0]] != block[x2.roots[0]]
    assert len(calls) <= 4
