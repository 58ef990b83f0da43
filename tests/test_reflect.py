"""Images of looping-back structure under a collapse, and witness reflection."""

import json
import random
import sys

import pytest

import lleekit.lee
import lleekit.reflect
from generators import random_chart, random_expression
from oracles import reference_smaller_preimage
from test_cli_golden import CASES, GOLDEN, _run
from lleekit.bisim import BisimMap, collapse
from lleekit.chart import TERMINATION, Chart, Transition, interpret
from lleekit.errors import (
    LemmaViolated,
    NotCollapse,
    NotLLEE,
    UnknownNode,
)
from lleekit.lee import (
    all_looping_back_charts,
    find_lee_witness,
    is_llee_witness,
    lee_to_llee,
)
from lleekit.reflect import (
    ImageHierarchy,
    ImageRecord,
    _Image,
    _lemma_report,
    _reflect_witness,
    check_lemma_conditions,
    collapse_lee_witness,
    images,
    loop_correspondence,
    well_structured_preimage,
)
from lleekit.expr import Action, Plus, Seq, Zero
from lleekit.solve import equiv

T = Transition


@pytest.fixture(scope="module")
def hierarchy(map_cii_to_ci, witness_cii_hat):
    return images(map_cii_to_ci, witness_cii_hat)


# --- image hierarchy --------------------------------------------------------


def test_images_two_level(hierarchy, map_cii_to_ci, witness_cii_hat):
    recs = hierarchy.records
    assert [r.image.nodes for r in recs] == [
        {"X", "Z"},
        {"Y", "Z"},
        {"K", "X", "Y", "Z"},
    ]
    lbcs = all_looping_back_charts(witness_cii_hat)
    assert recs[0].start == "Z"
    assert recs[0].preimages == (lbcs["z'"],)
    assert recs[0].well_structured == lbcs["z'"]
    assert recs[1].start == "Z"
    assert recs[1].preimages == (lbcs["z''"],)
    # the full image has two pre-images; only the smaller one is
    # well-structured, and it starts at x, not at the mapped initial
    assert recs[2].start == "X"
    assert recs[2].preimages == (lbcs["x"], lbcs["z"])
    assert recs[2].well_structured == lbcs["x"]
    assert recs[2].well_structured.nodes == {"x", "z''", "k", "y"}
    assert hierarchy.order == {(0, 2), (1, 2)}
    assert hierarchy.proper_subimages(recs[2]) == (recs[0], recs[1])
    assert hierarchy.proper_subimages(recs[0]) == ()


def test_images_map_node_sets(hierarchy, map_cii_to_ci):
    for rec in hierarchy.records:
        assert rec.well_structured in rec.preimages
        for pre in rec.preimages:
            mapped = frozenset(map_cii_to_ci(v) for v in pre.nodes)
            assert mapped == rec.image.nodes
        assert rec.image.start == rec.start


def test_images_one_node_collapse(map_g_to_h, witness_g_hat):
    hier = images(map_g_to_h, witness_g_hat)
    assert len(hier.records) == 1
    rec = hier.records[0]
    assert rec.image.nodes == {"X"}
    assert rec.start == "X"
    lbcs = all_looping_back_charts(witness_g_hat)
    # both looping-back charts map onto {X}; the inner one is the
    # well-structured pre-image
    assert rec.preimages == (lbcs["x"], lbcs["x'"])
    assert rec.well_structured == lbcs["x'"]
    assert hier.order == frozenset()


def test_images_identity_map(chart_ci, witness_ci_hat_prime):
    ident = BisimMap(chart_ci, chart_ci, {n: n for n in chart_ci.nodes})
    hier = images(ident, witness_ci_hat_prime)
    assert len(hier.records) == 1
    rec = hier.records[0]
    assert rec.image.nodes == {"Z", "X", "Y", "K"}
    assert rec.start == "Z"
    assert rec.preimages == (all_looping_back_charts(witness_ci_hat_prime)["Z"],)


def test_images_preconditions(chart_g, witness_g_hat, chart_ci, witness_ci_hat, map_g_to_h):
    ident_g = BisimMap(chart_g, chart_g, {n: n for n in chart_g.nodes})
    with pytest.raises(NotCollapse):
        images(ident_g, witness_g_hat)  # x and x' are bisimilar in the target
    ident_ci = BisimMap(chart_ci, chart_ci, {n: n for n in chart_ci.nodes})
    with pytest.raises(NotLLEE):
        images(ident_ci, witness_ci_hat)  # replays but is not layered
    with pytest.raises(UnknownNode):
        images(map_g_to_h, witness_ci_hat)  # witness lives on another chart


# --- well-structured pre-images ---------------------------------------------


def test_well_structured_preimage_descends(hierarchy, map_cii_to_ci, witness_cii_hat):
    lbcs = all_looping_back_charts(witness_cii_hat)
    rec = hierarchy.records[2]
    # descending from the big pre-image reaches the small one
    reordered = ImageRecord(rec.image, rec.start, (lbcs["z"], lbcs["x"]), rec.well_structured)
    assert well_structured_preimage(map_cii_to_ci, reordered) == lbcs["x"]
    # a well-structured first pre-image is returned unchanged
    assert well_structured_preimage(map_cii_to_ci, hierarchy.records[0]) == lbcs["z'"]
    assert well_structured_preimage(map_cii_to_ci, rec) == lbcs["x"]


def test_well_structured_preimage_is_minimal(hierarchy, map_cii_to_ci, witness_cii_hat):
    lbcs = all_looping_back_charts(witness_cii_hat)
    for rec in hierarchy.records:
        ws = well_structured_preimage(map_cii_to_ci, rec)
        for y in ws.body:
            sub = lbcs.get(y)
            if sub is None:
                continue
            mapped = frozenset(map_cii_to_ci(v) for v in sub.nodes)
            assert not (sub.nodes < ws.nodes and mapped == rec.image.nodes)


def test_smaller_preimage_vs_sorted_node_scan():
    # on the layered witnesses of random expressions and of random charts,
    # under maps that merge nodes at random: scanning the same-image starts
    # finds what scanning the chart's sorted nodes with a subset test finds,
    # and the image computation chooses the least well-structured pre-image
    rng = random.Random(101)
    witnesses = [
        lleekit.lee.expression_witness(random_expression(rng, rng.randint(1, 18)))
        for _ in range(150)
    ]
    while len(witnesses) < 250:
        found = find_lee_witness(random_chart(rng, max_nodes=6, rooted=True))
        if found is not None:
            witnesses.append(lee_to_llee(found))
    smaller = 0
    for w in witnesses:
        lbcs = w._loops[2]
        n = len(w.chart.names)
        for buckets in (1, 2, 3, n):
            theta = [rng.randrange(buckets) for _ in range(n)]
            image = {x: frozenset(theta[v] for v in nodes) for x, nodes in lbcs.items()}
            for x, nodes in lbcs.items():
                starts = [y for y in lbcs if image[y] == image[x]]
                found = lleekit.reflect._smaller_preimage(x, nodes, starts)
                assert found == reference_smaller_preimage(theta, x, lbcs, image[x])
                smaller += found is not None
            for rec in lleekit.reflect._images(theta, lbcs):
                assert rec.chosen == min(
                    x
                    for x in rec.preimages
                    if reference_smaller_preimage(theta, x, lbcs, rec.nodes) is None
                )
    assert smaller >= 30, smaller


# --- loop correspondence ----------------------------------------------------


def test_loop_correspondence_self_loop(map_g_to_h):
    s, d = loop_correspondence(map_g_to_h, [T("X", "a", "X")], "x")
    assert s == (T("x", "a", "x'"),)
    assert d == (T("x'", "a", "x'"),)
    s, d = loop_correspondence(map_g_to_h, [T("X", "a", "X")], "x'")
    assert s == ()
    assert d == (T("x'", "a", "x'"),)


def test_loop_correspondence_two_step(map_cii_to_ci):
    s, d = loop_correspondence(map_cii_to_ci, [T("Z", "a1", "Z")], "z")
    assert s == ()
    assert d == (T("z", "a1", "z'"), T("z'", "a1", "z"))


def test_loop_correspondence_soundness(map_cii_to_ci, chart_ci):
    theta = map_cii_to_ci
    from lleekit.chart import simple_cycles

    cycles = sorted(
        simple_cycles(chart_ci), key=lambda cyc: [t.sort_key() for t in cyc]
    )
    for cyc in cycles:
        for start in sorted(theta.source.nodes):
            if theta(start) not in {t.src for t in cyc}:
                continue
            s, d = loop_correspondence(theta, list(cyc), start)
            walk = list(s) + list(d)
            assert walk[0].src == start
            for a, b in zip(walk, walk[1:]):
                assert a.dst == b.src
            # d really is a loop of the source whose image stays on the cycle
            assert d and d[-1].dst == d[0].src
            assert {theta(t.src) for t in d} <= {t.src for t in cyc}


def test_loop_correspondence_errors(map_g_to_h):
    with pytest.raises(ValueError):
        loop_correspondence(map_g_to_h, [], "x")
    with pytest.raises(ValueError):
        loop_correspondence(map_g_to_h, [T("X", "q", TERMINATION)], "x")
    with pytest.raises(ValueError):
        loop_correspondence(
            map_g_to_h, [T("X", "a", "X"), T("Y", "a", "X")], "x"
        )
    with pytest.raises(UnknownNode):
        loop_correspondence(map_g_to_h, [T("X", "a", "X")], "nope")
    with pytest.raises(ValueError):
        # a made-up action: no transition of the target, so bad input
        loop_correspondence(map_g_to_h, [T("X", "zz", "X")], "x")


def test_loop_correspondence_rejects_a_cycle_off_the_target(chart_ci):
    theta = collapse(chart_ci).theta
    with pytest.raises(ValueError, match="not a transition of the target"):
        loop_correspondence(theta, [T("K", "zz", "K")], "K")


# --- lemma conditions -------------------------------------------------------


def test_lemma_conditions_hold(map_cii_to_ci, witness_cii_hat, map_g_to_h, witness_g_hat):
    report = check_lemma_conditions(map_cii_to_ci, witness_cii_hat)
    assert report.ok and not report.violations and bool(report)
    assert check_lemma_conditions(map_g_to_h, witness_g_hat).ok


def test_lemma_conditions_identity(chart_ci, witness_ci_hat_prime):
    ident = BisimMap(chart_ci, chart_ci, {n: n for n in chart_ci.nodes})
    assert check_lemma_conditions(ident, witness_ci_hat_prime).ok


def test_lemma_report_cycle_in_no_image(hierarchy, map_cii_to_ci):
    # without the full image, the cycle through K lies in none
    report = _lemma_report(map_cii_to_ci, ImageHierarchy(hierarchy.records[:2], frozenset()))
    assert report.violations == (
        ("1", "cycle [K -d2-> X, X -b1-> Z, Z -a4-> K] lies in no image"),
    )


def test_lemma_report_cycle_misses_the_start(hierarchy, map_cii_to_ci):
    xz, yz, full = hierarchy.records
    moved = ImageRecord(xz.image, "X", xz.preimages, xz.well_structured)
    report = _lemma_report(map_cii_to_ci, ImageHierarchy((moved, yz, full), hierarchy.order))
    assert report.violations == (
        ("2", "cycle [Z -a1-> Z] in image {X, Z} misses the start X"),
    )


def test_lemma_report_transition_escapes(hierarchy, map_cii_to_ci, witness_cii_hat):
    # a pre-image starting at x makes Z a body node of {X, Z}, and Z leaves it
    xz, yz, full = hierarchy.records
    pre = all_looping_back_charts(witness_cii_hat)["x"]
    moved = ImageRecord(xz.image, xz.start, (pre,), xz.well_structured)
    report = _lemma_report(map_cii_to_ci, ImageHierarchy((moved, yz, full), hierarchy.order))
    assert not report
    assert report.violations == (
        ("3", "transition Z -a3-> Y escapes image {X, Z}"),
        ("3", "transition Z -a4-> K escapes image {X, Z}"),
    )


def test_lemma_report_terminal_transition_off_the_start():
    # X starts the outer loop {X, Y} and may terminate there, which a start
    # may; a pre-image starting at Y makes X a non-start node of that image
    c = Chart(
        [T("X", "a", "Y"), T("Y", "b", "X"), T("Y", "d", "Y"), T("X", "c", TERMINATION)],
        initial="X",
    )
    w = lleekit.lee.Witness(c, {T("Y", "d", "Y"): 1, T("X", "a", "Y"): 2, T("Y", "b", "X"): 0})
    theta = BisimMap(c, c, {x: x for x in c.nodes})
    hierarchy = images(theta, w)
    assert _lemma_report(theta, hierarchy).ok
    inner, outer = sorted(hierarchy.records, key=lambda rec: len(rec.image.nodes))
    assert (inner.start, outer.start) == ("Y", "X")
    moved = ImageRecord(outer.image, outer.start, inner.preimages, outer.well_structured)
    records = tuple(moved if rec is outer else rec for rec in hierarchy.records)
    report = _lemma_report(theta, ImageHierarchy(records, hierarchy.order))
    assert not report
    assert report.violations == (
        ("3", "non-start node X of image {X, Y} has a terminal transition"),
    )


# --- reflecting a witness through the collapse ------------------------------


def test_collapse_lee_witness_one_node(map_g_to_h, witness_g_hat, witness_h_hat):
    assert collapse_lee_witness(map_g_to_h, witness_g_hat) == witness_h_hat


def test_collapse_lee_witness_two_level(map_cii_to_ci, witness_cii_hat, chart_ci):
    w = collapse_lee_witness(map_cii_to_ci, witness_cii_hat)
    assert w.chart == chart_ci
    assert w.order == {
        T("Z", "a1", "Z"): 1,
        T("Z", "a2", "X"): 1,
        T("Z", "a3", "Y"): 2,
        T("X", "b1", "Z"): 3,
        T("Z", "a4", "K"): 0,
        T("Y", "d1", "Z"): 0,
        T("K", "d2", "X"): 0,
    }
    rep = w.replay()
    assert rep.ok
    # the image-wise elimination is valid but needs layering: its last step
    # starts at X inside an earlier body
    assert not rep.llee
    w2 = lee_to_llee(w)
    assert w2.chart == chart_ci
    assert is_llee_witness(w2)
    assert w2.order == {
        T("Z", "a1", "Z"): 1,
        T("Z", "a2", "X"): 2,
        T("Z", "a3", "Y"): 3,
        T("Z", "a4", "K"): 4,
        T("X", "b1", "Z"): 0,
        T("Y", "d1", "Z"): 0,
        T("K", "d2", "X"): 0,
    }


def test_collapse_lee_witness_identity(chart_ci, witness_ci_hat_prime):
    ident = BisimMap(chart_ci, chart_ci, {n: n for n in chart_ci.nodes})
    w = collapse_lee_witness(ident, witness_ci_hat_prime)
    assert w == find_lee_witness(chart_ci)
    assert is_llee_witness(w)


# S loops back through A, C loops on itself, and E only terminates
LEMMA_CHART = Chart(
    [
        T("S", "a", "A"),
        T("A", "b", "S"),
        T("S", "c", "C"),
        T("C", "d", "C"),
        T("S", "e", "E"),
        T("E", "f", TERMINATION),
    ],
    initial="S",
)


@pytest.mark.parametrize(
    "images,message",
    [
        # the step at S cuts A off, and C's loop is left in the next image
        (
            [("SA", "S"), ("ACE", "A")],
            "image {A, C, E} still has cycles but its start A was collected",
        ),
        ([("CE", "E")], "image {C, E} still has cycles but no entries remain at E"),
        ([("CS", "S")], "entries at S do not span a loop sub-chart of the remaining chart"),
        ([], "cycles survive after eliminating every image"),
    ],
    ids=["start_collected", "no_entries", "no_loop", "cycles_survive"],
)
def test_reflect_witness_lemma_violations(images, message):
    # each way the image-wise elimination can fail, forced by hand-made
    # image records (node names, start)
    ids = LEMMA_CHART.ids
    records = [
        _Image(frozenset(ids[v] for v in nodes), ids[start], (), None) for nodes, start in images
    ]
    with pytest.raises(LemmaViolated) as exc:
        _reflect_witness(LEMMA_CHART, records)
    assert str(exc.value) == message


def test_reflection_enumerates_no_cycles(
    monkeypatch,
    map_g_to_h,
    witness_g_hat,
    witness_h_hat,
    map_cii_to_ci,
    witness_cii_hat,
    chart_ci,
    witness_ci_hat_prime,
):
    # reflect and collapse_lee_witness take the reflection equiv takes: the
    # images, the elimination and a replay, with no lemma report
    golden = json.loads(GOLDEN.read_text())
    cases = [case for case in CASES if " reflect " in case]
    assert len(cases) == 15

    def forbidden(*args, **kwargs):
        raise AssertionError("the reflection enumerated cycles")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lleekit":
            for attr in ("simple_cycles", "_lemma_report"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    for case in cases:
        assert golden[case][0] == 0
        assert _run(case) == golden[case]
    assert collapse_lee_witness(map_g_to_h, witness_g_hat) == witness_h_hat
    assert collapse_lee_witness(map_cii_to_ci, witness_cii_hat).replay().ok
    ident = BisimMap(chart_ci, chart_ci, {n: n for n in chart_ci.nodes})
    assert collapse_lee_witness(ident, witness_ci_hat_prime) == find_lee_witness(chart_ci)


def test_collapse_lee_witness_random_pipeline():
    rng = random.Random(73)
    done = 0
    while done < 30:
        e = random_expression(rng, rng.randint(1, 12))
        g = interpret(e)
        base = find_lee_witness(g)
        assert base is not None
        w = lee_to_llee(base)
        res = collapse(g)
        hier = images(res.theta, w)
        for rec in hier.records:
            for pre in rec.preimages:
                assert frozenset(res.theta(v) for v in pre.nodes) == rec.image.nodes
        assert check_lemma_conditions(res.theta, w).ok
        cw = collapse_lee_witness(res.theta, w)
        assert cw.chart == res.chart
        assert cw.is_lee
        assert is_llee_witness(lee_to_llee(cw))
        done += 1


def _assert_recorded_replay(w):
    # the reflection's run is recorded as the witness's replay, and equals
    # a replay of the witness's labels from scratch
    assert "_replayed" in vars(w)
    seeded, fresh = w._replayed, lleekit.lee._replay(w)
    assert seeded.ok and fresh.ok
    assert (seeded.llee, seeded.llee_reason, seeded.steps) == (
        fresh.llee,
        fresh.llee_reason,
        fresh.steps,
    )
    assert seeded.graph.to_chart() == fresh.graph.to_chart()


def test_reflection_records_the_replay(monkeypatch):
    reflected = []

    def recording(c, records, reflect=lleekit.reflect._reflect_witness):
        w = reflect(c, records)
        reflected.append(w)
        return w

    monkeypatch.setattr(lleekit.reflect, "_reflect_witness", recording)
    # every reflect case of the CLI goldens, on the fixtures
    golden = json.loads(GOLDEN.read_text())
    for case in CASES:
        if " reflect " in case:
            assert _run(case) == golden[case]
    assert len(reflected) == 15
    # a seeded EQUAL sweep: x = a.e+b.(e+0) steps to the distinct states e
    # and e+0, which are bisimilar, so x's chart is not its own collapse and
    # equiv reflects its witness
    rng = random.Random(79)
    for _ in range(150):
        e = random_expression(rng, rng.randint(1, 25))
        x = Plus(Seq(Action("a"), e), Seq(Action("b"), Plus(e, Zero())))
        assert equiv(x, Plus(x, x)).equal
    assert len(reflected) == 165
    for w in reflected:
        _assert_recorded_replay(w)


def test_search_records_the_replay(chart_g, chart_ci, chart_cii, chart_h):
    # the search's run is its witness's replay: the fixtures and a seeded
    # sweep of charts that have a witness
    found = [find_lee_witness(c) for c in (chart_g, chart_ci, chart_cii, chart_h)]
    rng = random.Random(83)
    for _ in range(300):
        found.append(find_lee_witness(random_chart(rng, max_nodes=7, rooted=rng.random() < 0.5)))
    found = [w for w in found if w is not None]
    assert len(found) > 200
    # recorded by the search, not replayed on first read
    assert all("_replayed" in vars(w) for w in found)
    assert sum(len(w._replayed.steps) > 2 for w in found) > 10
    for w in found:
        _assert_recorded_replay(w)


def test_reflection_records_an_unlayered_step():
    # the second image starts at A, in the body of the first image's step:
    # the recorded replay says why the reflection is not layered, as a
    # replay from scratch does
    c = Chart(
        [T("S", "a", "A"), T("A", "b", "S"), T("S", "x", "B"), T("B", "c", "A")],
        initial="S",
    )
    ids = c.ids
    first = _Image(frozenset({ids["S"], ids["A"]}), ids["S"], (), None)
    second = _Image(frozenset(ids.values()), ids["A"], (), None)
    w = _reflect_witness(c, [second, first])
    assert not w._replayed.llee
    assert w._replayed.llee_reason == (
        "step 2 starts at A, which lies in the body of an earlier eliminated loop sub-chart"
    )
    _assert_recorded_replay(w)
