"""Headline acceptance checks, one per criterion, each timed and reported.

Every test prints a single ``criterion N: PASS/FAIL`` line (bypassing
capture) before asserting, so a full run always shows the scoreboard.
"""

import random
import time
from functools import lru_cache

from generators import random_chart, random_expression
from lleekit.bisim import bisimilarity_partition, collapse
from lleekit.chart import Chart, TERMINATION, Transition, interpret
from lleekit.expr import parse, unparse
from lleekit.lee import (
    all_looping_back_charts,
    check_lbc_properties,
    expression_witness,
    find_lee_witness,
    is_llee_witness,
    lee_to_llee,
    loops_back_to,
)
from lleekit.reflect import check_lemma_conditions, collapse_lee_witness, images
from lleekit.solve import Solution, equiv, extract_solution, solution_check
from oracles import exhaustive_lee_search, naive_bisimilarity

T = Transition


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print("criterion %d: %s - %s" % (number, "PASS" if ok else "FAIL", detail))


@lru_cache(maxsize=1)
def _sweep():
    """1000 random expressions through the full pipeline; shared by 4/7/8.

    Each goes through the search and layering the ``lee``, ``lee2llee`` and
    ``reflect`` commands use, and through the witness ``equiv`` reads off
    the expression.
    """
    rng = random.Random(101)
    instances = []
    failures = []
    start = time.monotonic()
    while len(instances) + len(failures) < 1000:
        e = random_expression(rng, rng.randint(1, 25))
        try:
            g = interpret(e)
            w = lee_to_llee(find_lee_witness(g))
            assert is_llee_witness(w)
            res = collapse(g)
            cw = collapse_lee_witness(res.theta, w)
            rep = cw.replay()
            assert rep.ok and not rep.final.has_cycle()
            w2 = lee_to_llee(cw)
            assert is_llee_witness(w2)
            assert find_lee_witness(res.chart) is not None
            # the witness read off the expression, and its reflection
            # through the collapse, replay layered as they are
            ew = expression_witness(e)
            assert ew.chart == g and is_llee_witness(ew)
            assert is_llee_witness(collapse_lee_witness(res.theta, ew))
        except Exception as exc:  # noqa: BLE001 - any failure counts
            failures.append((unparse(e), repr(exc)))
        else:
            instances.append({"g": g, "w": w, "res": res, "w2": w2})
    return instances, failures, time.monotonic() - start


def test_criterion_1_unfolding_pipeline(capsys):
    start = time.monotonic()
    res = equiv(parse("((a+b).(a*b))*0"), parse("(a+b)*0"))
    cert = res.certificate
    one_node = res.equal and len(cert.collapse.nodes) == 1
    (r,) = cert.collapse.nodes if one_node else (None,)
    self_loops = one_node and cert.collapse.transitions == {
        T(r, "a", r),
        T(r, "b", r),
    }
    checked = one_node and solution_check(cert.solution) == []
    elapsed = time.monotonic() - start
    ok = res.equal and one_node and self_loops and checked and elapsed <= 1.0
    _report(
        capsys,
        1,
        ok,
        "EQUAL with a 1-node/2-self-loop collapse, solution checks (%.2fs)" % elapsed,
    )
    assert ok


def test_criterion_2_layering(capsys, witness_ci_hat):
    start = time.monotonic()
    rep = witness_ci_hat.replay()
    lee_not_llee = rep.ok and not is_llee_witness(witness_ci_hat)
    w2 = lee_to_llee(witness_ci_hat)
    demoted = {
        t
        for t, n in witness_ci_hat.order.items()
        if n > 0 and w2.order[t] == 0
    }
    promoted = {
        t
        for t, n in witness_ci_hat.order.items()
        if n == 0 and w2.order[t] > 0
    }
    moves = demoted == {T("X", "b1", "Z")} and promoted == {T("Z", "a4", "K")}
    layered = is_llee_witness(w2)
    elapsed = time.monotonic() - start
    ok = lee_not_llee and moves and layered and elapsed <= 1.0
    _report(
        capsys,
        2,
        ok,
        "demotes X-b1->Z, promotes Z-a4->K, result layered (%.2fs)" % elapsed,
    )
    assert ok


def test_criterion_3_image_structure(capsys, map_cii_to_ci, witness_cii_hat, chart_cii):
    start = time.monotonic()
    hier = images(map_cii_to_ci, witness_cii_hat)
    node_sets = {rec.image.nodes for rec in hier.records}
    sets_ok = node_sets == {
        frozenset({"Z", "X", "Y", "K"}),
        frozenset({"Z", "X"}),
        frozenset({"Z", "Y"}),
    } and len(hier.records) == 3
    full = next(
        rec for rec in hier.records if rec.image.nodes == {"Z", "X", "Y", "K"}
    )
    ws = full.well_structured
    wsp_ok = (
        ws.start == "x"
        and ws.nodes == {"x", "z''", "k", "y"}
        and ws.nodes != chart_cii.nodes
    )
    lemma_ok = check_lemma_conditions(map_cii_to_ci, witness_cii_hat).ok
    elapsed = time.monotonic() - start
    ok = sets_ok and wsp_ok and lemma_ok and elapsed <= 1.0
    _report(
        capsys,
        3,
        ok,
        "3 images, wsp of the full image starts at x, lemma holds (%.2fs)" % elapsed,
    )
    assert ok


def test_criterion_4_pipeline_sweep(capsys):
    instances, failures, elapsed = _sweep()
    ok = len(instances) >= 1000 and not failures and elapsed <= 300.0
    detail = "%d expressions, %d failures (%.1fs)" % (
        len(instances),
        len(failures),
        elapsed,
    )
    if failures:
        detail += "; first: %s -> %s" % failures[0]
    _report(capsys, 4, ok, detail)
    assert ok


def test_criterion_5_oracle_equivalence(capsys):
    rng = random.Random(103)
    start = time.monotonic()
    mismatches = 0
    total = 0
    for i in range(500):
        g = random_chart(rng, max_nodes=8, rooted=(i % 4 == 0))
        part = bisimilarity_partition(g)
        ours = {
            (u, v)
            for u in g.nodes
            for v in g.nodes
            if part.block_of(u) == part.block_of(v)
        }
        if ours != naive_bisimilarity(g):
            mismatches += 1
        total += 1
    elapsed = time.monotonic() - start
    ok = total >= 500 and mismatches == 0 and elapsed <= 60.0
    _report(
        capsys, 5, ok, "%d charts, %d mismatches (%.1fs)" % (total, mismatches, elapsed)
    )
    assert ok


def test_criterion_6_non_lee_detection(capsys):
    start = time.monotonic()
    g = Chart(
        [
            T("X", "a", "Y"),
            T("Y", "a", "X"),
            T("X", "b", TERMINATION),
            T("Y", "c", TERMINATION),
        ]
    )
    none_found = find_lee_witness(g) is None
    oracle_agrees = not exhaustive_lee_search(g)
    elapsed = time.monotonic() - start
    ok = none_found and oracle_agrees and elapsed <= 1.0
    _report(
        capsys,
        6,
        ok,
        "no witness found, exhaustive search agrees (%.2fs)" % elapsed,
    )
    assert ok


def test_criterion_7_solution_transfer(capsys):
    instances, _, _ = _sweep()
    start = time.monotonic()
    failures = 0
    total = 0
    for inst in instances[:200]:
        sol = extract_solution(inst["w2"])
        composed = Solution(
            inst["g"], {v: sol[inst["res"].theta(v)] for v in inst["g"].nodes}
        )
        if solution_check(sol) != [] or solution_check(composed) != []:
            failures += 1
        total += 1
    elapsed = time.monotonic() - start
    ok = total >= 200 and failures == 0 and elapsed <= 120.0
    _report(
        capsys, 7, ok, "%d transfers, %d failures (%.1fs)" % (total, failures, elapsed)
    )
    assert ok


def test_criterion_8_looping_back_properties(capsys):
    instances, _, _ = _sweep()
    violations = 0
    cyclic_closures = 0
    charts_checked = 0
    for inst in instances:
        for w in (inst["w"], inst["w2"]):
            for lbc in all_looping_back_charts(w).values():
                violations += len(check_lbc_properties(lbc).violations)
                charts_checked += 1
            _, closure = loops_back_to(w)
            cyclic_closures += sum(1 for x, y in closure if x == y)
    ok = violations == 0 and cyclic_closures == 0
    _report(
        capsys,
        8,
        ok,
        "%d looping-back charts, %d violations, loops-back closures acyclic"
        % (charts_checked, violations),
    )
    assert ok
