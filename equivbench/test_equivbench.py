"""Tests of the benchmark's own code: generator, judge and span recorder.

Run with ``python3 -m pytest equivbench`` from the root of the repository.
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from lleekit import cli  # noqa: E402
from lleekit.chart import interpret  # noqa: E402
from lleekit.expr import Action, Plus, Seq, Star, Zero, parse  # noqa: E402
from lleekit.expr import size as lleekit_size  # noqa: E402
from lleekit.solve import equiv, is_axiom_instance  # noqa: E402
from spans import Recorder  # noqa: E402


def to_lleekit(t):
    if isinstance(t, str):
        return Zero() if t == "0" else Action(t)
    op, left, right = t
    return {"+": Plus, ".": Seq, "*": Star}[op](to_lleekit(left), to_lleekit(right))


def sample_trees(count=200, seed=7):
    rng = random.Random(seed)
    return [wl.random_tree(rng, 2 * rng.randint(0, 15) + 1) for _ in range(count)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_list(workload):
    assert wl.queries(workload, 3) == wl.queries(workload, 3)
    assert wl.queries(workload, 3) != wl.queries(workload, 4)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        wl.queries("nope", 1)


def test_printer_round_trips_through_lleekit_parser():
    for t in sample_trees():
        text = wl.show(t)
        e = parse(text)
        assert e == to_lleekit(t)
        assert wl.size(t) == lleekit_size(e) == run.syntax_nodes(text)[0]


def test_random_trees_respect_size_and_star_limits():
    rng = random.Random(1)
    for n in range(1, 61, 2):
        t = wl.random_tree(rng, n)
        assert wl.size(t) == n
        assert wl.star_height(t) <= wl.MAX_STAR_HEIGHT


def test_normed_agrees_with_interpretation():
    for t in sample_trees(count=100):
        chart = interpret(to_lleekit(t))
        assert wl.normed(t) == any(tr.terminal for tr in chart.transitions)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_rewrite_is_a_listed_schema(workload):
    for seed in (1, 2):
        for q in wl.queries(workload, seed):
            if q.expected == wl.EQUAL and not q.family.startswith("deep"):
                assert 1 <= len(q.rewrites) <= 3
            else:
                assert not q.rewrites
            for axiom, before, after in q.rewrites:
                assert axiom in wl.AXIOMS
                lhs, rhs = to_lleekit(before), to_lleekit(after)
                if axiom == "A3":  # applied right to left: e -> e + e
                    lhs, rhs = rhs, lhs
                assert is_axiom_instance(lhs, rhs) == axiom


def test_query_mix():
    mixed = wl.queries("mixed_small", 5)
    assert len(mixed) == wl.MIXED_QUERIES
    deep = [q for q in mixed if q.family.startswith("deep")]
    assert len(deep) == wl.MIXED_QUERIES // wl.DEEP_EVERY
    kinds = [q.expected for q in mixed]
    assert kinds.count(wl.EQUAL) == kinds.count(wl.NOT_EQUAL)
    for q in mixed:
        if q.family == "random":
            assert 31 <= run.syntax_nodes(q.e1)[0] <= 59
    loops = wl.queries("loops_equal", 5)
    assert all(q.expected == wl.EQUAL for q in loops)
    assert [q.family for q in loops] == [name for name, _ in wl.LOOP_FAMILIES]
    chains = wl.queries("chain_distinct", 5)
    assert all(q.expected == wl.NOT_EQUAL for q in chains)
    assert [run.syntax_nodes(q.e1)[0] for q in chains] == [2 * n + 1 for n in wl.CHAIN_LENGTHS]


def test_expected_verdicts_hold():
    picks = wl.queries("mixed_small", 9)[:30]
    picks += [q for q in wl.queries("loops_equal", 9) if q.family in ("W4", "N3", "P3")]
    picks += wl.queries("chain_distinct", 9)[:1]
    for q in picks:
        assert equiv(parse(q.e1), parse(q.e2)).equal == (q.expected == wl.EQUAL)


def test_syntax_nodes_rejects_malformed_text():
    for bad in ("", "a+", "(a", "a)", "a b", "+a", "a.()", "A"):
        with pytest.raises(ValueError):
            run.syntax_nodes(bad)
    assert run.syntax_nodes("((a))*(b.0)") == (5, {"a", "b"})


def test_judge():
    q = wl.Query("a+a", "a", wl.EQUAL, "t", ())
    assert run.judge(q, 0, "EQUAL\na\n", "") == (None, False, 1)
    assert run.judge(q, 1, "NOT_EQUAL\nblock1: g:a+a\nblock2: h:a\n", "")[1]
    assert run.judge(q, 0, "EQUAL\nb\n", "")[1]  # certificate with a foreign action
    failure, wrong, _ = run.judge(q, 1, "", "error: no elimination witness\n")
    assert failure and not wrong
    failure, wrong, _ = run.judge(q, 2, "", "parse error: x\n")
    assert failure and not wrong


def test_ask_counts_an_escaping_exception_as_failed():
    class Boom:
        @staticmethod
        def run(argv):
            raise RecursionError("deep")

    seconds, cpu, failure, wrong, nodes = run.ask(Boom, wl.Query("a", "a", wl.EQUAL, "t", ()))
    assert failure == "raised RecursionError" and not wrong and seconds >= 0 and cpu >= 0


class Flaky:
    """Answers every query EQUAL with E1 as certificate, but raises when E1 is ``b``."""

    @staticmethod
    def run(argv):
        reference.task()
        if argv[1] == "b":
            raise RecursionError("deep")
        print("EQUAL")
        print(argv[1])
        return 0


def tally_of(names, passes=2):
    queries = [wl.Query(e, e, wl.EQUAL, "t", ()) for e in names]
    tally = run.Tally(queries, run.HostSpeed())
    for _ in range(passes):
        tally.run_pass(Flaky)
    return tally


def test_a_failed_query_costs_time_and_makes_the_run_incorrect():
    tally = tally_of("abcd")
    assert (tally.attempted, tally.failed, tally.wrong) == (8, 2, 0)
    rate, p50, tail, _ = tally.figures()
    costs = tally.costs()
    assert rate == pytest.approx(3 / sum(costs))
    # the failed query's time stays in the denominator
    assert rate < 3 / (sum(costs) - costs[1])
    assert p50 < run.INF
    assert run.result((tally,), {})["correct"] is False
    assert run.result((tally_of("acd"),), {})["correct"] is True


def test_certificate_ratio_sums_over_equal_queries_where_there_are_any():
    eq = wl.Query("a+a", "a", wl.EQUAL, "t", ())
    ne = wl.Query("a.x", "a.y", wl.NOT_EQUAL, "t", ())
    assert run.certificate_ratio([eq, ne], [1, 40]) == (wl.EQUAL, 1 / 3)
    assert run.certificate_ratio([ne], [6]) == (wl.NOT_EQUAL, 2.0)


def test_import_seconds_are_scaled_positive_times():
    times = run.import_seconds(2)
    assert len(times) == 2 and all(0 < t < 10 for t in times)


def test_recorder_spans_nest_and_uninstall_restores():
    import lleekit.solve

    original = lleekit.solve.interpret
    rec = Recorder()
    rec.install()
    try:
        assert lleekit.solve.interpret is not original
        outcome = run.ask(cli, wl.Query("(a.b)*0", "(a.b)*0+(a.b)*0", wl.EQUAL, "t", ()))
    finally:
        rec.uninstall()
    assert lleekit.solve.interpret is original
    assert outcome[2] is None
    rec.settle()
    totals = rec.totals()
    assert totals["cli.run"][0] == 1
    assert totals["expr.parse"][0] == 2
    assert totals["lee.find_witness"][0] == 1
    assert rec.counts["chart.states"] > 0 and rec.counts["solve.solution_nodes"] > 0
    root = [s for s in rec.spans if s[1] == -1]
    assert [s[0] for s in root] == ["cli.run"]
    # self times partition the root span
    assert sum(v[1] for v in totals.values()) == pytest.approx(root[0][4] - root[0][3])
    for name, parent, _, start, end, _ in rec.spans:
        if parent >= 0:
            assert rec.spans[parent][3] <= start <= end <= rec.spans[parent][4]
