"""Equation systems, solution extraction, axiom matching, and equivalence."""

import copy
import importlib.util
import json
import pathlib
import pickle
import random
import sys
import tracemalloc

import pytest

import lleekit.bisim
import lleekit.chart
import lleekit.cli
import lleekit.lee
import lleekit.solve
from conftest import fixture_path, in_both_collector_states
from generators import random_chart, random_expression
from oracles import (
    brute_interpret,
    naive_bisimilarity_pairs,
    reference_provable_check,
    reference_solution,
    reference_unfolded_solution,
)
from test_certificate_golden import PAIRS as CERTIFICATE_PAIRS
from test_elimination_pins import family_n, family_p, family_w
from test_equiv_golden import GOLDEN, N3, P3, W3
from lleekit.bisim import BisimMap, collapse
from lleekit.chart import (
    Chart,
    TERMINATION,
    Transition,
    _States,
    _explore,
    _explored_chart,
    _interpreting,
    interpret,
)
from lleekit.cli import run
from lleekit.errors import InternalError, NotABisimulation, NotLLEE, StateExplosion
from lleekit.expr import Action, Plus, Seq, Star, Zero, parse, size, unparse
from lleekit.lee import (
    Witness,
    expression_witness,
    find_lee_witness,
    is_llee_witness,
    lee_to_llee,
)
from lleekit.reflect import collapse_lee_witness
from lleekit.solve import (
    Solution,
    _fold,
    _provable_check,
    equation_system,
    equiv,
    extract_solution,
    is_axiom_instance,
    solution_check,
)

T = Transition

A, B, C = Action("a"), Action("b"), Action("c")

# the README's EQUAL pair: its first chart has two states and its collapse
# one, so equiv reflects the expression's witness and extracts a solution
README_PAIR = ("((a+b).(a*b))*0", "(a+b)*0")


# --- equation systems -------------------------------------------------------


def test_equation_system_h(chart_h):
    assert str(equation_system(chart_h)) == "X = a.<X> + b.<X>"


def test_equation_system_g(chart_g):
    assert str(equation_system(chart_g)) == (
        "x = a.<x'> + b.<x'>\nx' = a.<x'> + b.<x>"
    )


def test_equation_system_ci(chart_ci):
    lines = str(equation_system(chart_ci)).splitlines()
    assert lines[-1] == "Z = a1.<Z> + a2.<X> + a3.<Y> + a4.<K>"
    assert lines[0] == "K = d2.<X>"


def test_equation_system_terminals_last():
    g = Chart(
        [T("X", "a", "Y"), T("Y", "a", "X"), T("X", "b", TERMINATION), T("Y", "c", TERMINATION)]
    )
    assert str(equation_system(g)) == "X = a.<Y> + b\nY = a.<X> + c"


def test_equation_system_deadlock():
    g = Chart([], nodes={"u"})
    eq = equation_system(g)
    assert str(eq) == "u = 0"
    assert eq.chart == g


# --- solution extraction ----------------------------------------------------


def test_extract_solution_terminal_only():
    g = Chart([T("u", "a", TERMINATION)], initial="u")
    sol = extract_solution(Witness(g, {}))
    assert sol["u"] == A
    assert sol.initial_expression() == A


def test_extract_solution_no_initial():
    g = Chart([T("u", "a", TERMINATION)])
    sol = extract_solution(Witness(g, {}))
    with pytest.raises(ValueError):
        sol.initial_expression()


def test_extract_solution_h(witness_h_hat):
    sol = extract_solution(witness_h_hat)
    assert sol["X"] == parse("(a+b)*0")
    assert solution_check(sol) == []


def test_extract_solution_g(witness_g_hat):
    sol = extract_solution(witness_g_hat)
    assert sol["x"] == parse("(a.(a*b)+b.(a*b))*0")
    assert sol.initial_expression() == sol["x"]
    assert solution_check(sol) == []


def test_extract_solution_ci(witness_ci_hat_prime):
    sol = extract_solution(witness_ci_hat_prime)
    assert solution_check(sol) == []


def test_extract_solution_needs_layering(witness_ci_hat):
    with pytest.raises(NotLLEE):
        extract_solution(witness_ci_hat)


# --- factoring at join nodes -------------------------------------------------


def _against_reference(w):
    """The solution of ``w`` passes the check, and every node's expression
    is bisimilar to, and no larger than, the unfactored extraction's.
    Returns how many nodes got smaller."""
    sol = extract_solution(w)
    ref = reference_solution(w)
    assert solution_check(sol) == []
    assert sol.assign.keys() == ref.keys()
    smaller = 0
    for x, old in ref.items():
        new = sol[x]
        assert size(new) <= size(old), (unparse(new), unparse(old))
        g, h = brute_interpret(new), brute_interpret(old)
        assert (g.initial, h.initial) in naive_bisimilarity_pairs(g, h)
        smaller += size(new) < size(old)
    return smaller


def test_extraction_against_the_unfactored_reference():
    # the witness read off each expression, and its reflection onto the
    # collapse; both are layered
    rng = random.Random(89)
    smaller = 0
    for _ in range(150):
        w = expression_witness(random_expression(rng, rng.randint(1, 20)))
        smaller += _against_reference(w)
        smaller += _against_reference(collapse_lee_witness(collapse(w.chart).theta, w))
    assert smaller > 0


def _pinned_witness(steps, orders, initial):
    """The witness of the chart with ``steps`` (``"X a Y"``, ``!`` for √)
    whose transitions have the given ``orders`` and 0 otherwise."""
    ts = [T(s, a, TERMINATION if d == "!" else d) for s, a, d in (t.split() for t in steps)]
    g = Chart(ts, initial=initial)
    return Witness(g, {t: orders.get("%s %s %s" % (t.src, t.action, t.dst), 0) for t in ts if not t.terminal})


def _pinned_solution(w):
    assert is_llee_witness(w)
    _against_reference(w)
    return {x: unparse(e) for x, e in extract_solution(w).assign.items()}


def test_factoring_dead_ends_in_a_loop_body():
    # 0.X is a dead end: a path into it ends at the sink, so b.0+c.d is not
    # factored, but the two paths of g.0+h.0 both end there, at a node
    w = expression_witness(parse("(a.(b.0+c.d)+f.(g.0+h.0))*e"))
    sol = _pinned_solution(w)
    assert sol[w.chart.initial] == "(a.(b.0+c.d)+f.((g+h).0))*e"


@pytest.mark.parametrize(
    "exit,expected",
    [
        # Y -a-> X -t-> √ avoids D, so D does not post-dominate Y outside
        # the loop either
        (["X t !"], "a.(x.(a+b.(d.0)))*(c.(d.0)+t)+b.(d.0)"),
        # outside the loop every path from Y reaches D, also the one through X
        ([], "(a.(x.(a+b.(d.0)))*c+b).(d.0)"),
    ],
    ids=["exit", "no-exit"],
)
def test_factoring_ignores_a_join_after_the_return(exit, expected):
    # inside the loop at X, Y -a-> X returns and Y -b-> D leaves the loop's
    # paths at D, which X reaches only after the return: no join in the loop
    steps = ["X x Y", "Y a X", "Y b D", "X c D", "D d E"] + exit
    sol = _pinned_solution(_pinned_witness(steps, {"X x Y": 1}, "X"))
    assert sol["X"] == "(x.(a+b.(d.0)))*(c.(d.0)%s)" % ("+t" if exit else "")
    assert sol["Y"] == expected


def test_factoring_inside_nested_loops():
    # W lies in the loop at I, which lies in the loop at X, and X enters W
    # directly too; V's two steps join at W inside the loop at I
    steps = ["X x I", "X w W", "I y V", "V a W", "V c W", "W b I", "I z X", "X t !"]
    w = _pinned_witness(steps, {"X x I": 2, "X w W": 2, "I y V": 1}, "X")
    sol = _pinned_solution(w)
    inner = "(y.((a+c).b))*z"
    assert sol["X"] == "(w.(b.%s)+x.%s)*t" % (inner, inner)
    assert sol["V"] == "(a+c).(b.(y.((a+c).b))*(z.%s))" % sol["X"]


def _family(k, factor):
    """``(x.F0.….F{k-1})*0`` with ``Fi = factor(i)``, and the same with the
    summands of the last factor swapped."""
    factors = [factor(i) for i in range(k)]
    left, right = factors[-1][1:-1].split("+")
    swapped = factors[:-1] + ["(%s+%s)" % (right, left)]
    return ["(x.%s)*0" % ".".join(fs) for fs in (factors, swapped)]


@pytest.mark.parametrize(
    "factor,per_factor",
    [
        # P(k)
        (lambda i: "(y%d+z%d)" % (i, i), 4),
        # Q(k)
        (lambda i: "(y%d.u%d+z%d.v%d)" % (i, i, i, i), 8),
    ],
    ids=["P", "Q"],
)
def test_factored_families_are_linear(factor, per_factor):
    # unfactored, these solutions double with every factor
    for k in (1, 2, 3, 8, 16, 32):
        e1, e2 = _family(k, factor)
        res = equiv(parse(e1), parse(e2))
        assert res.equal
        assert size(res.certificate.expression) == per_factor * k + 3 == size(parse(e1))


def _nested_stars(n):
    """S(n) = ``((…((a*b0)*b1)…)*b{n-1})``, stars nested in the body, with
    2n+1 syntax nodes; S(0) is ``a``."""
    e = "a"
    for i in range(n):
        e = "(%s)*b%d" % (e, i)
    return unparse(parse(e))


def _printed_equal(capsys, e1, e2):
    """The expression ``lleekit equiv e1 e2`` prints, which must be EQUAL."""
    assert run(["equiv", e1, e2]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "EQUAL"
    return out[1]


def _extracted_root(e1, e2):
    """Extraction's solution at the initial node of the collapse of ``e1``
    and ``e2``, from the layered witness of their certificate: equiv
    prints it unless the first chart is its own collapse."""
    cert = equiv(parse(e1), parse(e2)).certificate
    return extract_solution(cert.witness).initial_expression()


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32, 64])
def test_nested_stars_print_at_the_input_size(capsys, n):
    # unfolded, each level of S(n) printed two copies of the one below:
    # 9, 31 and 129 nodes at n = 2, 3 and 4, and past the printing cap at 8.
    # The copy unfolds the outer star by A8 and the unfolded body's head by
    # A9: S(n) = S(n-1).S(n) + b{n-1} = S(n-2)*(b{n-2}.S(n)) + b{n-1}
    e = _nested_stars(n)
    rewritten = "(%s)*(b%d.(%s))+b%d" % (_nested_stars(n - 2), n - 2, e, n - 1)
    for other in (e, e + "+0", rewritten):
        printed = _printed_equal(capsys, e, other)
        assert printed == e
        assert size(parse(printed)) == 2 * n + 1
        # S(n)'s chart is its own collapse, so equiv prints S(n) itself;
        # extraction folds its stars back to print it too
        assert unparse(_extracted_root(e, other)) == e


def test_fold_applies_a9_only_to_fold_a_star():
    # A9 reads a*(b.c) as (a*b).c only where that exposes an A8 fold
    assert unparse(_extracted_root("(a*b).c", "a*(b.c)")) == "a*(b.c)"


def _sum(*summands):
    acc = summands[0]
    for p in summands[1:]:
        acc = Plus(acc, p)
    return acc


def _folded(e):
    """:func:`_fold` of ``e``'s summands, given with their tree sizes, as
    the sum of the summands it returns."""
    return _sum(*[p for p, _ in _fold([(p, size(p)) for p in lleekit.solve._summands(e)])])


def test_fold_reads_a8_and_a9_right_to_left():
    a, b, c, d = (Action(x) for x in "abcd")
    ab = Star(a, b)
    # A8: a.(a*b) + b = a*b, in the first summand's place
    assert _folded(_sum(c, Seq(a, ab), d, b)) == _sum(c, ab, d)
    assert _folded(Seq(a, ab)) == Seq(a, ab)
    # every summand of t is needed, one copy each
    abc = Star(a, Plus(b, c))
    assert _folded(_sum(Seq(a, abc), b)) == _sum(Seq(a, abc), b)
    assert _folded(_sum(c, Seq(a, abc), b, c)) == _sum(abc, c)
    # t = 0 has the summand 0, which the sum lacks
    a0 = Star(a, Zero())
    assert _folded(Seq(a, a0)) == Seq(a, a0)
    # a*(b.K) with K = (a*b)*c reads (a*b).K by A9, and folds with c
    k = Star(ab, c)
    assert _folded(_sum(Seq(a, Star(a, Seq(b, k))), Seq(b, k), c)) == k
    # and stays without c
    assert _folded(_sum(Seq(a, Star(a, Seq(b, k))), Seq(b, k), d)) == _sum(Star(a, Seq(b, k)), d)
    # a place that cannot fold yet waits until another place folds
    bc = Star(b, c)
    assert _folded(_sum(Seq(a, Star(a, bc)), Seq(b, bc), c)) == Star(a, bc)
    # a t with a repeated summand takes one copy of it
    abb = Star(a, Plus(b, b))
    assert _folded(_sum(Seq(a, abb), b, b)) == _sum(abb, b)


@pytest.mark.parametrize(
    "e",
    [
        "c+a.a*b+d+b",
        "a.a*(b+c)+b",
        "c+a.a*(b+c)+b+c",
        "a.a*(b+b)+b+b",
        "a.a*(b.(a*b)*c)+b.(a*b)*c+c",
        "a.a*(b.(a*b)*c)+b.(a*b)*c+d",
        "a.a*(b*c)+b.b*c+c",
    ],
)
def test_fold_keeps_the_summands_tree_sizes(e):
    # given the summands with their tree sizes, _fold returns the folded
    # summands with theirs, which extraction adds up instead of walking
    # the result
    folded = _fold([(p, size(p)) for p in lleekit.solve._summands(parse(e))])
    assert [p_size for _, p_size in folded] == [size(p) for p, _ in folded]


def test_folded_solutions_pass_both_checks():
    # each fold is an A8 or A9 instance, so a folded solution is still a
    # solution, and the check in BBP still accepts it
    rng = random.Random(7)
    for _ in range(600):
        e = random_expression(rng, rng.randint(5, 25))
        sol = equiv(e, Plus(e, Zero())).certificate.solution
        assert _provable_check(sol) == [], unparse(e)
        assert solution_check(sol) == [], unparse(e)


def test_solution_check_failure(chart_h):
    sol = Solution(chart_h, {"X": parse("a*0")})
    assert solution_check(sol) == ["X"]


def test_solution_check_identity_assignment():
    # interpretation nodes are printed expressions, so each node solves itself
    g = interpret(parse("((a+b).(a*b))*0"))
    sol = Solution(g, {n: parse(n) for n in g.nodes})
    assert solution_check(sol) == []


def test_solution_check_reports_exactly_the_broken_nodes():
    # the two wrong solutions share the states of c.d with each other and
    # with the correct solution of node c.d, so one joint exploration holds
    # all of them; each node must still be judged on its own
    g = interpret(parse("a.b.c.d"))
    assign = {n: parse(n) for n in g.nodes}
    assign["d"] = parse("c.d")
    assign["b.c.d"] = parse("c.d+b.c.d")
    assert solution_check(Solution(g, assign)) == ["b.c.d", "d"]


def test_solution_check_cap_bounds_the_joint_exploration():
    # every node's solution has one state, but together they have two
    g = Chart([T("X", "a", TERMINATION), T("Y", "b", TERMINATION)])
    sol = Solution(g, {"X": A, "Y": B})
    interpret(A, cap=1)
    interpret(B, cap=1)
    with pytest.raises(StateExplosion):
        solution_check(sol, cap=1)
    assert solution_check(sol, cap=2) == []


def _oracle_failures(sol):
    """The nodes whose expression, unfolded alone, is not bisimilar to them."""
    bad = []
    for x in sorted(sol.chart.nodes):
        e = brute_interpret(sol[x])
        if (e.initial, x) not in naive_bisimilarity_pairs(e, sol.chart):
            bad.append(x)
    return bad


def _corrupted(rng, sol):
    """``sol`` with some nodes reassigned: doubled (``e+e``, still correct,
    every step twice), given another node's expression, or given one more
    terminal step."""
    nodes = sorted(sol.chart.nodes)
    assign = dict(sol.assign)
    for x in rng.sample(nodes, rng.randint(1, len(nodes))):
        kind = rng.randrange(3)
        if kind == 0:
            assign[x] = Plus(assign[x], assign[x])
        elif kind == 1:
            assign[x] = sol[rng.choice(nodes)]
        else:
            assign[x] = Plus(assign[x], Action(rng.choice("ab")))
    return Solution(sol.chart, assign)


def test_solution_check_vs_per_node_oracle():
    rng = random.Random(83)
    solutions = []
    for _ in range(40):
        g = interpret(random_expression(rng, rng.randint(1, 12)))
        solutions.append(extract_solution(lee_to_llee(find_lee_witness(g))))
    for i in range(60):
        w = find_lee_witness(random_chart(rng, max_nodes=5, rooted=(i % 2 == 0)))
        if w is not None:
            solutions.append(extract_solution(lee_to_llee(w)))
    solutions += [_corrupted(rng, sol) for sol in solutions for _ in range(2)]
    failing = 0
    for sol in solutions:
        expected = _oracle_failures(sol)
        assert solution_check(sol) == expected, sol.assign
        failing += bool(expected)
    # both verdicts occur
    assert 0 < failing < len(solutions)


def test_solution_check_prints_no_state(monkeypatch):
    p6 = "(x.(y0+z0).(y1+z1).(y2+z2).(y3+z3).(y4+z4).(y5+z5))*0"
    sol = equiv(parse(p6), parse(p6.replace("(y5+z5)", "(z5+y5)"))).certificate.solution
    x = sol.chart.initial
    wrong = Solution(sol.chart, dict(sol.assign, **{x: sol[x].left}))

    def unparse_forbidden(e):
        raise AssertionError("solution_check printed a state")

    monkeypatch.setattr("lleekit.expr.unparse", unparse_forbidden)
    assert solution_check(sol) == []
    assert solution_check(wrong) == [x]


# --- folding a node that no transition enters over its loop nodes -----------


def _against_unfolded(w):
    """Extraction on ``w`` against the extraction before the root fold
    (:func:`oracles.reference_unfolded_solution`).  The solution passes
    both checks.  A node that some transition enters, and every node of a
    chart without a loop node, prints byte for byte as before; a node that
    no transition enters prints so or with fewer syntax nodes.  Returns
    the folded nodes, as ``(old, new)`` expressions."""
    sol = extract_solution(w)
    ref = reference_unfolded_solution(w)
    assert _provable_check(sol) == []
    assert solution_check(sol) == []
    assert sol.assign.keys() == ref.keys()
    entered = {t.dst for t in w.chart.transitions}
    loops = any(k for k in w.order.values())
    folded = []
    for x, old in ref.items():
        new = sol[x]
        if x in entered or not loops or unparse(new) == unparse(old):
            assert unparse(new) == unparse(old), x
        else:
            assert size(new) < size(old), x
            folded.append((old, new))
    return folded


# --- the order in which the loops are solved ---------------------------------


def test_extraction_solves_the_loops_in_the_run_s_order():
    # the run of (a.(b.c)*d)*e eliminates the inner loop first; recorded
    # with the outer loop first, the outer loop's context holds the inner
    # loop node before its loop is solved
    w = expression_witness(parse("(a.(b.c)*d)*e"))
    (_, inner, _, _), (_, outer, _, _) = w._replayed.steps
    assert inner > outer
    reversed_run = Witness._of(w.chart, w.labels)
    ok, reason, llee, llee_reason, steps, graph = w._replayed
    reversed_run._replayed = type(w._replayed)(ok, reason, llee, llee_reason, steps[::-1], graph)
    assert is_llee_witness(reversed_run)
    assert w.chart.names[inner] == "(b.c)*d.(a.(b.c)*d)*e"
    with pytest.raises(InternalError) as caught:
        extract_solution(reversed_run)
    assert str(caught.value) == (
        "the loop at (b.c)*d.(a.(b.c)*d)*e is not solved before a context that holds it"
    )


# A steps twice, with orders 1 and 3, and the loop at B, which A's second
# step holds, is eliminated between them; B's id is larger than A's
TWO_STEP_CHART = """chart v1
init A
A e A
A a B
A t !
B x D
D d B
B b C
C c A
"""
TWO_STEP_WITNESS = """witness v1
A e A 1
A a B 3
B x D 2
D d B 0
B b C 0
C c A 0
"""


def test_a_start_that_steps_twice_is_solved_at_its_last_step(tmp_path, capsys):
    c = Chart.from_text(TWO_STEP_CHART)
    w = Witness.from_text(TWO_STEP_WITNESS, c)
    names = c.names
    assert [(n, names[x]) for n, x, _, _ in w._replayed.steps] == [(1, "A"), (2, "B"), (3, "A")]
    assert c.ids["B"] > c.ids["A"]
    assert _against_unfolded(w) == []
    assert unparse(extract_solution(w)["A"]) == "(a.(x.d)*(b.c)+e)*t"
    (tmp_path / "two.chart").write_text(TWO_STEP_CHART)
    (tmp_path / "two.witness").write_text(TWO_STEP_WITNESS)
    assert run(["solve", str(tmp_path / "two.chart"), str(tmp_path / "two.witness")]) == 0
    assert "A (a.(x.d)*(b.c)+e)*t" in capsys.readouterr().out.splitlines()


def _assert_bisimilar_by_the_oracle(old, new):
    g, h = brute_interpret(old), brute_interpret(new)
    assert (g.initial, h.initial) in naive_bisimilarity_pairs(g, h), unparse(new)


def test_root_fold_on_a_random_sweep():
    # e against e+0 (the collapse's witness), and the witness read off e
    # itself, whose chart is not collapsed
    rng = random.Random(31)
    count = 0
    for _ in range(600):
        e = random_expression(rng, rng.randint(5, 25))
        for w in (equiv(e, Plus(e, Zero())).certificate.witness, expression_witness(e)):
            for old, new in _against_unfolded(w):
                _assert_bisimilar_by_the_oracle(old, new)
                count += 1
    assert count >= 20


def test_root_fold_on_the_mixed_small_equal_queries():
    # the 200 EQUAL queries of the benchmark's mixed_small workload, seed 1:
    # their initial nodes fold, and the expression extracted from the
    # certificate's witness is bisimilar to the first input
    pairs = _mixed_small_pairs("EQUAL", 200)
    assert len(pairs) == 200
    count = 0
    for e1, e2 in pairs:
        cert = equiv(parse(e1), parse(e2)).certificate
        folded = _against_unfolded(cert.witness)
        for old, new in folded:
            _assert_bisimilar_by_the_oracle(old, new)
        if folded:
            root = extract_solution(cert.witness).initial_expression()
            assert [new for _, new in folded] == [root]
            _assert_bisimilar_by_the_oracle(parse(e1), root)
        count += len(folded)
    assert count >= 20


def _family_pairs():
    out = [(e1, e2) for e1, e2, code, _ in GOLDEN if code == 0]
    out += list(CERTIFICATE_PAIRS.values())
    for n in (1, 2, 3, 5, 8):
        for e in (family_w(n), family_n(n), family_p(n), _nested_stars(n)):
            out.append((e, e + "+0"))
    return out


def test_root_fold_on_the_golden_pairs_and_families():
    # W, N, P and S have their initial nodes on a cycle, or no loop node,
    # and print as before; mixed1 and mixed3 fold
    folded = {}
    for e1, e2 in _family_pairs():
        w = equiv(parse(e1), parse(e2)).certificate.witness
        folded[e1] = [(size(old), size(new)) for old, new in _against_unfolded(w)]
    assert {e1: f for e1, f in folded.items() if f} == {
        CERTIFICATE_PAIRS["mixed1"][0]: [(145, 33)],
        CERTIFICATE_PAIRS["mixed3"][0]: [(205, 53)],
    }


def test_initial_node_on_no_cycle_folds_its_loop_node():
    # the initial node has every transition of the loop node
    # ((b+(b+a)*c).b)*b and one more, a to ✓: it sums a and that node's
    # solution, which it wrote out unfolded once, by A8 and A4
    e = "a+((b+(b+a)*c).b)*b"
    printed = unparse(_extracted_root(e, e + "+0"))
    assert printed == "a+(a.(a+b)*(c.b)+b.(a+b)*(c.b)+b.b+c.b)*b"
    assert size(parse(printed)) == 31
    w = equiv(parse(e), parse(e + "+0")).certificate.witness
    [(old, new)] = _against_unfolded(w)
    assert (size(old), unparse(new)) == (151, printed)


def test_root_fold_writes_the_loop_node_once():
    # X -a-> M -b-> K, with X's other transitions those of K = (a.b)*c:
    # unfolded, s(X) wrote s(M) = b.s(K) out; folded it sums d and s(K)
    steps = ["X a M", "X c !", "X d !", "K a M", "K c !", "M b K"]
    w = _pinned_witness(steps, {"K a M": 1}, "X")
    assert [(unparse(old), unparse(new)) for old, new in _against_unfolded(w)] == [
        ("a.(b.(a.b)*c)+c+d", "d+(a.b)*c")
    ]


def test_root_fold_keeps_a_smaller_factored_solution():
    # every path from X meets at J, so its solution is factored there and
    # writes s(J) once; summing c.s(J) and s(K) = e*(a+b).s(J) would write
    # it twice, so X keeps its solution
    steps = ["X e K", "X a J", "X b J", "X c J", "K e K", "K a J", "K b J", "J d !"]
    w = _pinned_witness(steps, {"K e K": 1}, "X")
    assert _against_unfolded(w) == []
    assert unparse(extract_solution(w)["X"]) == "(c+e*(a+b)).d"


def test_root_fold_chooses_the_largest_disjoint_loop_nodes():
    # X covers K1 = a*c and K2 = b*(c+e), which share c: the larger, K2, is
    # chosen, and K1 is not, as c is taken.  K3 = f*g and K4 = h*i are
    # disjoint from K2 and of one size, and follow in id order
    steps = ["X a K1", "X b K2", "X c !", "X e !", "X f K3", "X g !", "X h K4", "X i !"]
    steps += ["K1 a K1", "K1 c !", "K2 b K2", "K2 c !", "K2 e !"]
    steps += ["K3 f K3", "K3 g !", "K4 h K4", "K4 i !"]
    orders = {"K1 a K1": 1, "K2 b K2": 1, "K3 f K3": 1, "K4 h K4": 1}
    w = _pinned_witness(steps, orders, "X")
    assert [(unparse(old), unparse(new)) for old, new in _against_unfolded(w)] == [
        ("a*c+b.b*(c+e)+f*g+h*i+e", "a.a*c+b*(c+e)+f*g+h*i")
    ]


# --- the one-step provable-solution check ----------------------------------


def _sweep_solutions(rng):
    """Certificates of a seeded ``equiv`` sweep, and the solutions extracted
    from random LLEE charts."""
    solutions = []
    for _ in range(150):
        e = random_expression(rng, rng.randint(1, 14))
        star = Star(e, e)
        # e against itself and A3, A6 and A8 instances
        for e1, e2 in ((e, e), (e, Plus(e, e)), (e, Plus(e, Zero())), (star, Plus(Seq(e, star), e))):
            solutions.append(equiv(e1, e2).certificate.solution)
    for workload in ("mixed_small", "loops_equal"):
        for e1, e2 in _workload_pairs(workload, "EQUAL", 40):
            solutions.append(equiv(parse(e1), parse(e2)).certificate.solution)
    for i in range(300):
        w = find_lee_witness(random_chart(rng, max_nodes=8, rooted=(i % 2 == 0)))
        if w is not None:
            solutions.append(extract_solution(lee_to_llee(w)))
    return solutions


def test_provable_check_accepts_every_extracted_solution():
    # complete on what extraction gives: every equiv certificate of random
    # expressions and axiom rewrites, and every random LLEE chart's solution
    solutions = _sweep_solutions(random.Random(101))
    assert len(solutions) > 500
    for sol in solutions:
        assert _provable_check(sol) == [], {x: unparse(e) for x, e in sol.assign.items()}


def _occurrences(e):
    """Every subterm occurrence of ``e`` as ``(path, subterm)``; a path is
    the tuple of ``left`` / ``right`` steps down to it."""
    found, stack = [], [((), e)]
    while stack:
        path, x = stack.pop()
        found.append((path, x))
        if isinstance(x, (Plus, Seq, Star)):
            stack += [(path + ("left",), x.left), (path + ("right",), x.right)]
    return found


def _replaced(e, path, new):
    """``e`` with the subterm at ``path`` replaced by ``new``."""
    if not path:
        return new
    if path[0] == "left":
        return e.__class__(_replaced(e.left, path[1:], new), e.right)
    return e.__class__(e.left, _replaced(e.right, path[1:], new))


def _mutants(rng, sol):
    """``(kind, solution)`` pairs, each ``sol`` with one node's expression
    changed: a summand ``a . r`` given another node's solution as target, a
    terminal summand dropped from a sum, a summand added, or the whole
    expression swapped for another node's."""
    nodes = sorted(sol.chart.nodes)
    out = []
    for x in nodes:
        e = sol[x]
        spots = _occurrences(e)
        targets = [(p, t) for p, t in spots if isinstance(t, Seq) and isinstance(t.left, Action)]
        if targets:
            path, t = rng.choice(targets)
            new = Seq(t.left, sol[rng.choice(nodes)])
            out.append(("target", x, _replaced(e, path, new)))
        sums = [
            (p, t, side)
            for p, t in spots
            if isinstance(t, Plus)
            for side in ("left", "right")
            if isinstance(getattr(t, side), Action)
        ]
        if sums:
            path, t, side = rng.choice(sums)
            out.append(("terminal", x, _replaced(e, path, t.right if side == "left" else t.left)))
        extra = Action(rng.choice("abc")) if rng.random() < 0.5 else Seq(A, sol[rng.choice(nodes)])
        out.append(("added", x, Plus(e, extra)))
        if len(nodes) > 1:
            out.append(("swapped", x, sol[rng.choice([y for y in nodes if y != x])]))
    return [(kind, Solution(sol.chart, dict(sol.assign, **{x: e}))) for kind, x, e in out]


def test_provable_check_flags_what_solution_check_flags():
    # sound: a node that is not bisimilar to its expression fails, so a
    # wrong solution never passes; it may flag more nodes, those whose own
    # equation breaks because a successor's expression changed
    rng = random.Random(103)
    solutions = _sweep_solutions(rng)
    wrong = dict.fromkeys(("target", "terminal", "added", "swapped"), 0)
    for sol in rng.sample(solutions, 120):
        for kind, mutant in _mutants(rng, sol):
            expected = solution_check(mutant)
            got = _provable_check(mutant)
            assert set(expected) <= set(got), (kind, {x: unparse(e) for x, e in mutant.assign.items()})
            # the frame-stack kernel flags exactly the generator kernel's nodes
            assert got == reference_provable_check(mutant)
            wrong[kind] += bool(expected)
    # every kind of mutation produced wrong solutions
    assert min(wrong.values()) > 20, wrong


def test_provable_check_explores_and_refines_nothing(monkeypatch, capsys):
    solutions = [
        equiv(parse(e1), parse(e2)).certificate.solution
        for e1, e2, code, _ in GOLDEN
        if code == 0
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("the solution check explored, refined or ran solution_check")

    for module in (lleekit.solve, lleekit.bisim, lleekit.chart, lleekit.cli):
        for name in ("_explore", "_refine", "solution_check"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for sol in solutions:
        assert _provable_check(sol) == []
    # lleekit solve checks its extracted solution the same way
    for chart, witness in (("g.chart", "g_hat.witness"), ("cii.chart", "cii_hat.witness")):
        assert run(["solve", str(fixture_path(chart)), str(fixture_path(witness))]) == 0
        assert capsys.readouterr().out.startswith("solution v1\n")


def test_provable_check_cap_bounds_the_canonical_forms():
    # the forms of a and of b: two of them
    g = Chart([T("X", "a", TERMINATION), T("Y", "b", TERMINATION)])
    sol = Solution(g, {"X": A, "Y": B})
    with pytest.raises(
        StateExplosion, match=r"^more than 1 states while checking a solution of 2 nodes$"
    ):
        _provable_check(sol, cap=1)
    assert _provable_check(sol, cap=2) == []


def _checked_solutions(monkeypatch, pairs):
    """The solutions ``equiv`` checks on the text ``pairs``, each an EQUAL,
    as ``(solution, extracted)``: unnamed, as the check sees them, and
    whether the reflection route extracted it."""
    checked, extracted = [], set()
    check, extract = lleekit.solve._provable_check, lleekit.solve.extract_solution

    def keep(sol, cap=None):
        checked.append(sol)
        return check(sol, cap)

    def mark(w):
        sol = extract(w)
        extracted.add(id(sol))
        return sol

    with monkeypatch.context() as patched:
        patched.setattr(lleekit.solve, "_provable_check", keep)
        patched.setattr(lleekit.solve, "extract_solution", mark)
        for e1, e2 in pairs:
            assert equiv(parse(e1), parse(e2)).equal, (e1, e2)
    return [(sol, id(sol) in extracted) for sol in checked]


def test_provable_check_matches_the_generator_kernel_on_the_workloads(monkeypatch):
    # every EQUAL of the benchmark's workloads at seeds 1 to 3, on both
    # routes: the frame-stack kernel and the generator kernel it replaced
    # give the same failing nodes, none
    pairs = [
        pair
        for seed in (1, 2, 3)
        for workload in ("mixed_small", "loops_equal", "chain_distinct")
        for pair in _workload_pairs(workload, "EQUAL", None, seed)
    ]
    routes = [0, 0]
    for sol, extracted in _checked_solutions(monkeypatch, pairs):
        routes[extracted] += 1
        assert _provable_check(sol) == reference_provable_check(sol) == []
    assert routes[0] > 500 and routes[1] > 50, routes


def test_provable_check_raises_at_the_cap_of_the_generator_kernel(monkeypatch):
    # at every cap both kernels pass, fail the same nodes, or raise the
    # same message: they intern the same forms
    g = Chart([T("X", "a", TERMINATION), T("Y", "b", TERMINATION)])
    solutions = [Solution(g, {"X": A, "Y": B})]
    solutions += [
        sol for sol, _ in _checked_solutions(monkeypatch, [(W3, W3 + "+0"), README_PAIR])
    ]
    solutions.append(Solution(g, {"X": B, "Y": Plus(A, B)}))
    for sol in solutions:
        outcomes = set()
        for cap in range(60):
            got = []
            for check in (_provable_check, reference_provable_check):
                try:
                    got.append(check(sol, cap))
                except StateExplosion as exc:
                    got.append(str(exc))
            assert got[0] == got[1], (cap, got)
            outcomes.add(got[0].__class__)
        assert outcomes == {str, list}


def test_provable_check_and_measure_do_not_recurse(monkeypatch):
    # under a recursion limit of 100: N(300)'s shortcut solution, a
    # 20000-action chain inside a star, and a 10000-deep right-nested body
    chain = "(%s)*x" % ".".join(["c"] * 20000)
    nested = "(%s%s)*b" % ("a.(" * 9999 + "a", ")" * 9999)
    texts = [family_n(300), chain, nested]
    solutions = _checked_solutions(monkeypatch, [(e, e + "+0") for e in texts])
    assert [extracted for _, extracted in solutions] == [False] * 3
    stars = [parse(e) for e in texts]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        bad = [_provable_check(sol) for sol, _ in solutions]
        measures = [(_States().measure(e), _States().measure(e.left)) for e in stars]
    finally:
        sys.setrecursionlimit(limit)
    assert bad == [[], [], []]
    assert measures == [((True, 300), (True, 299)), ((True, 1), (True, 0)), ((True, 1), (True, 0))]


def test_equiv_reads_the_state_cap_once(monkeypatch):
    # library equiv resolves the LLEEKIT_STATE_CAP default once, for both
    # explorations and the solution check, and passes a given cap on as it is
    calls = []
    real = lleekit.chart._state_cap

    def counting(cap=None):
        calls.append(cap)
        return real(cap)

    monkeypatch.setattr(lleekit.chart, "_state_cap", counting)
    monkeypatch.setattr(lleekit.solve, "_state_cap", counting)
    monkeypatch.setenv("LLEEKIT_STATE_CAP", "50")
    assert equiv(parse("(a.b)*c"), parse("(a.b)*c+0"))
    assert not equiv(parse("a.b.x"), parse("a.b.y"))
    assert calls == [None, None]
    calls.clear()
    assert equiv(parse("(a.b)*c"), parse("(a.b)*c+0"), cap=50)
    assert calls == []
    monkeypatch.setenv("LLEEKIT_STATE_CAP", "3")
    with pytest.raises(StateExplosion):
        equiv(parse("(a.b)*c"), parse("(a.b)*c+0"))


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_equiv_rejects_a_bad_state_cap_variable(monkeypatch, value):
    # the same error as interpret raises (test_state_cap_environment_rejected)
    monkeypatch.setenv("LLEEKIT_STATE_CAP", value)
    message = "^LLEEKIT_STATE_CAP must be a positive integer, got '%s'$" % value
    with pytest.raises(ValueError, match=message):
        equiv(parse("a.b"), parse("a.c"))


def test_provable_check_reports_the_broken_nodes_in_id_order():
    g = interpret(parse("a.b.c.d"))
    assign = {n: parse(n) for n in g.nodes}
    assert _provable_check(Solution(g, assign)) == []
    assign["d"] = parse("c.d")
    # d's expression is wrong, and node c.d's equation now asks for
    # c.(c.d), which its own expression c.d is not
    assert _provable_check(Solution(g, assign)) == ["c.d", "d"]


@pytest.mark.parametrize(
    "roundtrip",
    [copy.deepcopy, lambda sol: pickle.loads(pickle.dumps(sol))],
    ids=["deepcopy", "pickle"],
)
def test_copied_solution_keeps_its_sharing(roundtrip):
    # the solution's expressions are flattened together: each node's
    # solution c.s(Y) is copied with s(Y) the very object of its successor
    # Y, not as a tree of its own, which made the pickle of 2000 actions
    # grow with the square of the chain
    chain = ".".join(["c"] * 2000)
    cert = equiv(parse(chain + ".x"), parse(chain + ".(x+x)")).certificate
    sol = extract_solution(cert.witness)
    assert len(pickle.dumps(sol)) < 8_000_000
    c = roundtrip(sol)
    assert c.chart == sol.chart and list(c.assign) == list(sol.assign)
    # comparing every node's tree would cost the square of the chain
    assert c.initial_expression() == sol.initial_expression()
    assert all(hash(c[x]) == hash(e) for x, e in sol.assign.items())
    shared = 0
    for t in sol.chart.transitions:
        if not t.terminal:
            assert c[t.src].right is c[t.dst]
            shared += 1
    assert shared == 2000


def test_extract_solution_random():
    rng = random.Random(79)
    for _ in range(25):
        e = random_expression(rng, rng.randint(1, 12))
        g = interpret(e)
        w = lee_to_llee(find_lee_witness(g))
        sol = extract_solution(w)
        assert solution_check(sol) == []
        assert sol.initial_expression() == sol[g.initial]


# --- axiom schema matching --------------------------------------------------


@pytest.mark.parametrize(
    "lhs,rhs,name",
    [
        (Plus(A, B), Plus(B, A), "A1"),
        (Plus(A, A), Plus(A, A), "A1"),
        (Plus(Plus(A, B), C), Plus(A, Plus(B, C)), "A2"),
        (Plus(A, A), A, "A3"),
        (Seq(Plus(A, B), C), Plus(Seq(A, C), Seq(B, C)), "A4"),
        (Seq(Seq(A, B), C), Seq(A, Seq(B, C)), "A5"),
        (Plus(A, Zero()), A, "A6"),
        (Seq(Zero(), A), Zero(), "A7"),
        (Star(A, B), Plus(Seq(A, Star(A, B)), B), "A8"),
        (Seq(Star(A, B), C), Star(A, Seq(B, C)), "A9"),
        (Plus(Seq(A, Star(A, B)), B), Star(A, B), "R1"),
        (A, A, None),
        (A, B, None),
        (Plus(A, B), Plus(A, B), None),
        (Star(A, B), Star(A, B), None),
    ],
)
def test_is_axiom_instance(lhs, rhs, name):
    assert is_axiom_instance(lhs, rhs) == name


def test_axiom_instances_are_sound():
    cases = [
        (Plus(A, B), Plus(B, A)),
        (Seq(Plus(A, B), C), Plus(Seq(A, C), Seq(B, C))),
        (Seq(Zero(), A), Zero()),
        (Star(A, B), Plus(Seq(A, Star(A, B)), B)),
        (Seq(Star(A, B), C), Star(A, Seq(B, C))),
    ]
    for lhs, rhs in cases:
        assert is_axiom_instance(lhs, rhs) is not None
        assert equiv(lhs, rhs).equal


# --- equivalence decision ---------------------------------------------------


def test_equiv_star_unfolding():
    res = equiv(parse("((a+b).(a*b))*0"), parse("(a+b)*0"))
    assert res.equal and bool(res)
    cert = res.certificate
    assert res.distinction is None
    assert len(cert.collapse.nodes) == 1
    (r,) = cert.collapse.nodes
    assert cert.collapse.transitions == {T(r, "a", r), T(r, "b", r)}
    assert cert.collapse.initial == r
    assert unparse(cert.expression) == "(a+b)*0"
    assert cert.expression == cert.solution.initial_expression()
    assert cert.map1.source == res.chart1 and cert.map1.target == cert.collapse
    assert cert.map2.source == res.chart2 and cert.map2.target == cert.collapse
    assert cert.witness.chart == cert.collapse
    assert is_llee_witness(cert.witness)
    assert solution_check(cert.solution) == []


def test_certificate_maps_are_checked_once(monkeypatch):
    # equiv checks the transfer conditions of both maps on every id; the
    # maps read from its certificate are that checked theta, named
    calls = []

    def counted(*tables, transfers=lleekit.bisim._transfers):
        calls.append(1)
        return transfers(*tables)

    monkeypatch.setattr(lleekit.bisim, "_transfers", counted)
    for e1, e2 in [("c.c.c.x", "c.c.c.(x+x)"), (W3, W3 + "+0"), (N3, N3 + "+0"), (P3, P3 + "+0")]:
        calls.clear()
        cert = equiv(parse(e1), parse(e2)).certificate
        cert.map1, cert.map2
        assert len(calls) == 1, (e1, e2)
        # the maps are the ones a checked construction gives
        for m in (cert.map1, cert.map2):
            assert m == BisimMap(m.source, m.target, dict(m.mapping))
    # a map given by the user is still checked
    m = equiv(parse("c.x"), parse("c.(x+x)")).certificate.map1
    with pytest.raises(NotABisimulation):
        BisimMap(m.source, m.target, dict.fromkeys(m.source.nodes, m.target.initial))


def test_equiv_reflexive():
    e = parse("a.(b+c)")
    assert equiv(e, e).equal


def test_equiv_deadlocks():
    res = equiv(parse("0"), parse("0.a"))
    assert res.equal
    assert unparse(res.certificate.expression) == "0"


def test_equiv_distributivity():
    assert equiv(parse("(a+b).c"), parse("a.c+b.c")).equal


def test_equiv_branching_time():
    # a.(b+c) and a.b+a.c differ under bisimilarity
    res = equiv(parse("a.(b+c)"), parse("a.b+a.c"))
    assert not res.equal and not bool(res)
    assert res.certificate is None
    d = res.distinction
    assert "g:" + res.chart1.initial in d.block1
    assert "h:" + res.chart2.initial in d.block2
    assert d.block1 != d.block2
    assert not equiv(parse("a.b+a.c"), parse("a.(b+c)")).equal


def test_equiv_certificate_expression_closes_the_loop():
    # the extracted expression is itself equivalent to both inputs
    e1, e2 = parse("((a+b).(a*b))*0"), parse("(a+b)*0")
    cert = equiv(e1, e2).certificate
    assert equiv(cert.expression, e1).equal
    assert equiv(cert.expression, e2).equal


def test_extraction_shares_sub_solutions():
    # P(k) against a copy with its last factor's summands swapped (axiom
    # A1).  The printed solution has 2^(k+2)-1 syntax nodes, but each
    # sub-solution is built once, so the expression holds O(k) objects.
    k = 12
    factors = ["(y%d+z%d)" % (i, i) for i in range(k)]
    e1 = parse("(x.%s)*0" % ".".join(factors))
    factors[-1] = "(z%d+y%d)" % (k - 1, k - 1)
    e2 = parse("(x.%s)*0" % ".".join(factors))
    seen = {}
    stack = [equiv(e1, e2).certificate.expression]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            if isinstance(e, (Plus, Seq, Star)):
                stack += [e.left, e.right]
    assert len(seen) <= 10 * k


def test_equiv_random_self():
    rng = random.Random(83)
    for _ in range(20):
        e = random_expression(rng, rng.randint(1, 10))
        res = equiv(e, e)
        assert res.equal
        assert solution_check(res.certificate.solution) == []


# --- solution transfer through a collapse -----------------------------------


def test_solution_transfer():
    rng = random.Random(89)
    for _ in range(20):
        e = random_expression(rng, rng.randint(1, 12))
        g = interpret(e)
        w = lee_to_llee(find_lee_witness(g))
        res = collapse(g)
        w_h = lee_to_llee(collapse_lee_witness(res.theta, w))
        sol = extract_solution(w_h)
        assert solution_check(sol) == []
        composed = Solution(g, {v: sol[res.theta(v)] for v in g.nodes})
        assert solution_check(composed) == []


# --- equiv reads its witness off the expression -----------------------------


def _workload_pairs(workload, expected, count, seed=1):
    # the benchmark's query lists, loaded from their file: text pairs whose
    # verdict is known by construction
    path = pathlib.Path(__file__).resolve().parent.parent / "equivbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("equivbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pairs = [(q.e1, q.e2) for q in workloads.queries(workload, seed) if q.expected == expected]
    return pairs[:count]


def _mixed_small_pairs(expected, count):
    return _workload_pairs("mixed_small", expected, count)


def test_equiv_skips_witness_search(monkeypatch, capsys):
    # equiv refines its two charts once and builds the collapse from that
    # partition: no witness search, no re-layering, no second refinement of
    # the collapse and no enumeration of its cycles
    def forbidden(*args, **kwargs):
        raise AssertionError("equiv searched, re-layered or re-checked")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lleekit"]
    for module in modules:
        for name in (
            "find_lee_witness",
            "lee_to_llee",
            "bisimilarity_partition",
            "simple_cycles",
            "_lemma_report",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    refine = lleekit.bisim._refine
    refinements = []

    def counted(*args):
        refinements.append(args)
        return refine(*args)

    for module in modules:
        if getattr(module, "_refine", None) is refine:
            monkeypatch.setattr(module, "_refine", counted)
    families = [(e1, e2) for e1, e2, code, _ in GOLDEN if code == 0 and e1 in (W3, N3, P3)]
    assert {e1 for e1, _ in families} == {W3, N3, P3}
    equal = families + _mixed_small_pairs("EQUAL", 20)
    assert len(equal) == len(families) + 20
    not_equal = [(e1, e2) for e1, e2, code, _ in GOLDEN if code == 1]
    not_equal += _mixed_small_pairs("NOT_EQUAL", 20)
    # either verdict refines the two charts once; an EQUAL checks its
    # solution equation by equation, with no refinement
    for pairs, code, verdict, count in ((equal, 0, "EQUAL\n", 1), (not_equal, 1, "NOT_EQUAL\n", 1)):
        for e1, e2 in pairs:
            refinements.clear()
            assert run(["equiv", e1, e2]) == code, (e1, e2)
            assert capsys.readouterr().out.startswith(verdict)
            assert len(refinements) == count, (e1, e2)


def test_equiv_against_the_bisimilarity_oracle():
    # the one joint partition gives the verdict, the printed blocks and the
    # collapse; the brute-force oracle checks all three
    rng = random.Random(97)
    pairs = [(parse(e1), parse(e2)) for e1, e2, _, _ in GOLDEN if e1 in (W3, N3, P3)]
    for _ in range(60):
        e1 = random_expression(rng, rng.randint(1, 9))
        e2 = random_expression(rng, rng.randint(1, 9))
        pairs += [(e1, e2), (e1, Plus(e1, e1))]
    verdicts = set()
    for e1, e2 in pairs:
        res = equiv(e1, e2)
        g, h = res.chart1, res.chart2
        gh = naive_bisimilarity_pairs(g, h)
        assert res.equal == ((g.initial, h.initial) in gh), (e1, e2)
        verdicts.add(res.equal)
        if not res.equal:
            gg, hh = naive_bisimilarity_pairs(g, g), naive_bisimilarity_pairs(h, h)

            def named_class(g_side, h_side):
                return {"g:" + x for x in g.nodes if g_side(x)} | {
                    "h:" + y for y in h.nodes if h_side(y)
                }

            d = res.distinction
            assert d.block1 == named_class(
                lambda x: (x, g.initial) in gg, lambda y: (g.initial, y) in gh
            )
            assert d.block2 == named_class(
                lambda x: (x, h.initial) in gh, lambda y: (y, h.initial) in hh
            )
            continue
        _assert_certified(res, gh, e1)
    assert verdicts == {True, False}


def _explored_first(e):
    """``{node id: place}`` of the states of ``e``'s exploration, in the
    order it found them."""
    x = _explore([e], None, str)
    return {x.space.name(s): i for i, s in enumerate(x.states)}


def _assert_certified(res, gh, e1):
    """An EQUAL's collapse and maps are the oracle's, each class named
    after its first member in the exploration of ``e1``; ``gh`` holds the
    bisimilar pairs of its two charts."""
    g, h, cert = res.chart1, res.chart2, res.certificate
    plain = collapse(g)
    place = _explored_first(e1)
    members = {}
    for x in g.nodes:
        members.setdefault(plain.theta(x), []).append(x)
    named = {c: "g:" + min(xs, key=place.__getitem__) for c, xs in members.items()}
    assert cert.collapse == Chart(
        (
            T(named[t.src], t.action, t.dst if t.terminal else named[t.dst])
            for t in plain.chart.transitions
        ),
        nodes=set(named.values()),
        initial=named[plain.chart.initial],
    )
    assert all(cert.map1(x) == named[plain.theta(x)] for x in g.nodes)
    for y in h.nodes:
        assert cert.map2(y) == named[plain.theta(min(x for x in g.nodes if (x, y) in gh))]


def test_equiv_unlayered_reflection_is_internal_error(monkeypatch, capsys):
    # no fallback: a reflection that does not replay layered fails the run
    import lleekit.solve

    def unlayered(collapse, images):
        # every transition of the numbered collapse labelled 0, with no
        # replay recorded, so the check replays it
        return Witness._of(collapse, [0] * len(collapse.dst))

    monkeypatch.setattr(lleekit.reflect, "_reflect_witness", unlayered)
    assert run(["equiv", *README_PAIR]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: the reflected witness is not a layered witness")


def test_equiv_restores_the_collector_on_every_exit(monkeypatch):
    # library equiv pauses the cyclic collector for its whole body and
    # leaves it as it found it: EQUAL, NOT_EQUAL, the state cap reached and
    # an internal error
    def unlayered(collapse, images):
        return Witness._of(collapse, [0] * len(collapse.dst))

    def exits():
        equal = equiv(parse("a*b"), parse("a.(a*b)+b")).equal
        assert equiv(*map(parse, README_PAIR)).equal
        not_equal = equiv(parse("a"), parse("b")).equal
        with pytest.raises(StateExplosion):
            equiv(parse("a.b.c"), parse("a.b.c"), cap=2)
        with monkeypatch.context() as patched:
            patched.setattr(lleekit.reflect, "_reflect_witness", unlayered)
            with pytest.raises(InternalError):
                equiv(*map(parse, README_PAIR))
        return equal, not_equal

    assert in_both_collector_states(exits) == [(True, False)] * 2


def test_not_equal_builds_no_chart(monkeypatch, capsys):
    # a NOT_EQUAL verdict refines the two explorations on their state ids:
    # no Chart is built and no chart is numbered into the refiner's tables
    def forbidden(*args, **kwargs):
        raise AssertionError("a NOT_EQUAL built or numbered a chart")

    monkeypatch.setattr(Chart, "__init__", forbidden)
    tables = lleekit.bisim._index_tables
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lleekit" and getattr(module, "_index_tables", None) is tables:
            monkeypatch.setattr(module, "_index_tables", forbidden)
    pairs = [(e1, e2) for e1, e2, code, _ in GOLDEN if code == 1]
    pairs += _mixed_small_pairs("NOT_EQUAL", 20) + _workload_pairs("chain_distinct", "NOT_EQUAL", 3)
    results = []
    for e1, e2 in pairs:
        assert run(["equiv", e1, e2]) == 1, (e1, e2)
        assert capsys.readouterr().out.startswith("NOT_EQUAL\n")
        results.append((parse(e1), parse(e2), equiv(parse(e1), parse(e2))))
    monkeypatch.undo()
    # the charts are built when they are asked for, and are the
    # interpretations
    for e1, e2, res in results:
        assert not res.equal
        assert res.chart1 == interpret(e1)
        assert res.chart2 == interpret(e2)
        assert res.chart1 is res.chart1


def test_equal_builds_no_chart(monkeypatch, capsys):
    # an EQUAL decides and certifies on state ids: it builds no Chart,
    # BisimMap, Transition or Witness and names no state, not even on
    # N(50), whose states print with O(n^2) characters each.  Its
    # certificate is named when it is read: --format json prints the
    # collapse, which names each class's first member, and nothing else
    def forbidden(*args, **kwargs):
        raise AssertionError("an EQUAL built a chart, a map, a transition or a witness")

    pairs = [(e1, e2) for e1, e2, code, _ in GOLDEN if code == 0]
    pairs += _mixed_small_pairs("EQUAL", 20) + _workload_pairs("loops_equal", "EQUAL", 3)
    pairs.append((family_n(50), family_n(50) + "+0"))
    states = [len(interpret(parse(e1)).nodes) for e1, _ in pairs]
    named = []
    for method in ("name", "name_one"):

        def counted(self, state, original=getattr(_States, method)):
            named.append(state)
            return original(self, state)

        monkeypatch.setattr(_States, method, counted)
    for cls, method in ((Chart, "__init__"), (Transition, "__init__"), (Witness, "__init__")):
        monkeypatch.setattr(cls, method, forbidden)
    monkeypatch.setattr(BisimMap, "__post_init__", forbidden)
    results = []
    fewer = 0
    for (e1, e2), count in zip(pairs, states):
        named.clear()
        assert run(["equiv", e1, e2]) == 0, (e1, e2)
        assert capsys.readouterr().out.startswith("EQUAL\n")
        res = equiv(parse(e1), parse(e2))
        assert named == [], (e1, e2)
        assert run(["--format", "json", "equiv", e1, e2]) == 0, (e1, e2)
        nodes = json.loads(capsys.readouterr().out)["chart"]["nodes"]
        assert len(named) == len(set(map(id, named))) == len(nodes), (e1, e2)
        fewer += len(nodes) < count
        results.append((parse(e1), res))
    assert fewer >= 3
    monkeypatch.undo()
    for e1, res in results:
        assert res.equal
        _assert_certified(res, naive_bisimilarity_pairs(res.chart1, res.chart2), e1)
        rep = res.certificate.witness.replay()
        assert rep.ok and rep.llee
        assert solution_check(res.certificate.solution) == []
        assert res.certificate.solution.initial_expression() == res.certificate.expression


def _collapsed(e):
    """Whether the chart of ``e`` is its own collapse."""
    g = interpret(parse(e))
    return len(collapse(g).chart.nodes) == len(g.nodes)


def test_equal_replays_each_witness_once(monkeypatch, capsys):
    # an EQUAL replays the expression's witness once, and the reflected one
    # not at all: the reflection records its own run as the reflected
    # witness's replay, which extraction uses.  Where the first chart is
    # its own collapse, the one replay is of the expression's witness on
    # the unnamed collapse, which has as many nodes as the named one.  The
    # certificate's witness, named when it is first read, replays once
    replay = lleekit.lee._replay
    replayed = []

    def counted(w):
        replayed.append(w)
        return replay(w)

    monkeypatch.setattr(lleekit.lee, "_replay", counted)
    pairs = [(e1, e2) for e1, e2, code, _ in GOLDEN if code == 0]
    pairs += _mixed_small_pairs("EQUAL", 40)
    routes = set()
    for e1, e2 in pairs:
        shortcut = _collapsed(e1)
        routes.add(shortcut)
        replayed.clear()
        assert run(["equiv", e1, e2]) == 0, (e1, e2)
        assert capsys.readouterr().out.startswith("EQUAL\n")
        assert len(replayed) == 1, (e1, e2)
        replayed.clear()
        res = equiv(parse(e1), parse(e2))
        assert len(replayed) == 1
        (w,) = replayed
        assert w.chart.names == range(len(w.chart.names))
        assert (len(w.chart.names) == len(res.certificate.collapse.names)) == shortcut
        replayed.clear()
        assert is_llee_witness(res.certificate.witness)
        assert res.certificate.witness.replay().llee
        assert replayed == [res.certificate.witness]
    assert routes == {True, False}


def test_not_equal_memory_grows_linearly():
    # NOT_EQUAL names only the members of its two printed blocks, each with
    # one walk down its continuation, and caches no suffix of a long spine:
    # the peak grows with the chains' length, not with its square
    def peak(n):
        chain = ".".join("abc"[i % 3] for i in range(n))
        e1, e2 = parse(chain + ".x"), parse(chain + ".y")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            res = equiv(e1, e2)
            assert not res.equal
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) < 6 * peak(1000)


# --- a first chart that is its own collapse -----------------------------------


def reflected_route(c, theta, w):
    """The reflection route on the collapse ``c``, for the layered witness
    ``w`` on a chart whose node ``v`` is ``c``'s node ``theta[v]``: the
    images of ``w``'s looping-back charts, the witness reflected from them,
    which must replay layered from scratch, and the solution extracted from
    it, which must pass the check."""
    w_h = lleekit.reflect._reflect_witness(c, lleekit.reflect._images(theta, w._loops[2]))
    fresh = lleekit.lee._replay(Witness._of(c, w_h.labels))
    assert fresh.ok and fresh.llee
    assert is_llee_witness(w_h)
    sol = extract_solution(w_h)
    assert _provable_check(sol) == []
    return sol


def test_both_routes_agree_on_a_random_sweep():
    # e against e+0: where e's chart is its own collapse, equiv certifies
    # by e's own witness and its state expressions; the reflection route
    # still runs on the same collapse and witness, and both certify
    rng = random.Random(47)
    routes = [0, 0]
    for _ in range(400):
        e = random_expression(rng, rng.randint(1, 25))
        res = equiv(e, Plus(e, Zero()))
        cert, g = res.certificate, res.chart1
        shortcut = len(cert.collapse.names) == len(g.names)
        routes[shortcut] += 1
        if not shortcut:
            continue
        assert _provable_check(cert.solution) == []
        assert cert.expression is e
        theta = [cert.collapse.ids[cert.map1(x)] for x in g.names]
        sol = reflected_route(cert.collapse, theta, expression_witness(e))
        _assert_bisimilar_by_the_oracle(sol.initial_expression(), cert.expression)
    assert routes == [27, 373]


def _charts_built(monkeypatch, e1, e2):
    """How many charts ``lleekit equiv e1 e2`` builds, counted at
    :meth:`Chart._build`, which every derived chart goes through."""
    build = Chart._build.__func__
    calls = []

    def counted(cls, *args):
        calls.append(1)
        return build(cls, *args)

    with monkeypatch.context() as m:
        m.setattr(Chart, "_build", classmethod(counted))
        assert run(["equiv", e1, e2]) == 0
    return len(calls)


def test_a_first_chart_that_is_its_own_collapse_is_built_once(monkeypatch, capsys):
    # the first chart is the collapse itself, so an EQUAL that takes the
    # shortcut builds one chart; the README pair, whose collapse merges
    # two states, builds the first chart and the collapse
    w8 = _workload_pairs("loops_equal", "EQUAL", 26)[4]
    assert "x7." in w8[0] and "x8" not in w8[0]
    for e1, e2 in [("(a.b)*0", "(a.b)*0+(a.b)*0"), w8]:
        assert _collapsed(e1)
        assert _charts_built(monkeypatch, e1, e2) == 1
    assert not _collapsed(README_PAIR[0])
    assert _charts_built(monkeypatch, *README_PAIR) == 2
    capsys.readouterr()


def test_a_collapsed_first_chart_is_the_collapse_node_for_node():
    # when the collapse has as many nodes as the first chart g, each class
    # holds one node of g, and the collapse numbers, names and steps its
    # nodes as g does: its witness is g's own witness, and its solution
    # g's state expressions, the initial node the first expression itself.
    # That holds on the unnamed charts equiv works on, g numbered in
    # exploration order and the collapse by each class's first member, √
    # before every node in both, and on the named ones a read gives
    pairs = [(e1, e2) for e1, e2, code, _ in GOLDEN if code == 0]
    pairs += _mixed_small_pairs("EQUAL", 60) + _workload_pairs("loops_equal", "EQUAL", 26)
    count = 0
    for e1, e2 in pairs:
        if not _collapsed(e1):
            continue
        count += 1
        e = parse(e1)
        res = equiv(e, parse(e2))
        cert, g = res.certificate, res.chart1
        x = _explore([e], None, _interpreting, labelled=True)
        g0, _, ranks = _explored_chart(x, named=False)
        c0 = cert._collapse
        assert g0.names == c0.names == range(len(g.names))
        assert (c0.act, c0.dst, c0.first, c0.root) == (g0.act, g0.dst, g0.first, g0.root)
        for v in g0.names:
            steps = [(g0.act[k], g0.dst[k]) for k in range(g0.first[v], g0.first[v + 1])]
            # √ before every node among the steps of one action
            assert steps == sorted(steps, key=lambda t: (t[0], -1 if t[1] is None else t[1]))
        assert cert._witness.chart is c0
        assert cert._witness.labels == ranks
        assert cert._solution.assign[c0.root] is e
        c = cert.collapse
        assert c.names == ["g:" + x for x in g.names]
        assert (c.act, c.dst, c.first, c.root) == (g.act, g.dst, g.first, g.root)
        assert all(cert.map1(x) == "g:" + x for x in g.names)
        assert cert.witness.chart is c
        assert cert.witness.labels == expression_witness(e).labels
        rep = cert.witness.replay()
        assert rep.ok and rep.llee
        assert all(step.start in c.nodes for step in rep.steps)
        assert cert.expression is e
        assert _provable_check(cert.solution) == []
        assert solution_check(cert.solution) == []
    assert count >= 50
