"""End-to-end runs of every subcommand through ``run(argv)``."""

import contextlib
import functools
import gc
import io
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_path, in_both_collector_states, run_python
import lleekit.bisim
import lleekit.cli
from lleekit.bisim import BisimMap, collapse
from lleekit.chart import Chart, interpret
from generators import random_expression
from lleekit.cli import _expression_dot, _parse_args, run
from lleekit.errors import InvalidWitness, LemmaViolated, NotABisimulation, NotLLEE
from lleekit.expr import Action, Plus, Seq, Star, Zero, parse, to_json_dict, unparse
from lleekit.lee import Witness, find_lee_witness, is_llee_witness
from lleekit.solve import Solution, equiv
from oracles import argparse_cli

G = str(fixture_path("g.chart"))
CI = str(fixture_path("ci.chart"))
CII = str(fixture_path("cii.chart"))
CI_HAT = str(fixture_path("ci_hat.witness"))
CI_HAT_PRIME = str(fixture_path("ci_hat_prime.witness"))
CII_HAT = str(fixture_path("cii_hat.witness"))

TOGGLE_TEXT = "chart v1\nX a Y\nY a X\nX b !\nY c !\n"


# --- parse ------------------------------------------------------------------


def test_parse_text(capsys):
    assert run(["parse", "a+(b+c)"]) == 0
    assert capsys.readouterr().out == "a+(b+c)\n"
    assert run(["parse", "(a+b)+c"]) == 0
    assert capsys.readouterr().out == "a+b+c\n"


def test_parse_json(capsys):
    assert run(["--format", "json", "parse", "a.b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v"] == 1


def test_parse_dot(capsys):
    assert run(["--format", "dot", "parse", "a.b"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph expression") and 'label="."' in out


def _recursive_dot(e):
    """The syntax-tree rendering, written recursively."""
    lines = ["digraph expression {", "  node [shape=plaintext];"]
    count = [0]

    def visit(node):
        idx = count[0]
        count[0] += 1
        kids = [] if isinstance(node, (Action, Zero)) else [node.left, node.right]
        label = {Plus: "+", Seq: ".", Star: "*", Zero: "0"}.get(type(node)) or node.name
        lines.append('  n%d [label="%s"];' % (idx, label))
        for kid in kids:
            lines.append("  n%d -> n%d;" % (idx, visit(kid)))
        return idx

    visit(e)
    return "\n".join(lines + ["}"]) + "\n"


def test_parse_dot_matches_the_recursive_rendering():
    rng = random.Random(67)
    for _ in range(300):
        e = random_expression(rng, rng.randint(1, 60))
        assert _expression_dot(e) == _recursive_dot(e)


def test_parse_rejects_star_chains(capsys):
    assert run(["parse", "a*b*c"]) == 2
    assert "parse error" in capsys.readouterr().err


# --- chart ------------------------------------------------------------------


def test_chart_text_roundtrips(capsys):
    assert run(["chart", "a*b"]) == 0
    out = capsys.readouterr().out
    assert Chart.from_text(out) == interpret(parse("a*b"))


def test_chart_json(capsys):
    assert run(["--format", "json", "chart", "a*b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v"] == 1


def test_chart_dot(capsys):
    assert run(["--format", "dot", "chart", "a*b"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and '"#init" -> "a*b"' in out


def test_dot_keeps_real_nodes_apart_from_its_helper_nodes(tmp_path, capsys):
    # a node named like the start marker or like √ is drawn as itself; in DOT
    # a quoted and an unquoted ID with the same text name one node
    path = tmp_path / "helpers.chart"
    path.write_text("chart v1\ninit x\nx a __init__\n__init__ b √\n√ c !\n")
    assert run(["--format", "dot", "collapse", str(path)]) == 0
    out = capsys.readouterr().out
    assert '  "#init" [shape=point style=invis];' in out
    assert '  "!" [shape=doublecircle label="√"];' in out
    assert '  "__init__" -> "√" [label="b"];' in out
    assert '  "√" -> "!" [label="c"];' in out
    assert "\n  __init__ " not in out


@pytest.mark.parametrize("value", ["abc", "1e3"])
def test_bad_state_cap_environment_names_the_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("LLEEKIT_STATE_CAP", value)
    assert run(["equiv", "a", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: LLEEKIT_STATE_CAP must be a positive integer, got %r\n" % value


def test_chart_cap_flag(capsys):
    assert run(["--cap", "1", "chart", "a.b.c"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["--cap", "3", "chart", "a.b.c"]) == 0
    capsys.readouterr()
    assert run(["--cap", "0", "chart", "a"]) == 2
    assert capsys.readouterr().err == "error: state cap must be positive\n"


def test_chart_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("LLEEKIT_STATE_CAP", "2")
    assert run(["chart", "a.b.c"]) == 1
    capsys.readouterr()
    # an explicit flag wins over the environment
    assert run(["--cap", "100", "chart", "a.b.c"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("LLEEKIT_STATE_CAP", "nonsense")
    assert run(["chart", "a"]) == 2


def test_equiv_cap_bounds_the_printed_solution(capsys, tmp_path):
    # 8 states, but the printed first expression a.b.….h has 15 syntax nodes
    pair = ["a.b.c.d.e.f.g.h", "a.b.c.d.e.f.g.(h+h)"]
    for fmt in ("text", "json"):
        assert run(["--cap", "14", "--format", fmt, "equiv", *pair, "--certificate", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the solution has more than 14 syntax nodes\n"
        assert list(tmp_path.iterdir()) == []
    assert run(["--cap", "15", "equiv", *pair]) == 0
    assert capsys.readouterr().out == "EQUAL\na.b.c.d.e.f.g.h\n"
    # dot prints the collapse, not the expression
    assert run(["--cap", "14", "--format", "dot", "equiv", *pair]) == 0
    capsys.readouterr()


# --- collapse ---------------------------------------------------------------


def test_collapse_expression(capsys):
    assert run(["collapse", "((a+b).(a*b))*0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chart v1\n")
    assert "map v1" in out
    chart_part = out.split("\nmap v1")[0]
    assert len(Chart.from_text(chart_part).nodes) == 1


def test_collapse_file_with_map(tmp_path, capsys, chart_cii):
    target = tmp_path / "theta.map"
    assert run(["collapse", CII, "--map", str(target)]) == 0
    out = capsys.readouterr().out
    assert "map v1" not in out  # the map went to the file instead
    res = collapse(chart_cii)
    assert Chart.from_text(out) == res.chart
    loaded = BisimMap.from_text(target.read_text(), chart_cii, res.chart)
    assert loaded == res.theta


def test_collapse_json(capsys):
    assert run(["--format", "json", "collapse", "a*b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v"] == 1 and "chart" in doc and "map" in doc


# --- witness search and checking --------------------------------------------


def test_lee_fixture(capsys, chart_g):
    assert run(["lee", G]) == 0
    out = capsys.readouterr().out
    assert Witness.from_text(out, chart_g) == find_lee_witness(chart_g)


def test_lee_no_witness(tmp_path, capsys):
    path = tmp_path / "toggle.chart"
    path.write_text(TOGGLE_TEXT)
    assert run(["lee", str(path)]) == 1
    assert capsys.readouterr().out == "no LEE witness\n"


def test_llee_rejects_unlayered(capsys):
    assert run(["llee", CI, CI_HAT]) == 1
    out = capsys.readouterr().out
    assert "replay: ok" in out and "lee: yes" in out and "llee: no" in out


def test_llee_accepts_layered(capsys):
    assert run(["llee", CI, CI_HAT_PRIME]) == 0
    assert "llee: yes" in capsys.readouterr().out


def test_check_witness_without_llee_flag(capsys):
    assert run(["check-witness", CI, CI_HAT]) == 0
    assert "llee: no" in capsys.readouterr().out
    assert run(["check-witness", "--llee", CI, CI_HAT]) == 1
    capsys.readouterr()


def test_check_witness_json_and_dot(tmp_path, capsys):
    # JSON prints one document with the fields of the text lines, and the
    # exit codes of the text format; DOT has no rendering of a verdict
    failing = tmp_path / "zero.witness"
    failing.write_text("witness v1\nx a x' 0\nx b x' 0\nx' a x' 1\nx' b x 0\n")
    cases = [
        (["llee", CI, CI_HAT], 1, True, False),
        (["check-witness", CI, CI_HAT], 0, True, False),
        (["llee", CI, CI_HAT_PRIME], 0, True, True),
        (["check-witness", str(FIXTURES / "g.chart"), str(failing)], 1, False, False),
    ]
    for argv, code, replays, layered in cases:
        assert run(["--format", "json"] + argv) == code
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["v", "replay", "reason", "lee", "llee", "llee_reason"]
        assert (doc["replay"], doc["lee"], doc["llee"]) == (replays, replays, layered)
        assert (doc["reason"] is None) == replays
        assert (doc["llee_reason"] is None) == (layered or not replays)
        assert run(["--format", "dot"] + argv) == 2
        assert capsys.readouterr() == ("", "error: no dot rendering for witness checks\n")


LOOP_CHART = {"transitions": [{"src": "X", "act": "a", "dst": "X"}], "init": "X"}


def _loop_witness(**row):
    """The witness of LOOP_CHART with its one order row changed; a value of
    ``None`` drops the key."""
    row = dict({"src": "X", "act": "a", "dst": "X", "order": 1}, **row)
    row = {k: v for k, v in row.items() if v is not None}
    return {"v": 1, "chart": LOOP_CHART, "orders": [row]}


@pytest.mark.parametrize(
    "chart, witness",
    [
        ({"transitions": [{"src": "x"}]}, None),
        ({"transitions": [{"src": "x", "act": 5, "dst": None}]}, None),
        ({"transitions": "xy"}, None),
        ({"transitions": [], "nodes": [["x"]]}, None),
        ({"transitions": [], "nodes": ["x"], "init": 1}, None),
        (LOOP_CHART, {"v": 1}),
        (LOOP_CHART, {"v": 1, "chart": [], "orders": []}),
        (LOOP_CHART, _loop_witness(act=None)),
        (LOOP_CHART, _loop_witness(order=True)),
        (LOOP_CHART, _loop_witness(order="1")),
        (LOOP_CHART, {"v": 1, "chart": LOOP_CHART, "orders": ["X a X 1"]}),
    ],
    ids=[
        "no-act-dst",
        "int-act",
        "string-transitions",
        "list-node",
        "int-init",
        "no-chart",
        "list-chart",
        "no-act",
        "bool-order",
        "string-order",
        "string-row",
    ],
)
def test_malformed_json_files_are_parse_errors(tmp_path, capsys, chart, witness):
    # one "parse error:" line and exit code 2, as for a malformed text file
    chart_path = tmp_path / "chart.json"
    chart_path.write_text(json.dumps(chart))
    argv = ["collapse", str(chart_path)]
    if witness is not None:
        witness_path = tmp_path / "witness.json"
        witness_path.write_text(json.dumps(_loop_witness()))
        assert run(["llee", str(chart_path), str(witness_path)]) == 0
        capsys.readouterr()
        witness_path.write_text(json.dumps(witness))
        argv = ["llee", str(chart_path), str(witness_path)]
    proc = run_python(["-m", "lleekit.cli", *argv], 0, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "chart, witness, message",
    [
        (LOOP_CHART, {"v": 1, "chart": [], "orders": []}, "a chart must be a JSON object"),
        (
            {"transitions": [{"src": 1, "act": "a", "dst": None}]},
            None,
            'transition {"src": 1, "act": "a", "dst": null} needs string src and act,'
            " and dst a string or null",
        ),
        ({"transitions": [], "nodes": ["x"], "init": 1}, None, "init must be a string or null"),
        (
            LOOP_CHART,
            {"v": 1},
            "a witness must be a JSON object with a chart and a list of orders",
        ),
        (
            LOOP_CHART,
            _loop_witness(src=["X"]),
            'order {"src": ["X"], "act": "a", "dst": "X", "order": 1} needs string src,'
            " act and dst and an integer order",
        ),
    ],
    ids=["list-chart", "int-src", "int-init", "no-chart", "list-src"],
)
def test_malformed_json_files_are_parse_errors_in_process(
    tmp_path, capsys, chart, witness, message
):
    # malformed documents read by run() in this process: one "parse error:"
    # line and exit code 2.  A file is read as JSON when it starts with "{",
    # so a chart that is no object is a witness's
    chart_path = tmp_path / "chart.json"
    chart_path.write_text(json.dumps(chart))
    argv = ["collapse", str(chart_path)]
    if witness is not None:
        witness_path = tmp_path / "witness.json"
        witness_path.write_text(json.dumps(witness))
        argv = ["llee", str(chart_path), str(witness_path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: %s\n" % message


def test_check_witness_replay_failure(tmp_path, capsys):
    w = tmp_path / "zero.witness"
    w.write_text("witness v1\nx a x' 0\nx b x' 0\nx' a x' 0\nx' b x 0\n")
    assert run(["check-witness", G, str(w)]) == 1
    assert "replay: failed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "suffix, witness, message",
    [
        (
            ".witness",
            "witness v1\nX a X 0\nX a X 1\n",
            "parse error: duplicate transition X -a-> X on line 3\n",
        ),
        (
            ".json",
            json.dumps(
                {
                    "v": 1,
                    "chart": LOOP_CHART,
                    "orders": [{"src": "X", "act": "a", "dst": "X", "order": n} for n in (0, 1)],
                }
            ),
            "parse error: duplicate transition X -a-> X in orders\n",
        ),
    ],
    ids=["text", "json"],
)
def test_check_witness_rejects_a_transition_listed_twice(tmp_path, capsys, suffix, witness, message):
    chart_path = tmp_path / "loop.json"
    chart_path.write_text(json.dumps(LOOP_CHART))
    witness_path = tmp_path / ("loop" + suffix)
    witness_path.write_text(witness)
    assert run(["check-witness", str(chart_path), str(witness_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


# the ci fixture's transitions, each with order 0
CI_ORDERS = dict.fromkeys(
    [("Z", "a1", "Z"), ("Z", "a2", "X"), ("Z", "a3", "Y"), ("Z", "a4", "K"), ("X", "b1", "Z")]
    + [("Y", "d1", "Z"), ("K", "d2", "X")],
    0,
)
# orders that make no witness of the ci chart, with the message they give
MALFORMED_ORDERS = {
    "missing": (
        {t: n for t, n in CI_ORDERS.items() if t != ("K", "d2", "X")},
        "order map must cover exactly the non-terminal transitions (missing K -d2-> X)",
    ),
    "spurious": (
        {**CI_ORDERS, ("Z", "b1", "Z"): 0},
        "order map must cover exactly the non-terminal transitions (spurious Z -b1-> Z)",
    ),
    "negative": (
        {**CI_ORDERS, ("Z", "a4", "K"): -1},
        "order of Z -a4-> K must be a non-negative integer",
    ),
    "gap": (
        {**CI_ORDERS, ("Z", "a1", "Z"): 2},
        "positive orders must be 1..m without gaps, got [2]",
    ),
}


@pytest.mark.parametrize("command", ["llee", "check-witness", "lee2llee", "solve", "reflect"])
@pytest.mark.parametrize(
    "suffix, case",
    # a text file names no transition the chart lacks: that is an unknown
    # transition on its line
    [(".witness", case) for case in ("missing", "negative", "gap")]
    + [(".json", case) for case in MALFORMED_ORDERS],
)
def test_malformed_witness_files_are_parse_errors(tmp_path, capsys, command, suffix, case):
    # orders that make no witness of the chart are a malformed file: one
    # "parse error:" line and exit code 2, not the failed-check code 1
    orders, message = MALFORMED_ORDERS[case]
    if suffix == ".json":
        chart = Chart.from_text(fixture_path("ci.chart").read_text()).to_json_dict()
        rows = [{"src": s, "act": a, "dst": d, "order": n} for (s, a, d), n in orders.items()]
        text = json.dumps({"v": 1, "chart": chart, "orders": rows})
    else:
        text = "witness v1\n" + "".join("%s %s %s %d\n" % (t + (n,)) for t, n in orders.items())
    path = tmp_path / ("ci" + suffix)
    path.write_text(text)
    assert run([command, CI, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: %s\n" % message


def test_chart_alphabet_tokens_are_checked(tmp_path, capsys):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps(dict(LOOP_CHART, alphabet=["Not An Action", "5"])))
    assert run(["--format", "json", "lee", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid action token: ")


@pytest.mark.parametrize("command", ["check-witness", "llee"])
def test_replay_fails_on_a_start_collected_within_its_order(tmp_path, capsys, command):
    # order 1 cuts x -b-> x' and the self-loop at x'; at order 2 the group at
    # x goes first, and removing x -a-> x' cuts x' off from the root x, so
    # the group at x' has no start left
    w = tmp_path / "gc.witness"
    w.write_text("witness v1\nx a x' 2\nx b x' 1\nx' a x' 1\nx' b x 2\n")
    assert run([command, G, str(w)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == (
        "replay: failed (order-2 entries at x' were garbage-collected by an earlier step)"
    )
    assert captured.err == ""


# --- layering and reflection ------------------------------------------------


def test_lee2llee(capsys, chart_ci):
    from lleekit.chart import Transition

    assert run(["lee2llee", CI, CI_HAT]) == 0
    out = capsys.readouterr().out
    w = Witness.from_text(out, chart_ci)
    assert is_llee_witness(w)
    assert w.order[Transition("Z", "a4", "K")] == 4
    assert w.order[Transition("X", "b1", "Z")] == 0


def test_reflect_text(capsys, chart_cii):
    assert run(["reflect", CII, CII_HAT]) == 0
    out = capsys.readouterr().out
    assert "chart v1" in out and "map v1" in out and "witness v1" in out
    assert "image {k, x, y, z} start x preimages 2 wsp x" in out
    assert "image {x, z} start z preimages 1 wsp z'" in out
    assert "image {y, z} start z preimages 1 wsp z''" in out
    assert "x b1 z 3" in out


def test_reflect_json(capsys):
    assert run(["--format", "json", "reflect", CII, CII_HAT]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v"] == 1
    assert [img["start"] for img in doc["images"]] == ["z", "z", "x"]


def test_reflect_refines_once(capsys, monkeypatch):
    # collapse() refines the chart once; the image hierarchy trusts its map
    refine = lleekit.bisim._refine
    calls = []

    def counted(*args):
        calls.append(args)
        return refine(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lleekit" and getattr(module, "_refine", None) is refine:
            monkeypatch.setattr(module, "_refine", counted)
    assert run(["reflect", CII, CII_HAT]) == 0
    assert "witness v1" in capsys.readouterr().out
    assert len(calls) == 1


def test_reflect_long_cycle(tmp_path, capsys):
    # no two ring nodes are bisimilar, so the collapse is the ring itself,
    # and its one simple cycle is longer than the recursion limit
    n = 1200
    ring = ["n%d a n%d" % (i, (i + 1) % n) for i in range(n)]
    chart = tmp_path / "ring.chart"
    chart.write_text("\n".join(["chart v1", "init n0", *ring, "n0 b !"]) + "\n")
    witness = tmp_path / "ring.witness"
    witness.write_text(
        "\n".join(["witness v1"] + ["%s %d" % (t, i == 0) for i, t in enumerate(ring)]) + "\n"
    )
    assert run(["reflect", str(chart), str(witness)]) == 0
    captured = capsys.readouterr()
    images = [line for line in captured.out.splitlines() if line.startswith("image ")]
    assert len(images) == 1 and images[0].endswith("} start n0 preimages 1 wsp n0")
    assert captured.err == ""


def test_reflect_rejects_a_witness_that_does_not_replay(tmp_path, capsys):
    chart = tmp_path / "two.chart"
    chart.write_text("chart v1\nX a Y\nY a X\nY b !\nP a Q\nQ a P\nQ b !\n")
    witness = tmp_path / "two.witness"
    witness.write_text("witness v1\nP a Q 1\nQ a P 0\nX a Y 0\nY a X 0\n")
    assert run(["reflect", str(chart), str(witness)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: witness does not replay: ")
    assert len(captured.err.splitlines()) == 1


def test_reflect_dot_quotes_cluster_names(tmp_path, capsys):
    # node names with a quote and a backslash, inside a cluster's name too
    chart = tmp_path / "quoted.chart"
    chart.write_text('chart v1\ninit x"1\nx"1 a y\\2\ny\\2 a x"1\ny\\2 b !\n')
    witness = tmp_path / "quoted.witness"
    witness.write_text('witness v1\nx"1 a y\\2 0\ny\\2 a x"1 1\n')
    assert run(["--format", "dot", "reflect", str(chart), str(witness)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert '  subgraph "cluster_x\\"1, y\\\\2" {' in lines
    assert '    label="x\\"1, y\\\\2"; style=dotted;' in lines
    assert '    "x\\"1";' in lines and '    "y\\\\2";' in lines


# --- solve ------------------------------------------------------------------


def test_solve_layered(capsys, chart_ci):
    assert run(["solve", CI, CI_HAT_PRIME]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "solution v1"
    assign = {}
    for line in out[1:]:
        node, text = line.split(" ", 1)
        assign[node] = parse(text)
    assert set(assign) == chart_ci.nodes


def test_solve_rejects_unlayered(capsys):
    assert run(["solve", CI, CI_HAT]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_folds_an_initial_node_that_no_transition_enters(capsys, tmp_path):
    # the chart's initial node lies on no cycle and covers the loop node
    # ((b+(b+a)*c).b)*b: solve prints the folded root from the chart, a
    # searched witness and its layering.  The chart is its own collapse, so
    # equiv certifies it by the expression itself and prints it
    e = "a+((b+(b+a)*c).b)*b"
    printed = "a+(a.(a+b)*(c.b)+b.(a+b)*(c.b)+b.b+c.b)*b"
    assert run(["equiv", e, e + "+0"]) == 0
    assert capsys.readouterr().out == "EQUAL\n%s\n" % e
    chart, lee, llee = tmp_path / "e.chart", tmp_path / "e.lee", tmp_path / "e.llee"
    for argv, path in (
        (["chart", e], chart),
        (["lee", str(chart)], lee),
        (["lee2llee", str(chart), str(lee)], llee),
    ):
        assert run(argv) == 0
        path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert chart.read_text(encoding="utf-8").splitlines()[1] == "init " + e
    assert run(["solve", str(chart), str(llee)]) == 0
    out = capsys.readouterr().out
    assert "%s %s" % (e, printed) in out.splitlines()


def test_solve_folds_a_hand_written_chart(capsys, tmp_path):
    # X -a-> M -b-> K, X's other transitions those of K = (a.b)*c
    chart, witness = tmp_path / "x.chart", tmp_path / "x.witness"
    chart.write_text("chart v1\ninit X\nK a M\nK c !\nM b K\nX a M\nX c !\nX d !\n")
    witness.write_text("witness v1\nK a M 1\nM b K 0\nX a M 0\n")
    assert run(["solve", str(chart), str(witness)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "solution v1",
        "K (a.b)*c",
        "M b.(a.b)*c",
        "X d+(a.b)*c",
    ]


def test_solve_no_dot(capsys):
    assert run(["--format", "dot", "solve", CI, CI_HAT_PRIME]) == 2
    assert "no dot rendering" in capsys.readouterr().err


# --- equiv ------------------------------------------------------------------


def test_equiv_equal(capsys):
    assert run(["equiv", "((a+b).(a*b))*0", "(a+b)*0"]) == 0
    assert capsys.readouterr().out == "EQUAL\n(a+b)*0\n"


def test_equiv_not_equal(capsys):
    assert run(["equiv", "a.(b+c)", "a.b+a.c"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "NOT_EQUAL"
    assert lines[1] == "block1: g:a.(b+c)"
    assert lines[2] == "block2: h:a.b+a.c"


def test_equiv_long_chains_not_equal(capsys):
    # a chain of 4000 actions once ended in a RecursionError traceback
    rng = random.Random(3)
    c = ".".join(rng.choice("abc") for _ in range(4000))
    assert run(["equiv", c + ".x", c + ".y"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["NOT_EQUAL", "block1: g:%s.x" % c, "block2: h:%s.y" % c]


def test_equiv_json(capsys):
    assert run(["--format", "json", "equiv", "a", "a"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v"] == 1 and doc["equal"] is True


def test_equiv_certificate(tmp_path, capsys):
    cert_dir = tmp_path / "cert"
    assert run(["equiv", "((a+b).(a*b))*0", "(a+b)*0", "--certificate", str(cert_dir)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in cert_dir.iterdir())
    assert names == ["g1_to_h.map", "g2_to_h.map", "h.chart", "h.solution", "h.witness"]
    h = Chart.from_text((cert_dir / "h.chart").read_text())
    w = Witness.from_text((cert_dir / "h.witness").read_text(), h)
    assert is_llee_witness(w)
    g1 = interpret(parse("((a+b).(a*b))*0"))
    g2 = interpret(parse("(a+b)*0"))
    BisimMap.from_text((cert_dir / "g1_to_h.map").read_text(), g1, h)
    BisimMap.from_text((cert_dir / "g2_to_h.map").read_text(), g2, h)
    sol_lines = (cert_dir / "h.solution").read_text().splitlines()
    assert sol_lines[0] == "solution v1"
    node, text = sol_lines[1].split(" ", 1)
    assert node == h.initial and unparse(parse(text)) == "(a+b)*0"


def test_equiv_dot_only_for_certificates(capsys):
    assert run(["--format", "dot", "equiv", "a", "b"]) == 2
    assert "no dot rendering" in capsys.readouterr().err
    assert run(["--format", "dot", "equiv", "a", "a"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


# --- error handling ---------------------------------------------------------


def test_missing_file(capsys):
    assert run(["lee", "/nonexistent/nothing.chart"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["llee", G, "/nonexistent/nothing.witness"]) == 2
    capsys.readouterr()


def test_malformed_chart_file(tmp_path, capsys):
    bad = tmp_path / "bad.chart"
    bad.write_text("chart v1\nx a\n")
    assert run(["lee", str(bad)]) == 2
    capsys.readouterr()
    # invalid tokens are rejected during validation, not header parsing
    bad.write_text("chart v1\nx A x\n")
    assert run(["lee", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,text",
    [
        ("text.chart", "chart v1\ninit q\nx a x\n"),
        ("json.chart", '{"v": 1, "init": "q", "transitions": [{"src": "x", "act": "a", "dst": "x"}]}'),
    ],
    ids=["text", "json"],
)
def test_an_init_that_names_no_node_is_a_parse_error(tmp_path, capsys, name, text):
    # exit 1 would read as "no LEE witness"; a malformed chart file exits 2
    path = tmp_path / name
    path.write_text(text)
    assert run(["lee", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: initial node 'q' is not a node\n"


def test_malformed_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.chart"
    bad.write_text("{not json")
    assert run(["lee", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_witness_json_against_wrong_chart(tmp_path, capsys, chart_g):
    w = find_lee_witness(chart_g)
    path = tmp_path / "g.witness.json"
    path.write_text(w.to_json())
    assert run(["check-witness", CI, str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_bad_expression(capsys):
    assert run(["chart", "a$b"]) == 2
    capsys.readouterr()
    assert run(["equiv", "a", ")"]) == 2
    capsys.readouterr()


def test_determinism(capsys):
    assert run(["equiv", "((a+b).(a*b))*0", "(a+b)*0"]) == 0
    first = capsys.readouterr().out
    assert run(["equiv", "((a+b).(a*b))*0", "(a+b)*0"]) == 0
    assert capsys.readouterr().out == first
    assert run(["lee", CI]) == 0
    first = capsys.readouterr().out
    assert run(["lee", CI]) == 0
    assert capsys.readouterr().out == first


RUN_MIX = (
    ["--format", "json", "equiv", "a.(b+c)", "a.b+a.c"],
    ["--cap", "2", "equiv", "a.b.c", "a.b.c"],
    ["equiv", "((a+b).(a*b))*0", "(a+b)*0"],
    ["--format", "json", "equiv", "a", "a"],
    ["equiv", "a", "b"],
    ["--cap", "50", "chart", "a.b"],
    ["equiv", "a", ")"],
)


def _run_captured(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_runs_leak_no_state(capsys):
    # each argv run alone in a fresh process, then all of them twice in this one
    fresh = []
    for argv in RUN_MIX:
        proc = run_python(["-m", "lleekit.cli", *argv], 0, text=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert fresh[1] == (1, "", "error: more than 2 states while interpreting 'a.b.c'\n")
    reused = [_run_captured(argv, capsys) for argv in RUN_MIX * 2]
    assert reused == fresh * 2
    # exits 0, 1 and 2 leave the cyclic collector as they found it
    both = in_both_collector_states(lambda: [_run_captured(argv, capsys) for argv in RUN_MIX])
    assert both == [fresh, fresh]


def test_internal_error_exits_3(capsys, monkeypatch):
    # a wrong solution on the collapse's ids fails equiv's own solution
    # check, which names the failing collapse node; the README pair's first
    # chart has two states and its collapse one, so equiv extracts
    import lleekit.solve

    extract = lleekit.solve.extract_solution

    def wrong(w):
        sol = extract(w)
        return Solution(sol.chart, {c: Action("z") for c in sol.assign})

    monkeypatch.setattr(lleekit.solve, "extract_solution", wrong)
    argv = ["equiv", "((a+b).(a*b))*0", "(a+b)*0"]
    both = in_both_collector_states(lambda: _run_captured(argv, capsys))
    err = "internal error: extracted solution fails at g:((a+b).a*b)*0\n"
    assert both == [(3, "", err)] * 2


def test_wrong_state_expressions_exit_3(capsys, monkeypatch):
    # the first chart of a.b is its own collapse, so equiv assigns it the
    # state expressions, the initial node a.b itself; a wrong expression
    # for g:b fails the solution check there and at g:a.b, which steps to it
    import lleekit.solve

    def wrong(states):
        return [Action("z")] * len(states)

    monkeypatch.setattr(lleekit.solve, "_state_expressions", wrong)
    both = in_both_collector_states(lambda: _run_captured(["equiv", "a.b", "a.b+0"], capsys))
    assert both == [(3, "", "internal error: the state expressions fail at g:a.b, g:b\n")] * 2


@pytest.mark.parametrize("error", [InvalidWitness, LemmaViolated, NotABisimulation, NotLLEE])
def test_equiv_certificate_invariant_failures_exit_3(capsys, monkeypatch, error):
    # an invariant failure while the certificate is built once left equiv
    # with status 1, the NOT_EQUAL code; here the image computation on the
    # first chart's ids fails, on the README pair, whose first chart is not
    # its own collapse
    def broken(*args):
        raise error("broken")

    monkeypatch.setattr("lleekit.solve._images", broken)
    assert run(["equiv", "((a+b).(a*b))*0", "(a+b)*0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: building the certificate failed: broken\n"


def test_equiv_rejects_a_map_that_fails_the_transfer_check(capsys, monkeypatch):
    # the joint refinement is trusted for the verdict only: a state of the
    # second exploration moved into the initial block still leaves the
    # verdict EQUAL, and the transfer check of the maps rejects it
    import lleekit.solve

    refine = lleekit.solve._refine
    calls = []

    def corrupted(outmap, term):
        block = refine(outmap, term)
        if not calls:
            # the second exploration's states come last
            block[-1] = block[0]
        calls.append(block)
        return block

    monkeypatch.setattr(lleekit.solve, "_refine", corrupted)
    assert run(["equiv", "(a*b).c", "a*(b.c)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert "mapping fails the transfer conditions" in captured.err


def test_equiv_rejects_a_witness_without_loop_labels(capsys, monkeypatch):
    # without the loop labels of the first exploration its witness has no
    # entries, so a cycle survives its replay
    import lleekit.solve

    explore = lleekit.solve._explore

    def unlabelled(*args, **kwargs):
        x = explore(*args, **kwargs)
        space, roots, states, out, term, loops, base = x
        if loops is None:
            return x
        return type(x)(space, roots, states, out, term, [(0, 0)] * len(loops), base)

    monkeypatch.setattr(lleekit.solve, "_explore", unlabelled)
    assert run(["equiv", "a*b", "a.(a*b)+b"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: the expression's witness is not a layered witness"
    )


def _nested(template, depth):
    e = "a"
    for _ in range(depth):
        e = template % e
    return e


SUM3000 = "+".join(["a"] * 3000)
SEQ2000 = _nested("a.(%s)", 2000)
STAR1500 = _nested("(a*%s)", 1500)
CHAIN4000 = ".".join(["c"] * 4000)


def test_equiv_wide_sum_answers():
    # _States.steps keeps the right operands of sums on an explicit stack:
    # a sum of 3000 terms exited 2 with "expression nested too deeply"
    # while it recursed once per summand.  Its chart is one node, its own
    # collapse, so the sum is printed as it was given
    proc = run_python(["-m", "lleekit.cli", "equiv", SUM3000, SUM3000 + "+0"], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == "EQUAL\n%s\n" % SUM3000


def test_equiv_too_deep_exits_2(monkeypatch, capsys):
    # nothing in interpretation recurses any more, so the RecursionError
    # mapping is a safety net, forced here: one line on stderr and status 2,
    # not a traceback and status 1, the NOT_EQUAL code
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(lleekit.cli, "equiv", too_deep)
    for code, out, err in in_both_collector_states(
        lambda: _run_captured(["equiv", "a", "a"], capsys)
    ):
        assert (code, out) == (2, "")
        assert err.startswith("error: expression nested too deeply")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "e1,e2",
    [(SEQ2000, SEQ2000), (CHAIN4000 + ".x", CHAIN4000 + ".(x+x)")],
    ids=["seq2000", "chain4000"],
)
def test_equiv_deep_or_long_answers(e1, e2):
    # parsing, printing and solution extraction use no recursion, under
    # the default recursion limit of a fresh interpreter
    proc = run_python(["-m", "lleekit.cli", "equiv", e1, e2], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("EQUAL\n")


@pytest.mark.parametrize(
    "e2,code", [(CHAIN4000 + ".y", 1), (CHAIN4000 + ".(x+x)", 0)], ids=["not_equal", "equal"]
)
def test_no_collection_runs_while_deciding(e2, code, capsys):
    # a decision builds acyclic objects only, and the cyclic collector is
    # paused for the whole of a command and of library equiv; unpaused,
    # these calls set off dozens of collections.  Only collections with run
    # or equiv on the stack count.  Collecting before each call leaves the
    # few objects run makes before its pause short of a collection's
    # threshold.  It also settles the collection that the first allocations
    # after a long call set off, which CPython 3.12 and later run at the
    # next call's entry
    e1 = CHAIN4000 + ".x"
    parsed = parse(e1), parse(e2)
    calls = {run.__code__, equiv.__code__}
    collections = []

    def count(phase, info):
        frame = sys._getframe()
        while frame is not None and frame.f_code not in calls:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        gc.collect()
        assert run(["equiv", e1, e2]) == code
        gc.collect()
        assert equiv(*parsed).equal is (code == 0)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()
    assert capsys.readouterr().err == ""
    assert collections == []


_SWEEP = """\
import contextlib, gc, io, json, sys
from lleekit.cli import run

cases = json.load(sys.stdin)


def sweep():
    codes = []
    for argv in cases:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run(argv))
    return codes


warm = sweep()
gc.collect()
gc.disable()
again = sweep()
print(json.dumps({"codes": sorted(set(warm)), "same": again == warm, "collected": gc.collect()}))
"""


def test_commands_leave_no_cyclic_garbage(tmp_path):
    # the invariant the collector's pause rests on: after a warm-up pass,
    # a second pass over every command leaves nothing for the collector
    from test_cli_golden import CASES

    chart = Chart.from_text(fixture_path("ci.chart").read_text())
    witness = Witness.from_text(fixture_path("ci_hat.witness").read_text(), chart)
    chart_json, witness_json = tmp_path / "ci.json", tmp_path / "ci_hat.json"
    chart_json.write_text(chart.to_json())
    witness_json.write_text(witness.to_json())
    cases = [case.split() for case in CASES]
    for fmt in ("text", "json", "dot"):
        f = ["--format", fmt]
        cases += [f + ["parse", "a*b"], f + ["chart", "a*b"], f + ["collapse", "a.(a*b)+b"]]
        cases.append(f + ["collapse", "cii.chart", "--map", str(tmp_path / "cii.map")])
        for command in (["lee"], ["collapse"]):
            cases.append(f + command + [str(chart_json)])
        for command in (["llee"], ["lee2llee"], ["reflect"], ["solve"]):
            cases.append(f + command + [str(chart_json), str(witness_json)])
        for e1, e2 in [("((a+b).(a*b))*0", "(a+b)*0"), ("a.(b+c)", "a.b+a.c"), ("a", ")")]:
            cases.append(f + ["equiv", e1, e2])
            cases.append(f + ["equiv", e1, e2, "--certificate", str(tmp_path / "cert")])
    proc = run_python(["-c", _SWEEP], 0, text=True, cwd=FIXTURES, input=json.dumps(cases))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 1, 2], "same": True, "collected": 0}


def _long_chain_pairs(n):
    """A chain of ``n`` actions inside a star, inside a summand and as a
    star body, against a pair that is or is not bisimilar to it."""
    chain = ".".join(["c"] * (n - 1))
    looped = "(%s.x)*0" % chain
    return [
        ("(%s.c)*x" % chain, "(%s.c)*y" % chain, 1),
        ("%s.x+b" % chain, "%s.y+b" % chain, 1),
        (looped, looped, 0),
        (looped, looped + "+0", 0),
    ]


@pytest.mark.parametrize("n", [1200, 4000])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_equiv_long_sequence_in_star_or_sum_answers(n, fmt, capsys):
    # _States.steps walks down a sequence's left spine in a loop, so a long
    # sequence below a star or a summand, not only at the root of a state,
    # answers under the default recursion limit; at 1200 actions these
    # exited 2 with "expression nested too deeply".  The JSON of an EQUAL
    # is indented once per level of its expression, so at 4000 actions it
    # is 257 MB: only the NOT_EQUAL shapes are printed as JSON there
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for e1, e2, code in _long_chain_pairs(n):
            if fmt == "json" and n == 4000 and code == 0:
                continue
            assert run(["--format", fmt, "equiv", e1, e2]) == code, (n, e1[:20], e2[-20:])
            out, err = capsys.readouterr()
            assert err == ""
            if fmt == "text":
                assert out.startswith("EQUAL\n" if code == 0 else "NOT_EQUAL\n")
            else:
                # read as text: the standard decoder recurses once per level
                head = '{\n  "v": 1,\n  "equal": %s,\n' % ("true" if code == 0 else "false")
                assert out.startswith(head) and out.endswith("\n}\n")
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "args",
    [["--format", "json", "equiv"], ["--format", "json", "parse"], ["--format", "dot", "parse"]],
    ids=["json-equiv", "json-parse", "dot-parse"],
)
def test_deep_json_and_dot_answer(args):
    # JSON and dot output are written from explicit stacks: these exited 2
    # with "nested too deeply" while they recursed
    expressions = [SEQ2000, SEQ2000] if args[-1] == "equiv" else [SEQ2000]
    proc = run_python(["-m", "lleekit.cli", *args, *expressions], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if args[1] == "dot":
        assert proc.stdout.startswith("digraph expression {\n")
        # one line per syntax node and per edge
        assert proc.stdout.count("\n") == 3 + 4001 + 4000
    else:
        head = '{\n  "v": 1,\n  "equal": true,\n' if args[-1] == "equiv" else '{\n  "v": 1,\n'
        assert proc.stdout.startswith(head + '  "expression": {\n    "op": "seq",\n')
        assert proc.stdout.endswith("\n}\n")


def test_json_output_is_the_standard_encoders():
    # byte for byte json.dumps(indent=2) of the same document
    e = _nested("(b+a.(%s))", 150)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["--format", "json", "equiv", e, e]) == 0
    cert = equiv(parse(e), parse(e)).certificate
    doc = {
        "v": 1,
        "equal": True,
        "expression": to_json_dict(cert.expression),
        "chart": cert.collapse.to_json_dict(),
    }
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "expression", [SUM3000, SEQ2000, STAR1500], ids=["sum3000", "seq2000", "star1500"]
)
def test_parse_deep_prints_a_fixed_point(expression):
    proc = run_python(["-m", "lleekit.cli", "parse", expression], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.rstrip("\n")
    assert unparse(parse(text)) == text
    assert parse(text) == parse(expression)


def _equiv_in_subprocess(hash_seed, e1, e2):
    proc = run_python(["-m", "lleekit.cli", "equiv", e1, e2], hash_seed, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_equiv_output_independent_of_hash_seed():
    # string hashing is randomised per process; the printed solution must not
    # depend on it (hash seeds 1 and 2 once printed a+b and b+a here)
    assert _equiv_in_subprocess(1, "a+b", "b+a") == "EQUAL\na+b\n"
    assert _equiv_in_subprocess(2, "a+b", "b+a") == "EQUAL\na+b\n"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # every CLI call imports lleekit first, and these modules cost most of
    # that; -S keeps site from loading any of them beforehand
    script = (
        "import sys\n"
        "import lleekit, lleekit.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    proc = run_python(["-S", "-c", script], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_text_equiv_loads_no_json(capsys):
    # json loads only where JSON is read or written: a text equiv, EQUAL or
    # NOT_EQUAL, needs none of these modules, and a JSON one still prints
    # its document
    script = (
        "import sys\n"
        "from lleekit.cli import run\n"
        "guarded = {'dataclasses', 'inspect', 'json', 'typing'}\n"
        "run(['equiv', 'a*b', 'a.(a*b)+b'])\n"
        "run(['equiv', 'a.(b+c)', 'a.b+a.c'])\n"
        "print(sorted(guarded & set(sys.modules)))\n"
        "run(['--format', 'json', 'equiv', 'a.(b+c)', 'a.b+a.c'])\n"
    )
    proc = run_python(["-S", "-c", script], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    text = "EQUAL\na*b\nNOT_EQUAL\nblock1: g:a.(b+c)\nblock2: h:a.b+a.c\n[]\n"
    assert run(["--format", "json", "equiv", "a.(b+c)", "a.b+a.c"]) == 1
    assert proc.stdout == text + capsys.readouterr().out


def test_import_compiles_no_record_methods():
    # a record compiles its methods when one is first looked up; the import
    # compiles none, and the first construction compiles its class's only
    script = (
        "import sys\n"
        "compiled = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile' and sys._getframe(1).f_code.co_filename.endswith('_record.py'):\n"
        "        compiled.append(sys._getframe(1).f_code.co_name)\n"
        "sys.addaudithook(hook)\n"
        "import lleekit, lleekit.cli\n"
        "print(len(compiled))\n"
        "from lleekit.solve import Distinction\n"
        "Distinction(frozenset(), frozenset()) == Distinction(frozenset(), frozenset())\n"
        "print(compiled)\n"
    )
    proc = run_python(["-S", "-c", script], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n['_compile']\n"


@pytest.mark.parametrize("command", [["collapse", "{}"], ["llee", CI, "{}"]], ids=["chart", "witness"])
def test_invalid_json_input_is_one_error_line(tmp_path, command):
    # a file that starts with "{" is read as JSON; where it is not JSON the
    # call fails with one line, not a traceback
    path = tmp_path / "broken"
    path.write_text('{"v": 1,\n')
    argv = [str(path) if arg == "{}" else arg for arg in command]
    proc = run_python(["-m", "lleekit.cli", *argv], 0, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: invalid JSON input (")
    assert proc.stderr.endswith(")\n") and proc.stderr.count("\n") == 1


# --- the command line -------------------------------------------------------

# each command's positionals, and its options: True for one that takes a
# value, False for a flag
GRAMMAR = {
    "parse": (1, {}),
    "chart": (1, {}),
    "collapse": (1, {"--map": True}),
    "lee": (1, {}),
    "llee": (2, {}),
    "lee2llee": (2, {}),
    "reflect": (2, {}),
    "solve": (2, {}),
    "equiv": (2, {"--certificate": True}),
    "check-witness": (2, {"--llee": False}),
}
VALUES = st.one_of(
    st.sampled_from(["a.b", "(a+b)*0", "out/cert", "-5", "-0.5", "-a b", "", "x=y", "0"]),
    st.text("ab.+*()", min_size=1, max_size=5),
)
# positionals that only a "--" before them keeps from being read as options
DASHED = st.sampled_from(["-a", "--x", "-h", "--format", "--cert"])
FORMATS = st.sampled_from(["text", "json", "dot"])
CAPS = st.integers(-3, 10**6).map(str)
CORRUPTIONS = [
    "drop", "extra", "command", "option", "choice", "int", "global after", "no value", "help"
]


def _spelled(draw, flag, value=None):
    """``flag`` as a prefix that is still unique, with its value next or after ``=``."""
    shortest = 3 if flag.startswith("--") else len(flag)
    spelled = flag[: draw(st.integers(shortest, len(flag)))]
    if value is None:
        return [spelled]
    return [spelled + "=" + value] if draw(st.booleans()) else [spelled, value]


def _global(draw, flag=None):
    flag = flag or draw(st.sampled_from(["--format", "--cap"]))
    return _spelled(draw, flag, draw(FORMATS if flag == "--format" else CAPS))


@st.composite
def command_lines(draw):
    """An argv of the CLI's grammar, and the one corruption applied to it (or None)."""
    globals_ = [_global(draw) for _ in range(draw(st.integers(0, 2)))]
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    count, options = GRAMMAR[command]
    items = [("positional", [draw(VALUES)]) for _ in range(count)]
    for flag, takes in options.items():
        for _ in range(draw(st.integers(0, 2))):
            items.append(("option", _spelled(draw, flag, draw(VALUES) if takes else None)))
    items = draw(st.permutations(items))
    corruption = draw(st.one_of(st.none(), st.sampled_from(CORRUPTIONS)))
    positions = [i for i, (kind, _) in enumerate(items) if kind == "positional"]
    if corruption == "drop" and positions:
        del items[draw(st.sampled_from(positions))]
    elif corruption == "extra":
        items.insert(draw(st.integers(0, len(items))), ("positional", [draw(VALUES)]))
    elif corruption == "command":
        command = draw(st.sampled_from(["equi", "Equiv", "check_witness", "lee3", "parse "]))
    elif corruption == "option":
        unknown = draw(st.sampled_from(["--bogus", "-x", "--map", "--llee", "--certificate"]))
        if unknown not in options:
            items.insert(draw(st.integers(0, len(items))), ("option", [unknown]))
    elif corruption == "choice":
        globals_.append(_spelled(draw, "--format", draw(st.sampled_from(["xml", "TEXT", ""]))))
    elif corruption == "int":
        globals_.append(_spelled(draw, "--cap", draw(st.sampled_from(["x", "1.5", "", "5x"]))))
    elif corruption == "global after":
        items.insert(draw(st.integers(0, len(items))), ("option", _global(draw)))
    elif corruption == "no value":
        valued = [flag for flag, takes in options.items() if takes]
        if valued:
            items.append(("option", _spelled(draw, valued[0])))
        else:
            globals_.append([draw(st.sampled_from(["--cap", "--format"])), "--format", "json"])
    elif corruption == "help":
        where = draw(st.integers(0, len(globals_) + len(items)))
        flag = [draw(st.sampled_from(["-h", "--help", "--he"]))]
        if where <= len(globals_):
            globals_.insert(where, flag)
        else:
            items.insert(where - len(globals_), ("option", flag))
    # "--" ends the options: one or more positionals follow it, and those
    # may then start with "-".  (argparse reported a "--" after the last
    # positional and an option as unrecognized; a one-pass reading takes it)
    last = max((i for i, (kind, _) in enumerate(items) if kind == "option"), default=-1)
    if last + 1 < len(items) and draw(st.booleans()):
        cut = draw(st.integers(last + 1, len(items) - 1))
        after = [
            ("positional", [draw(DASHED)]) if draw(st.booleans()) else item
            for item in items[cut:]
        ]
        items = items[:cut] + [("end", ["--"])] + after
    argv = [arg for given in globals_ for arg in given] + [command]
    return argv + [arg for _, given in items for arg in given], corruption


def _read(parse, argv):
    """What ``parse(argv)`` gives: its attributes, ``func`` by name, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(parse(argv))
        except SystemExit as exc:
            return exc.code
    return dict(args, func=args["func"].__name__)


@functools.lru_cache(maxsize=None)
def _argparse_twin():
    return argparse_cli()


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_command_line_reads_as_argparse_read_it(case):
    argv, corruption = case
    expected = _read(_argparse_twin().parse_args, argv)
    assert _read(_parse_args, argv) == expected
    if corruption is None:
        assert expected != 2


def test_command_line_spellings():
    # abbreviations, "=" values, options between positionals, "--" and a
    # repeated option, each read as argparse read them
    argv = ["--form", "json", "--c=7", "equiv", "a", "--cert", "d1", "--", "-b"]
    assert vars(_parse_args(argv)) == vars(_argparse_twin().parse_args(argv))
    args = _parse_args(["--cap", "3", "--ca", "4", "check-witness", "--ll", "g", "w"])
    assert (args.cap, args.llee, args.chart, args.witness) == (4, True, "g", "w")
    args = _parse_args(["llee", "g", "w"])
    assert (args.llee, args.func) == (True, lleekit.cli._cmd_check_witness)
    args = _parse_args(["collapse", "--map=m1", "t", "--map", "m2"])
    assert (args.target, args.map, args.format, args.cap) == ("t", "m2", "text", None)


TOP_USAGE = "usage: lleekit [-h] [--format {text,json,dot}] [--cap CAP] COMMAND ...\n"
EQUIV_USAGE = "usage: lleekit equiv [-h] [--certificate DIR] expr1 expr2\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        ([], TOP_USAGE + "lleekit: error: the following arguments are required: command\n"),
        (
            ["equiv", "a"],
            EQUIV_USAGE + "lleekit equiv: error: the following arguments are required: expr2\n",
        ),
        (
            ["--format", "xml", "parse", "a"],
            TOP_USAGE + "lleekit: error: argument --format: invalid choice: 'xml'"
            " (choose from 'text', 'json', 'dot')\n",
        ),
        (
            ["equiv", "a", "b", "--format", "json"],
            TOP_USAGE + "lleekit: error: unrecognized arguments: --format json\n",
        ),
    ],
    ids=["no-command", "missing-positional", "bad-choice", "global-after-command"],
)
def test_usage_errors(argv, err, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


def test_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == TOP_USAGE + (
        "\n"
        "Process semantics and loop elimination for star expressions without 1.\n"
        "\n"
        "commands:\n"
        "  parse                     parse an expression and print it back\n"
        "  chart                     interpret an expression as a chart\n"
        "  collapse                  collapse a chart (file) or an expression\n"
        "  lee                       search a chart file for an elimination witness\n"
        "  llee                      check that a witness is layered\n"
        "  lee2llee                  layer an elimination witness\n"
        "  reflect                   collapse a chart and reflect its witness onto the collapse\n"
        "  solve                     extract and check a solution from a layered witness\n"
        "  equiv                     decide bisimilarity of two expressions\n"
        "  check-witness             replay-check a witness\n"
        "\n"
        "options:\n"
        "  -h, --help                show this help message and exit\n"
        "  --format {text,json,dot}  output format\n"
        "  --cap CAP                 state cap for interpretation (default 100000, env"
        " LLEEKIT_STATE_CAP)\n"
    )
    with pytest.raises(SystemExit) as exc:
        run(["equiv", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == EQUIV_USAGE + (
        "\n"
        "decide bisimilarity of two expressions\n"
        "\n"
        "arguments:\n"
        "  expr1\n"
        "  expr2\n"
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --certificate DIR  write certificate files to DIR\n"
    )


def test_cli_loads_no_argparse():
    # the command line is read without argparse, and so without gettext;
    # -I ignores PYTHONPATH, so the script is given the sources' directory
    src = str(pathlib.Path(lleekit.cli.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import lleekit.cli\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    proc = run_python(["-I", "-c", script, src], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_loads_no_re_and_makes_one_namedtuple():
    # parsing uses no regular expression, and the private records are
    # classes written in source: the public CollapseResult is the one
    # namedtuple left, and each one compiles a generated __new__.  -S keeps
    # site from loading re beforehand; functools makes a namedtuple of its
    # own when it is imported, so it is imported before the count starts
    src = str(pathlib.Path(lleekit.cli.__file__).resolve().parent.parent)
    script = (
        "import collections, functools, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "made = []\n"
        "factory = collections.namedtuple\n"
        "def counted(*args, **kwargs):\n"
        "    made.append(args[0])\n"
        "    return factory(*args, **kwargs)\n"
        "collections.namedtuple = counted\n"
        "import lleekit.cli\n"
        "codes = [\n"
        "    lleekit.cli.run(['equiv', '((a+b).(a*b))*0', '(a+b)*0']),\n"
        "    lleekit.cli.run(['equiv', 'a.(b+c)', 'a.b+a.c']),\n"
        "    lleekit.cli.run(['parse', 'a+']),\n"
        "]\n"
        "print(codes, sorted({'re', 'enum'} & set(sys.modules)), made)\n"
    )
    proc = run_python(["-I", "-S", "-c", script, src], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 1, 2] [] ['CollapseResult']"
