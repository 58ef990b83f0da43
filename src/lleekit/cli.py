"""Command-line interface.

Subcommands cover the whole pipeline: parsing, interpretation, collapse,
witness search and checking, layering, reflection through a collapse, and
solution extraction, plus the end-to-end ``equiv`` decision.

Exit codes: 0 on success (``equiv``: EQUAL), 1 on a failed check or
NOT_EQUAL, 2 on I/O, syntax, or usage errors, 3 when an internal invariant
fails (:class:`InternalError`, a bug).  The state cap (``--cap``) bounds
exploration, the canonical forms of the solution check and the syntax
nodes of the expression an EQUAL prints; past any of them, exit code 1.
Parsing, interpretation, printing in every format, solution extraction
and its check use no recursion, so some thousands of nested sequences,
summands or stars answer.  A ``RecursionError`` is still caught, as a
safety net: one ``error: expression nested too deeply`` line on stderr
and exit code 2.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import expr as expr_mod
from ._record import record
from .bisim import collapse
from .chart import DEFAULT_STATE_CAP, Chart, _collection_paused, _state_cap, interpret
from .errors import InternalError, LleekitError, ParseError, StateExplosion
from .expr import Action, Plus, Seq, Star, Zero, parse, size, unparse
from .lee import Witness, find_lee_witness, lee_to_llee
from .reflect import _reflect
from .solve import _provable_check, equiv, extract_solution

__all__ = ["Config", "run", "main"]


@record(frozen=False)
class Config:
    """Resolved global options."""

    cap: int = DEFAULT_STATE_CAP
    format: str = "text"

    def __post_init__(self):
        _state_cap(self.cap)


def _read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_chart(path):
    text = _read(path)
    if text.lstrip().startswith("{"):
        return Chart.from_json(text)
    return Chart.from_text(text)


def _load_witness(path, chart):
    text = _read(path)
    if text.lstrip().startswith("{"):
        w = Witness.from_json(text)
        if w.chart != chart:
            raise ParseError("witness file carries a different chart than %r" % path)
        return w
    return Witness.from_text(text, chart)


def _chart_or_expression(arg, cfg):
    if os.path.exists(arg):
        return _load_chart(arg)
    return interpret(parse(arg), cap=cfg.cap)


def _print(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _expression_dot(e):
    """Syntax-tree rendering of an expression.

    Nodes are numbered in pre-order, and an edge is written after the
    subtree it leads to; an explicit stack walks the tree, so a deep
    expression does not hit the recursion limit.
    """
    lines = ["digraph expression {", "  node [shape=plaintext];"]
    count = 0
    # (node, its parent's number or None), or an edge line to write
    stack = [(e, None)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            lines.append(item)
            continue
        node, parent = item
        idx = count
        count += 1
        if isinstance(node, Action):
            label, kids = node.name, ()
        elif isinstance(node, Zero):
            label, kids = "0", ()
        elif isinstance(node, Plus):
            label, kids = "+", (node.left, node.right)
        elif isinstance(node, Seq):
            label, kids = ".", (node.left, node.right)
        elif isinstance(node, Star):
            label, kids = "*", (node.left, node.right)
        else:
            raise TypeError("not an expression: %r" % (node,))
        lines.append('  n%d [label="%s"];' % (idx, label))
        if parent is not None:
            stack.append("  n%d -> n%d;" % (parent, idx))
        stack += [(kid, idx) for kid in reversed(kids)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _solution_text(sol):
    lines = ["solution v1"]
    for x in sorted(sol.assign):
        lines.append("%s %s" % (x, unparse(sol.assign[x])))
    return "\n".join(lines) + "\n"


def _solution_json_dict(sol):
    return {
        "v": 1,
        "solution": {x: expr_mod.to_json_dict(sol.assign[x]) for x in sorted(sol.assign)},
    }


def _no_dot(what):
    sys.stderr.write("error: no dot rendering for %s\n" % what)
    return 2


# --- subcommands -----------------------------------------------------------


def _cmd_parse(args, cfg):
    e = parse(args.expr)
    if cfg.format == "json":
        _print(expr_mod.to_json(e))
    elif cfg.format == "dot":
        _print(_expression_dot(e))
    else:
        _print(unparse(e))
    return 0


def _cmd_chart(args, cfg):
    g = interpret(parse(args.expr), cap=cfg.cap)
    if cfg.format == "json":
        _print(g.to_json())
    elif cfg.format == "dot":
        _print(g.to_dot())
    else:
        _print(g.to_text())
    return 0


def _cmd_collapse(args, cfg):
    g = _chart_or_expression(args.target, cfg)
    res = collapse(g)
    if args.map:
        with open(args.map, "w", encoding="utf-8") as f:
            f.write(res.theta.to_text())
    if cfg.format == "json":
        doc = {"v": 1, "chart": res.chart.to_json_dict(), "map": res.theta.to_json_dict()}
        _print(expr_mod._dumps(doc))
    elif cfg.format == "dot":
        _print(res.chart.to_dot())
    else:
        out = res.chart.to_text()
        if not args.map:
            out += "\n" + res.theta.to_text()
        _print(out)
    return 0


def _cmd_lee(args, cfg):
    g = _load_chart(args.chart)
    w = find_lee_witness(g)
    if w is None:
        _print("no LEE witness")
        return 1
    if cfg.format == "json":
        _print(w.to_json())
    elif cfg.format == "dot":
        _print(w.to_dot())
    else:
        _print(w.to_text())
    return 0


def _cmd_check_witness(args, cfg):
    g = _load_chart(args.chart)
    rep = _load_witness(args.witness, g).replay()
    code = 0 if rep.ok and (rep.llee or not args.llee) else 1
    if cfg.format == "json":
        doc = {
            "v": 1,
            "replay": rep.ok,
            "reason": rep.reason,
            "lee": rep.ok,
            "llee": rep.llee,
            "llee_reason": rep.llee_reason,
        }
        _print(expr_mod._dumps(doc))
    elif cfg.format == "dot":
        return _no_dot("witness checks")
    elif not rep.ok:
        _print("replay: failed (%s)" % rep.reason)
    elif rep.llee:
        _print("replay: ok\nlee: yes\nllee: yes")
    else:
        _print("replay: ok\nlee: yes\nllee: no (%s)" % rep.llee_reason)
    return code


def _cmd_lee2llee(args, cfg):
    g = _load_chart(args.chart)
    w = _load_witness(args.witness, g)
    result = lee_to_llee(w)
    if cfg.format == "json":
        _print(result.to_json())
    elif cfg.format == "dot":
        _print(result.to_dot())
    else:
        _print(result.to_text())
    return 0


def _layered(w):
    rep = w.replay()
    if not rep.ok:
        raise LleekitError("witness does not replay: %s" % rep.reason)
    return w if rep.llee else lee_to_llee(w)


def _cmd_reflect(args, cfg):
    g = _load_chart(args.chart)
    w = _layered(_load_witness(args.witness, g))
    res = collapse(g)
    h, theta = res.chart, res.theta
    # ``collapse`` built the map and ``_layered`` layered the witness, so
    # the checks of ``collapse_lee_witness`` would refine the collapse a
    # second time; ids are name ranks, so sorted ids list sorted names
    records, w_h = _reflect(theta, w)
    shown = [
        ([h.names[v] for v in sorted(rec.nodes)], h.names[rec.start], rec)
        for rec in records
    ]
    if cfg.format == "json":
        doc = {
            "v": 1,
            "chart": h.to_json_dict(),
            "map": theta.to_json_dict(),
            "images": [
                {
                    "nodes": nodes,
                    "start": start,
                    "preimages": len(rec.preimages),
                    "wsp_start": g.names[rec.chosen],
                }
                for nodes, start, rec in shown
            ],
            "witness": w_h.to_json_dict(),
        }
        _print(expr_mod._dumps(doc))
    elif cfg.format == "dot":
        clusters = [(", ".join(nodes), nodes) for nodes, _, _ in shown]
        _print(h.to_dot(order=w_h.order, clusters=clusters))
    else:
        lines = [
            "image {%s} start %s preimages %d wsp %s"
            % (", ".join(nodes), start, len(rec.preimages), g.names[rec.chosen])
            for nodes, start, rec in shown
        ]
        _print("\n".join([h.to_text(), theta.to_text(), "\n".join(lines) + "\n", w_h.to_text()]))
    return 0


def _cmd_solve(args, cfg):
    g = _load_chart(args.chart)
    w = _load_witness(args.witness, g)
    sol = extract_solution(w)
    bad = _provable_check(sol, cfg.cap)
    if bad:
        sys.stderr.write("solution check failed at: %s\n" % ", ".join(bad))
        return 1
    if cfg.format == "json":
        _print(expr_mod._dumps(_solution_json_dict(sol)))
    elif cfg.format == "dot":
        return _no_dot("solutions")
    else:
        _print(_solution_text(sol))
    return 0


def _write_certificate(cert, directory):
    os.makedirs(directory, exist_ok=True)

    def put(name, text):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write(text)

    put("h.chart", cert.collapse.to_text())
    put("g1_to_h.map", cert.map1.to_text())
    put("g2_to_h.map", cert.map2.to_text())
    put("h.witness", cert.witness.to_text())
    put("h.solution", _solution_text(cert.solution))


def _cmd_equiv(args, cfg):
    e1 = parse(args.expr1)
    e2 = parse(args.expr2)
    res = equiv(e1, e2, cap=cfg.cap)
    if res.equal:
        cert = res.certificate
        # the state cap bounds the printed expression too, counted on the
        # shared sub-solutions before anything is written
        if cfg.format != "dot" and size(cert.expression) > cfg.cap:
            raise StateExplosion("the solution has more than %d syntax nodes" % cfg.cap)
        if args.certificate:
            _write_certificate(cert, args.certificate)
        if cfg.format == "json":
            doc = {
                "v": 1,
                "equal": True,
                "expression": expr_mod.to_json_dict(cert.expression),
                "chart": cert.collapse.to_json_dict(),
            }
            _print(expr_mod._dumps(doc))
        elif cfg.format == "dot":
            _print(cert.collapse.to_dot(order=cert.witness.order))
        else:
            _print("EQUAL\n%s" % unparse(cert.expression))
        return 0
    dist = res.distinction
    if cfg.format == "json":
        doc = {
            "v": 1,
            "equal": False,
            "block1": sorted(dist.block1),
            "block2": sorted(dist.block2),
        }
        _print(expr_mod._dumps(doc))
    elif cfg.format == "dot":
        return _no_dot("distinctions")
    else:
        _print(
            "NOT_EQUAL\nblock1: %s\nblock2: %s"
            % (" ".join(sorted(dist.block1)), " ".join(sorted(dist.block2)))
        )
    return 1


# --- driver ----------------------------------------------------------------


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    top = argparse.ArgumentParser(
        prog="lleekit",
        description="Process semantics and loop elimination for star expressions without 1.",
    )
    top.add_argument(
        "--format", choices=("text", "json", "dot"), default="text", help="output format"
    )
    top.add_argument(
        "--cap",
        type=int,
        default=None,
        help="state cap for interpretation (default %d, env LLEEKIT_STATE_CAP)"
        % DEFAULT_STATE_CAP,
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print it back")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("chart", help="interpret an expression as a chart")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("collapse", help="collapse a chart (file) or an expression")
    p.add_argument("target", metavar="FILE|EXPR")
    p.add_argument("--map", metavar="PATH", help="write the collapse map to PATH")
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("lee", help="search a chart file for an elimination witness")
    p.add_argument("chart")
    p.set_defaults(func=_cmd_lee)

    p = sub.add_parser("llee", help="check that a witness is layered")
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_check_witness, llee=True)

    p = sub.add_parser("lee2llee", help="layer an elimination witness")
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_lee2llee)

    p = sub.add_parser(
        "reflect", help="collapse a chart and reflect its witness onto the collapse"
    )
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("solve", help="extract and check a solution from a layered witness")
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("equiv", help="decide bisimilarity of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--certificate", metavar="DIR", help="write certificate files to DIR")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("check-witness", help="replay-check a witness")
    p.add_argument("chart")
    p.add_argument("witness")
    p.add_argument("--llee", action="store_true", help="also require layering")
    p.set_defaults(func=_cmd_check_witness)

    return top


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # explicit flag beats the environment beats the default
        cfg = Config(cap=_state_cap(args.cap), format=args.format)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    try:
        # the command's objects are acyclic: see _collection_paused
        with _collection_paused():
            return args.func(args, cfg)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ValueError as exc:
        # a JSONDecodeError is a ValueError, raised only once json is loaded
        json = sys.modules.get("json")
        if json is not None and isinstance(exc, json.JSONDecodeError):
            sys.stderr.write("error: invalid JSON input (%s)\n" % exc)
        else:
            # malformed tokens in input files surface as plain ValueError
            sys.stderr.write("error: %s\n" % exc)
        return 2
    except InternalError as exc:
        sys.stderr.write("internal error: %s\n" % exc)
        return 3
    except RecursionError:
        sys.stderr.write(
            "error: expression nested too deeply (recursion limit %d reached)\n"
            % sys.getrecursionlimit()
        )
        return 2
    except LleekitError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
