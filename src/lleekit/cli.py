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

The command line is read by :func:`_parse_args` in one pass over one
table, ``_COMMANDS``, after the global options of ``_GLOBAL``.  It accepts
what argparse accepted, with the same values, and keeps argparse's usage
errors; argparse is not imported, which saves a fresh process about a
quarter of its import.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import expr as expr_mod
from ._record import record
from .bisim import collapse
from .chart import DEFAULT_STATE_CAP, Chart, _collection_paused, _state_cap, interpret
from .errors import InternalError, LleekitError, ParseError, StateExplosion
from .expr import Action, Plus, Seq, Star, Zero, parse, size, unparse
from .lee import Witness, find_lee_witness, lee_to_llee
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


def _print_as(obj, cfg):
    """Print a chart or a witness in ``cfg.format``; exit code 0."""
    _print(getattr(obj, "to_" + cfg.format)())
    return 0


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
    return _print_as(g, cfg)


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
    return _print_as(w, cfg)


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
    return _print_as(result, cfg)


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
    from .reflect import _reflect

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
    # one table of leaves for both operands: each action name is checked
    # and its leaf built once per command
    leaves = {}
    e1 = parse(args.expr1, _leaves=leaves)
    e2 = parse(args.expr2, _leaves=leaves)
    res = equiv(e1, e2, cap=cfg.cap)
    if res.equal:
        cert = res.certificate
        # the state cap bounds the printed expression too, before anything
        # is written: the text counts syntax nodes while it prints and
        # stops at the first past the cap; JSON counts them on the shared
        # sub-solutions (size)
        if cfg.format == "text":
            text = expr_mod._unparse_within(cert.expression, cfg.cap)
            over = text is None
        else:
            over = cfg.format == "json" and size(cert.expression) > cfg.cap
        if over:
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
            _print("EQUAL\n" + text)
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


_DESCRIPTION = "Process semantics and loop elimination for star expressions without 1."

# An option is (metavar, kind, help), under its flags, and sets the
# attribute named by its long flag.  ``kind`` is str or int for an option
# that takes a value, or the tuple of its choices; None makes a flag, which
# sets True, and -h/--help is the flag _HELP.
_HELP = (None, None, "show this help message and exit")
_GLOBAL = {
    "-h": _HELP,
    "--help": _HELP,
    "--format": ("{text,json,dot}", ("text", "json", "dot"), "output format"),
    "--cap": (
        "CAP",
        int,
        "state cap for interpretation (default %d, env LLEEKIT_STATE_CAP)" % DEFAULT_STATE_CAP,
    ),
}


def _command(handler, positionals, about, fixed=None, **options):
    """A row of the command table: the handler, the ``(attribute,
    metavar)`` of each positional, given as ``attribute:METAVAR`` or as the
    attribute alone, the options by flag, the attributes the command fixes
    and its help."""
    positionals = tuple((p.partition(":")[0], p.rpartition(":")[2]) for p in positionals.split())
    flags = {"-h": _HELP, "--help": _HELP, **{"--" + name: row for name, row in options.items()}}
    return handler, positionals, flags, fixed or {}, about


_COMMANDS = {
    "parse": _command(_cmd_parse, "expr", "parse an expression and print it back"),
    "chart": _command(_cmd_chart, "expr", "interpret an expression as a chart"),
    "collapse": _command(
        _cmd_collapse,
        "target:FILE|EXPR",
        "collapse a chart (file) or an expression",
        map=("PATH", str, "write the collapse map to PATH"),
    ),
    "lee": _command(_cmd_lee, "chart", "search a chart file for an elimination witness"),
    "llee": _command(
        _cmd_check_witness, "chart witness", "check that a witness is layered", {"llee": True}
    ),
    "lee2llee": _command(_cmd_lee2llee, "chart witness", "layer an elimination witness"),
    "reflect": _command(
        _cmd_reflect, "chart witness", "collapse a chart and reflect its witness onto the collapse"
    ),
    "solve": _command(
        _cmd_solve, "chart witness", "extract and check a solution from a layered witness"
    ),
    "equiv": _command(
        _cmd_equiv,
        "expr1 expr2",
        "decide bisimilarity of two expressions",
        certificate=("DIR", str, "write certificate files to DIR"),
    ),
    "check-witness": _command(
        _cmd_check_witness,
        "chart witness",
        "replay-check a witness",
        llee=(None, None, "also require layering"),
    ),
}


def _negative(arg):
    """Whether ``arg`` reads as a negative number, as argparse's
    ``^-\\d+$|^-\\d*\\.\\d+$`` matched it; not compiling the pattern
    saves a fresh process 0.2 ms."""
    whole, dot, fraction = arg[1:].removesuffix("\n").partition(".")
    if not dot:
        return whole.isdecimal()
    return (whole == "" or whole.isdecimal()) and fraction.isdecimal()


def _prog(command):
    return "lleekit" if command is None else "lleekit " + command


def _flags(options):
    """The ``(label, help)`` of each option but -h/--help."""
    return [
        (flag if row[1] is None else "%s %s" % (flag, row[0]), row[2])
        for flag, row in options.items()
        if row is not _HELP
    ]


def _usage(command):
    if command is None:
        options, tail = _GLOBAL, ["COMMAND", "..."]
    else:
        _, positionals, options, _, _ = _COMMANDS[command]
        tail = [metavar for _, metavar in positionals]
    flags = ["[%s]" % label for label, _ in _flags(options)]
    return " ".join(["usage:", _prog(command), "[-h]"] + flags + tail) + "\n"


def _help(command):
    if command is None:
        options, intro = _GLOBAL, [_DESCRIPTION, "", "commands:"]
        listed = [(name, row[4]) for name, row in _COMMANDS.items()]
    else:
        _, positionals, options, _, about = _COMMANDS[command]
        intro = [about, "", "arguments:"]
        listed = [(metavar, "") for _, metavar in positionals]
    flags = [("-h, --help", _HELP[2])] + _flags(options)
    row = "  %%-%ds  %%s" % max(len(label) for label, _ in listed + flags)
    lines = intro + [row % r for r in listed] + ["", "options:"] + [row % r for r in flags]
    return _usage(command) + "\n" + "\n".join(line.rstrip() for line in lines) + "\n"


def _error(command, message):
    sys.stderr.write("%s%s: error: %s\n" % (_usage(command), _prog(command), message))
    raise SystemExit(2)


def _option(arg, options, command):
    """How argparse read ``arg`` against ``options``: None for a
    positional, else ``(flag, value)``.  ``flag`` is the flag that ``arg``
    names, in full, or None for an unknown option; ``value`` is what
    follows its ``=``, or None."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    if arg in options:
        return arg, None
    flag, eq, value = arg.partition("=")
    value = value if eq else None
    if flag in options:
        return flag, value
    if arg[1] == "-":
        # a unique prefix of a long flag names it
        found = [f for f in options if f.startswith(flag)]
        if len(found) > 1:
            _error(command, "ambiguous option: %s could match %s" % (arg, ", ".join(found)))
        if found:
            return found[0], value
    elif arg[:2] in options:
        # a short flag runs into its value
        return arg[:2], arg[2:]
    if _negative(arg) or " " in arg:
        return None
    return None, None


def _parse_args(argv):
    """The command line ``argv``, read in one pass as argparse read it.

    The global options come first, and the first positional names the
    command; its options and positionals follow in any order, up to a
    ``--`` after which all are positionals.  A flag may be given by a
    unique prefix, a value after ``=`` or as the next argument, and the
    last of a repeated option wins.  A usage error writes the usage and
    the error to stderr and raises ``SystemExit(2)``; ``-h`` writes the
    help to stdout and raises ``SystemExit(0)``.
    """
    args = SimpleNamespace(format="text", cap=None)
    command, options, positionals = None, _GLOBAL, None
    extras = []
    ended = False
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--" and command is not None and not ended:
            ended = True
            continue
        read = None if ended else _option(arg, options, command)
        if read is None and command is None:
            if arg not in _COMMANDS:
                _error(
                    None,
                    "argument command: invalid choice: %r (choose from %s)"
                    % (arg, ", ".join(map(repr, _COMMANDS))),
                )
            command = args.command = arg
            args.func, positionals, options, fixed, _ = _COMMANDS[arg]
            for flag, row in options.items():
                if row is not _HELP:
                    setattr(args, flag[2:], False if row[1] is None else None)
            vars(args).update(fixed)
            positionals = iter(positionals)
        elif read is None:
            attr, _ = next(positionals, (None, None))
            if attr is None:
                extras.append(arg)
            else:
                setattr(args, attr, arg)
        elif read[0] is None:
            extras.append(arg)
        else:
            flag, value = read
            _, kind, _ = row = options[flag]
            if kind is None:
                if value is not None:
                    _error(command, "argument %s: ignored explicit argument %r" % (flag, value))
                if row is _HELP:
                    sys.stdout.write(_help(command))
                    raise SystemExit(0)
                value = True
            elif value is None:
                if i == len(argv) or argv[i] == "--" or _option(argv[i], options, command):
                    _error(command, "argument %s: expected one argument" % flag)
                value = argv[i]
                i += 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _error(command, "argument %s: invalid int value: %r" % (flag, value))
            elif kind not in (None, str) and value not in kind:
                _error(
                    command,
                    "argument %s: invalid choice: %r (choose from %s)"
                    % (flag, value, ", ".join(map(repr, kind))),
                )
            setattr(args, flag[2:], value)
    if command is None:
        _error(None, "the following arguments are required: command")
    missing = [metavar for _, metavar in positionals]
    if missing:
        _error(command, "the following arguments are required: %s" % ", ".join(missing))
    if extras:
        _error(None, "unrecognized arguments: %s" % " ".join(extras))
    return args


def run(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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
