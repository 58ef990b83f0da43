"""Charts: finite labelled transition graphs with a termination marker.

A chart is a graph over named nodes whose transitions carry action labels.
A transition may either lead to another node or to the reserved termination
marker ``√`` (successful exit), which is *not* a node.  Charts may carry an
initial node; when they do, every node must be reachable from it.

The module also provides the process semantics of 1-free regular expressions:
:func:`step` yields the one-step behaviour of an expression and
:func:`interpret` closes it into a chart whose node ids are the printed
reachable expressions (printing is injective, so ids are canonical).  While
exploring, a reachable expression ``h.r1.….rn`` (left-nested, ``h`` not a
sequence) is held as its head ``h`` and an interned continuation
``r1 … rn``, so a step and a node id cost the size of the head, not the
length of the sequence.  Exploration numbers the states and prints
nothing.  Naming every state prints the roots once, as one token stream,
and reads each head and operand as a slice of that text; naming one
state prints only that state.  :func:`interpret` names every state.
:func:`lleekit.solve.equiv` names only the members of the two blocks a
NOT_EQUAL prints.  An EQUAL names no state: its first chart and collapse
are numbered in exploration order, and its certificate names the
collapse's nodes, and each expression's states, only when they are read.

A :class:`Chart` is stored numbered: node ids are ranks of node names (an
unnamed chart's are exploration order), and transitions are numbered in
:meth:`Transition.sort_key` order.  Elimination, refinement, images,
reflection and extraction run on those numbers; the named nodes and
transitions are views, built when read.  A
chart derived from a validated one (an interpretation, a collapse, what an
elimination leaves) is built numbered and is not validated again.
Every reachability walk, cycle test and start-avoiding closure on a chart
or sub-chart runs on those numbers in one graph kernel, ``_Graph``, the
working graph of every elimination run too (see :mod:`lleekit.lee`).

Sub-charts come in two flavours, both :class:`NodeSetChart`:

* *induced*: all parent transitions between the chosen nodes, with terminal
  transitions excluded (:func:`chart_of_nodes`);
* *explicit*: a fixed list of parent transitions leaving the chosen nodes,
  used by elimination machinery that needs sub-charts that are not induced
  (see :mod:`lleekit.lee`).

Text format (``chart v1``)::

    chart v1
    # comment lines and blanks are ignored
    init x
    x a x'
    x b !

where ``!`` stands for ``√``.  The ``init`` line is optional, and ``node
y`` declares a node without transitions.  A line is an ``init`` or
``node`` directive only when it has two tokens, so ``init`` and ``node``
can be node ids too; a node id never starts with ``#``.
"""

from __future__ import annotations

import gc
import os
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from ._record import record
from .errors import ParentMismatch, ParseError, StateExplosion, UnknownNode
from . import expr as _expr
from .expr import Action, Plus, Seq, Star, Zero

__all__ = [
    "TERMINATION",
    "Transition",
    "Chart",
    "NodeSetChart",
    "chart_of_nodes",
    "union_chart",
    "simple_cycles",
    "cycle_nodes",
    "step",
    "interpret",
    "DEFAULT_STATE_CAP",
]

DEFAULT_STATE_CAP = 100000


def _state_cap(cap=None):
    """``cap``, by default the ``LLEEKIT_STATE_CAP`` environment variable or
    :data:`DEFAULT_STATE_CAP`.  Raises :class:`ValueError`, naming the
    variable when it is not a positive integer.  A ``cap`` given that is not
    positive raises :class:`ValueError` too."""
    if cap is None:
        value = os.environ.get("LLEEKIT_STATE_CAP")
        if value is None:
            return DEFAULT_STATE_CAP
        try:
            cap = int(value)
        except ValueError:
            cap = 0
        if cap <= 0:
            raise ValueError("LLEEKIT_STATE_CAP must be a positive integer, got %r" % value)
    elif cap <= 0:
        raise ValueError("state cap must be positive")
    return cap


class _collection_paused:
    """A context that pauses the cyclic garbage collector.

    Everything lleekit builds while deciding and printing is an acyclic
    object graph: expressions are built operands first, so no node refers
    to one built after it; an exploration's continuations point only to
    the rest of their sequence; charts, partitions, witnesses and images
    are tables of ints, strings and tuples, and every record refers only
    to the charts and tables below it.  No nested function refers to
    itself, so a call's closures die with it, and JSON is written from an
    explicit stack (:func:`lleekit.expr._dumps`), not by the standard
    encoder, whose closures refer to each other.  Reference counting frees
    all of it, so a collection would walk the working set and find
    nothing, however often the allocation count sets one off.  A test
    runs every command twice and checks that a collection after the
    second run finds nothing.

    On entry the collector is disabled; on exit, by any path, it is
    enabled again only if it was enabled on entry, so a nested use leaves
    it off.  Nothing is collected on exit, as there is nothing to collect.
    The pause is process-wide for the call's duration: cycles that other
    threads make meanwhile wait until the call ends.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._was_enabled:
            gc.enable()


class _Termination:
    """The reserved target ``√`` of terminal transitions.  A singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "√"


TERMINATION = _Termination()


@record
class Transition:
    """A labelled transition.  ``dst`` is a node id or :data:`TERMINATION`."""

    src: str
    action: str
    dst: object

    @property
    def terminal(self):
        return self.dst is TERMINATION

    def sort_key(self):
        # "!" precedes every action/node character we allow, which keeps
        # terminal transitions first among a node's transitions.
        dst = "!" if self.terminal else self.dst
        return (self.src, self.action, dst)

    def __repr__(self):
        return "%s -%s-> %s" % (self.src, self.action, "√" if self.terminal else self.dst)


def _check_token(kind, value):
    # in text files "!" reads as √, and a line starting with "#" as a
    # comment; ``str.split`` splits at exactly the characters for which
    # ``str.isspace`` holds, so one piece, the value itself, means a
    # non-empty token with no blank in it
    if (
        not isinstance(value, str)
        or value == "!"
        or value.startswith("#")
        or value.split() != [value]
    ):
        raise ValueError("invalid %s token: %r" % (kind, value))


class Chart:
    """An immutable chart.

    ``transitions`` is any iterable of :class:`Transition`; ``nodes`` may add
    isolated nodes beyond transition endpoints; ``alphabet`` may add unused
    actions.  If ``initial`` is given, every node must be reachable from it.

    A chart is stored numbered.  ``names[i]`` is node ``i``'s name, the
    names in sorted order, so node ids are name ranks and ordering ids
    orders names; ``root`` is the initial node's id or ``None``.  The
    transitions are numbered ``0..m-1`` in :meth:`Transition.sort_key`
    order: node ``x``'s are ``first[x]`` to ``first[x+1]-1``, and
    transition ``k`` goes from ``src[k]`` by ``act[k]`` to ``dst[k]``,
    ``None`` standing for √.  Each ``(src, action, dst)`` appears once.
    ``nodes``, ``transitions``, ``alphabet``, ``initial``, ``numbered``
    (transition ``k`` as a :class:`Transition`) and :meth:`out` are views
    of those arrays, built when first read.

    A chart derived from a named one (an interpretation, a collapse, what
    an elimination leaves) keeps that order.  The two charts an EQUAL of
    :func:`lleekit.solve.equiv` works on, its first chart and the
    collapse, are numbered in exploration order instead: node ``i`` of the
    first chart is the ``i``-th state its exploration found, and each node
    of the collapse is its class's first member in that order.  They are
    unnamed: ``names`` is ``range(n)``, so a node's name is its id, and √
    sorts before every node.  Nothing prints them; :meth:`_renamed` names
    one and renumbers it in name order, which is how a certificate builds
    its charts when they are first read.
    """

    def __init__(self, transitions, nodes=(), initial=None, alphabet=()):
        ts = frozenset(transitions)
        ns = set(nodes)
        actions = set()
        for t in ts:
            if not isinstance(t, Transition):
                raise TypeError("not a Transition: %r" % (t,))
            ns.add(t.src)
            if t.dst is not TERMINATION:
                ns.add(t.dst)
            actions.add(t.action)
        for n in ns:
            _check_token("node", n)
        actions.update(alphabet)
        for a in actions:
            if not isinstance(a, str) or not _expr._is_action(a):
                raise ValueError("invalid action token: %r" % (a,))
        if initial is not None and initial not in ns:
            raise UnknownNode("initial node %r is not a node" % (initial,))
        names = sorted(ns)
        ids = {x: i for i, x in enumerate(names)}
        outs = [[] for _ in names]
        for t in ts:
            outs[ids[t.src]].append((t.action, None if t.dst is TERMINATION else ids[t.dst]))
        self._number(names, outs, None if initial is None else ids[initial])
        # the views this construction has at hand
        self.ids = ids
        self.nodes = frozenset(ns)
        self.transitions = ts
        self.alphabet = frozenset(actions)
        if initial is not None:
            missing = self.nodes - self.reachable([initial])
            if missing:
                raise ValueError(
                    "nodes unreachable from the initial node: %s" % ", ".join(sorted(missing))
                )

    @classmethod
    def _build(cls, names, outs, root):
        """The chart :meth:`_number` stores, built unchecked: it is derived
        from a chart that was checked."""
        chart = cls.__new__(cls)
        chart._number(names, outs, root)
        return chart

    def _number(self, names, outs, root):
        """Store the chart whose node ``i`` is named ``names[i]`` and has the
        steps ``outs[i]``, with initial node ``root`` (an id or ``None``).

        ``names`` are sorted, or ``range(n)`` for an unnamed chart, and
        ``outs[i]`` holds distinct ``(action, dst)`` pairs in any order,
        ``dst`` a node id or ``None``.  They are numbered in
        :meth:`Transition.sort_key` order, where √ sorts as ``"!"`` among
        the names, and before every id of an unnamed chart.

        A node's steps are sorted as the tuples they are, with no key
        function: their actions decide, unless one action both terminates
        and leads to a node, whose two steps compare ``None`` with an id,
        which raises :class:`TypeError`.  Only those nodes are sorted again,
        with √ ranked ``end`` among the ids.
        """
        end = -0.5 if names.__class__ is range else bisect_left(names, "!") - 0.5

        def key(step):
            return (step[0], end if step[1] is None else step[1])

        first, act, dst = [0], [], []
        for out in outs:
            try:
                out = sorted(out)
            except TypeError:
                out = sorted(out, key=key)
            for a, d in out:
                act.append(a)
                dst.append(d)
            first.append(len(act))
        self.names = names
        self.first = first
        self.act = act
        self.dst = dst
        self.root = root

    def _renamed(self, names):
        """This unnamed chart with node ``i`` named ``names[i]``,
        renumbered in name order as every named chart is, and the
        renumbering: ``(chart, node, number)``, node ``i`` being
        ``chart``'s node ``node[i]`` and transition ``k`` its transition
        ``number[k]``.  A certificate of :func:`lleekit.solve.equiv` names
        its collapse, witness and solution through this one renumbering."""
        order = sorted(range(len(names)), key=names.__getitem__)
        node = [0] * len(order)
        for r, i in enumerate(order):
            node[i] = r
        first, act, dst = self.first, self.act, self.dst
        moved = [None if d is None else node[d] for d in dst]
        steps = [list(zip(act[a:b], moved[a:b])) for a, b in zip(first, first[1:])]
        chart = Chart._build(
            [names[i] for i in order],
            [steps[i] for i in order],
            None if self.root is None else node[self.root],
        )
        # a node's steps are distinct, so each is one transition there
        number = []
        for i, out in enumerate(steps):
            r = node[i]
            at = {(chart.act[k], chart.dst[k]): k for k in range(chart.first[r], chart.first[r + 1])}
            number += [at[step] for step in out]
        return chart, node, number

    @cached_property
    def src(self):
        first = self.first
        return [x for x in range(len(self.names)) for _ in range(first[x], first[x + 1])]

    @cached_property
    def ids(self):
        """Node name -> id."""
        return {x: i for i, x in enumerate(self.names)}

    @cached_property
    def numbered(self):
        """Transition ``k`` as a :class:`Transition`, for every ``k``."""
        names = self.names
        return [
            Transition(names[s], a, TERMINATION if d is None else names[d])
            for s, a, d in zip(self.src, self.act, self.dst)
        ]

    @cached_property
    def _numbers(self):
        """:class:`Transition` -> its number."""
        return {t: k for k, t in enumerate(self.numbered)}

    @cached_property
    def nodes(self):
        return frozenset(self.names)

    @cached_property
    def transitions(self):
        return frozenset(self.numbered)

    @cached_property
    def alphabet(self):
        return frozenset(self.act)

    @property
    def initial(self):
        """The initial node's name, or ``None``."""
        return None if self.root is None else self.names[self.root]

    @cached_property
    def _out(self):
        first, numbered = self.first, self.numbered
        return {x: tuple(numbered[first[i] : first[i + 1]]) for i, x in enumerate(self.names)}

    def show(self, k):
        """Transition ``k`` as :class:`Transition` prints it."""
        return repr(self.numbered[k])

    def out(self, node):
        """All transitions with source ``node``, deterministically ordered."""
        try:
            return self._out[node]
        except KeyError:
            raise UnknownNode("unknown node %r" % (node,)) from None

    def terminal_actions(self, node):
        """Actions ``a`` with a terminal transition ``node −a→ √``."""
        return frozenset(t.action for t in self.out(node) if t.terminal)

    def reachable(self, roots):
        """Nodes reachable from ``roots`` (which are included if they are nodes)."""
        ids, names = self.ids, self.names
        reached = _Graph(self).closure(None, [ids[r] for r in roots if r in ids])[0]
        return frozenset(names[i] for i in reached)

    def has_cycle(self, within=None):
        """True if some non-terminal cycle exists (restricted to ``within`` if given)."""
        if within is not None:
            ids = self.ids
            within = [ids[x] for x in within if x in ids]
        return _Graph(self).has_cycle(within)

    def rooted_at(self, node):
        """The sub-chart reachable from ``node``, with ``node`` as initial."""
        if node not in self.ids:
            raise UnknownNode("unknown node %r" % (node,))
        keep = self.reachable([node])
        return Chart(
            (t for t in self.transitions if t.src in keep),
            nodes=keep,
            initial=node,
        )

    def __eq__(self, other):
        # the numbering is canonical, so this is equality of the nodes, the
        # initial node and the transitions
        if not isinstance(other, Chart):
            return NotImplemented
        return (
            self.root == other.root
            and self.names == other.names
            and self.first == other.first
            and self.act == other.act
            and self.dst == other.dst
        )

    @cached_property
    def _hash(self):
        return hash(
            (tuple(self.names), self.root, tuple(self.first), tuple(self.act), tuple(self.dst))
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Chart(%d nodes, %d transitions%s)" % (
            len(self.names),
            len(self.dst),
            "" if self.root is None else ", init=%s" % self.initial,
        )

    # --- text format -------------------------------------------------------

    @classmethod
    def from_text(cls, text):
        initial = None
        transitions = []
        nodes = set()
        for i, parts in _lines(text, "chart"):
            # two tokens make a directive; ``init a y`` is a transition
            if len(parts) == 2 and parts[0] == "init":
                if initial is not None:
                    raise ParseError("duplicate init line %d" % i)
                initial = parts[1]
                continue
            if len(parts) == 2 and parts[0] == "node":
                # optional explicit node declaration (isolated nodes)
                nodes.add(parts[1])
                continue
            if len(parts) != 3:
                raise ParseError("expected '<src> <action> <dst>' on line %d" % i)
            src, action, dst = parts
            transitions.append(
                Transition(src, action, TERMINATION if dst == "!" else dst)
            )
        return cls._read(transitions, nodes, initial)

    @classmethod
    def _read(cls, transitions, nodes, initial, alphabet=()):
        """The chart a file gives, where an initial node that is not a node
        is a :class:`ParseError`, like every other malformed chart file."""
        try:
            return cls(transitions, nodes=nodes, initial=initial, alphabet=alphabet)
        except UnknownNode as exc:
            raise ParseError(str(exc)) from None

    def to_text(self):
        names = self.names
        lines = ["chart v1"]
        if self.root is not None:
            lines.append("init %s" % names[self.root])
        touched = set()
        for s, a, d in zip(self.src, self.act, self.dst):
            touched.add(s)
            touched.add(d)
            lines.append("%s %s %s" % (names[s], a, "!" if d is None else names[d]))
        lines += ["node %s" % x for i, x in enumerate(names) if i not in touched]
        return "\n".join(lines) + "\n"

    # --- JSON --------------------------------------------------------------

    def to_json_dict(self):
        names = self.names
        return {
            "v": 1,
            "nodes": list(names),
            "alphabet": sorted(self.alphabet),
            "init": self.initial,
            "transitions": [
                {"src": names[s], "act": a, "dst": None if d is None else names[d]}
                for s, a, d in zip(self.src, self.act, self.dst)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc):
        """The chart of a ``chart v1`` JSON object.

        Raises :class:`ParseError` when ``doc`` is not of that shape: an
        object whose ``transitions`` are objects with string ``src`` and
        ``act`` and a string or null ``dst``, whose ``nodes`` and
        ``alphabet`` are lists of strings and whose ``init`` is a string or
        null, and when ``init`` names no node.  A malformed token raises :class:`ValueError`, as in the text
        format.
        """
        if not isinstance(doc, dict):
            raise ParseError("a chart must be a JSON object")
        ts = []
        for d in _json_list(doc, "transitions", dict):
            src, act, dst = d.get("src"), d.get("act"), d.get("dst", 0)
            # a missing dst reads as 0, which fails the check as it should
            if not all(isinstance(v, str) for v in (src, act, "" if dst is None else dst)):
                # json is imported where JSON is read or written: no text call needs it
                import json

                raise ParseError(
                    "transition %s needs string src and act, and dst a string or null"
                    % json.dumps(d)
                )
            ts.append(Transition(src, act, TERMINATION if dst is None else dst))
        initial = doc.get("init")
        if initial is not None and not isinstance(initial, str):
            raise ParseError("init must be a string or null")
        return cls._read(
            ts, _json_list(doc, "nodes", str), initial, _json_list(doc, "alphabet", str)
        )

    def to_json(self):
        return _expr._dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text):
        import json

        return cls.from_json_dict(json.loads(text))

    # --- DOT ---------------------------------------------------------------

    def to_dot(self, order=None, clusters=None):
        """GraphViz rendering.

        ``order`` is an optional mapping from non-terminal transitions to order
        numbers (a witness): positive-order transitions are coloured and their
        edge labels annotated ``[n]``.  ``clusters`` is an optional list of
        ``(name, node_set)`` pairs; each node is placed in the smallest cluster
        containing it (overlaps beyond nesting cannot be drawn as boxes and are
        noted in a comment).
        """
        # the helper nodes' IDs, "!" for √ and "#init" for the start marker,
        # are tokens no node may have (:func:`_check_token`)
        out = ["digraph chart {", "  rankdir=LR;", '  node [shape=circle];']
        if None in self.dst:
            out.append('  "!" [shape=doublecircle label="√"];')
        if self.initial is not None:
            out.append('  "#init" [shape=point style=invis];')
            out.append('  "#init" -> %s;' % _dot_id(self.initial))

        placed = {}
        if clusters:
            sized = sorted(clusters, key=lambda kv: (len(kv[1]), kv[0]))
            for name, nodes in sized:
                for n in nodes:
                    if n not in placed:
                        placed[n] = name
            covered = {}
            for name, nodes in sized:
                mine = sorted(n for n in nodes if placed.get(n) == name)
                covered[name] = mine
                extra = sorted(set(nodes) - set(mine))
                if extra:
                    out.append(
                        "  // image %s also contains: %s" % (name, ", ".join(extra))
                    )
            for name, mine in covered.items():
                out.append("  subgraph %s {" % _dot_id("cluster_" + name))
                out.append("    label=%s; style=dotted;" % _dot_id(name))
                for n in mine:
                    out.append("    %s;" % _dot_id(n))
                out.append("  }")
        for n in self.names:
            if n not in placed:
                out.append("  %s;" % _dot_id(n))

        for t in self.numbered:
            label = t.action
            attrs = ""
            if order is not None and not t.terminal:
                n = order.get(t, 0)
                if n > 0:
                    label = "%s [%d]" % (t.action, n)
                    attrs = ' color="#b40000" fontcolor="#b40000"'
            dst = '"!"' if t.terminal else _dot_id(t.dst)
            out.append('  %s -> %s [label="%s"%s];' % (_dot_id(t.src), dst, label, attrs))
        out.append("}")
        return "\n".join(out) + "\n"


def _lines(text, kind):
    """The lines of a ``<kind> v1`` text after its header, as ``(line
    number, tokens)``; blank lines and ``#`` comments are skipped.  Raises
    :class:`ParseError` when the header is missing."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != kind + " v1":
        raise ParseError("missing '%s v1' header" % kind)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            yield i, parts


def _json_list(doc, key, kind):
    """``doc[key]``, by default empty, checked to be a list of ``kind``."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise ParseError(
            "%s must be a list of %s" % (key, "objects" if kind is dict else "strings")
        )
    return value


def _dot_id(name):
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


# --- sub-charts ------------------------------------------------------------


@record
class NodeSetChart:
    """A sub-chart of ``parent`` over ``nodes``.

    Without ``explicit`` transitions the sub-chart is *induced*: it has every
    parent transition with both endpoints in ``nodes`` and no terminal
    transitions.  With ``explicit`` it carries exactly the given transitions
    (which may include terminal ones): parent transitions whose sources are
    in ``nodes``.  ``start`` marks a distinguished node where that is
    meaningful (generated and looping-back charts).  Its walks run on the
    parent's graph with only its own transitions live (:meth:`_graph`).
    """

    parent: Chart
    nodes: frozenset
    start: str | None = None
    explicit: tuple | None = None

    def __post_init__(self):
        missing = self.nodes - self.parent.nodes
        if missing:
            raise UnknownNode("not nodes of the parent: %s" % ", ".join(sorted(missing)))
        if self.start is not None and self.start not in self.nodes:
            raise UnknownNode("start %r is not in the node set" % (self.start,))
        for t in self.explicit or ():
            if t not in self.parent.transitions or t.src not in self.nodes:
                raise UnknownNode("%r is not a parent transition leaving the node set" % (t,))

    @property
    def is_induced(self):
        return self.explicit is None

    @property
    def transitions(self):
        """The sub-chart's transitions, deterministically ordered."""
        if self.explicit is not None:
            return self.explicit
        return tuple(t for n in sorted(self.nodes) for t in self.out(n))

    def out(self, node):
        if node not in self.nodes:
            raise UnknownNode("unknown node %r" % (node,))
        if self.explicit is not None:
            return tuple(t for t in self.explicit if t.src == node)
        # √ is no node, so this drops the terminal transitions too
        return tuple(t for t in self.parent.out(node) if t.dst in self.nodes)

    def same_chart(self, other):
        """Chart identity: same parent, same nodes, same transitions."""
        self._check_parent(other)
        return self.nodes == other.nodes and set(self.transitions) == set(other.transitions)

    def subchart_of(self, other):
        self._check_parent(other)
        return self.nodes <= other.nodes and set(self.transitions) <= set(other.transitions)

    def proper_subchart_of(self, other):
        return self.subchart_of(other) and not self.same_chart(other)

    def _check_parent(self, other):
        if self.parent != other.parent:
            raise ParentMismatch("sub-charts of different parents")

    def has_cycle(self):
        return self._graph().has_cycle()

    def _graph(self):
        """The parent's :class:`_Graph` over ``nodes``, with only this
        sub-chart's transitions live."""
        p = self.parent
        g = _Graph(p)
        g.nodes = {p.ids[x] for x in self.nodes}
        alive = g._alive = bytearray(len(p.dst))
        for t in self.transitions:
            alive[p._numbers[t]] = 1
        return g

    def __repr__(self):
        kind = "induced" if self.is_induced else "explicit"
        start = ", start=%s" % self.start if self.start else ""
        return "NodeSetChart(%s, {%s}%s)" % (kind, ", ".join(sorted(self.nodes)), start)


def chart_of_nodes(parent, nodes, start=None):
    """The induced sub-chart of ``parent`` over ``nodes``.

    Terminal transitions are never part of an induced sub-chart.  Raises
    :class:`UnknownNode` if some requested node is not a parent node.
    """
    return NodeSetChart(parent, frozenset(nodes), start=start)


def union_chart(a, b):
    """Join of two sub-charts of the same parent (node-set union).

    For explicit sub-charts the union carries the union of the transition
    lists; for induced ones it is induced again.
    """
    if a.parent != b.parent:
        raise ParentMismatch("cannot join sub-charts of different parents")
    if a.explicit is None and b.explicit is None:
        return NodeSetChart(a.parent, a.nodes | b.nodes)
    merged = set(a.transitions) | set(b.transitions)
    return NodeSetChart(
        a.parent, a.nodes | b.nodes, explicit=tuple(sorted(merged, key=Transition.sort_key))
    )


# --- the graph kernel ------------------------------------------------------


class _Graph:
    """A chart's graph on its ids and transition numbers: the one graph
    kernel of lleekit.

    Built from a :class:`Chart` and roots (every node when none are given),
    it keeps which of the chart's numbered transitions and which nodes are
    live.  Every cycle test (:meth:`has_cycle`) and ``start``-avoiding
    closure (:meth:`closure`) on a chart runs here, on ``_succ``, ``_dst``
    and ``_alive`` directly; a reachability walk is the closure that
    avoids no node, ``closure(None, roots)``.  A :class:`NodeSetChart`
    walks its parent's graph with only its own transitions live.

    It is also the one working graph of an elimination run.  There, exactly
    the nodes the roots reach are live, and a transition is live when its
    source is and it has not been removed as an entry.  Removing the
    entries of a step at ``start`` (:meth:`step`) can only cut off nodes in
    the step's body (the entries' ``start``-avoiding closure): a path to
    any other node can be rerouted around the entries.  So the garbage
    collection after a step looks only at the body, where a node survives
    when a root or a live node outside the body still reaches it.
    """

    def __init__(self, chart, roots=None):
        # every node of ``chart`` must be reachable from ``roots``, as it is
        # from the roots of a witness (:func:`lleekit.lee._roots`)
        n = len(chart.names)
        self.chart = chart
        self.roots = frozenset(range(n) if roots is None else roots)
        self._dst = dst = chart.dst
        first = chart.first
        self._succ = list(map(range, first, first[1:]))
        pred = [[] for _ in range(n)]
        for k, d in enumerate(dst):
            if d is not None:
                pred[d].append(k)
        self._pred = pred
        self.nodes = set(range(n))
        self._alive = bytearray(b"\x01") * len(dst)
        # the run's record: its steps, the nodes of their bodies, and why it
        # is not layered (``None`` while it is)
        self.steps = []
        self.bodies = set()
        self.llee_reason = None

    def is_live(self, k):
        return self._alive[k] == 1

    def out(self, node):
        """The live transitions leaving ``node``, in number order."""
        alive = self._alive
        return [k for k in self._succ[node] if alive[k]]

    def has_cycle(self, within=None):
        """True if some live cycle exists (restricted to ``within`` if given)."""
        alive, dst, succ = self._alive, self._dst, self._succ
        nodes = self.nodes if within is None else self.nodes.intersection(within)
        colour = {}  # 1 while on the walk's path, 2 when finished
        for root in nodes:
            if root in colour:
                continue
            colour[root] = 1
            path = [(root, iter(succ[root]))]
            while path:
                y, it = path[-1]
                for k in it:
                    if alive[k]:
                        d = dst[k]
                        c = colour.get(d)
                        if c == 1:
                            return True
                        if c is None and d in nodes:
                            colour[d] = 1
                            path.append((d, iter(succ[d])))
                            break
                else:
                    colour[y] = 2
                    path.pop()
        return False

    def closure(self, start, targets):
        """The ``start``-avoiding closure of ``targets``, and the loop
        conditions on it, in one depth-first walk.

        Returns ``(body, returns, closed)``.  ``body`` is the set of live
        nodes that paths from ``targets`` reach without passing through
        ``start``; ``start`` itself never belongs to it.  ``returns`` is
        (L1): some target is ``start``, or a live transition leads from the
        body to ``start``.  ``closed`` is (L3) and (L2): no live transition
        leaves the body for ``√``, and no cycle lies inside the body, which
        is to say none avoids ``start``.  A cycle inside the body shows as
        a transition to a node still on the walk's path.
        """
        alive, dst, succ = self._alive, self._dst, self._succ
        returns = False
        closed = True
        done = {}  # False while on the walk's path, True when finished
        for t in targets:
            if t == start:
                returns = True
                continue
            if t in done:
                continue
            done[t] = False
            path = [(t, iter(succ[t]))]
            while path:
                y, it = path[-1]
                for k in it:
                    if alive[k]:
                        d = dst[k]
                        if d is None:
                            closed = False
                        elif d == start:
                            returns = True
                        elif d not in done:
                            done[d] = False
                            path.append((d, iter(succ[d])))
                            break
                        elif not done[d]:
                            closed = False
                else:
                    done[y] = True
                    path.pop()
        return set(done), returns, closed

    def span(self, start, entries):
        """The body of the loop sub-chart the entries at ``start`` generate.

        ``entries`` are live transitions leaving ``start``, so ``start`` is
        live.  Returns ``None`` when they do not generate a loop sub-chart
        (conditions L1 - L3 of :func:`lleekit.lee.is_loop_chart`).
        """
        targets = [self._dst[k] for k in entries]
        if None in targets:
            return None
        body, returns, closed = self.closure(start, targets)
        return body if returns and closed else None

    def step(self, n, start, entries):
        """Take step ``n`` of a run: eliminate the loop sub-chart that the
        live ``entries`` at ``start`` generate, and return its body.

        Returns ``None`` and changes nothing when they generate none
        (:meth:`span`).  A step is recorded as ``(n, start, entries, body)``
        in ``steps``, and the first that starts in an earlier step's body in
        ``llee_reason``.
        """
        body = self.span(start, entries)
        if body is not None:
            if self.llee_reason is None and start in self.bodies:
                self.llee_reason = (
                    "step %d starts at %s, which lies in the body of an earlier "
                    "eliminated loop sub-chart" % (n, self.chart.names[start])
                )
            self.steps.append((n, start, entries, body))
            self.bodies |= body
            self.remove(start, entries, body)
        return body

    def remove(self, start, entries, body=None):
        """Remove the entries at ``start`` and collect what they cut off.

        ``body`` is the entries' ``start``-avoiding closure, computed when
        not given.
        """
        alive, dst, src, succ = self._alive, self._dst, self.chart.src, self._succ
        if body is None:
            body, _, _ = self.closure(start, [dst[k] for k in entries if dst[k] is not None])
        for k in entries:
            alive[k] = 0
        # the body nodes that are roots or have a live predecessor outside
        # the body, then what they reach inside the body
        roots, pred = self.roots, self._pred
        stack = []
        for y in body:
            if y in roots:
                stack.append(y)
                continue
            for k in pred[y]:
                if alive[k] and src[k] not in body:
                    stack.append(y)
                    break
        kept = set(stack)
        while stack:
            for k in succ[stack.pop()]:
                if alive[k]:
                    d = dst[k]
                    if d in body and d not in kept:
                        kept.add(d)
                        stack.append(d)
        for y in body - kept:
            self.nodes.discard(y)
            for k in succ[y]:
                alive[k] = 0

    def to_chart(self, roots=None):
        """The live part as a :class:`Chart`; with ``roots`` (ids), what they
        reach.

        The chart keeps the initial node when it reaches every node kept,
        which it always does when it is the only root.  The part of an
        unnamed chart is unnamed.
        """
        if roots is None:
            roots, nodes = self.roots, self.nodes
        else:
            roots = frozenset(roots)
            nodes = self.closure(None, self.nodes & roots)[0]
        c = self.chart
        initial = c.root
        if roots != {initial} and not (
            initial in nodes and self.closure(None, [initial])[0] == nodes
        ):
            initial = None
        kept = sorted(nodes)
        new = {x: i for i, x in enumerate(kept)}
        new[None] = None
        act, first, dst, alive, names = c.act, c.first, self._dst, self._alive, c.names
        return Chart._build(
            range(len(kept)) if names.__class__ is range else [names[x] for x in kept],
            [
                [(act[k], new[dst[k]]) for k in range(first[x], first[x + 1]) if alive[k]]
                for x in kept
            ],
            None if initial is None else new[initial],
        )


# --- cycle enumeration -----------------------------------------------------


def simple_cycles(chart, distinct_nodes=False):
    """All simple cycles as tuples of transitions.

    A simple cycle visits each node at most once; parallel transitions between
    the same nodes yield distinct cycles (edge-distinct enumeration), which is
    what the image machinery needs.  Each cycle is reported exactly once,
    rotated to start at its least node id; self-loops are length-1 cycles.
    With ``distinct_nodes=True`` cycles are deduplicated by their node
    sequence (one representative per node cycle).

    ``chart`` may be a :class:`Chart` or a :class:`NodeSetChart`.
    """
    out = {}
    for t in sorted((t for t in chart.transitions if not t.terminal), key=Transition.sort_key):
        out.setdefault(t.src, []).append(t)
    cycles = []
    # Enumerate cycles whose minimal node is `s`, for each s: DFS over nodes
    # >= s only, so every cycle appears exactly once, already rotated to its
    # least node.  The DFS keeps one transition iterator per path node on an
    # explicit stack, so a long cycle does not hit the recursion limit.
    for s in sorted(out):
        path = []
        on_path = {s}
        stack = [iter(out[s])]
        while stack:
            for t in stack[-1]:
                d = t.dst
                if d == s:
                    cycles.append(tuple(path) + (t,))
                elif d > s and d not in on_path:
                    path.append(t)
                    on_path.add(d)
                    stack.append(iter(out.get(d, ())))
                    break
            else:
                stack.pop()
                if path:
                    on_path.discard(path.pop().dst)
    if distinct_nodes:
        seen = set()
        unique = []
        for cyc in cycles:
            key = cycle_nodes(cyc)
            if key not in seen:
                seen.add(key)
                unique.append(cyc)
        cycles = unique
    return cycles


def cycle_nodes(cycle):
    """The node sequence of a cycle (sources of its transitions, in order)."""
    return tuple(t.src for t in cycle)


# --- process semantics -----------------------------------------------------


_new = object.__new__


class _Cont:
    """An interned sequence: ``expr`` runs first, then the continuation
    ``rest`` (``None`` when nothing follows).

    As a continuation it holds the right operands pending after a state's
    head.  A state is the ``_Cont`` of its head and the head's
    continuation, and ``index`` is its id in the exploration's tables
    (``None`` until :func:`_explore` numbers it).

    It has no constructor: :class:`_States` makes each one empty with
    ``object.__new__``, as a spare, and sets all three slots when it is
    interned, so making one runs no Python-level call.
    """

    __slots__ = ("expr", "rest", "index")


# the measure of a leaf: an action terminates, 0 does not
_LEAF_MEASURE = {Action: (True, 0), Zero: (False, 0)}

# the operand classes printed in parentheses in a node id: a head alone,
# a head before its continuation, and a continuation's operand, which
# print as the left and the right operand of a "."
_ALONE = frozenset()
_HEAD, _OPERAND = _expr._OPERANDS[Seq]


class _States:
    """The states of one exploration, with their continuations and names.

    A state is the interned :class:`_Cont` of a non-``Seq`` head and a
    continuation ``k``: it stands for ``head.r1.….rn`` left-nested, where
    ``r1 … rn`` are the continuation's operands.  Every expression has
    exactly one such form, so states and expressions correspond one to
    one, and equal states are the same object.  A step rewrites only the
    head and the front of the continuation, so it does not cost the length
    of the spine.  A continuation whose first operand is not a sequence is
    itself the state that runs it, so a step that finishes its head looks
    nothing up.

    Every head and every continuation operand is a subterm of a root:
    stepping keeps subterms and the star nodes themselves, and interning
    keeps the first object of each equal pair.  A head or an operand is,
    where it occurs in a root, the root itself, a star, the right operand
    of a sequence, or the left one when that is not a sequence: stepping
    enters nothing else, and walks through the operands of ``+`` and
    ``*``.  So :meth:`name` prints the roots once, in one token stream
    (:func:`expr._emit`), which records where the text of each such node
    starts and ends, and reads each head and operand as a slice of that
    text; a node id is the head's slice followed by the continuation's
    suffix, its printed part ``".r1.r2…"``, cached per continuation in
    ``_suffixes``.  :meth:`name_one` prints only its own state.
    """

    def __init__(self, roots=()):
        self._conts = {}
        self._spare = _new(_Cont)
        self._measures = {}
        self._suffixes = {}
        # the roots, a sequence, and, once a state is named, their text
        # with the token offsets and each operator node's token span
        self._roots = roots
        self._text = None

    def _print_roots(self):
        """The roots printed one after another, as ``(text, offsets,
        starts, ends)``: operator node ``x``'s text is
        ``text[offsets[starts[id(x)]]:offsets[ends[id(x)]]]``."""
        out, starts, ends = [], {}, {}
        _expr._emit(self._roots[::-1], out, starts, ends)
        offsets = [0]
        offsets += accumulate(map(len, out))
        self._text = ("".join(out), offsets, starts, ends)
        return self._text

    def _wrap(self, e, wrapped):
        """``e`` as printed by :func:`expr.unparse`, in parentheses when its
        class is in ``wrapped``: an operator node is a slice of the roots'
        text."""
        cls = e.__class__
        if cls is Action:
            return e.name
        if cls is Zero:
            return "0"
        text, offsets, starts, ends = self._text or self._print_roots()
        i = id(e)
        text = text[offsets[starts[i]] : offsets[ends[i]]]
        return "(" + text + ")" if cls in wrapped else text

    def push(self, e, rest):
        """The continuation that runs ``e`` and then ``rest``, interned.

        One ``setdefault`` looks the pair up and, on a miss, stores the
        spare continuation under it, so the key is hashed once a call:
        hashing ``e`` runs the Python-level ``Expression.__hash__``.  Only
        on a miss is the spare filled in and a fresh one made, so no
        interned continuation is ever left empty.
        """
        spare = self._spare
        k = self._conts.setdefault((e, rest), spare)
        if k is spare:
            k.expr = e
            k.rest = rest
            k.index = None
            self._spare = _new(_Cont)
        return k

    def _suffix(self, k):
        """The printed suffix of ``k``, cached on first use for ``k`` and
        every continuation after it that has none yet.  Iterative, because
        a continuation can be thousands of operands long."""
        suffixes = self._suffixes
        pending = []
        while k is not None and k not in suffixes:
            pending.append(k)
            k = k.rest
        text = "" if k is None else suffixes[k]
        for c in reversed(pending):
            text = suffixes[c] = "." + self._wrap(c.expr, _OPERAND) + text
        return text

    def enter(self, e, k):
        """The state of ``e`` followed by continuation ``k``: the right
        operands down ``e``'s left spine are pushed in front of ``k``, last
        first, and then its head.  Each pair is interned as :meth:`push`
        interns it, inline, since a spine can be thousands of operands
        long."""
        conts, spare = self._conts, self._spare
        while True:
            head = e.__class__ is not Seq
            x = e if head else e.right
            c = conts.setdefault((x, k), spare)
            if c is spare:
                c.expr = x
                c.rest = k
                c.index = None
                spare = _new(_Cont)
            if head:
                self._spare = spare
                return c
            k = c
            e = e.left

    def steps(self, e, k, out):
        """Append to ``out`` the ``(action, target)`` steps of ``e`` followed
        by ``k``, by the rules of :func:`step`.

        Nothing recurses.  A sequence's left spine is walked down, its right
        operands pushed in front of ``k`` as :meth:`enter` pushes them, and
        ``+`` and ``*`` go on with their left operand and leave the right
        one on a stack: steps are appended, and continuations interned,
        left operand first.  An action finishes its head: its step leads to
        termination when ``k`` is empty, into the next operand when that is
        a sequence, and to ``k`` itself otherwise.  :func:`_explore` applies
        the same rule to a state whose head is an action without calling
        this method.
        """
        todo = []  # the right operands still to step, with their continuations
        while True:
            while e.__class__ is Seq:
                k = self.push(e.right, k)
                e = e.left
            cls = e.__class__
            if cls is Action:
                # a finished head leads to the next operand, or to termination
                if k is None:
                    out.append((e.name, TERMINATION))
                elif k.expr.__class__ is Seq:
                    out.append((e.name, self.enter(k.expr, k.rest)))
                else:
                    out.append((e.name, k))
            elif cls is Plus or cls is Star:
                todo.append((e.right, k))
                if cls is Star:
                    k = self.push(e, k)
                e = e.left
                continue
            elif cls is not Zero:
                raise TypeError("not an expression: %r" % (e,))
            if not todo:
                return
            e, k = todo.pop()

    def measure(self, e):
        """``(normed, star height)`` of ``e``; ``e`` is normed when it can
        terminate.  Memoised by id: an exploration measures only subterms
        of its states' heads, which its interned continuations keep alive.

        One flat stack walks the operator nodes not measured yet, and the
        memo is its visited set: the node on top is measured once both its
        operands are leaves or in the memo, and otherwise the first operand
        that is not is pushed.  A node shared by several parents is measured
        once, and a deep expression does not hit the recursion limit.
        """
        memo = self._measures
        leaf = _LEAF_MEASURE
        m = leaf.get(e.__class__) or memo.get(id(e))
        if m is not None:
            return m
        stack = [e]
        while stack:
            x = stack[-1]
            left = leaf.get(x.left.__class__) or memo.get(id(x.left))
            if left is None:
                stack.append(x.left)
                continue
            right = leaf.get(x.right.__class__) or memo.get(id(x.right))
            if right is None:
                stack.append(x.right)
                continue
            stack.pop()
            ln, lh = left
            rn, rh = right
            cls = x.__class__
            if cls is Star:
                lh += 1
                ln = rn
            elif cls is Seq:
                ln = ln and rn
            else:
                ln = ln or rn
            memo[id(x)] = (ln, lh if lh > rh else rh)
        return memo[id(e)]

    def name(self, state):
        """The node id of ``state``: the printed expression it stands for.

        The head and the continuation's operands are slices of the roots'
        text, printed on the first call, and the suffixes of the
        continuation are cached on the way, which pays when every state is
        named, as :func:`interpret` does."""
        head, k = state.expr, state.rest
        if k is None:
            return self._wrap(head, _ALONE)
        return self._wrap(head, _HEAD) + self._suffix(k)

    def name_one(self, state):
        """:meth:`name`, printed alone: the head and one walk down the
        continuation append to one token list, joined once, and nothing
        is cached.  An action is its name; an operator node is printed
        into the same list (:func:`expr._emit`).  Naming a few states of a
        long spine this way costs their length, where the roots' text and
        the suffix cache would cost the whole exploration."""
        head, k = state.expr, state.rest
        wrapped = _ALONE if k is None else _HEAD
        out = []
        while True:
            cls = head.__class__
            if cls is Action:
                out.append(head.name)
            elif cls in wrapped:
                out.append("(")
                _expr._emit([")", head], out)
            else:
                _expr._emit([head], out)
            if k is None:
                return "".join(out)
            out.append(".")
            head, k, wrapped = k.expr, k.rest, _OPERAND


def _state_expressions(states):
    """The expression each of ``states`` stands for, right-nested.

    A state or continuation ``c`` stands for ``c.expr`` when ``c.rest`` is
    ``None``, and for ``c.expr . x`` otherwise, ``x`` what ``c.rest``
    stands for.  That is ``head.(r1.(….rn))``, which BBP's A5 equates with
    the left-nested ``head.r1.….rn`` a state stands for.  Each
    continuation's expression is built once and shared by every state
    that continues into it, and one loop walks down a continuation, so a
    long chain does not recurse.
    """
    memo = {}
    out = []
    for state in states:
        path = []
        c = state
        while c is not None and c not in memo:
            path.append(c)
            c = c.rest
        e = None if c is None else memo[c]
        for c in reversed(path):
            e = memo[c] = c.expr if e is None else _expr._node(Seq, c.expr, e)
        out.append(memo[state])
    return out


def step(e):
    """One-step behaviour of an expression.

    Returns a list of ``(action, target)`` pairs where the target is either an
    expression or :data:`TERMINATION`:

    * an action can do itself and terminate;
    * ``0`` has no behaviour;
    * choice offers the steps of both operands;
    * in ``e1.e2`` a terminating step of ``e1`` continues as ``e2``, any other
      step keeps ``e2`` pending;
    * in ``e1*e2`` a step of ``e1`` loops back into ``e1*e2`` (sequencing the
      remainder in front if ``e1`` did not finish its pass), while ``e2``'s
      steps exit the loop as they are.
    """
    out = []
    _States().steps(e, None, out)
    result = []
    for action, target in out:
        if target is not TERMINATION:
            target, k = target.expr, target.rest
            while k is not None:
                target = Seq(target, k.expr)
                k = k.rest
        result.append((action, target))
    return result


class _Exploration(tuple):
    """What :func:`_explore` returns: the states of an exploration, and
    their steps as :func:`lleekit.bisim._refine`'s tables: the tuple
    ``(space, roots, states, out, term, loops, base)``.

    State ``i`` is id ``base + i``: ``space.name(states[i])`` is its node
    id, ``out[i]`` the list of its ``(action, dst)`` non-terminal steps,
    ``dst`` an id, and ``term[i]`` the frozenset of its terminal actions.
    ``roots`` are the roots' ids, in order.  When the exploration is
    labelled, ``loops[i]`` is ``(loop, height)``: the first ``loop`` steps
    of ``out[i]`` have the loop label ``height`` and the others 0.
    ``loops`` is ``None`` when it is not labelled.
    """

    __slots__ = ()

    def __new__(cls, space, roots, states, out, term, loops, base):
        return tuple.__new__(cls, (space, roots, states, out, term, loops, base))

    def __getnewargs__(self):
        return tuple(self)

    # the fields, read by place
    space, roots, states, out, term, loops, base = (property(itemgetter(i)) for i in range(7))


_NO_ENDS = frozenset()
_NO_LOOP = (0, 0)


def _explore(roots, cap, what, labelled=False, base=0):
    """Breadth-first closure of ``roots`` under :func:`step`, by state index.

    States are numbered in discovery order, from id ``base`` on, and none
    is printed.  A state whose head is an action has exactly one step, by
    :meth:`_States.steps`' rule for a finished head; the loop takes it
    itself, with no call and no list of steps, which on a chain is every
    state.  Returns an :class:`_Exploration`, whose ``out`` and
    ``term`` are :func:`lleekit.bisim._refine`'s tables for the states: a
    second exploration given ``base`` the number of states of the first is
    refined with it as their disjoint union, on the concatenated tables.
    A state with two equal steps (as in ``a+a``) lists the pair twice.
    With ``labelled``, each step gets the label of the loop it enters: a
    state whose head is a star ``e1*e2`` with ``e1`` normed labels every
    step of ``e1`` with the star height of ``e1*e2``; every other step gets
    0.  Such a step returns to the star, so it is never terminal, and a
    terminal step's label is always 0.  Without ``labelled`` no star is
    measured: the measuring walks each star's subterms once, which on a
    solution check's large solution trees would cost as much as the check.
    Raises :class:`StateExplosion` if more than ``cap`` states appear
    (``cap`` defaults to the ``LLEEKIT_STATE_CAP`` environment variable, or
    100000); its message is ``what`` applied to the first root's node id,
    which is printed only then.  A cap given here is used as it is; only
    the default is checked (:func:`_state_cap`).
    """
    if cap is None:
        cap = _state_cap()
    space = _States(roots)
    steps, push, enter, measure = space.steps, space.push, space.enter, space.measure
    states = []
    out_table, term_table = [], []
    loops = [] if labelled else None
    root_ids = []
    for r in roots:
        state = enter(r, None)
        if state.index is None:
            state.index = base + len(states)
            states.append(state)
        root_ids.append(state.index)
    if len(states) > cap:
        raise _explosion(cap, what, space, states)
    # the loop also reaches the states appended while it runs
    for state in states:
        head, k = state.expr, state.rest
        if head.__class__ is Action:
            # an action head has one step, by the rule of
            # :meth:`_States.steps` for a finished head, taken here
            if labelled:
                loops.append(_NO_LOOP)
            if k is None:
                out_table.append([])
                term_table.append(frozenset((head.name,)))
                continue
            tgt = enter(k.expr, k.rest) if k.expr.__class__ is Seq else k
            i = tgt.index
            if i is None:
                if len(states) >= cap:
                    raise _explosion(cap, what, space, states)
                i = tgt.index = base + len(states)
                states.append(tgt)
            out_table.append([(head.name, i)])
            term_table.append(_NO_ENDS)
            continue
        found = []
        # a star's height is at least 1, and measuring it measures its body
        height = labelled and head.__class__ is Star and measure(head)[1]
        if height and measure(head.left)[0]:
            # the steps of :meth:`_States.steps` on a star, loop steps first
            steps(head.left, push(head, k), found)
            loops.append((len(found), height))
            steps(head.right, k, found)
        else:
            if labelled:
                loops.append(_NO_LOOP)
            steps(head, k, found)
        out = []
        ends = []
        for action, tgt in found:
            if tgt is TERMINATION:
                ends.append(action)
                continue
            i = tgt.index
            if i is None:
                if len(states) >= cap:
                    raise _explosion(cap, what, space, states)
                i = tgt.index = base + len(states)
                states.append(tgt)
            out.append((action, i))
        out_table.append(out)
        term_table.append(frozenset(ends) if ends else _NO_ENDS)
    return _Exploration(space, root_ids, states, out_table, term_table, loops, base)


def _explosion(cap, what, space, states):
    # the first state is the first root's
    root = space.name_one(states[0])
    return StateExplosion("more than %d states while %s" % (cap, what(root)))


def interpret(e, cap=None):
    """The chart of all expressions reachable from ``e`` under :func:`step`.

    Node ids are the printed expressions; the initial node is ``unparse(e)``.
    The states are explored first and named afterwards, each once.
    Raises :class:`StateExplosion` if more than ``cap`` nodes appear
    (``cap`` defaults to the ``LLEEKIT_STATE_CAP`` environment variable, or
    100000).
    """
    return _explored_chart(_explore([e], cap, _interpreting))[0]


def _interpreting(root):
    """The :class:`StateExplosion` message of an interpretation."""
    return "interpreting %r" % root


def _named(space, states):
    """The node ids of ``states``, each named by :meth:`_States.name`.  The
    suffixes cached on the way are dropped: no later name reads them, and
    on a long chain they hold about as much text as the names."""
    names = [space.name(s) for s in states]
    space._suffixes.clear()
    return names


def _explored_chart(exploration, named=True):
    """The chart of an exploration of one root, with loop labels.

    ``exploration`` is what :func:`_explore` returns; its tables are read
    as they are, repeated steps merged.  Returns ``(chart, order,
    orders)``: the :class:`Chart`, rooted at the root, whose node ``r``
    is state ``order[r]``, and the witness orders of its transitions, the
    layered witness :func:`lleekit.lee.expression_witness` reads.  The
    order of transition ``k`` ranks the largest loop label
    :func:`_explore` gave a step of it among the positive labels, the
    smallest as 1, and is 0 for a label 0, which is every label of an
    exploration without them.  Unless ``named`` is false, every
    state is named and the chart numbered in name order.  Otherwise
    nothing is named, and the chart is unnamed and numbered in exploration
    order: node ``i`` is state ``i``, and ``order`` is ``range(n)``.
    """
    space, roots, states, out, term, loops, base = exploration
    if named:
        names = _named(space, states)
        order = sorted(range(len(names)), key=names.__getitem__)
        names = [names[i] for i in order]
        rank = [0] * (base + len(order))  # by id
        for r, i in enumerate(order):
            rank[base + i] = r
    else:
        order = names = range(len(states))
        rank = range(-base, len(states))  # id d is node d - base
    # per node, each distinct step with its largest label; a terminal
    # step's label is 0
    outs = []
    for i in order:
        steps = {}
        for a in term[i]:
            steps[a, None] = 0
        if loops is None:
            for a, d in out[i]:
                steps[a, rank[d]] = 0
        else:
            loop, height = loops[i]
            for j, (a, d) in enumerate(out[i]):
                h = height if j < loop else 0
                key = (a, rank[d])
                if steps.get(key, -1) < h:
                    steps[key] = h
        outs.append(steps)
    chart = Chart._build(names, outs, rank[roots[0]])
    src = chart.src
    heights = [outs[src[k]][a, d] for k, (a, d) in enumerate(zip(chart.act, chart.dst))]
    rank = {h: r for r, h in enumerate(sorted({0, *heights}))}
    return chart, order, [rank[h] for h in heights]
