"""Loop elimination witnesses on charts.

A *loop chart* with start node ``X`` satisfies three conditions:

* (L1) some cycle passes through ``X``;
* (L2) no cycle avoids ``X``;
* (L3) the chart has no terminal transitions.

Eliminating a loop sub-chart means removing its *entry* transitions (the
transitions leaving the start that belong to the sub-chart) and then garbage
collecting whatever became unreachable.  A chart satisfies *loop existence
and elimination* (LEE) when repeating such eliminations can end in a chart
without infinite paths.  A :class:`Witness` records one elimination run by
assigning each non-terminal transition an order number: 0 marks body
transitions, ``n > 0`` marks entries removed at step ``n``.  The run is
*layered* (LLEE) when no step starts at a node lying in the body of an
earlier eliminated sub-chart.

The sub-chart eliminated from ``X`` with entries ``E`` is the
⟨X,E⟩-*generated chart*: the entries plus every transition reachable from
their targets without passing through ``X`` again (including terminal
transitions of those continuation nodes, so a possible exit to ``√`` shows up
as an L3 failure).  A self-loop entry contributes no continuation, and the
start's own terminal transitions never disqualify the sub-chart.

The chart of an expression needs no search: :func:`expression_witness`
reads a layered witness off the expression while its chart is explored,
entries being the steps into the body of a star whose body can terminate,
ordered by star height.  That is the witness :func:`lleekit.solve.equiv`
uses.  The search (:func:`find_lee_witness`) and the layering of a plain
witness (:func:`lee_to_llee`) serve charts given as files: the ``lee``
command searches, and ``lee2llee`` and ``reflect`` layer the witness they
are given.

Every elimination loop here (witness replay, witness search, normalization,
layering, and :func:`lleekit.reflect.collapse_lee_witness`) runs on one
mutable working graph per run, the graph kernel ``lleekit.chart._Graph``,
built once from the chart's node ids and transition numbers.  The replay,
the search, :func:`eliminate` and the reflection take each step through
its one ``step``: it checks L1 - L3 on the entries' generated sub-chart
in the one depth-first walk that collects its body, records the step,
removes the entries, and garbage-collects only inside the sub-chart's
body, the one place where removing them can cut nodes off.  No chart is
built between steps.  A :class:`Witness` stores an order number per
transition number.  There is one replay (``_replay``), run once per
witness and cached; a searched or reflected witness carries its own run
as that replay.  The loops-back structure (``_loops_back``) is read off
the replay's steps; :meth:`Witness.replay` and the looping-back functions
name their results, and a replay builds its final chart once, at the end.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from operator import itemgetter

from ._record import record
from .chart import (
    Chart,
    NodeSetChart,
    TERMINATION,
    Transition,
    _Graph,
    _explore,
    _explored_chart,
    _interpreting,
    _lines,
    chart_of_nodes,
)
from .errors import (
    EmptyEntrySet,
    InternalError,
    InvalidWitness,
    NotALoopChart,
    NotLEE,
    NotLLEE,
    ParseError,
    UnknownNode,
)
from .expr import _dumps

__all__ = [
    "Witness",
    "ReplayStep",
    "ReplayResult",
    "generated_chart",
    "is_loop_chart",
    "eliminate",
    "max_entry_set",
    "find_lee_witness",
    "expression_witness",
    "is_llee_witness",
    "loops_back_to",
    "LoopingBackChart",
    "looping_back_chart",
    "all_looping_back_charts",
    "check_lbc_properties",
    "PropertyReport",
    "lee_to_llee",
]


# --- generated sub-charts and loop conditions ------------------------------


def _checked_entries(parent, start, entries):
    """``entries`` as a sorted tuple, after checking they leave ``start``."""
    entries = tuple(sorted(set(entries), key=Transition.sort_key))
    if not entries:
        raise EmptyEntrySet("generated chart needs at least one entry transition")
    if start not in parent.nodes:
        raise UnknownNode("unknown node %r" % (start,))
    for t in entries:
        if t not in parent.transitions:
            raise UnknownNode("entry %r is not a transition of the parent" % (t,))
        if t.src != start:
            raise ValueError("entry %r does not leave the start node %r" % (t, start))
    return entries


def generated_chart(parent, start, entries):
    """The ⟨start, entries⟩-generated sub-chart of ``parent``.

    ``entries`` must be non-empty transitions of ``parent`` leaving ``start``.
    The result carries an explicit transition set: the entries plus all
    transitions on paths from the entry targets that avoid ``start``; the
    continuation of a node includes its terminal transitions.  Targets equal
    to ``start`` close the loop and are not expanded further.
    """
    entries = _checked_entries(parent, start, entries)
    g = _Graph(parent)
    ids, names = parent.ids, parent.names
    body, _, _ = g.closure(ids[start], [ids[t.dst] for t in entries if not t.terminal])
    body = {names[y] for y in body}
    trans = set(entries).union(*(parent.out(y) for y in body))
    return NodeSetChart(
        parent,
        frozenset(body) | {start},
        start=start,
        explicit=tuple(sorted(trans, key=Transition.sort_key)),
    )


def is_loop_chart(sub, start):
    """Check conditions L1 - L3 for a sub-chart with the given start node.

    For sub-charts with an explicit transition set (generated charts) the
    terminal condition L3 inspects exactly those transitions.  For induced
    node-set charts, which never contain terminal transitions themselves, L3
    asks that no member node besides the start has a terminal transition in
    the parent.
    """
    if start not in sub.nodes:
        raise UnknownNode("start %r is not in the sub-chart" % (start,))
    if sub.is_induced:
        # the start's own terminal transitions never disqualify a loop chart
        if any(sub.parent.terminal_actions(n) for n in sub.nodes if n != start):
            return False
    elif any(t.terminal for t in sub.transitions):
        return False
    # no live transition leads to √ now: L1 on what the start reaches, L2
    # on the sub-chart without the start
    g = sub._graph()
    x = sub.parent.ids[start]
    _, returns, _ = g.closure(x, [g._dst[k] for k in g.out(x)])
    return returns and not g.has_cycle(g.nodes - {x})


def _roots(chart):
    """The roots of a witness's run on ``chart``: its initial node, or
    every node when it has none."""
    if chart.root is not None:
        return (chart.root,)
    return range(len(chart.names))


def eliminate(chart, start, entries, roots):
    """Eliminate the loop sub-chart ⟨start, entries⟩ from ``chart``.

    Removes the entries, then garbage-collects nodes unreachable from
    ``roots``.  Raises :class:`NotALoopChart` if ⟨start, entries⟩ does not
    generate a loop sub-chart of ``chart``.
    """
    entries = _checked_entries(chart, start, entries)
    # every node a root: the step sees the whole chart, and ``roots`` apply
    # to the result
    g = _Graph(chart)
    ids, numbers = chart.ids, chart._numbers
    if g.step(1, ids[start], [numbers[t] for t in entries]) is None:
        raise NotALoopChart(
            "⟨%s, {%s}⟩ does not generate a loop sub-chart"
            % (start, ", ".join(map(repr, entries)))
        )
    return g.to_chart([ids[r] for r in roots if r in ids])


def _max_entries(g, node):
    """:func:`max_entry_set` on the working graph ``g``, as a list of
    numbers in number order."""
    dst = g._dst
    valid = []
    closes_loop = False
    for k in g.out(node):
        if dst[k] is None:
            continue
        _, returns, closed = g.closure(node, [dst[k]])
        if closed:
            valid.append(k)
            closes_loop = closes_loop or returns
    return valid if closes_loop else []


def max_entry_set(chart, node):
    """The largest valid entry set for eliminating a loop at ``node``.

    A non-terminal transition ``node −a→ Y`` qualifies when the node-avoiding
    reachable closure of ``Y`` has no terminal transitions and no cycles
    avoiding ``node`` (self-loops qualify trivially).  Qualification is
    per-entry: it does not depend on which other entries are chosen.  Returns
    the empty set when no qualifying subset generates a loop sub-chart, i.e.
    when no qualifying entry closes a cycle back through ``node``.
    """
    if node not in chart.ids:
        raise UnknownNode("unknown node %r" % (node,))
    trans = chart.numbered
    return frozenset(trans[k] for k in _max_entries(_Graph(chart), chart.ids[node]))


# --- witnesses -------------------------------------------------------------


@record
class ReplayStep:
    """One elimination in a witness replay."""

    order: int
    start: str
    entries: tuple
    body: frozenset


@record
class ReplayResult:
    """What :meth:`Witness.replay` reports: whether the witness replays and
    why not, its steps, the chart left at the end, and whether the witness
    is layered and why not."""

    ok: bool
    reason: str | None
    steps: tuple
    final: Chart | None
    llee: bool
    llee_reason: str | None


class Witness:
    """An order assignment on a chart's non-terminal transitions.

    ``order`` must map every non-terminal transition to a non-negative
    integer, and the positive values used must form ``{1, …, m}`` with no
    gaps.  Replaying the witness (see :meth:`replay`) eliminates, for
    ``n = 1, 2, …``, the order-``n`` transitions grouped per start node; each
    group must generate a loop sub-chart of the chart as it then stands.
    Groups sharing an order number are independent eliminations: they are
    processed sequentially in any order that works (deferring a group whose
    sub-chart only becomes a loop chart after a sibling group is gone).
    Garbage collection keeps what the initial node reaches, or everything
    when the chart has no initial node.

    A witness stores ``labels``: ``labels[k]`` is the order number of the
    chart's transition ``k``, 0 on terminal transitions.  ``order`` is a
    view of them, built when first read.
    """

    def __init__(self, chart, order):
        nonterminal = frozenset(t for t in chart.transitions if not t.terminal)
        keys = frozenset(order)
        if keys != nonterminal:
            missing = nonterminal - keys
            extra = keys - nonterminal
            details = []
            if missing:
                details.append("missing %s" % ", ".join(map(repr, sorted(missing, key=Transition.sort_key))))
            if extra:
                details.append("spurious %s" % ", ".join(map(repr, sorted(extra, key=Transition.sort_key))))
            raise InvalidWitness(
                "order map must cover exactly the non-terminal transitions (%s)"
                % "; ".join(details)
            )
        for t, n in order.items():
            if n.__class__ is not int or n < 0:
                raise InvalidWitness("order of %r must be a non-negative integer" % (t,))
        used = sorted(set(n for n in order.values() if n > 0))
        if used != list(range(1, len(used) + 1)):
            raise InvalidWitness(
                "positive orders must be 1..m without gaps, got %s" % used
            )
        self.chart = chart
        self.labels = [order.get(t, 0) for t in chart.numbered]

    @classmethod
    def _of(cls, chart, labels):
        """The witness on ``chart`` whose transition ``k`` has order
        ``labels[k]``; nothing is checked."""
        w = cls.__new__(cls)
        w.chart = chart
        w.labels = labels
        return w

    @cached_property
    def order(self):
        dst, labels = self.chart.dst, self.labels
        return {t: labels[k] for k, t in enumerate(self.chart.numbered) if dst[k] is not None}

    @cached_property
    def _replayed(self):
        """:func:`_replay` of this witness."""
        return _replay(self)

    @cached_property
    def _loops(self):
        """:func:`_loops_back` of this witness; :class:`NotLLEE` unless it
        replays layered."""
        return _loops_back(self)

    # ``order`` lists the transitions in number order, which is
    # Transition.sort_key order

    @property
    def max_order(self):
        return max(self.labels, default=0)

    def entries(self, node=None):
        """Positive-order transitions, optionally restricted to one source."""
        return tuple(t for t, n in self.order.items() if n > 0 and (node is None or t.src == node))

    def body_transitions(self):
        return tuple(t for t, n in self.order.items() if n == 0)

    def replay(self):
        """Run the recorded elimination; cached.

        The run works on one graph built from :attr:`chart`: each step
        removes its entries and then collects, within the step's body only,
        the nodes no root reaches any more (a body node survives when a
        root or a live node outside the body still reaches it).  That keeps
        exactly what rebuilding and collecting the whole chart after every
        step would keep.  :attr:`ReplayResult.final` is built once, at the
        end.  Failures are reported in the result, including a group whose
        start an earlier group of the same order has collected.
        """
        return self._report

    @cached_property
    def _report(self):
        c, rep = self.chart, self._replayed
        return ReplayResult(
            rep.ok,
            rep.reason,
            tuple(
                ReplayStep(
                    n,
                    c.names[x],
                    tuple(c.numbered[k] for k in entries),
                    frozenset(c.names[y] for y in body),
                )
                for n, x, entries, body in rep.steps
            ),
            None if rep.graph is None else rep.graph.to_chart(),
            rep.llee,
            rep.llee_reason,
        )

    @property
    def is_lee(self):
        return self._replayed.ok

    def __eq__(self, other):
        if not isinstance(other, Witness):
            return NotImplemented
        return self.chart == other.chart and self.labels == other.labels

    def __hash__(self):
        return hash((self.chart, tuple(self.labels)))

    def __repr__(self):
        return "Witness(%r, %d entries, max order %d)" % (
            self.chart,
            len(self.entries()),
            self.max_order,
        )

    # --- text format -------------------------------------------------------

    @classmethod
    def from_text(cls, text, chart):
        order = {}
        for i, parts in _lines(text, "witness"):
            if len(parts) != 4:
                raise ParseError("expected '<src> <action> <dst> <order>' on line %d" % i)
            src, action, dst, num = parts
            t = Transition(src, action, TERMINATION if dst == "!" else dst)
            if t.terminal:
                raise ParseError("terminal transitions carry no order (line %d)" % i)
            if t not in chart.transitions:
                raise ParseError("unknown transition %r on line %d" % (t, i))
            if t in order:
                raise ParseError("duplicate transition %r on line %d" % (t, i))
            try:
                order[t] = int(num)
            except ValueError:
                raise ParseError("bad order number %r on line %d" % (num, i)) from None
        return cls._read(chart, order)

    @classmethod
    def _read(cls, chart, order):
        """The witness of a file's orders, which are a :class:`ParseError`
        when they make none, like every other malformed witness file."""
        try:
            return cls(chart, order)
        except InvalidWitness as exc:
            raise ParseError(str(exc)) from None

    def to_text(self):
        lines = ["witness v1"]
        for t, n in self.order.items():
            lines.append("%s %s %s %d" % (t.src, t.action, t.dst, n))
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "v": 1,
            "chart": self.chart.to_json_dict(),
            "orders": [
                {"src": t.src, "act": t.action, "dst": t.dst, "order": n}
                for t, n in self.order.items()
            ],
        }

    def to_json(self):
        return _dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text):
        """The witness of a ``witness v1`` JSON document.

        Raises :class:`ParseError` unless it is an object with a ``chart``
        (see :meth:`Chart.from_json_dict`) and a list of ``orders``,
        objects with string ``src``, ``act`` and ``dst`` and an integer
        ``order``, that make a witness of the chart.
        """
        import json

        doc = json.loads(text)
        if not (isinstance(doc, dict) and "chart" in doc and isinstance(doc.get("orders"), list)):
            raise ParseError("a witness must be a JSON object with a chart and a list of orders")
        chart = Chart.from_json_dict(doc["chart"])
        order = {}
        for d in doc["orders"]:
            row = [d.get(k) for k in ("src", "act", "dst", "order")] if isinstance(d, dict) else []
            if not (row and all(isinstance(v, str) for v in row[:3]) and row[3].__class__ is int):
                raise ParseError(
                    "order %s needs string src, act and dst and an integer order" % json.dumps(d)
                )
            t = Transition(*row[:3])
            if t in order:
                raise ParseError("duplicate transition %r in orders" % (t,))
            order[t] = row[3]
        return cls._read(chart, order)

    def to_dot(self):
        return self.chart.to_dot(order=self.order)


class _Replay(tuple):
    """What :func:`_replay` reports, the tuple ``(ok, reason, llee,
    llee_reason, steps, graph)``: as :class:`ReplayResult`, with the steps
    as ``(order, start, entries, body)`` on ids and numbers, and the
    working graph where the run got to its end (``None`` otherwise)."""

    __slots__ = ()

    def __new__(cls, ok, reason, llee, llee_reason, steps, graph):
        return tuple.__new__(cls, (ok, reason, llee, llee_reason, steps, graph))

    def __getnewargs__(self):
        return tuple(self)

    # the fields, read by place
    ok, reason, llee, llee_reason, steps, graph = (property(itemgetter(i)) for i in range(6))


def _replay(w):
    """Replay the witness ``w``: the one replay of lleekit, which
    :attr:`Witness._replayed` runs once per witness.

    :meth:`Witness.replay` names its result.  Messages name nodes and
    transitions as a :class:`Chart` prints them.
    """
    c, labels, src = w.chart, w.labels, w.chart.src
    g = _Graph(c, _roots(c))
    alive = g._alive
    levels = {}
    for k, o in enumerate(labels):
        if o > 0:
            levels.setdefault(o, []).append(k)

    def failed(reason, graph=None):
        return _Replay(False, reason, False, None, g.steps, graph)

    for n in range(1, max(levels, default=0) + 1):
        pending = {}
        for k in levels[n]:
            if not alive[k]:
                return failed(
                    "order-%d transition %s was already garbage-collected" % (n, c.show(k))
                )
            pending.setdefault(src[k], []).append(k)
        # try the starts in node order, from the least again after each step
        starts = sorted(pending)
        while starts:
            for i, x in enumerate(starts):
                if x not in g.nodes:
                    return failed(
                        "order-%d entries at %s were garbage-collected by an "
                        "earlier step" % (n, c.names[x])
                    )
                if g.step(n, x, pending[x]) is not None:
                    del starts[i]
                    break
            else:
                return failed(
                    "order-%d entries at %s do not span a loop sub-chart" % (n, c.names[starts[0]])
                )
    if g.has_cycle():
        return failed("a cycle survives the recorded elimination", g)
    return _Replay(True, None, g.llee_reason is None, g.llee_reason, g.steps, g)


def _witness_of(g):
    """The witness whose replay is the run ``g`` took, which left no
    cycle: each step's entries have the step's number, every other
    transition 0.  The run is recorded as the witness's
    :attr:`Witness._replayed`, so the witness is not replayed again."""
    labels = [0] * len(g.chart.dst)
    for n, _, entries, _ in g.steps:
        for k in entries:
            labels[k] = n
    w = Witness._of(g.chart, labels)
    w._replayed = _Replay(True, None, g.llee_reason is None, g.llee_reason, g.steps, g)
    return w


def is_llee_witness(w):
    """Whether ``w`` replays as a layered elimination.

    Raises :class:`InvalidWitness` if the replay itself fails (the witness is
    not even an elimination run).
    """
    rep = w._replayed
    if not rep.ok:
        raise InvalidWitness(rep.reason)
    return rep.llee


# --- witness search --------------------------------------------------------


def find_lee_witness(chart):
    """Search for an elimination run ending without infinite paths.

    One greedy pass: while a live cycle remains, eliminate the maximal
    entry set of the least live node id that admits one.  Returns the
    :class:`Witness` (eliminated entries get their step number; everything
    else, including garbage-collected transitions, gets 0), or ``None`` at
    the first dead end, where cycles remain but no node admits an entry set.
    Each step has its own number and one start, so the search's run is the
    witness's replay, and it is recorded as such.

    One pass is enough, because eliminating any loop sub-chart keeps LEE.
    Take a successful run of the chart and replay it after the step, each
    group cut down to its entries that are still live.  A group whose
    entries no longer return to their start is left out: their
    continuation is exit-free, acyclic away from the start and never comes
    back, so no cycle can use them.  Every other group still generates a
    loop sub-chart, as removing transitions adds no exit and no cycle, and
    the parts left out add neither.  The adapted run ends without a cycle.
    So a chart with LEE never reaches a dead end, and the pass, which
    removes at least one transition per step, finds a witness exactly when
    one exists.
    """
    g = _Graph(chart, _roots(chart))
    while g.has_cycle():
        for x in sorted(g.nodes):
            entries = _max_entries(g, x)
            if entries:
                break
        else:
            return None
        if g.step(len(g.steps) + 1, x, entries) is None:
            raise InternalError(
                "the maximal entry set at %s spans no loop sub-chart" % chart.names[x]
            )
    return _witness_of(g)


# --- the witness an expression carries -------------------------------------


def expression_witness(e, cap=None):
    """The layered witness that the chart of ``e`` carries by construction.

    Every 1-free star expression's chart satisfies LLEE (Grabmayer &
    Fokkink, *A complete proof system for 1-free regular expressions modulo
    bisimilarity*, LICS 2020), and the witness can be read off the syntax
    while the chart is explored: a step of the body ``e1`` of a star head
    ``e1*e2`` with ``e1`` normed enters that star's loop and is labelled
    with the star height of ``e1*e2``; every other step is labelled 0 (see
    :func:`lleekit.chart._explore`).  The chart is read off with the
    distinct positive heights ranked to orders ``1..m``, the smallest
    height as order 1 (:func:`lleekit.chart._explored_chart`), so inner
    loops are eliminated before the loops around them.  No search and no
    re-layering is involved.  Returns a :class:`Witness` on
    ``interpret(e, cap)``; raises :class:`StateExplosion` as
    :func:`lleekit.chart.interpret` does.
    """
    c, _, orders = _explored_chart(_explore([e], cap, _interpreting, labelled=True))
    return Witness._of(c, orders)


# --- looping-back structure ------------------------------------------------


def _loops_back(w):
    """The loops-back structure of the witness ``w``, on ids, read off its
    replay: ``(direct, below, lbcs)``, per node ``x`` the set of nodes
    ``y`` with ``x ↘ y`` and the set with ``x ↘⁺ y``, and the looping-back
    charts as a dict from start to node set, in start order.  Raises
    :class:`NotLLEE` unless ``w`` replays layered.

    In a layered run the live transitions out of a step's body are body
    transitions (a body node's entries went in its earlier steps), so the
    body is the ``x``-avoiding closure of the entries' targets over body
    transitions, and ↘(x) the union of the bodies at ``x``.  The starts in
    a body took all their steps before, so ↘⁺(x), which is ↘(x) and the
    ↘⁺ of the starts in it, is built in step order.  Each start ``x`` has
    the looping-back chart ``{x} ∪ ↘⁺(x)``: it holds the step's cycle
    through ``x`` (L1).
    """
    rep = w._replayed
    if not (rep.ok and rep.llee):
        raise NotLLEE("loops-back structure requires a layered witness")
    direct = [frozenset()] * len(w.chart.names)
    below = list(direct)
    last = {}  # each start's latest step so far
    for i, (_, x, _, body) in enumerate(rep.steps):
        # latest-stepping starts first: a start inside the ↘⁺ of one
        # already added has its ↘⁺ inside it too
        covered = set()
        for y in sorted([y for y in body if y in last], key=last.__getitem__, reverse=True):
            if y not in covered:
                covered |= below[y]
        direct[x] = direct[x].union(body)
        below[x] = below[x].union(body, covered)
        last[x] = i
    return direct, below, {x: below[x] | {x} for x in sorted(last)}


def loops_back_to(w):
    """The loops-back relation of a layered witness and its transitive closure.

    ``x ↘ y`` holds when some path leaves ``x`` by a positive-order (entry)
    transition and continues through body transitions to ``y`` without ever
    reaching ``x`` again — so every node after ``x`` on the path, including
    ``y``, differs from ``x``, and the relation's transitive closure is a
    strict order (its digraph is acyclic for layered witnesses).

    Returns ``(direct, closure)`` as frozensets of pairs.  Requires a layered
    witness (:class:`NotLLEE` otherwise).
    """
    if not is_llee_witness(w):
        raise NotLLEE("loops-back structure requires a layered witness")
    names = w.chart.names
    direct, below, _ = w._loops
    return (
        frozenset((names[x], names[y]) for x, ys in enumerate(direct) for y in ys),
        frozenset((names[x], names[y]) for x, ys in enumerate(below) for y in ys),
    )


@record
class LoopingBackChart:
    """The induced sub-chart over a node and everything it loops back through."""

    parent: Chart
    witness: Witness
    start: str
    nodes: frozenset

    @property
    def body(self):
        return self.nodes - {self.start}

    @property
    def chart(self):
        return chart_of_nodes(self.parent, self.nodes, start=self.start)

    def __repr__(self):
        return "LoopingBackChart(%s: {%s})" % (self.start, ", ".join(sorted(self.nodes)))


def looping_back_chart(w, node):
    """The looping-back chart of ``node``, or ``None`` if it contains no loop.

    Its node set is ``{node}`` plus the ↘⁺-successors of ``node``; the chart
    is the induced sub-chart over that set.  A node without entries (or whose
    induced sub-chart is acyclic) has no looping-back chart.
    """
    if node not in w.chart.nodes:
        raise UnknownNode("unknown node %r" % (node,))
    return all_looping_back_charts(w).get(node)


def all_looping_back_charts(w):
    """Mapping from node to its looping-back chart (nodes without one omitted)."""
    if not is_llee_witness(w):
        raise NotLLEE("loops-back structure requires a layered witness")
    names = w.chart.names
    return {
        names[x]: LoopingBackChart(w.chart, w, names[x], frozenset(names[y] for y in nodes))
        for x, nodes in w._loops[2].items()
    }


@record
class PropertyReport:
    """What :func:`check_lbc_properties` reports; true when there are no violations."""

    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def check_lbc_properties(lbc):
    """Structural properties of a looping-back chart.

    (i) the looping-back chart of every body node is a proper sub-chart;
    (ii) no transition leaves a body node for a node outside the chart;
    (iii) no body node can reach ``√`` before coming back through the start
    (no terminal transition is reachable from a body node on a start-avoiding
    path).  Returns a :class:`PropertyReport` listing violations.
    """
    w = lbc.witness
    chart = lbc.parent
    g = _Graph(w.chart)
    ids, names = w.chart.ids, w.chart.names
    lbcs = all_looping_back_charts(w)
    violations = []
    for y in sorted(lbc.body):
        sub = lbcs.get(y)
        if sub is not None and not sub.nodes < lbc.nodes:
            violations.append(
                ("i", "looping-back chart of body node %s is not a proper sub-chart" % y)
            )
    for y in sorted(lbc.body):
        for t in chart.out(y):
            if not t.terminal and t.dst not in lbc.nodes:
                violations.append(("ii", "body transition %r escapes the chart" % (t,)))
    for y in sorted(lbc.body):
        for z in sorted(names[z] for z in g.closure(ids[lbc.start], [ids[y]])[0]):
            if chart.terminal_actions(z):
                violations.append(
                    (
                        "iii",
                        "body node %s reaches a terminal transition at %s before %s"
                        % (y, z, lbc.start),
                    )
                )
                break
    return PropertyReport(not violations, tuple(violations))


# --- from plain witnesses to layered witnesses -----------------------------


def _normalize(w):
    """Rewrite the replay-valid witness ``w`` so every entry has a unique
    order number; returns the new labels.

    Groups are split into single-entry steps following the replayed order
    (deterministic within a step).  Entries whose continuation cannot come
    back to their start at their step are not loop sub-charts on their own;
    they are demoted to body transitions, which is sound: at that point their
    start-avoiding closure is terminal-free, acyclic and never reaches the
    start, so keeping them cannot create new loops or exits later.
    """
    c = w.chart
    g = _Graph(c, _roots(c))
    labels = [0] * len(c.dst)
    counter = 0
    for _, start, entries, _ in w._replayed.steps:
        loopers = []
        for e in entries:
            if not g.is_live(e):
                raise InternalError("normalization lost a scheduled entry %s" % c.show(e))
            if g.closure(start, [c.dst[e]])[1]:
                loopers.append(e)
        for e in loopers:
            counter += 1
            labels[e] = counter
        g.remove(start, loopers)
    rep = Witness._of(c, labels)._replayed
    if not rep.ok:
        raise InternalError("normalized witness fails to replay: %s" % rep.reason)
    return labels


def _zero_path(g, labels, source, target):
    """Shortest path from ``source`` to ``target`` over live order-0
    transitions of the working graph ``g``.

    Returns the transition list, ``[]`` when ``source == target``, or ``None``
    when no such path exists.
    """
    if source == target:
        return []
    dst, src = g._dst, g.chart.src
    prev = {source: None}
    queue = deque([source])
    while queue:
        n = queue.popleft()
        for k in g.out(n):
            d = dst[k]
            if d is None or labels[k] != 0:
                continue
            if d not in prev:
                prev[d] = k
                if d == target:
                    path = []
                    cur = target
                    while prev[cur] is not None:
                        path.append(prev[cur])
                        cur = src[prev[cur]]
                    path.reverse()
                    return path
                queue.append(d)
    return None


def lee_to_llee(w):
    """Transform a replay-valid witness into a layered one on the same chart.

    After normalizing to unique order numbers, the orders are walked from the
    smallest up, simulating the elimination.  At step ``n`` with entry
    ``R −[n]→ ·``, every entry with a larger order leaving a body node of the
    current ⟨R, ·⟩-generated loop sub-chart violates layering; it is demoted
    to a body transition, and each loop thereby left without entries must
    pass through ``R`` (otherwise it would be a cycle avoiding ``R`` inside a
    loop sub-chart), so the transition leaving ``R`` on that loop inherits
    the vacated order.  Positive orders are renumbered consecutively at the
    end and the result is checked to be a layered witness.

    Raises :class:`NotLEE` when ``w`` does not replay.  Already-layered
    witnesses come back with the same entry set, orders renumbered.
    """
    if not w.is_lee:
        raise NotLEE(w.replay().reason)
    c = w.chart
    labels = _normalize(w)
    g = _Graph(c, _roots(c))
    src = c.src
    by_order = {}
    for k, o in enumerate(labels):
        if o > 0:
            by_order.setdefault(o, set()).add(k)

    def relabel(k, o):
        old = labels[k]
        if old > 0:
            by_order[old].discard(k)
        if o > 0:
            by_order.setdefault(o, set()).add(k)
        labels[k] = o

    # Steps run in increasing order number.  A repair at step ``n`` only
    # moves order numbers above ``n``, so walking 1..m meets every step.
    for n in range(1, max(by_order, default=0) + 1):
        # Normalization makes order numbers unique, but a repair below may
        # promote several transitions of one start node to the same vacated
        # number; such a step is a single grouped elimination.
        step_entries = sorted(by_order.get(n, ()))
        if not step_entries:
            continue
        r = src[step_entries[0]]
        if any(src[k] != r for k in step_entries):
            raise InternalError("order %d spans several start nodes" % n)
        for k in step_entries:
            if not g.is_live(k):
                raise InternalError("entry %s vanished before its step" % c.show(k))
        body = g.span(r, step_entries)
        if body is None:
            raise InternalError(
                "⟨%s, [%s]⟩ stopped being a loop sub-chart during switching"
                % (c.names[r], ", ".join(map(c.show, step_entries)))
            )
        # transition numbers follow Transition.sort_key
        demotions = sorted(
            (k for y in body for k in g.out(y) if labels[k] > n),
            key=lambda k: (labels[k], k),
        )
        for k in demotions:
            o = labels[k]
            relabel(k, 0)
            while True:
                back = _zero_path(g, labels, c.dst[k], src[k])
                if back is None:
                    break
                pick = next((j for j in [k] + back if src[j] == r), None)
                if pick is None:
                    raise InternalError(
                        "an entry-less loop avoided the eliminating node %s" % c.names[r]
                    )
                relabel(pick, o)
        g.remove(r, step_entries, body)
    used = sorted(set(o for o in labels if o > 0))
    renumber = {o: i for i, o in enumerate(used, start=1)}
    final = Witness._of(c, [renumber.get(o, 0) for o in labels])
    rep = final._replayed
    if not rep.ok:
        raise InternalError("switching produced a non-replayable witness: %s" % rep.reason)
    if not rep.llee:
        raise InternalError("switching failed to produce a layered witness: %s" % rep.llee_reason)
    return final
