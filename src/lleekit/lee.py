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
mutable working graph per run (``_Graph``), built once from the chart: a
step checks L1 - L3 on the entries' generated sub-chart, removes the
entries, and garbage-collects only inside the sub-chart's body, the one
place where removing them can cut nodes off.  No chart is built between
steps; a replay builds its final chart once, at the end.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import chain

from .chart import (
    Chart,
    NodeSetChart,
    TERMINATION,
    Transition,
    _has_cycle,
    _interpret,
    _reach,
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

__all__ = [
    "Witness",
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
    body = _Graph(parent, parent.nodes)._body(start, _targets(entries))
    trans = set(entries).union(*(parent.out(y) for y in body))
    return NodeSetChart(
        parent,
        frozenset(body) | {start},
        start=start,
        explicit=tuple(sorted(trans, key=Transition.sort_key)),
    )


def _targets(entries):
    """The nodes the non-terminal ``entries`` lead to."""
    return [t.dst for t in entries if not t.terminal]


# The loop conditions below read a *closure* ``adj``: it maps ``start`` to
# the entries' targets and each node of their ``start``-avoiding closure to
# its successors, ``None`` standing for ``√``, as :meth:`_Graph._body`
# records them.  Every node in it is reached from ``start``.


def _returns(start, adj):
    """(L1): the entries' continuation leads back to ``start``.

    On a closure that is the case exactly when some recorded successor is
    ``start``.  This is the one test whether an entry closes a loop.
    """
    return start in chain.from_iterable(adj.values())


def _exits(adj):
    """Whether a node of the closure can exit to ``√``, failing (L3)."""
    return None in chain.from_iterable(adj.values())


def _avoids(start, adj):
    """(L2): no cycle of ``adj`` avoids ``start``."""
    return not _has_cycle(
        [n for n in adj if n != start],
        lambda n: [m for m in adj.get(n, ()) if m != start],
    )


def _loop_conditions(start, adj):
    """(L1) - (L3) on a closure: the entries generate a loop sub-chart."""
    return not _exits(adj) and _returns(start, adj) and _avoids(start, adj)


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
    trans = sub.transitions
    if sub.is_induced:
        # the start's own terminal transitions never disqualify a loop chart
        if any(sub.parent.terminal_actions(n) for n in sub.nodes if n != start):
            return False
    elif any(t.terminal for t in trans):
        return False
    adj = {}
    for t in trans:
        if not t.terminal:
            adj.setdefault(t.src, []).append(t.dst)
    # L1 on what the start reaches, L2 on the whole sub-chart
    reached = _reach(adj.get(start, ()), lambda n: () if n == start else adj.get(n, ()))
    return start in reached and _avoids(start, adj)


class _Graph:
    """A chart under elimination: the one working graph of an elimination run.

    Built once per run from a :class:`Chart` and the run's roots, it keeps
    the chart's transitions, numbered in :meth:`Transition.sort_key` order,
    with static out-lists and predecessor lists, plus which transitions and
    nodes are still live.  Exactly the nodes the roots reach are live, and a
    transition is live when its source is and it has not been removed as an
    entry.  Removing the entries of a step at ``start`` can only cut off
    nodes in the step's body (the entries' ``start``-avoiding closure): a
    path to any other node can be rerouted around the entries.  So the
    garbage collection after a step looks only at the body, where a node
    survives when a root or a live node outside the body still reaches it.

    The graph answers what the elimination loops used to ask of a rebuilt
    chart (:meth:`out`, :meth:`terminal_actions`, :meth:`has_cycle`), so
    :func:`max_entry_set` takes it as well.  :meth:`_body` is the
    start-avoiding closure of every step, search and check on a chart.
    :meth:`remove` returns an undo record for backtracking searches.
    """

    def __init__(self, chart, roots):
        # every node of ``chart`` must be reachable from ``roots``, as it is
        # from the roots of a witness (:func:`_witness_roots`)
        self.chart = chart
        self.roots = frozenset(roots)
        trans = []
        succ = {}
        pred = {n: [] for n in chart.nodes}
        for n in sorted(chart.nodes):
            ids = succ[n] = []
            for t in chart.out(n):
                if not t.terminal:
                    pred[t.dst].append(len(trans))
                ids.append(len(trans))
                trans.append(t)
        self._trans = trans
        self._dst = [None if t.terminal else t.dst for t in trans]
        self._index = {t: i for i, t in enumerate(trans)}
        self._succ = succ
        self._pred = pred
        self._order = list(succ)  # node ids, sorted
        self.nodes = set(chart.nodes)
        self._alive = bytearray(b"\x01") * len(trans)

    def is_live(self, t):
        i = self._index.get(t)
        return i is not None and self._alive[i] == 1

    def key(self):
        """The live transitions, as a hashable value."""
        return bytes(self._alive)

    def sorted_nodes(self):
        return [n for n in self._order if n in self.nodes]

    def out(self, node):
        """The live transitions leaving ``node``, deterministically ordered."""
        alive, trans = self._alive, self._trans
        return [trans[i] for i in self._succ[node] if alive[i]]

    def terminal_actions(self, node):
        return frozenset(t.action for t in self.out(node) if t.terminal)

    def _live(self, keep):
        """Successors for :func:`_reach` and :func:`_has_cycle`: a node's
        live non-terminal successors that lie in ``keep``."""
        alive, dst, succ = self._alive, self._dst, self._succ
        return lambda n: [dst[i] for i in succ[n] if alive[i] and dst[i] in keep]

    def has_cycle(self, within=None):
        """True if some live cycle exists (restricted to ``within`` if given)."""
        nodes = self.nodes if within is None else self.nodes.intersection(within)
        return _has_cycle(nodes, self._live(nodes))

    def _body(self, start, targets, adj=None):
        """The ``start``-avoiding closure of ``targets``.

        The live nodes that paths from ``targets`` reach without passing
        through ``start``; ``start`` itself never belongs to it.  With
        ``adj``, also records there each body node's live successors,
        ``None`` standing for ``√``.
        """
        alive, dst, succ = self._alive, self._dst, self._succ
        body = set()
        stack = [y for y in targets if y != start]
        while stack:
            y = stack.pop()
            if y in body:
                continue
            body.add(y)
            nxt = []
            for i in succ[y]:
                if alive[i]:
                    d = dst[i]
                    nxt.append(d)
                    if d is not None and d != start and d not in body:
                        stack.append(d)
            if adj is not None:
                adj[y] = nxt
        return body

    def span(self, start, entries):
        """The body of the loop sub-chart the entries at ``start`` generate.

        ``entries`` are live transitions leaving ``start``.  Returns ``None``
        when they do not generate a loop sub-chart (conditions L1 - L3 of
        :func:`is_loop_chart`).  Raises :class:`UnknownNode` when ``start``
        is no longer live.
        """
        if start not in self.nodes:
            raise UnknownNode("unknown node %r" % (start,))
        if any(t.terminal for t in entries):
            return None
        adj = {start: [t.dst for t in entries]}
        body = self._body(start, adj[start], adj)
        if not _loop_conditions(start, adj):
            return None
        return body

    def remove(self, start, entries, body=None):
        """Remove the entries at ``start`` and collect what they cut off.

        ``body`` is the entries' ``start``-avoiding closure, computed when
        not given.  Returns an undo record for :meth:`restore`.
        """
        if body is None:
            body = self._body(start, _targets(entries))
        alive, succ, trans = self._alive, self._succ, self._trans
        killed = []
        for t in entries:
            i = self._index[t]
            if alive[i]:
                alive[i] = 0
                killed.append(i)
        roots, pred = self.roots, self._pred
        reached = [
            y
            for y in body
            if y in roots
            or any(alive[i] and trans[i].src not in body for i in pred[y])
        ]
        kept = _reach(reached, self._live(body))
        dead = body - kept
        for y in dead:
            self.nodes.discard(y)
            for i in succ[y]:
                if alive[i]:
                    alive[i] = 0
                    killed.append(i)
        return killed, dead

    def restore(self, undo):
        """Undo one :meth:`remove`; undo records are restored newest first."""
        killed, dead = undo
        for i in killed:
            self._alive[i] = 1
        self.nodes |= dead

    def to_chart(self, roots=None):
        """The live part as a :class:`Chart`; with ``roots``, what they reach.

        The chart keeps the initial node when it reaches every node kept,
        which it always does when it is the only root.
        """

        def reach(sources):
            live = self.nodes
            return _reach([n for n in sources if n in live], self._live(live))

        if roots is None:
            roots, nodes = self.roots, self.nodes
        else:
            roots = frozenset(roots)
            nodes = reach(roots)
        initial = self.chart.initial
        if roots != {initial} and not (initial in nodes and reach([initial]) == nodes):
            initial = None
        alive = self._alive
        return Chart(
            [t for i, t in enumerate(self._trans) if alive[i] and t.src in nodes],
            nodes=nodes,
            initial=initial,
        )


def eliminate(chart, start, entries, roots):
    """Eliminate the loop sub-chart ⟨start, entries⟩ from ``chart``.

    Removes the entries, then garbage-collects nodes unreachable from
    ``roots``.  Raises :class:`NotALoopChart` if ⟨start, entries⟩ does not
    generate a loop sub-chart of ``chart``.
    """
    entries = _checked_entries(chart, start, entries)
    # every node a root: the step sees the whole chart, and ``roots`` apply
    # to the result
    g = _Graph(chart, chart.nodes)
    body = g.span(start, entries)
    if body is None:
        raise NotALoopChart(
            "⟨%s, {%s}⟩ does not generate a loop sub-chart"
            % (start, ", ".join(map(repr, entries)))
        )
    g.remove(start, entries, body)
    return g.to_chart(roots)


def max_entry_set(chart, node):
    """The largest valid entry set for eliminating a loop at ``node``.

    A non-terminal transition ``node −a→ Y`` qualifies when the node-avoiding
    reachable closure of ``Y`` has no terminal transitions and no cycles
    avoiding ``node`` (self-loops qualify trivially).  Qualification is
    per-entry: it does not depend on which other entries are chosen.  Returns
    the empty set when no qualifying subset generates a loop sub-chart, i.e.
    when no qualifying entry closes a cycle back through ``node``.
    ``chart`` is a :class:`Chart` or the working graph of a search.
    """
    g = chart if isinstance(chart, _Graph) else _Graph(chart, chart.nodes)
    valid = []
    closes_loop = False
    for t in g.out(node):
        if t.terminal:
            continue
        adj = {node: [t.dst]}
        g._body(node, adj[node], adj)
        if _exits(adj) or not _avoids(node, adj):
            continue
        valid.append(t)
        closes_loop = closes_loop or _returns(node, adj)
    if not valid or not closes_loop:
        return frozenset()
    return frozenset(valid)


# --- witnesses -------------------------------------------------------------


@dataclass(frozen=True)
class ReplayStep:
    """One elimination in a witness replay."""

    order: int
    start: str
    entries: tuple
    body: frozenset


@dataclass(frozen=True)
class ReplayResult:
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
            if not isinstance(n, int) or n < 0:
                raise InvalidWitness("order of %r must be a non-negative integer" % (t,))
        used = sorted(set(n for n in order.values() if n > 0))
        if used != list(range(1, len(used) + 1)):
            raise InvalidWitness(
                "positive orders must be 1..m without gaps, got %s" % used
            )
        self.chart = chart
        self.order = dict(order)
        self._replay = None
        self._lpb = None  # loops_back_to's result
        self._below = None  # node -> its ↘⁺-successors, from loops_back_to

    @property
    def max_order(self):
        return max([n for n in self.order.values()], default=0)

    def entries(self, node=None):
        """Positive-order transitions, optionally restricted to one source."""
        ts = [t for t, n in self.order.items() if n > 0]
        if node is not None:
            ts = [t for t in ts if t.src == node]
        return tuple(sorted(ts, key=Transition.sort_key))

    def body_transitions(self):
        return tuple(
            sorted(
                (t for t, n in self.order.items() if n == 0), key=Transition.sort_key
            )
        )

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
        if self._replay is None:
            self._replay = _replay(self)
        return self._replay

    @property
    def is_lee(self):
        return self.replay().ok

    def __eq__(self, other):
        if not isinstance(other, Witness):
            return NotImplemented
        return self.chart == other.chart and self.order == other.order

    def __hash__(self):
        return hash((self.chart, frozenset(self.order.items())))

    def __repr__(self):
        return "Witness(%r, %d entries, max order %d)" % (
            self.chart,
            len(self.entries()),
            self.max_order,
        )

    # --- text format -------------------------------------------------------

    @classmethod
    def from_text(cls, text, chart):
        lines = text.splitlines()
        if not lines or lines[0].strip() != "witness v1":
            raise ParseError("missing 'witness v1' header")
        order = {}
        for i, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
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
        return cls(chart, order)

    def to_text(self):
        lines = ["witness v1"]
        for t in sorted(self.order, key=Transition.sort_key):
            lines.append("%s %s %s %d" % (t.src, t.action, t.dst, self.order[t]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "v": 1,
            "chart": self.chart.to_json_dict(),
            "orders": [
                {"src": t.src, "act": t.action, "dst": t.dst, "order": self.order[t]}
                for t in sorted(self.order, key=Transition.sort_key)
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        chart = Chart.from_json_dict(doc["chart"])
        order = {
            Transition(d["src"], d["act"], d["dst"]): d["order"] for d in doc["orders"]
        }
        return cls(chart, order)

    def to_dot(self):
        return self.chart.to_dot(order=self.order)


def _witness_roots(chart):
    if chart.initial is not None:
        return frozenset([chart.initial])
    return frozenset(chart.nodes)


def _replay(w):
    chart = w.chart
    g = _Graph(chart, _witness_roots(chart))
    levels = {}
    for t, o in w.order.items():
        if o > 0:
            levels.setdefault(o, []).append(t)
    steps = []
    eliminated_bodies = set()
    llee = True
    llee_reason = None
    for n in range(1, w.max_order + 1):
        level = levels[n]
        for t in level:
            if not g.is_live(t):
                return ReplayResult(
                    False,
                    "order-%d transition %r was already garbage-collected" % (n, t),
                    tuple(steps),
                    None,
                    False,
                    None,
                )
        groups = {}
        for t in level:
            groups.setdefault(t.src, []).append(t)
        pending = {
            x: tuple(sorted(ts, key=Transition.sort_key)) for x, ts in groups.items()
        }
        while pending:
            progressed = False
            for x in sorted(pending):
                if x not in g.nodes:
                    return ReplayResult(
                        False,
                        "order-%d entries at %s were garbage-collected by an "
                        "earlier step" % (n, x),
                        tuple(steps),
                        None,
                        False,
                        None,
                    )
                entries = pending[x]
                body = g.span(x, entries)
                if body is None:
                    continue
                if llee and x in eliminated_bodies:
                    llee = False
                    llee_reason = (
                        "step %d starts at %s, which lies in the body of an "
                        "earlier eliminated loop sub-chart" % (n, x)
                    )
                body = frozenset(body)
                steps.append(ReplayStep(n, x, entries, body))
                eliminated_bodies |= body
                g.remove(x, entries, body)
                del pending[x]
                progressed = True
                break
            if not progressed:
                x = sorted(pending)[0]
                return ReplayResult(
                    False,
                    "order-%d entries at %s do not span a loop sub-chart" % (n, x),
                    tuple(steps),
                    None,
                    False,
                    None,
                )
    if g.has_cycle():
        return ReplayResult(
            False,
            "a cycle survives the recorded elimination",
            tuple(steps),
            g.to_chart(),
            False,
            None,
        )
    return ReplayResult(True, None, tuple(steps), g.to_chart(), llee, llee_reason)


def is_llee_witness(w):
    """Whether ``w`` replays as a layered elimination.

    Raises :class:`InvalidWitness` if the replay itself fails (the witness is
    not even an elimination run).
    """
    rep = w.replay()
    if not rep.ok:
        raise InvalidWitness(rep.reason)
    return rep.llee


# --- witness search --------------------------------------------------------


def find_lee_witness(chart):
    """Search for an elimination run ending without infinite paths.

    Greedy with backtracking: repeatedly eliminate the maximal entry set of
    the least node id that admits one; on a dead end (cycles remain but no
    node has a non-empty maximal entry set) backtrack over the node choice.
    Returns the :class:`Witness` (eliminated entries get their step number;
    everything else, including garbage-collected transitions, gets 0), or
    ``None`` when every elimination sequence gets stuck.
    """
    g = _Graph(chart, _witness_roots(chart))
    assignment = {}
    failed = set()

    def search(step_no):
        if not g.has_cycle():
            return True
        key = g.key()
        if key in failed:
            return False
        for x in g.sorted_nodes():
            entries = max_entry_set(g, x)
            if not entries:
                continue
            for t in entries:
                assignment[t] = step_no
            undo = g.remove(x, entries)
            if search(step_no + 1):
                return True
            g.restore(undo)
            for t in entries:
                del assignment[t]
        failed.add(key)
        return False

    if not search(1):
        return None
    order = {
        t: assignment.get(t, 0) for t in chart.transitions if not t.terminal
    }
    return Witness(chart, order)


# --- the witness an expression carries -------------------------------------


def expression_witness(e, cap=None):
    """The layered witness that the chart of ``e`` carries by construction.

    Every 1-free star expression's chart satisfies LLEE (Grabmayer &
    Fokkink, *A complete proof system for 1-free regular expressions modulo
    bisimilarity*, LICS 2020), and the witness can be read off the syntax
    while the chart is explored: a step of the body ``e1`` of a star head
    ``e1*e2`` with ``e1`` normed enters that star's loop and is labelled
    with the star height of ``e1*e2``; every other step is labelled 0 (see
    :func:`lleekit.chart._explore`).  The distinct positive heights are
    ranked to orders ``1..m``, the smallest height as order 1, so inner
    loops are eliminated before the loops around them.  No search and no
    re-layering is involved.  Returns a :class:`Witness` on
    ``interpret(e, cap)``; raises :class:`StateExplosion` as
    :func:`lleekit.chart.interpret` does.
    """
    return _height_witness(*_interpret(e, cap))


def _height_witness(chart, heights):
    """The witness on ``chart`` ranking the loop labels ``heights``."""
    rank = {h: i for i, h in enumerate(sorted(set(heights.values())), start=1)}
    order = {t: 0 for t in chart.transitions if not t.terminal}
    for t, h in heights.items():
        order[t] = rank[h]
    return Witness(chart, order)


# --- looping-back structure ------------------------------------------------


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
    if w._lpb is not None:
        return w._lpb
    chart = w.chart
    # x ↘ y: y lies in the x-avoiding closure of the targets of x's entries,
    # taken over body transitions only
    nexts = {x: [] for x in chart.nodes}
    entries = {x: [] for x in chart.nodes}
    for t, n in w.order.items():
        (entries if n > 0 else nexts)[t.src].append(t.dst)
    direct = set()
    succ = {}
    for x in chart.nodes:
        succ[x] = _reach(
            [y for y in entries[x] if y != x],
            lambda y: [d for d in nexts[y] if d != x],
        )
        direct.update((x, y) for y in succ[x])
    closure = set()
    below = {}
    for x in chart.nodes:
        below[x] = frozenset(_reach(succ[x], succ.__getitem__))
        closure.update((x, y) for y in below[x])
    w._lpb = (frozenset(direct), frozenset(closure))
    w._below = below
    return w._lpb


@dataclass(frozen=True)
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
    loops_back_to(w)
    nodes = w._below[node] | {node}
    if not w.chart.has_cycle(within=nodes):
        return None
    return LoopingBackChart(w.chart, w, node, nodes)


def all_looping_back_charts(w):
    """Mapping from node to its looping-back chart (nodes without one omitted)."""
    result = {}
    for n in sorted(w.chart.nodes):
        lbc = looping_back_chart(w, n)
        if lbc is not None:
            result[n] = lbc
    return result


@dataclass(frozen=True)
class PropertyReport:
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
    g = _Graph(chart, chart.nodes)
    violations = []
    for y in sorted(lbc.body):
        sub = looping_back_chart(w, y)
        if sub is not None and not (
            sub.nodes <= lbc.nodes and sub.nodes != lbc.nodes
        ):
            violations.append(
                ("i", "looping-back chart of body node %s is not a proper sub-chart" % y)
            )
    for y in sorted(lbc.body):
        for t in chart.out(y):
            if not t.terminal and t.dst not in lbc.nodes:
                violations.append(("ii", "body transition %r escapes the chart" % (t,)))
    for y in sorted(lbc.body):
        for z in sorted(g._body(lbc.start, [y])):
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
    """Rewrite ``w`` so every entry has a unique order number.

    Groups are split into single-entry steps following the replayed order
    (deterministic within a step).  Entries whose continuation cannot come
    back to their start at their step are not loop sub-charts on their own;
    they are demoted to body transitions, which is sound: at that point their
    start-avoiding closure is terminal-free, acyclic and never reaches the
    start, so keeping them cannot create new loops or exits later.
    """
    rep = w.replay()
    chart = w.chart
    g = _Graph(chart, _witness_roots(chart))
    labels = {t: 0 for t in w.order}
    counter = 0
    for step in rep.steps:
        loopers = []
        for e in step.entries:
            if not g.is_live(e):
                raise InternalError("normalization lost a scheduled entry %r" % (e,))
            adj = {step.start: [e.dst]}
            g._body(step.start, adj[step.start], adj)
            if _returns(step.start, adj):
                loopers.append(e)
        for e in loopers:
            counter += 1
            labels[e] = counter
        g.remove(step.start, loopers)
    w1 = Witness(chart, labels)
    rep1 = w1.replay()
    if not rep1.ok:
        raise InternalError("normalized witness fails to replay: %s" % rep1.reason)
    return w1


def _zero_path(chart, labels, source, target):
    """Shortest path from ``source`` to ``target`` over order-0 transitions.

    Returns the transition list, ``[]`` when ``source == target``, or ``None``
    when no such path exists in ``chart``.
    """
    if source == target:
        return []
    prev = {source: None}
    queue = deque([source])
    while queue:
        n = queue.popleft()
        for t in chart.out(n):
            if t.terminal or labels.get(t, 1) != 0:
                continue
            if t.dst not in prev:
                prev[t.dst] = t
                if t.dst == target:
                    path = []
                    cur = target
                    while prev[cur] is not None:
                        path.append(prev[cur])
                        cur = prev[cur].src
                    path.reverse()
                    return path
                queue.append(t.dst)
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
    w1 = _normalize(w)
    chart = w1.chart
    g = _Graph(chart, _witness_roots(chart))
    labels = dict(w1.order)
    by_order = {}
    for t, k in labels.items():
        if k > 0:
            by_order.setdefault(k, set()).add(t)

    def relabel(t, k):
        old = labels[t]
        if old > 0:
            by_order[old].discard(t)
        if k > 0:
            by_order.setdefault(k, set()).add(t)
        labels[t] = k

    # Steps run in increasing order number.  A repair at step ``n`` only
    # moves order numbers above ``n``, so walking 1..m meets every step.
    for n in range(1, w1.max_order + 1):
        # Normalization makes order numbers unique, but a repair below may
        # promote several transitions of one start node to the same vacated
        # number; such a step is a single grouped elimination.
        step_entries = tuple(sorted(by_order.get(n, ()), key=Transition.sort_key))
        if not step_entries:
            continue
        r = step_entries[0].src
        if any(t.src != r for t in step_entries):
            raise InternalError("order %d spans several start nodes" % n)
        for t in step_entries:
            if not g.is_live(t):
                raise InternalError("entry %r vanished before its step" % (t,))
        body = g.span(r, step_entries)
        if body is None:
            raise InternalError(
                "⟨%s, %s⟩ stopped being a loop sub-chart during switching"
                % (r, list(step_entries))
            )
        demotions = sorted(
            (t for y in body for t in g.out(y) if labels.get(t, 0) > n),
            key=lambda t: (labels[t],) + t.sort_key(),
        )
        for t in demotions:
            k = labels[t]
            relabel(t, 0)
            while True:
                back = _zero_path(g, labels, t.dst, t.src)
                if back is None:
                    break
                cycle = [t] + back
                pick = next((c for c in cycle if c.src == r), None)
                if pick is None:
                    raise InternalError(
                        "an entry-less loop avoided the eliminating node %s" % r
                    )
                relabel(pick, k)
        g.remove(r, step_entries, body)
    used = sorted(set(k for k in labels.values() if k > 0))
    renumber = {k: i for i, k in enumerate(used, start=1)}
    final = {t: renumber.get(k, 0) for t, k in labels.items()}
    w2 = Witness(chart, final)
    rep2 = w2.replay()
    if not rep2.ok:
        raise InternalError("switching produced a non-replayable witness: %s" % rep2.reason)
    if not rep2.llee:
        raise InternalError("switching failed to produce a layered witness: %s" % rep2.llee_reason)
    return w2
