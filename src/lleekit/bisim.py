"""Bisimulation equivalence on charts.

Two nodes are bisimilar when they can mimic each other's transitions forever
and agree on termination: whenever one side can do ``a`` and stop (a terminal
transition), so can the other.  The greatest such relation is computed by
incremental partition refinement: nodes start grouped by their
terminal-action sets, and blocks are split by the set of ``(action,
target-block)`` signatures until stable.  After the first batch only the
predecessors of nodes that changed block are signed again, and the largest
piece of a split block keeps its id, so a path of n nodes costs O(n)
rather than n rounds over every node.  The nodes that can reach no cycle
are settled before that, bottom-up: one whose successors are all settled
takes its block at once, and any other starts a depth-first walk.  On a
chain explored from its start every node is settled the first way.  A
signature with one ``(action, block)`` pair, as every chain state has, is
keyed by that pair itself rather than by a one-element set: a pair is
never equal to a set, so equal keys still mean equal signatures.  It
runs on integer ids,
and two charts or explorations numbered into the same tables are refined
as their disjoint union; an exploration writes its tables while it
explores.

:func:`collapse` quotients a chart by its greatest self-bisimulation; the
result has no two distinct bisimilar nodes, and the quotient map is returned
as a :class:`BisimMap` (a functional bisimulation).
"""

from __future__ import annotations

from collections import namedtuple

from ._record import record
from .chart import Chart, _lines, chart_of_nodes
from .errors import NotABisimulation, ParseError, UnknownNode
from .expr import _dumps

__all__ = [
    "Partition",
    "BisimMap",
    "CollapseResult",
    "bisimilarity",
    "bisimilarity_partition",
    "is_bisimulation",
    "collapse",
    "image",
]


@record
class Partition:
    """A partition of a chart's nodes into bisimilarity classes."""

    chart: Chart
    blocks: tuple

    def block_of(self, node):
        for b in self.blocks:
            if node in b:
                return b
        raise UnknownNode("unknown node %r" % (node,))


def _index_tables(chart, outmap, term):
    """Append ``chart``'s nodes to :func:`_refine`'s tables, node ``i`` as
    id ``offset + i``; return the offset.

    The nodes take the next free ids, so charts appended to the same
    tables one after another are refined side by side, as their disjoint
    union, with no union chart built and no node renamed.
    """
    offset = len(outmap)
    act, dst, first = chart.act, chart.dst, chart.first
    for x in range(len(chart.names)):
        out = []
        ends = set()
        for k in range(first[x], first[x + 1]):
            if dst[k] is None:
                ends.add(act[k])
            else:
                out.append((act[k], offset + dst[k]))
        outmap.append(out)
        term.append(frozenset(ends))
    return offset


def _refine(outmap, term):
    """Partition refinement core, on the integer ids ``0..len(outmap)-1``.

    ``outmap[i]`` is the list of ``(action, dst)`` pairs of node ``i``'s
    non-terminal transitions, repeats allowed; ``term[i]`` the frozenset
    of its terminal actions.  :func:`_index_tables` writes both for charts,
    and :func:`lleekit.chart._explore` while it explores.  Returns
    a list: node id -> block id.

    First, the *well-founded* nodes are found, those from which no cycle
    can be reached (Dovier, Piazza & Policriti, *An efficient algorithm for
    computing bisimulation equivalence*, 2004).  Their bisimilarity is
    decided by induction on depth: two of them are bisimilar exactly when
    they have the same terminal actions and the same ``(action, class of
    dst)`` pairs, and every ``dst`` is well-founded and settled before
    them.  So each takes its final block as soon as all its successors
    are settled, by interning a key of those two sets, and none is signed
    again; one loop over its steps both tests them and collects the pairs.
    The key of terminal actions ``t`` and pairs ``P`` is the flat triple
    ``(t, a, b)`` when ``P`` is the one pair ``(a, b)``, however many steps
    repeat it, and ``(t, frozenset(P))`` otherwise.  A triple never equals
    a pair of length two, and a set of one element is keyed only as a
    triple, so each signature has exactly one key: equal keys mean equal
    signatures, and the blocks are numbered in the same order as by sets
    alone.  On a chain every node is keyed without building a set.  The
    roots are taken from the last id down.  A root whose successors are
    all settled takes its block from that loop alone, with no walk, and a
    root with one step, as on a chain, from its one pair; as an
    exploration numbers successors after their sources, on a chain every
    root does.  Any other root starts a depth-first walk that settles each
    node when it leaves it, in post-order.  A settled root is one the walk
    would leave at once, so both ways intern the same pairs in the same
    order and give the same block ids.  A well-founded node is never
    bisimilar to a node that can reach a cycle, which has an infinite path
    the other cannot match.  When every node is well-founded the partition
    is final after this first phase.

    The other nodes start grouped by their terminal-action sets, in blocks
    apart from the settled ones, and all of them *dirty*.  A node's
    signature is the set of ``(action, block of dst)`` pairs, or that pair
    itself when the set has one element: a pair never equals a set, so
    again each signature has one key.  Each batch
    signs the dirty nodes, all against the partition as it was before the
    batch split anything, and splits each touched block by signature.  A
    node that changes block moves to a new block id, so its predecessors,
    and only they, are dirty in the next batch; none of them is
    well-founded, since it reaches a cycle through the moved node, so the
    settled blocks are never touched.
    From the second batch on, a dirty node thus has a successor in a block
    made by the previous batch and a clean node has none: their signatures
    differ, so the clean nodes of a block stay together and the dirty ones
    split off by signature.  The largest piece keeps the block's id
    (Hopcroft's rule), so a node changes block O(log n) times.  When no
    node is dirty every block is stable.
    """
    # 0 unvisited, 1 on the walk's stack, 2 well-founded, 3 reaches a cycle
    state = bytearray(len(outmap))
    block = [0] * len(outmap)
    settled = {}
    for root in range(len(outmap) - 1, -1, -1):
        if state[root]:
            continue
        out = outmap[root]
        if len(out) == 1:
            # one step, to a settled node: the flat key the loop below makes
            a, d = out[0]
            if state[d] == 2:
                state[root] = 2
                block[root] = settled.setdefault((term[root], a, block[d]), len(settled))
                continue
        pairs = []
        for a, d in out:
            if state[d] != 2:
                break
            pairs.append((a, block[d]))
        else:
            # every successor is settled: the walk would leave the root at once
            state[root] = 2
            sig = frozenset(pairs)
            key = (term[root], sig) if len(sig) != 1 else (term[root],) + pairs[0]
            block[root] = settled.setdefault(key, len(settled))
            continue
        state[root] = 1
        stack = [(root, iter(outmap[root]))]
        while stack:
            n, it = stack[-1]
            for _, d in it:
                if not state[d]:
                    state[d] = 1
                    stack.append((d, iter(outmap[d])))
                    break
            else:
                stack.pop()
                pairs = []
                for a, d in outmap[n]:
                    # a successor still on the stack closes a cycle
                    if state[d] != 2:
                        state[n] = 3
                        break
                    pairs.append((a, block[d]))
                else:
                    state[n] = 2
                    sig = frozenset(pairs)
                    key = (term[n], sig) if len(sig) != 1 else (term[n],) + pairs[0]
                    block[n] = settled.setdefault(key, len(settled))
    if 3 not in state:
        return block
    members = [None] * len(settled)  # the settled blocks are never split
    first = {}
    dirty = [n for n in range(len(outmap)) if state[n] == 3]
    preds = [[] for _ in outmap]
    for n in dirty:
        for _, d in outmap[n]:
            preds[d].append(n)
        b = first.get(term[n])
        if b is None:
            b = first[term[n]] = len(members)
            members.append(set())
        members[b].add(n)
        block[n] = b
    while dirty:
        touched = {}
        for n in dirty:
            touched.setdefault(block[n], []).append(n)
        # sign the whole batch before any block splits
        batch = []
        for b, ns in touched.items():
            groups = {}
            for n in ns:
                out = outmap[n]
                if len(out) == 1:
                    a, d = out[0]
                    sig = (a, block[d])
                else:
                    sig = frozenset([(a, block[d]) for a, d in out])
                    if len(sig) == 1:
                        (sig,) = sig
                groups.setdefault(sig, []).append(n)
            batch.append((b, len(members[b]) - len(ns), list(groups.values())))
        moved = []
        for b, clean, pieces in batch:
            mem = members[b]
            keep = max(pieces, key=len)
            if len(keep) > clean:
                pieces.remove(keep)
                if clean:
                    pieces.append(list(mem.difference(keep, *pieces)))
            for piece in pieces:
                new = len(members)
                members.append(set(piece))
                mem.difference_update(piece)
                for n in piece:
                    block[n] = new
                moved.extend(piece)
        dirty = {p for n in moved for p in preds[n]}
    return block


def bisimilarity_partition(chart):
    """The partition of ``chart``'s nodes into greatest-bisimulation classes."""
    outmap, term = [], []
    _index_tables(chart, outmap, term)
    block = _refine(outmap, term)
    groups = {}
    for n, b in zip(chart.names, block):
        groups.setdefault(b, set()).add(n)
    blocks = tuple(sorted((frozenset(g) for g in groups.values()), key=lambda b: min(b)))
    return Partition(chart, blocks)


def bisimilarity(g, h):
    """The greatest bisimulation between two charts, as a set of node pairs.

    The two charts are refined side by side, as their disjoint union, so
    shared node names in ``g`` and ``h`` do not collide.
    """
    outmap, term = [], []
    _index_tables(g, outmap, term)
    offset = _index_tables(h, outmap, term)
    block = _refine(outmap, term)
    return frozenset(
        (x, y)
        for x, b in zip(g.names, block)
        for y, c in zip(h.names, block[offset:])
        if b == c
    )


def is_bisimulation(relation, g, h):
    """Check the transfer conditions for ``relation`` between ``g`` and ``h``.

    For every related pair ``(x, y)``: each ``x −a→ x'`` must be matched by
    some ``y −a→ y'`` with ``(x', y')`` related; symmetrically for ``y``'s
    moves; and ``x −a→ √`` exactly when ``y −a→ √``.  The empty relation
    passes vacuously.
    """
    rel = set(relation)
    for x, y in rel:
        if x not in g.nodes or y not in h.nodes:
            raise UnknownNode("pair (%r, %r) outside the charts" % (x, y))
    for x, y in rel:
        if g.terminal_actions(x) != h.terminal_actions(y):
            return False
        for t in g.out(x):
            if t.terminal:
                continue
            if not any(
                u.action == t.action and not u.terminal and (t.dst, u.dst) in rel
                for u in h.out(y)
            ):
                return False
        for u in h.out(y):
            if u.terminal:
                continue
            if not any(
                t.action == u.action and not t.terminal and (t.dst, u.dst) in rel
                for t in g.out(x)
            ):
                return False
    return True


@record
class BisimMap:
    """A functional bisimulation ``source -> target``.

    The graph of ``mapping`` must satisfy the transfer conditions, and when
    both charts carry initial nodes the initial must map to the initial.
    Construction validates both and raises :class:`NotABisimulation`.
    """

    source: Chart
    target: Chart
    mapping: dict

    def __post_init__(self):
        m = self.mapping
        if set(m) != set(self.source.nodes):
            raise NotABisimulation("mapping is not total on source nodes")
        bad = set(m.values()) - set(self.target.nodes)
        if bad:
            raise NotABisimulation("mapping hits non-nodes: %s" % ", ".join(sorted(bad)))
        if self.source.initial is not None and self.target.initial is not None:
            if m[self.source.initial] != self.target.initial:
                raise NotABisimulation("initial node does not map to the initial node")
        source, target = self.source, self.target
        outmap, term, target_out, target_term = [], [], [], []
        _index_tables(source, outmap, term)
        _index_tables(target, target_out, target_term)
        theta = [target.ids[m[x]] for x in source.names]
        if not _transfers(outmap, term, theta, [set(out) for out in target_out], target_term):
            raise NotABisimulation("mapping fails the transfer conditions")

    @classmethod
    def _of(cls, source, target, mapping):
        """The map ``mapping`` from ``source`` onto ``target``, built
        unchecked: the caller checked it (:func:`_quotient`)."""
        theta = cls.__new__(cls)
        for field, value in zip(("source", "target", "mapping"), (source, target, mapping)):
            object.__setattr__(theta, field, value)
        return theta

    def __call__(self, node):
        try:
            return self.mapping[node]
        except KeyError:
            raise UnknownNode("unknown node %r" % (node,)) from None

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.mapping.items())))

    def __eq__(self, other):
        if not isinstance(other, BisimMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    # --- map text format ---------------------------------------------------

    @classmethod
    def from_text(cls, text, source, target):
        mapping = {}
        for i, parts in _lines(text, "map"):
            if len(parts) != 2:
                raise ParseError("expected '<src-node> <dst-node>' on line %d" % i)
            if parts[0] in mapping:
                raise ParseError("duplicate source node %r on line %d" % (parts[0], i))
            mapping[parts[0]] = parts[1]
        return cls(source, target, mapping)

    def to_text(self):
        lines = ["map v1"]
        for x in sorted(self.mapping):
            lines.append("%s %s" % (x, self.mapping[x]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {"v": 1, "map": {x: self.mapping[x] for x in sorted(self.mapping)}}

    def to_json(self):
        return _dumps(self.to_json_dict())


def image(theta, a):
    """The image of a sub-chart under a bisimulation map.

    For a sub-chart ``a`` of ``theta.source``, the image is the induced
    sub-chart of ``theta.target`` over the mapped node set (the start, when
    present, maps along).  Monotone: sub-charts map to sub-charts.
    """
    if a.parent != theta.source:
        raise UnknownNode("sub-chart does not live in the map's source chart")
    nodes = frozenset(theta(n) for n in a.nodes)
    start = theta(a.start) if a.start is not None else None
    return chart_of_nodes(theta.target, nodes, start=start)


CollapseResult = namedtuple("CollapseResult", "chart theta")


def _transfers(outmap, term, theta, target_out, target_term, reps=None):
    """Whether ``theta`` is a functional bisimulation from the nodes of
    :func:`_refine`'s tables ``outmap``/``term`` to a target's.

    ``theta[i]`` is the target node of id ``i``; ``target_out[y]`` is the
    set of node ``y``'s ``(action, dst)`` pairs and ``target_term[y]`` its
    terminal actions.  For a function the transfer conditions read: every
    ``i`` has the terminal actions of ``theta[i]``, and its steps, mapped
    through ``theta``, are exactly the steps of ``theta[i]``.  This is the
    one transfer check of a map: :class:`BisimMap` runs it on the tables of
    its charts, and :func:`_quotient` on the tables it was refined from.
    A quotient's node ``y`` is built from the row of its representative,
    the id ``reps[y]``, which would pass by construction; given ``reps``,
    those ids are skipped and every other id is checked.
    """
    ids = range(len(outmap)) if reps is None else [i for i, y in enumerate(theta) if reps[y] != i]
    for i in ids:
        y = theta[i]
        if term[i] != target_term[y] or {(a, theta[d]) for a, d in outmap[i]} != target_out[y]:
            return False
    return True


def _quotient(outmap, term, block, chart):
    """The quotient of :func:`_refine`'s tables by their partition ``block``.

    ``chart``'s nodes are the ids ``0..n-1`` of the tables, and their
    classes become the quotient's nodes: a class is numbered, named and
    given its steps after its first node in ``chart``'s order, so the
    quotient of a named chart is numbered in name order and that of an
    unnamed one is unnamed (see :class:`~lleekit.chart.Chart`).  The
    initial node is the class of ``chart``'s, and the alphabet is
    ``chart``'s.  When every class holds exactly one of ``chart``'s nodes
    the quotient is ``chart`` itself: each class then has its node's number
    and steps.  Returns ``(quotient, theta, reps)``: the quotient, for every
    id of the tables the node of its class, and each node's first member.
    ``theta`` is checked (:func:`_transfers`) to be a functional
    bisimulation onto the quotient, every id but the representatives
    against its class's node, whose row is its representative's, so every
    class must hold one of ``chart``'s nodes; both raise
    :class:`NotABisimulation`.
    """
    number = {}
    reps = []
    for i in range(len(chart.names)):
        if number.setdefault(block[i], len(reps)) == len(reps):
            reps.append(i)
    theta = [number.get(b) for b in block]
    if None in theta:
        raise NotABisimulation("mapping hits a class without a member")
    outs = [{(a, theta[d]) for a, d in outmap[r]} for r in reps]
    ends = [term[r] for r in reps]
    if not _transfers(outmap, term, theta, outs, ends, reps):
        raise NotABisimulation("mapping fails the transfer conditions")
    names = chart.names
    if len(reps) == len(names):
        return chart, theta, reps
    quotient = Chart._build(
        range(len(reps)) if names.__class__ is range else [names[i] for i in reps],
        [out.union((a, None) for a in e) for out, e in zip(outs, ends)],
        None if chart.root is None else theta[chart.root],
    )
    quotient.alphabet = chart.alphabet
    return quotient, theta, reps


def collapse(chart):
    """Quotient ``chart`` by its greatest self-bisimulation.

    Each class is represented by its least node id.  Returns the quotient
    chart together with the quotient :class:`BisimMap`; the quotient has no
    two distinct bisimilar nodes, is bisimilar to the input and keeps its
    alphabet.  A chart with no two distinct bisimilar nodes is its own
    quotient.
    """
    outmap, term = [], []
    _index_tables(chart, outmap, term)
    quotient, theta, _ = _quotient(outmap, term, _refine(outmap, term), chart)
    rep = {x: quotient.names[theta[i]] for i, x in enumerate(chart.names)}
    return CollapseResult(quotient, BisimMap._of(chart, quotient, rep))
