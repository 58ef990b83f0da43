"""Reflecting loop structure through a bisimulation collapse.

Given a layered witness on a chart ``G`` and a bisimulation function
``θ : G → H`` onto a collapse ``H`` (no two distinct bisimilar nodes), every
looping-back chart of ``G`` projects to an *image*: the induced sub-chart of
``H`` over the mapped node set.  Images inherit enough structure to eliminate
``H``'s loops image by image:

* every cycle of ``H`` lies inside some image;
* per image, a *well-structured* pre-image exists — a looping-back chart
  with no proper looping-back sub-chart mapping onto the same image — and
  every cycle inside the image either passes the image of its start or lies
  in a proper sub-image;
* body nodes of an image (relative to any pre-image's start) have no
  terminal transitions and no transitions leaving the image.

:func:`collapse_lee_witness` turns those facts into an elimination run on
``H``: images are processed smallest first, each eliminated at the image of
its chosen pre-image's start.  The result is a replay-valid witness on the
collapse, and the image construction keeps layering: a layered witness
reflects to a layered one.

One reflection on ids (:func:`_images`, then :func:`_reflect_witness`,
whose run is the reflected witness's replay) serves
:func:`lleekit.solve.equiv`, :func:`collapse_lee_witness` and the
``reflect`` command.  None of them enumerates cycles: only
:func:`check_lemma_conditions`, the explicit check of the lemma, does.
"""

from __future__ import annotations

from operator import itemgetter

from ._record import record
from .bisim import bisimilarity_partition
from .chart import Transition, _Graph, chart_of_nodes, simple_cycles
from .errors import LemmaViolated, NotCollapse, NotLLEE, UnknownNode
from .lee import _roots, _witness_of, all_looping_back_charts, is_llee_witness

__all__ = [
    "ImageRecord",
    "ImageHierarchy",
    "images",
    "well_structured_preimage",
    "loop_correspondence",
    "check_lemma_conditions",
    "LemmaReport",
    "collapse_lee_witness",
]


@record
class ImageRecord:
    """One image of the looping-back structure.

    ``image`` is the induced sub-chart of the target chart; ``start`` is the
    mapped start of the chosen well-structured pre-image (pre-images of the
    same image may have different starts); ``preimages`` lists every
    looping-back chart mapping onto this image; ``well_structured`` is the
    chosen one among them.
    """

    image: object
    start: str
    preimages: tuple
    well_structured: object


@record
class ImageHierarchy:
    """All image records plus the strict sub-image order between them.

    ``order`` holds index pairs ``(i, j)`` meaning record ``i``'s node set is
    a proper subset of record ``j``'s.
    """

    records: tuple
    order: frozenset

    def proper_subimages(self, rec):
        idx = self.records.index(rec)
        return tuple(self.records[i] for i, j in sorted(self.order) if j == idx)


def _check_preconditions(theta, w):
    if w.chart != theta.source:
        raise UnknownNode("witness chart is not the map's source chart")
    part = bisimilarity_partition(theta.target)
    if any(len(b) > 1 for b in part.blocks):
        raise NotCollapse("target chart has distinct bisimilar nodes")
    if not is_llee_witness(w):
        raise NotLLEE("image structure requires a layered witness")


def _smaller_preimage(start, nodes, starts):
    """The start of a proper looping-back sub-chart of the looping-back
    chart ``nodes`` at ``start``, at a body node (least first), with the
    same image; ``None`` if that chart is well-structured.

    ``starts`` are the starts of the looping-back charts with that image,
    least first, on ids or on names alike.  ↘⁺ is a strict order, so the
    looping-back chart ``{y} ∪ ↘⁺(y)`` of a start ``y`` in the body lies in
    ``↘⁺(start)`` and is a proper sub-chart: no subset is tested.
    """
    for y in starts:
        if y in nodes and y != start:
            return y
    return None


def images(theta, w):
    """The image hierarchy of a layered witness under a collapse map.

    Looping-back charts are grouped by their mapped node set; each group
    becomes one :class:`ImageRecord` whose start comes from the chosen
    well-structured pre-image (smallest start id among the well-structured
    ones).  Raises :class:`NotCollapse` if the target has distinct bisimilar
    nodes and :class:`NotLLEE` if the witness is not layered.
    """
    _check_preconditions(theta, w)
    target = theta.target
    ids = [target.ids[theta(x)] for x in w.chart.names]
    lbcs = all_looping_back_charts(w)
    records = []
    for rec in _images(ids, w._loops[2]):
        img_nodes = frozenset(target.names[v] for v in rec.nodes)
        start = target.names[rec.start]
        records.append(
            ImageRecord(
                image=chart_of_nodes(target, img_nodes, start=start),
                start=start,
                preimages=tuple(lbcs[w.chart.names[x]] for x in rec.preimages),
                well_structured=lbcs[w.chart.names[rec.chosen]],
            )
        )
    records = tuple(records)
    order = frozenset(
        (i, j)
        for i, a in enumerate(records)
        for j, b in enumerate(records)
        if a.image.nodes < b.image.nodes
    )
    return ImageHierarchy(records, order)


class _Image(tuple):
    """One image, on ids, the tuple ``(nodes, start, preimages, chosen)``:
    the target's ``nodes`` and ``start``, the starts of its ``preimages``
    in the source and the ``chosen`` well-structured one among them."""

    __slots__ = ()

    def __new__(cls, nodes, start, preimages, chosen):
        return tuple.__new__(cls, (nodes, start, preimages, chosen))

    def __getnewargs__(self):
        return tuple(self)

    # the fields, read by place
    nodes, start, preimages, chosen = (property(itemgetter(i)) for i in range(4))


def _images(theta, lbcs):
    """The images of a layered witness's looping-back charts under
    ``theta``, on ids.

    ``lbcs`` maps the start of each looping-back chart to its node set, as
    :func:`lleekit.lee._loops_back` gives them, and ``theta[v]`` is the id
    in the target chart of source node ``v``.  Returns the
    :class:`_Image` records in the order of :func:`images`.  The caller
    vouches for the preconditions of :func:`images`: this is the one image
    computation, which :func:`images` converts.  Each chart is mapped once;
    a smaller pre-image of an image is one of its own pre-images, and as
    ↘⁺ is a strict order, some pre-image holds no other: the least such is
    chosen.
    """
    get = theta.__getitem__
    grouped = {}
    for x, nodes in lbcs.items():
        grouped.setdefault(frozenset(map(get, nodes)), []).append(x)
    records = []
    for img_nodes in sorted(grouped, key=lambda s: (len(s), tuple(sorted(s)))):
        pres = tuple(grouped[img_nodes])
        chosen = next(x for x in pres if _smaller_preimage(x, lbcs[x], pres) is None)
        records.append(_Image(img_nodes, theta[chosen], pres, chosen))
    return records


def well_structured_preimage(theta, record):
    """Descend from a pre-image to a well-structured one.

    While some body node's looping-back chart is a proper sub-chart mapping
    onto the same image, descend into it (least such node first).  The
    descent strictly shrinks, so it terminates; the result has no smaller
    pre-image of the same image inside it.
    """
    lbc = record.preimages[0]
    charts = all_looping_back_charts(lbc.witness)
    get, img_nodes = theta.mapping.__getitem__, record.image.nodes
    starts = [x for x, sub in charts.items() if frozenset(map(get, sub.nodes)) == img_nodes]
    x = lbc.start
    while (y := _smaller_preimage(x, charts[x].nodes, starts)) is not None:
        x = y
    return charts[x]


def loop_correspondence(theta, loop, start):
    """Trace a cycle of the target chart back through the map.

    ``loop`` is a cycle of ``theta.target`` given as transitions (each dst is
    the next src, the last closing to the first); ``start`` is a source node
    with ``theta(start)`` on the cycle.  Following the cycle's action labels
    from ``start`` and always moving to a node that maps to the next cycle
    node (least id when ambiguous) must eventually revisit a (node, cycle
    position) pair; the walk up to that point splits into a simple path ``S``
    and a loop ``D`` in the source chart whose image is the cycle's chart:
    ``θ(S ⊔ D) ≐ θ(D)``.  Returns ``(S, D)`` as transition tuples.  Raises
    :class:`ValueError` when ``loop`` is no cycle of the target or misses
    ``theta(start)``.
    """
    g = theta.source
    if start not in g.nodes:
        raise UnknownNode("unknown node %r" % (start,))
    n = len(loop)
    if n == 0:
        raise ValueError("empty cycle")
    for i, t in enumerate(loop):
        if t.terminal:
            raise ValueError("cycles contain no terminal transitions")
        if t not in theta.target.transitions:
            raise ValueError("%r is not a transition of the target chart" % (t,))
        if t.dst != loop[(i + 1) % n].src:
            raise ValueError("transitions do not form a cycle")
    offsets = [i for i, t in enumerate(loop) if t.src == theta(start)]
    if not offsets:
        raise ValueError("theta(start) does not lie on the cycle")
    phase = offsets[0]
    path = []
    seen = {}
    node = start
    while (node, phase) not in seen:
        seen[(node, phase)] = len(path)
        want = loop[phase]
        candidates = sorted(
            (
                t
                for t in g.out(node)
                if not t.terminal and t.action == want.action and theta(t.dst) == want.dst
            ),
            key=Transition.sort_key,
        )
        if not candidates:
            raise LemmaViolated(
                "no source transition mirrors %r from %s" % (want, node)
            )
        t = candidates[0]
        path.append(t)
        node = t.dst
        phase = (phase + 1) % n
    cut = seen[(node, phase)]
    return tuple(path[:cut]), tuple(path[cut:])


@record
class LemmaReport:
    """What :func:`check_lemma_conditions` reports; true when there are no violations."""

    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def check_lemma_conditions(theta, w):
    """Check the three image-wise elimination conditions.

    (1) every cycle of the target chart has its node set inside some image;
    (2) per image, every cycle inside it passes the chosen start or lies in a
    proper sub-image; (3) per image and *every* pre-image, the non-start
    nodes have no terminal transitions and no transitions leaving the image.
    Returns a :class:`LemmaReport`; preconditions are as for :func:`images`.
    """
    return _lemma_report(theta, images(theta, w))


def _lemma_report(theta, hierarchy):
    """:func:`check_lemma_conditions` on an already computed hierarchy."""
    h = theta.target
    violations = []
    cycles = simple_cycles(h)
    node_sets = [frozenset(t.src for t in cyc) for cyc in cycles]
    for cyc, ns in zip(cycles, node_sets):
        if not any(ns <= rec.image.nodes for rec in hierarchy.records):
            violations.append(("1", "cycle %s lies in no image" % (list(cyc),)))
    for rec in hierarchy.records:
        subs = hierarchy.proper_subimages(rec)
        for cyc, ns in zip(cycles, node_sets):
            if not ns <= rec.image.nodes:
                continue
            if rec.start in ns:
                continue
            if any(ns <= sub.image.nodes for sub in subs):
                continue
            violations.append(
                (
                    "2",
                    "cycle %s in image {%s} misses the start %s"
                    % (list(cyc), ", ".join(sorted(rec.image.nodes)), rec.start),
                )
            )
    for rec in hierarchy.records:
        for pre in rec.preimages:
            s = theta(pre.start)
            for u in sorted(rec.image.nodes - {s}):
                if h.terminal_actions(u):
                    violations.append(
                        (
                            "3",
                            "non-start node %s of image {%s} has a terminal transition"
                            % (u, ", ".join(sorted(rec.image.nodes))),
                        )
                    )
                for t in h.out(u):
                    if not t.terminal and t.dst not in rec.image.nodes:
                        violations.append(
                            (
                                "3",
                                "transition %r escapes image {%s}"
                                % (t, ", ".join(sorted(rec.image.nodes))),
                            )
                        )
    return LemmaReport(not violations, tuple(violations))


def collapse_lee_witness(theta, w):
    """Build an elimination witness on the collapse from the images.

    The preconditions of :func:`images` are checked.  Images are processed
    in sub-image order (smallest node sets first, ties broken
    deterministically); each still-cyclic image remnant is eliminated at its
    record's start with the entries into the image, and the chart is garbage
    collected against the usual roots.  The result is checked to replay to a
    chart without infinite paths (:class:`LemmaViolated` otherwise).  By the
    paper's theorem it is layered as well, and
    :func:`lleekit.lee.lee_to_llee` layers a witness that is not.
    """
    _check_preconditions(theta, w)
    return _reflect(theta, w)[1]


def _reflect(theta, w):
    """The images of ``w`` under ``theta``, as :func:`_images` gives them,
    and the witness :func:`_reflect_witness` builds from them on the
    collapse.  The caller vouches for the preconditions of
    :func:`images`."""
    h = theta.target
    records = _images([h.ids[theta(x)] for x in w.chart.names], w._loops[2])
    return records, _reflect_witness(h, records)


def _reflect_witness(c, records):
    """The image-wise elimination on the collapse ``c``: the one reflection
    of lleekit.

    ``records`` are ``(nodes, start, ...)`` tuples of ids, as
    :class:`_Image` is.  Returns the :class:`~lleekit.lee.Witness` on ``c``
    that numbers each step's entries with the step's number (0 on every
    other transition).  The run is that witness's replay: each step is
    one order number with one start, taken on the same graph in the same
    order as :func:`lleekit.lee._replay` takes it
    (:meth:`lleekit.chart._Graph.step`), and a cycle left at the end raises
    :class:`LemmaViolated`.  So the run is recorded as the witness's
    replay, and the witness is not replayed again.
    """
    g = _Graph(c, _roots(c))
    dst = c.dst

    def shown(img_nodes):
        return ", ".join(c.names[v] for v in sorted(img_nodes))

    order = sorted(records, key=lambda r: (len(r[0]), r[1], tuple(sorted(r[0]))))
    for img_nodes, s, *_ in order:
        if not g.has_cycle(within=img_nodes):
            continue
        if s not in g.nodes:
            raise LemmaViolated(
                "image {%s} still has cycles but its start %s was collected"
                % (shown(img_nodes), c.names[s])
            )
        entries = [k for k in g.out(s) if dst[k] in img_nodes]
        if not entries:
            raise LemmaViolated(
                "image {%s} still has cycles but no entries remain at %s"
                % (shown(img_nodes), c.names[s])
            )
        if g.step(len(g.steps) + 1, s, entries) is None:
            raise LemmaViolated(
                "entries at %s do not span a loop sub-chart of the remaining chart"
                % c.names[s]
            )
    if g.has_cycle():
        raise LemmaViolated("cycles survive after eliminating every image")
    return _witness_of(g)
