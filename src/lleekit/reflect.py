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
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisim import bisimilarity_partition
from .chart import Transition, chart_of_nodes, simple_cycles
from .errors import LemmaViolated, NotCollapse, NotLLEE, UnknownNode
from .lee import (
    Witness,
    _Graph,
    _witness_roots,
    all_looping_back_charts,
    is_llee_witness,
)

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _smaller_preimage(theta, lbc, img_nodes, lbcs):
    """A proper looping-back sub-chart of ``lbc`` at a body node (least
    first) with image ``img_nodes``; ``None`` if ``lbc`` is well-structured."""
    for y in sorted(lbc.body):
        sub = lbcs.get(y)
        if (
            sub is not None
            and sub.nodes < lbc.nodes
            and frozenset(theta(v) for v in sub.nodes) == img_nodes
        ):
            return sub
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
    return _images(theta, w)


def _images(theta, w):
    """:func:`images` for a caller that vouches for its preconditions."""
    lbcs = all_looping_back_charts(w)
    grouped = {}
    for x in sorted(lbcs):
        lbc = lbcs[x]
        img_nodes = frozenset(theta(v) for v in lbc.nodes)
        grouped.setdefault(img_nodes, []).append(lbc)
    records = []
    for img_nodes in sorted(grouped, key=lambda s: (len(s), tuple(sorted(s)))):
        pres = tuple(grouped[img_nodes])
        wsps = [p for p in pres if _smaller_preimage(theta, p, img_nodes, lbcs) is None]
        if not wsps:
            raise LemmaViolated(
                "no well-structured pre-image for image {%s}" % ", ".join(sorted(img_nodes))
            )
        chosen = min(wsps, key=lambda p: p.start)
        start = theta(chosen.start)
        records.append(
            ImageRecord(
                image=chart_of_nodes(theta.target, img_nodes, start=start),
                start=start,
                preimages=pres,
                well_structured=chosen,
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


def well_structured_preimage(theta, record):
    """Descend from a pre-image to a well-structured one.

    While some body node's looping-back chart is a proper sub-chart mapping
    onto the same image, descend into it (least such node first).  The
    descent strictly shrinks, so it terminates; the result has no smaller
    pre-image of the same image inside it.
    """
    lbc = record.preimages[0]
    lbcs = all_looping_back_charts(lbc.witness)
    while (smaller := _smaller_preimage(theta, lbc, record.image.nodes, lbcs)) is not None:
        lbc = smaller
    return lbc


def loop_correspondence(theta, loop, start):
    """Trace a cycle of the target chart back through the map.

    ``loop`` is a cycle of ``theta.target`` given as transitions (each dst is
    the next src, the last closing to the first); ``start`` is a source node
    with ``theta(start)`` on the cycle.  Following the cycle's action labels
    from ``start`` and always moving to a node that maps to the next cycle
    node (least id when ambiguous) must eventually revisit a (node, cycle
    position) pair; the walk up to that point splits into a simple path ``S``
    and a loop ``D`` in the source chart whose image is the cycle's chart:
    ``θ(S ⊔ D) ≐ θ(D)``.  Returns ``(S, D)`` as transition tuples.
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


@dataclass(frozen=True)
class LemmaReport:
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
    """Build an elimination witness on the collapse from the image hierarchy.

    Requires the lemma conditions (:class:`LemmaViolated` otherwise).  Images
    are processed in sub-image order (smallest node sets first, ties broken
    deterministically); each still-cyclic image remnant is eliminated at its
    record's start with the entries into the image, and the chart is garbage
    collected against the usual roots.  The resulting witness replays to a
    chart without infinite paths.  By the paper's theorem it is layered as
    well, and :func:`lleekit.lee.lee_to_llee` layers a witness that is not.
    The preconditions of :func:`images` and the lemma report are checked;
    :func:`lleekit.solve.equiv`, which vouches for its own map, skips both.
    """
    hierarchy = images(theta, w)
    report = _lemma_report(theta, hierarchy)
    if not report.ok:
        raise LemmaViolated("; ".join(msg for _, msg in report.violations))
    return _reflect_witness(theta, hierarchy)


def _reflect_witness(theta, hierarchy):
    """:func:`collapse_lee_witness` on a hierarchy, with no lemma report."""
    h = theta.target
    g = _Graph(h, _witness_roots(h))
    order = sorted(
        hierarchy.records,
        key=lambda r: (len(r.image.nodes), r.start, tuple(sorted(r.image.nodes))),
    )
    labels = {t: 0 for t in h.transitions if not t.terminal}
    step = 0
    for rec in order:
        if not g.has_cycle(within=rec.image.nodes):
            continue
        s = rec.start
        if s not in g.nodes:
            raise LemmaViolated(
                "image {%s} still has cycles but its start %s was collected"
                % (", ".join(sorted(rec.image.nodes)), s)
            )
        entries = tuple(
            t
            for t in g.out(s)
            if not t.terminal and t.dst in rec.image.nodes
        )
        if not entries:
            raise LemmaViolated(
                "image {%s} still has cycles but no entries remain at %s"
                % (", ".join(sorted(rec.image.nodes)), s)
            )
        body = g.span(s, entries)
        if body is None:
            raise LemmaViolated(
                "entries at %s do not span a loop sub-chart of the remaining chart" % s
            )
        step += 1
        for t in entries:
            labels[t] = step
        g.remove(s, entries, body)
    if g.has_cycle():
        raise LemmaViolated("cycles survive after eliminating every image")
    result = Witness(h, labels)
    rep = result.replay()
    if not rep.ok:
        raise LemmaViolated("image-wise elimination does not replay: %s" % rep.reason)
    return result
