"""Solving charts by expressions, and deciding expression equivalence.

A chart induces one equation per node: the node equals the sum of
``action . successor`` for its transitions (plain ``action`` for terminal
ones).  A *solution* assigns every node an expression whose interpretation
is bisimilar to the chart rooted at that node.

With a layered witness in hand the solution can be read off directly: a
node with positive entries denotes ``loop ⊛ exits`` where ``loop`` collects
the entry round trips (recursing only through body transitions, which by
layering never reach a terminal or re-enter positively) and ``exits``
collects everything else.  Nodes without entries denote their exits alone.

:func:`equiv` decides bisimilarity of two expressions and, when they are
equivalent, packages the evidence: the common collapse, the two maps onto
it, a layered witness for the collapse, and the collapse's extracted
solution.  The witness needs no search: the first expression's chart
carries a layered witness by construction
(:func:`lleekit.lee.expression_witness`, read off while the chart is
explored), and reflecting it through the first map
(:func:`lleekit.reflect.collapse_lee_witness`) gives a witness on the
collapse that is layered as well, which is checked, not repaired.  The
pipeline is: interpret with witness, joint collapse, reflection, layering
check, extraction, solution check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bisim import BisimMap, _disjoint_union, _refine, bisimilarity_partition
from .chart import Chart, TERMINATION, Transition, _explore, _interpret, interpret
from .errors import InternalError, NotLLEE
from .expr import Action, Expression, Plus, Seq, Star, Zero, unparse
from .lee import Witness, _height_witness, is_llee_witness
from .reflect import collapse_lee_witness

__all__ = [
    "EquationSystem",
    "equation_system",
    "Solution",
    "extract_solution",
    "solution_check",
    "is_axiom_instance",
    "Certificate",
    "Distinction",
    "EquivResult",
    "equiv",
]


def _sum(parts):
    """Combine expressions with ``+``, left-associated; empty sums are 0."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return Zero()
    acc = parts[0]
    for p in parts[1:]:
        acc = Plus(acc, p)
    return acc


@dataclass(frozen=True)
class _NodeVar:
    """Stand-in for a node on an equation's right-hand side.

    Node ids are free-form strings, so they cannot in general be read as
    actions; equations use this marker purely for display.
    """

    name: str

    def __str__(self):
        return "<%s>" % self.name


def _format_rhs(e):
    # Right-hand sides only ever nest as sums of (prefixed) node markers and
    # actions, so no parentheses are needed.
    if isinstance(e, _NodeVar):
        return str(e)
    if isinstance(e, Plus):
        return "%s + %s" % (_format_rhs(e.left), _format_rhs(e.right))
    if isinstance(e, Seq):
        return "%s.%s" % (_format_rhs(e.left), _format_rhs(e.right))
    return unparse(e)


@dataclass(frozen=True)
class EquationSystem:
    """Per-node equations ``X = Σ a_i . Y_i + Σ b_j`` read off a chart."""

    chart: Chart
    right: dict

    def __str__(self):
        lines = []
        for x in sorted(self.right):
            lines.append("%s = %s" % (x, _format_rhs(self.right[x])))
        return "\n".join(lines)


def equation_system(chart):
    """The defining equation of every node of ``chart``.

    Transitions are taken in sorted order, terminal summands last, so the
    right-hand sides are deterministic.
    """
    right = {}
    for x in sorted(chart.nodes):
        summands = []
        for t in chart.out(x):
            if not t.terminal:
                summands.append(Seq(Action(t.action), _NodeVar(t.dst)))
        for t in chart.out(x):
            if t.terminal:
                summands.append(Action(t.action))
        right[x] = _sum(summands)
    return EquationSystem(chart, right)


@dataclass(frozen=True)
class Solution:
    """An expression per node, each bisimilar to the chart from that node."""

    chart: Chart
    assign: dict

    def __getitem__(self, node):
        return self.assign[node]

    def initial_expression(self):
        if self.chart.initial is None:
            raise ValueError("chart has no initial node")
        return self.assign[self.chart.initial]


def extract_solution(w):
    """Read a solution off a layered witness.

    For each node ``X``: if ``X`` has positive entries the solution is
    ``ℓ(X) ⊛ exits(X)``, else just ``exits(X)`` — where ``exits(X)`` sums
    ``b . s(W)`` over body transitions and the terminal actions, and
    ``ℓ(X)`` sums per entry ``X -a-> Y`` either ``a`` (if ``Y ≡ X``) or
    ``a . r(X, Y)``, with ``r`` following body transitions of the loop until
    they return to ``X``.  Layering bounds both recursions: ``s`` descends
    along the elimination order and ``r`` stays inside one loop's body,
    which loops back strictly below ``X``.  Raises :class:`NotLLEE` for
    non-layered witnesses.
    """
    if not is_llee_witness(w):
        raise NotLLEE("solution extraction needs a layered witness")
    chart = w.chart
    memo = {}
    in_progress = set()

    def entries(x):
        return [t for t in chart.out(x) if not t.terminal and w.order[t] > 0]

    def body_out(x):
        return [t for t in chart.out(x) if not t.terminal and w.order[t] == 0]

    def s(x):
        if x in memo:
            return memo[x]
        if x in in_progress:
            raise InternalError("solution recursion revisits %s" % x)
        in_progress.add(x)
        ent = entries(x)
        ex = exits(x)
        result = Star(loop_expr(x), ex) if ent else ex
        in_progress.discard(x)
        memo[x] = result
        return result

    def exits(x):
        summands = []
        for t in body_out(x):
            summands.append(Seq(Action(t.action), s(t.dst)))
        for a in sorted(chart.terminal_actions(x)):
            summands.append(Action(a))
        return _sum(summands)

    def loop_expr(x):
        summands = []
        for t in entries(x):
            if t.dst == x:
                summands.append(Action(t.action))
            else:
                summands.append(Seq(Action(t.action), ret_expr(x, t.dst)))
        return _sum(summands)

    def ret_expr(x, y):
        inner = ret_sum(x, y)
        if entries(y):
            return Star(loop_expr(y), inner)
        return inner

    def ret_sum(x, y):
        if chart.terminal_actions(y):
            raise InternalError(
                "body node %s of the loop at %s has a terminal transition" % (y, x)
            )
        summands = []
        for t in body_out(y):
            if t.dst == x:
                summands.append(Action(t.action))
            else:
                summands.append(Seq(Action(t.action), ret_expr(x, t.dst)))
        return _sum(summands)

    assign = {x: s(x) for x in sorted(chart.nodes)}
    return Solution(chart, assign)


def solution_check(sol, cap=None):
    """Verify a solution: every assigned expression unfolds bisimilarly.

    All assigned expressions are explored together, in one exploration
    that shares their common states, and refined once together with the
    solution's chart, over integer ids: state ``i`` of the exploration is
    id ``i``, and the chart's nodes, sorted, follow.  No state is printed
    and no chart is built for the exploration.  A node fails when its
    expression's state and the node itself fall into different
    bisimilarity classes.  Returns the sorted list of failing nodes (empty
    means the solution is correct).  Raises :class:`StateExplosion` if the
    joint exploration exceeds ``cap`` states.
    """
    nodes = sorted(sol.chart.nodes)
    _, root_idx, states, transitions = _explore(
        [sol.assign[x] for x in nodes],
        cap,
        lambda root: "checking a solution of %d nodes" % len(nodes),
    )
    node_idx = {x: i for i, x in enumerate(nodes, start=len(states))}
    outmap = [[] for _ in range(len(states) + len(nodes))]
    term = [set() for _ in outmap]
    for src, action, dst, _ in transitions:
        if dst is TERMINATION:
            term[src].add(action)
        else:
            outmap[src].append((action, dst))
    for t in sol.chart.transitions:
        src = node_idx[t.src]
        if t.terminal:
            term[src].add(t.action)
        else:
            outmap[src].append((t.action, node_idx[t.dst]))
    block = _refine(range(len(outmap)), outmap, [frozenset(a) for a in term])
    return [x for x, r in zip(nodes, root_idx) if block[r] != block[node_idx[x]]]


_AXIOM_SCHEMATA = (
    # e1 + e2 = e2 + e1
    ("A1", lambda a, b: isinstance(a, Plus) and b == Plus(a.right, a.left)),
    # (e1 + e2) + e3 = e1 + (e2 + e3)
    (
        "A2",
        lambda a, b: isinstance(a, Plus)
        and isinstance(a.left, Plus)
        and b == Plus(a.left.left, Plus(a.left.right, a.right)),
    ),
    # e + e = e
    ("A3", lambda a, b: isinstance(a, Plus) and a.left == a.right and b == a.left),
    # (e1 + e2) . e3 = e1 . e3 + e2 . e3
    (
        "A4",
        lambda a, b: isinstance(a, Seq)
        and isinstance(a.left, Plus)
        and b == Plus(Seq(a.left.left, a.right), Seq(a.left.right, a.right)),
    ),
    # (e1 . e2) . e3 = e1 . (e2 . e3)
    (
        "A5",
        lambda a, b: isinstance(a, Seq)
        and isinstance(a.left, Seq)
        and b == Seq(a.left.left, Seq(a.left.right, a.right)),
    ),
    # e + 0 = e
    ("A6", lambda a, b: isinstance(a, Plus) and isinstance(a.right, Zero) and b == a.left),
    # 0 . e = 0
    ("A7", lambda a, b: isinstance(a, Seq) and isinstance(a.left, Zero) and b == Zero()),
    # e1 * e2 = e1 . (e1 * e2) + e2
    ("A8", lambda a, b: isinstance(a, Star) and b == Plus(Seq(a.left, a), a.right)),
    # (e1 * e2) . e3 = e1 * (e2 . e3)
    (
        "A9",
        lambda a, b: isinstance(a, Seq)
        and isinstance(a.left, Star)
        and b == Star(a.left.left, Seq(a.left.right, a.right)),
    ),
    # fixed-point rule, read as the pair (e1 . X + e2, X) with X = e1 * e2:
    # the conclusion substituted into the premise
    ("R1", lambda a, b: isinstance(b, Star) and a == Plus(Seq(b.left, b), b.right)),
)


def is_axiom_instance(lhs, rhs):
    """Name of the first axiom schema that ``lhs = rhs`` instantiates.

    Matching is oriented structural pattern matching — the pair must fit a
    schema left-to-right — and the schemata are tried in a fixed order, so
    e.g. ``a*b = a.(a*b)+b`` names the star-unfolding axiom while the
    reversed pair names the fixed-point rule.  Returns ``None`` when no
    schema fits (in particular, plain reflexivity is not an axiom).
    """
    for name, fits in _AXIOM_SCHEMATA:
        if fits(lhs, rhs):
            return name
    return None


@dataclass(frozen=True)
class Certificate:
    """Evidence that two expressions are bisimilar.

    ``collapse`` is the joint collapse of both interpretations; ``map1`` and
    ``map2`` are the bisimulation functions from each interpretation onto
    it; ``witness`` is a layered witness for the collapse, obtained by
    reflecting the witness read off the first expression
    (:func:`lleekit.lee.expression_witness`) through ``map1``, and checked
    to replay layered; ``solution`` solves the collapse, and ``expression``
    is the solution's value at the collapse's initial node — an expression
    provably equal to both inputs.
    """

    collapse: Chart
    map1: BisimMap
    map2: BisimMap
    witness: Witness
    solution: Solution
    expression: Expression


@dataclass(frozen=True)
class Distinction:
    """Evidence that two expressions are not bisimilar.

    The two interpretations' initial nodes fall into different blocks of the
    bisimilarity partition of the disjoint union; the blocks are recorded
    (node ids carry their ``g:`` / ``h:`` side prefix).
    """

    block1: frozenset
    block2: frozenset


@dataclass(frozen=True)
class EquivResult:
    equal: bool
    chart1: Chart
    chart2: Chart
    certificate: object = None
    distinction: object = None

    def __bool__(self):
        return self.equal


def _joint_collapse(g, h, union, part):
    """Collapse the disjoint union of two rooted charts.

    ``union`` is ``_disjoint_union(g, h)`` and ``part`` its bisimilarity
    partition.  Returns ``(H, theta1, theta2)`` where ``H`` is the union
    quotient restricted to what the initial class reaches, rooted there,
    and the two maps send each side's nodes to their class representatives.
    """
    rep = {}
    for block in part.blocks:
        r = min(block)
        for v in block:
            rep[v] = r
    init = rep["g:" + g.initial]
    q_transitions = sorted(
        {
            Transition(rep[t.src], t.action, TERMINATION if t.terminal else rep[t.dst])
            for t in union.transitions
        },
        key=Transition.sort_key,
    )
    full = Chart(q_transitions, nodes=set(rep.values()))
    keep = full.reachable([init])
    restricted = Chart(
        [t for t in q_transitions if t.src in keep],
        nodes=keep,
        initial=init,
    )
    strip = {v: v.split(":", 1)[1] for v in union.nodes}
    theta1 = BisimMap(g, restricted, {strip[v]: rep[v] for v in union.nodes if v.startswith("g:")})
    theta2 = BisimMap(h, restricted, {strip[v]: rep[v] for v in union.nodes if v.startswith("h:")})
    return restricted, theta1, theta2


def _check_layered(w, what):
    rep = w.replay()
    if not (rep.ok and rep.llee):
        raise InternalError(
            "%s is not a layered witness: %s" % (what, rep.reason or rep.llee_reason)
        )


def equiv(e1, e2, cap=None):
    """Decide bisimilarity of two expressions, with evidence either way.

    Both expressions are interpreted, the first together with the layered
    witness its chart carries by construction
    (:func:`lleekit.lee.expression_witness`).  If the initial nodes are
    bisimilar, the joint collapse is built, that witness is reflected
    through the first chart's map into a witness on the collapse, the
    reflection is checked to be layered, and a solution is extracted,
    checked and returned in a :class:`Certificate`.  No witness is searched
    for and none is re-layered: a witness that fails to replay layered is an
    :class:`InternalError`.  Otherwise the separating partition blocks are
    returned in a :class:`Distinction`.
    """
    g, heights = _interpret(e1, cap=cap)
    h = interpret(e2, cap=cap)
    union = _disjoint_union(g, h)
    part = bisimilarity_partition(union)
    block1 = part.block_of("g:" + g.initial)
    block2 = part.block_of("h:" + h.initial)
    if block1 != block2:
        return EquivResult(False, g, h, distinction=Distinction(block1, block2))
    collapse, theta1, theta2 = _joint_collapse(g, h, union, part)
    w1 = _height_witness(g, heights)
    _check_layered(w1, "the expression's witness")
    w_h = collapse_lee_witness(theta1, w1)
    _check_layered(w_h, "the reflected witness")
    sol = extract_solution(w_h)
    bad = solution_check(sol, cap=cap)
    if bad:
        raise InternalError("extracted solution fails at %s" % ", ".join(bad))
    return EquivResult(
        True,
        g,
        h,
        certificate=Certificate(
            collapse=collapse,
            map1=theta1,
            map2=theta2,
            witness=w_h,
            solution=sol,
            expression=sol.initial_expression(),
        ),
    )
