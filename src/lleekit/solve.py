"""Solving charts by expressions, and deciding expression equivalence.

A chart induces one equation per node: the node equals the sum of
``action . successor`` for its transitions (plain ``action`` for terminal
ones).  A *solution* assigns every node an expression whose interpretation
is bisimilar to the chart rooted at that node.

With a layered witness in hand the solution can be read off directly: a
node with positive entries denotes ``loop ⊛ exits`` where ``loop`` collects
the entry round trips (following only body transitions, which by
layering never reach a terminal or re-enter positively) and ``exits``
collects everything else.  Nodes without entries denote their exits alone.

:func:`equiv` decides bisimilarity of two expressions on the state ids of
their explorations: the verdict needs no chart and no printed state.  When
they are not equivalent it names only the members of the two blocks it
prints.  When they are, it builds both charts and packages the evidence:
the common collapse, the two maps onto it, a layered witness for the
collapse, and the collapse's extracted solution.  The witness needs no
search: the first expression's chart carries a layered witness by
construction (:func:`lleekit.lee.expression_witness`), and reflecting it
through the first map gives a witness on the collapse that is layered as
well, which is checked, not repaired.  The pipeline runs each step once:
explore with witness labels, one joint refinement (verdict and collapse),
charts, reflection, layering check, extraction, solution check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bisim import BisimMap, _explored_tables, _quotient, _refine, _tables
from .chart import Chart, _explore, _interpreting, _named_chart, interpret
from .errors import InternalError, InvalidWitness, LemmaViolated, NotABisimulation, NotLLEE
from .expr import Action, Expression, Plus, Seq, Star, Zero, unparse
from .lee import Witness, _height_witness, is_llee_witness
from .reflect import _images, _reflect_witness

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

    One rule builds every expression.  ``f(Y, X)`` solves ``Y`` inside the
    loop at ``X`` (``X`` is ``None`` outside any loop): it sums ``b`` for a
    body transition ``Y -b-> X``, ``b . f(W, X)`` for any other body
    transition ``Y -b-> W``, and, when ``X`` is ``None``, ``Y``'s terminal
    actions in sorted order.  When ``Y`` has positive entries that sum ``S``
    becomes ``ℓ(Y) ⊛ S``, where ``ℓ(Y)`` sums ``a`` for an entry ``Y -a->
    Y`` and ``a . f(Z, Y)`` for an entry ``Y -a-> Z``.  Node ``X``'s
    solution is ``f(X, None)``.  Layering bounds the rule: outside loops it
    descends along the elimination order, and inside the loop at ``X`` it
    follows body transitions, which loop back to ``X`` and reach no
    terminal.  Each pair is built once, children first, from an explicit
    stack, so equal sub-solutions are one object and a long chart does not
    hit the recursion limit.  Raises :class:`NotLLEE` for non-layered
    witnesses.
    """
    if not is_llee_witness(w):
        raise NotLLEE("solution extraction needs a layered witness")
    chart = w.chart
    body, entries, terminals = {}, {}, {}
    for x in chart.nodes:
        body[x] = [t for t in chart.out(x) if not t.terminal and w.order[t] == 0]
        entries[x] = [t for t in chart.out(x) if not t.terminal and w.order[t] > 0]
        terminals[x] = sorted(chart.terminal_actions(x))

    def needs(y, x):
        """The pairs ``f(y, x)`` is built from, in the order it uses them."""
        return [(t.dst, x) for t in body[y] if t.dst != x] + [
            (t.dst, y) for t in entries[y] if t.dst != y
        ]

    def summands(ts, x):
        return [
            Action(t.action) if t.dst == x else Seq(Action(t.action), f[t.dst, x]) for t in ts
        ]

    f = {}
    in_progress = set()
    stack = [(x, None) for x in sorted(chart.nodes, reverse=True)]
    while stack:
        pair = stack[-1]
        y, x = pair
        if pair in f:
            stack.pop()
        elif pair not in in_progress:
            if x is not None and terminals[y]:
                raise InternalError(
                    "body node %s of the loop at %s has a terminal transition" % (y, x)
                )
            in_progress.add(pair)
            for dep in reversed(needs(y, x)):
                if dep in in_progress:
                    raise InternalError("solution recursion revisits %s" % dep[0])
                if dep not in f:
                    stack.append(dep)
        else:
            stack.pop()
            in_progress.discard(pair)
            rest = [Action(a) for a in terminals[y]] if x is None else []
            result = _sum(summands(body[y], x) + rest)
            if entries[y]:
                result = Star(_sum(summands(entries[y], y)), result)
            f[pair] = result
    return Solution(chart, {x: f[x, None] for x in sorted(chart.nodes)})


def solution_check(sol, cap=None):
    """Verify a solution: every assigned expression unfolds bisimilarly.

    All assigned expressions are explored together, in one exploration
    that shares their common states, and refined once together with the
    solution's chart, over integer ids: state ``i`` of the exploration is
    id ``i``, and the chart's nodes follow.  No state is printed
    and no chart is built for the exploration.  A node fails when its
    expression's state and the node itself fall into different
    bisimilarity classes.  Returns the sorted list of failing nodes (empty
    means the solution is correct).  Raises :class:`StateExplosion` if the
    joint exploration exceeds ``cap`` states.
    """
    nodes = sorted(sol.chart.nodes)
    exploration = _explore(
        [sol.assign[x] for x in nodes],
        cap,
        lambda root: "checking a solution of %d nodes" % len(nodes),
    )
    root_idx = exploration[1]
    outmap, term = [], []
    _explored_tables(exploration, outmap, term)
    node_idx = _tables(sol.chart, outmap, term)
    block = _refine(outmap, term)
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

    ``collapse`` is the joint collapse of both interpretations (node ids
    ``g:`` + least merged node of the first); ``map1`` and ``map2`` are the
    bisimulation functions from each interpretation onto it; ``witness`` is
    a layered witness for the collapse, obtained by
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

    The two expressions' initial states fall into different blocks of the
    bisimilarity partition of their two explorations, refined side by side
    on state ids (there is no union chart).  The blocks are recorded as
    node ids with a ``g:`` / ``h:`` side prefix; only their members are
    printed, after refinement, each on its own.
    """

    block1: frozenset
    block2: frozenset


@dataclass(frozen=True)
class EquivResult:
    """The verdict of :func:`equiv`, with its evidence.

    ``chart1`` and ``chart2`` are the interpretations of the two
    expressions.  They are built on first access and cached: an EQUAL
    verdict has built them for its certificate (they are the sources of
    its two maps), and a NOT_EQUAL verdict needs neither, so it interprets
    the expressions again only when asked.
    """

    equal: bool
    certificate: object = None
    distinction: object = None
    # (e1, e2, cap): what a NOT_EQUAL's charts are built from on demand
    _inputs: tuple = field(default=(), repr=False, compare=False)

    def __bool__(self):
        return self.equal

    @cached_property
    def chart1(self):
        if self.certificate is not None:
            return self.certificate.map1.source
        e1, _, cap = self._inputs
        return interpret(e1, cap)

    @cached_property
    def chart2(self):
        if self.certificate is not None:
            return self.certificate.map2.source
        _, e2, cap = self._inputs
        return interpret(e2, cap)


def _block(b, block, sides):
    """The members of block ``b`` of both explorations, named with their
    side; ``sides`` pairs each prefix with its exploration and id offset."""
    members = []
    for prefix, (space, _, states, _), offset in sides:
        for i, state in enumerate(states, start=offset):
            if block[i] == b:
                members.append(prefix + space.name_one(state))
    return frozenset(members)


def _check_layered(w, what):
    rep = w.replay()
    if not (rep.ok and rep.llee):
        raise InternalError(
            "%s is not a layered witness: %s" % (what, rep.reason or rep.llee_reason)
        )


def equiv(e1, e2, cap=None):
    """Decide bisimilarity of two expressions, with evidence either way.

    Both expressions are explored, the first together with the loop labels
    of the layered witness its chart carries by construction
    (:func:`lleekit.lee.expression_witness`), and the two explorations are
    refined once, side by side, on their state ids.  Initial states in
    different blocks give a :class:`Distinction` of the two blocks, which
    names only their members; no chart is built.  Otherwise both
    explorations are named and built into charts, the collapse is the
    quotient of the first chart alone (every class the initial class
    reaches holds one of its nodes), the witness is reflected onto it and
    checked to be layered, and a solution is extracted, checked and
    returned in a :class:`Certificate`.  The collapse is not refined again
    and no lemma report is computed.  A failed invariant on the way is an
    :class:`InternalError`.
    """
    x1 = _explore([e1], cap, _interpreting, labelled=True)
    x2 = _explore([e2], cap, _interpreting)
    outmap, term = [], []
    _explored_tables(x1, outmap, term)
    offset = _explored_tables(x2, outmap, term)
    block = _refine(outmap, term)
    # an exploration's second item lists its roots' state indices
    b1 = block[x1[1][0]]
    b2 = block[offset + x2[1][0]]
    if b1 != b2:
        sides = (("g:", x1, 0), ("h:", x2, offset))
        distinction = Distinction(_block(b1, block, sides), _block(b2, block, sides))
        return EquivResult(False, distinction=distinction, _inputs=(e1, e2, cap))
    g_names, g, heights = _named_chart(x1)
    h_names, h, _ = _named_chart(x2)
    # the charts hold all that is left to do; free the explorations
    del x1, x2, outmap, term
    least = {}
    for i, x in enumerate(g_names):
        b = block[i]
        if b not in least or x < least[b]:
            least[b] = x
    name = {b: "g:" + x for b, x in least.items()}
    try:
        collapse, theta1 = _quotient(g, {x: name[block[i]] for i, x in enumerate(g_names)})
        theta2 = BisimMap(
            h, collapse, {y: name[block[j]] for j, y in enumerate(h_names, start=offset)}
        )
        w1 = _height_witness(g, heights)
        _check_layered(w1, "the expression's witness")
        w_h = _reflect_witness(theta1, _images(theta1, w1))
        _check_layered(w_h, "the reflected witness")
        sol = extract_solution(w_h)
    except (InvalidWitness, LemmaViolated, NotABisimulation, NotLLEE) as exc:
        raise InternalError("building the certificate failed: %s" % exc) from exc
    bad = solution_check(sol, cap=cap)
    if bad:
        raise InternalError("extracted solution fails at %s" % ", ".join(bad))
    return EquivResult(
        True,
        certificate=Certificate(
            collapse=collapse,
            map1=theta1,
            map2=theta2,
            witness=w_h,
            solution=sol,
            expression=sol.initial_expression(),
        ),
    )
