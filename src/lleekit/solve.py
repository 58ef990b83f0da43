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
Where the paths from a node re-join, the expression is factored at the
join, reading BBP's axioms A4, A5 and A9 right to left, so the part after
the join is written once, and a sum that unfolds a star is folded back
into the star by A8 (:func:`extract_solution`).

:func:`equiv` decides bisimilarity of two expressions on the state ids of
their explorations: the verdict needs no chart and no printed state.  When
they are not equivalent it names only the members of the two blocks it
prints.  When they are, the whole EQUAL pipeline runs on ids as well and
names no state: it numbers the first expression's states in the order
the exploration found them, and derives the evidence on those numbers:
the common collapse, numbered by each class's first state in that order,
the two maps onto it, a layered witness for the collapse, and a solution
of it.  The :class:`Certificate` names them when they are read.  The
witness needs no search: the first expression's chart carries a layered
witness by construction (:func:`lleekit.lee.expression_witness`).

When no two nodes of that chart are bisimilar, the chart is its own
collapse: its witness is the collapse's, and the expressions its states
stand for (:func:`lleekit.chart._state_expressions`), the initial node
the first expression itself, are the solution (Milner, JCSS 1984;
Grabmayer & Fokkink, LICS 2020).  Otherwise reflecting the witness
through the first map gives a witness on the collapse that is layered as
well, which is checked, not repaired, and a solution is extracted from
it.  The pipeline runs each step once: explore with witness labels, one
joint refinement (verdict and collapse), the transfer check of both
maps, replay, then, off the shortcut, images, reflection, replay and
extraction, and last the solution check.  The solution check (:func:`_provable_check`) proves each
node's equation in BBP on canonical forms, with no exploration and no
refinement, so an EQUAL refines once and its check does not lean on the
refiner that gave the verdict.  The :class:`Certificate` holds the
collapse, witness and solution it computed, and names them, by one
renumbering in name order, when they are read; its two maps are built when
they are read.  :func:`solution_check` stays the general check of any
assignment.
"""

from __future__ import annotations

from functools import cached_property, partial

from ._record import record
from .bisim import BisimMap, _index_tables, _quotient, _refine
from .chart import (
    TERMINATION,
    Chart,
    _collection_paused,
    _explore,
    _explored_chart,
    _interpreting,
    _named,
    _state_cap,
    _state_expressions,
    interpret,
)
from .errors import (
    InternalError,
    InvalidWitness,
    LemmaViolated,
    NotABisimulation,
    NotLLEE,
    StateExplosion,
)
from .expr import Action, Plus, Seq, Star, Zero, _action, _flatten, _node, _unflatten
from .lee import Witness, is_llee_witness

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


def _format_rhs(summands):
    # an empty sum is 0, and no summand needs parentheses
    parts = [a if d is TERMINATION else "%s.<%s>" % (a, d) for a, d in summands]
    return " + ".join(parts) or "0"


@record
class EquationSystem:
    """Per-node equations ``X = Σ a_i . Y_i + Σ b_j`` read off a chart.

    ``right`` maps every node to its right-hand side, a tuple of
    ``(action, dst)`` summands in printing order, ``dst`` a node id or
    :data:`~lleekit.chart.TERMINATION`.  Node ids are free-form strings,
    so they cannot in general be read as actions: a summand ``a . Y`` is
    printed ``a.<Y>``, and the equations are for display only.
    """

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
        out = chart.out(x)
        right[x] = tuple(
            [(t.action, t.dst) for t in out if not t.terminal]
            + [(t.action, t.dst) for t in out if t.terminal]
        )
    return EquationSystem(chart, right)


@record
class Solution:
    """An expression per node, each bisimilar to the chart from that node.

    ``chart`` is a :class:`Chart` and ``assign`` is keyed by its node ids.
    """

    chart: Chart
    assign: dict

    def __getitem__(self, node):
        return self.assign[node]

    def initial_expression(self):
        if self.chart.initial is None:
            raise ValueError("chart has no initial node")
        return self.assign[self.chart.initial]

    def __reduce__(self):
        # the expressions flattened together, so a sub-solution that several
        # nodes share is copied once and rebuilt shared; no __init__ is called
        entries, places = _flatten(self.assign.values())
        return (object.__new__, (self.__class__,), (self.chart, list(self.assign), entries, places))

    def __setstate__(self, state):
        chart, nodes, entries, places = state
        built = _unflatten(entries, None)
        vars(self).update(chart=chart, assign={x: built[i] for x, i in zip(nodes, places)})


def extract_solution(w):
    """Read a solution off a layered witness.

    One rule builds every expression.  ``f(Y, S)`` solves ``Y`` up to its
    return target ``S``: a loop node ``X`` when ``Y`` lies in the loop at
    ``X``, ✓ outside every loop, or a join node on the way to either.  It
    sums ``b`` for a body transition ``Y -b-> S``, ``b . f(W, S)`` for any
    other body transition ``Y -b-> W``, and, when ``S`` is ✓, ``Y``'s
    terminal actions in sorted order.  When ``Y`` has positive entries that
    sum ``T`` becomes ``ℓ(Y) ⊛ T``, where ``ℓ(Y)`` sums ``a`` for an entry
    ``Y -a-> Y`` and ``a . f(Z, Y)`` for an entry ``Y -a-> Z``.  Node
    ``X``'s solution is ``f(X, ✓)``.

    Paths that re-join are factored at the join.  Let ``J`` be ``Y``'s
    immediate post-dominator in the body transitions of its context (the
    loop at ``X``, returning to ``X``, or the part outside every loop,
    ending in ✓); a dead end, without body or terminal transitions, ends
    there too.  When ``Y`` has two or more body transitions and ``J`` is a
    node other than ``S``, then ``f(Y, S) = f(Y, J) . f(J, S)``; with
    entries that is ``(ℓ(Y) ⊛ T') . f(J, S)``, where ``T'`` sums ``Y``'s
    body transitions up to ``J``, so ``ℓ(Y)`` stays out of ``f(J, S)``.
    This reads BBP's axioms A4 ``(e1+e2).e3 = e1.e3+e2.e3``, A5
    ``(e1.e2).e3 = e1.(e2.e3)`` and A9 ``(e1*e2).e3 = e1*(e2.e3)`` right to
    left, so ``f(J, S)`` appears once, not once per path from ``Y`` to
    ``J``.  A node with one body transition is never factored.

    Stars are folded back wherever a sum unfolds one (:func:`_solve`).
    Without the fold, a star whose body is a star is read with that body
    unfolded once, and nested stars double at every level: the chart of
    ``((a*b0)*b1)*b2`` would print with 31 syntax nodes, and with the fold
    it prints as itself.  A node that no transition enters, such as an
    initial node on no cycle, sums ``s(K)`` in place of the transitions of
    each loop node ``K`` it has, when that is smaller: the chart of
    ``a+((b+(b+a)*c).b)*b`` prints with 31 syntax nodes, not 151.

    Layering bounds the rule: outside loops it descends along the
    elimination order, and inside the loop at ``X`` it follows body
    transitions, which loop back to ``X`` and reach no terminal.  It also
    orders the loops (Grabmayer & Fokkink, LICS 2020): each node of the
    loop at ``X`` lies in the body of one of ``X``'s steps, and a layered
    run starts no step in an earlier step's body, so every loop node in it
    takes its last step before that step.  So the loops are solved in the
    order of their starts' last steps in the witness's run, then the part
    outside every loop.  One pass over each context orders its nodes,
    every node after its successors, and finds their post-dominators
    (:func:`_post_dominators`), and the context is solved in that order.
    So each sub-solution is built once and shared wherever it recurs, and
    a long chart does not hit the recursion limit.  Raises
    :class:`NotLLEE` for non-layered witnesses.
    """
    if not is_llee_witness(w):
        raise NotLLEE("solution extraction needs a layered witness")
    return Solution(w.chart, dict(zip(w.chart.names, _solve(w))))


def _post_dominators(succ, terminals, roots, loop, rank, idom, names):
    """The nodes of one context in post-order, with their immediate
    post-dominators.

    ``succ[y]`` lists the targets of ``y``'s body transitions, and
    ``terminals[y]`` is empty unless ``y`` can terminate.  The context is the loop at node
    ``loop``, entered at ``roots``, or, when ``loop`` is ``len(succ)``, the
    part outside every loop, with every node a root.  Its graph is the body
    transitions reachable from the roots; a transition to ``loop``, a
    terminal transition and a dead end lead to the sink, node
    ``len(succ)``.  The graph is acyclic, so one depth-first pass finds
    every node's successors first, and its post-dominator is the
    intersection of theirs, walked up the tree by post-order rank (Cooper,
    Harvey & Kennedy, *A Simple, Fast Dominance Algorithm*, 2001).
    ``rank`` and ``idom`` are scratch arrays of ``len(succ) + 1`` entries,
    ``rank`` all zero and left so; ``idom`` holds the immediate
    post-dominators of the returned nodes until the next call.  Returns the
    nodes in post-order, every node after its successors.
    """
    sink = len(succ)
    post = []
    # rank -1: expanded, so on the path to the top of the stack; a positive
    # rank: done, numbered in post-order
    stack = list(roots)
    while stack:
        y = stack[-1]
        if rank[y] > 0:
            stack.pop()
        elif not rank[y]:
            rank[y] = -1
            for w in succ[y]:
                if w != loop:
                    if rank[w] < 0:
                        raise InternalError("solution recursion revisits %s" % names[w])
                    if not rank[w]:
                        stack.append(w)
        else:
            stack.pop()
            ws = succ[y]
            if terminals[y] and loop != sink:
                raise InternalError(
                    "body node %s of the loop at %s has a terminal transition"
                    % (names[y], names[loop])
                )
            if terminals[y] or not ws:
                d = sink
            else:
                d = sink if ws[0] == loop else ws[0]
                for v in ws[1:]:
                    if v == loop:
                        v = sink
                    while d != v:
                        while rank[d] > rank[v]:
                            d = idom[d]
                        while rank[v] > rank[d]:
                            v = idom[v]
            idom[y] = d
            post.append(y)
            rank[y] = len(post)
    for y in post:
        rank[y] = 0
    return post


def _solve(w):
    """:func:`extract_solution` on the layered witness ``w``: the solution
    of every node, by id.

    Each context is solved in one pass over its post-order, after the loops
    at its nodes: ``solved[y]`` is then ``f(y, x)`` for the context at
    ``x``, and ``loops[y]`` is ``ℓ(y)``.  Node ``n`` stands for ✓, as a
    return target and as the context outside every loop, which is solved
    last.  The loops are solved in the order of their starts' last steps
    in ``w``'s run; the run's starts are the loop nodes.  A node of the
    loop at ``x`` is reached from an entry's target by body transitions,
    which no step removes, so it lies in the body of the step that removed
    that entry; a layered run starts no later step at it, so a loop node
    there has taken its last step before.  A context that holds a loop
    node whose loop is not solved raises :class:`InternalError`.  Every
    expression is kept with its tree size, the syntax nodes
    :func:`lleekit.expr.size` counts, added up as it is built, so no
    solution is walked to be measured.

    Every sum is built by ``total``, once, from its summands, which it
    folds first (:func:`_fold`) by BBP's axioms read right to left:

    * A8, ``u * t = u . (u * t) + t``: the summand ``u . (u * t)`` and
      one copy of each summand of ``t`` become ``u * t``;
    * A9, ``(p * q) . K = p * (q . K)``, only where ``K = (p * q) * t``:
      the summand ``p * (q . K)`` is read as ``u . (u * t)`` with ``u = p *
      q``, and then folds by A8.  A9 is applied nowhere else, so ``a * (b
      . c)`` stays as it is.

    A sum is folded once, before it is built, and every sub-solution is built
    once, before the sums that use it, so this is one bottom-up pass over
    the shared solution: every solution that holds a sub-solution holds it
    folded the same way.  A fold keeps the star it exposes, so it adds no
    node.

    Last, each node ``X`` that no transition enters is solved again, once
    every other node is; in a chart whose initial node reaches every node,
    that is the initial node when it lies on no cycle.  ``X`` has no entries, and no other solution holds
    ``s(X)``.  Its transitions are read as ``(action, target)`` pairs, ✓
    among the targets, and so are those of every loop node ``K``, a node
    with entries.  ``K`` is chosen when its pairs are all among ``X``'s
    pairs that no chosen loop node covers yet, the largest sets first and
    ties to the least id, so the chosen sets are disjoint.  The new
    ``s(X)`` sums, as ``total`` sums them, ``X``'s transitions that no
    chosen ``K`` covers, then ``s(K)`` for each chosen ``K``.  It is kept
    when it has fewer syntax nodes than the ``s(X)`` solved before, which
    wrote each ``s(K)`` out unfolded once.  The two are provably equal.
    Gathered by A1 - A3, the summands of ``X``'s equation for ``K``'s
    transitions are ``K``'s own equation, the sum of ``a . s(Z)`` for ``K
    -a-> Z`` and ``b`` for ``K -b-> ✓``.  Read right to left, A4 and A5
    (and A9 where ``s(K)`` is factored) write that as ``ℓ(K) . s(K) + T``,
    and A8 as ``ℓ(K) * T``, which is ``s(K)``.
    """
    c, labels = w.chart, w.labels
    act, dst, first, names = c.act, c.dst, c.first, c.names
    n = len(names)
    # one leaf per action name, and one 0, each with its tree size;
    # expressions are immutable
    leaf = {a: _action(a) for a in set(act)}
    zero = (Zero(), 1)
    body, succ, entries, terminals = [], [], [], []
    for x in range(n):
        b, s, e, t = [], [], [], []
        for k in range(first[x], first[x + 1]):
            d = dst[k]
            if d is None:
                # a node's terminal transitions come sorted by action
                t.append((leaf[act[k]], 1))
            elif labels[k]:
                e.append(k)
            else:
                b.append(k)
                s.append(d)
        body.append(b)
        succ.append(s)
        entries.append(e)
        terminals.append(t)
    rank, idom = [0] * (n + 1), [n] * (n + 1)
    m = n + 1
    loops = [None] * n

    def total(ks, s, sub, rest=()):
        """The sum of ``b`` for a transition ``-b-> s`` and ``b . sub(W)``
        for any other ``-b-> W`` of ``ks``, then of ``rest``,
        left-associated; 0 if empty.  ``sub`` and ``rest`` give each
        expression with its tree size, and ``total`` gives the sum so.  The
        summands are folded (:func:`_fold`) before they are joined when one
        reads ``b . (b * t)``."""
        parts = []
        fold = False
        for k in ks:
            d = dst[k]
            a = leaf[act[k]]
            if d == s:
                parts.append((a, 1))
            else:
                t, t_size = sub(d)
                if t.__class__ is Star and t.left is a:
                    fold = True
                parts.append((_node(Seq, a, t), t_size + 2))
        parts += rest
        if not parts:
            return zero
        if fold:
            parts = _fold(parts)
        acc, size = parts[0]
        for p, p_size in parts[1:]:
            acc = _node(Plus, acc, p)
            size += p_size + 1
        return acc, size

    def wrap(y, t):
        if not entries[y]:
            return t
        loop = loops[y]
        return _node(Star, loop[0], t[0]), loop[1] + t[1] + 1

    def solve(x, post):
        """``f(y, x)`` for every node ``y`` of the context at ``x``."""
        solved = {}
        segments = {}  # f(y, J) for a branching node y and its join J
        upto = {}  # f(v, J) for a join J above v, at key v * m + J

        def until(j, v):
            """f(v, j), by the join tree from ``v`` up to ``j``."""
            path = []
            while v != j and v * m + j not in upto:
                path.append(v)
                v = idom[v]
            acc = None if v == j else upto[v * m + j]
            for u in reversed(path):
                if u in segments:
                    p = segments[u]
                    acc = p if acc is None else (_node(Seq, p[0], acc[0]), p[1] + acc[1] + 1)
                else:
                    a = leaf[act[body[u][0]]]
                    acc = wrap(u, (a, 1) if acc is None else (_node(Seq, a, acc[0]), acc[1] + 2))
                upto[u * m + j] = acc
            return acc

        for y in post:
            j = idom[y]
            if j != n and len(succ[y]) > 1:
                segment = segments[y] = wrap(y, total(body[y], j, partial(until, j)))
                after = solved[j]
                solved[y] = _node(Seq, segment[0], after[0]), segment[1] + after[1] + 1
            else:
                rest = terminals[y] if x == n else ()
                solved[y] = wrap(y, total(body[y], x, solved.__getitem__, rest))
        return solved

    # each start at its last step
    last = {x: i for i, (_, x, _, _) in enumerate(w._replayed.steps)}
    for x in sorted(last, key=last.get) + [n]:
        roots = range(n) if x == n else [dst[k] for k in entries[x] if dst[k] != x]
        post = _post_dominators(succ, terminals, roots, x, rank, idom, names)
        for y in post:
            if entries[y] and loops[y] is None:
                raise InternalError(
                    "the loop at %s is not solved before a context that holds it" % names[y]
                )
        solved = solve(x, post)
        if x != n:
            loops[x] = total(entries[x], x, solved.__getitem__)
    out = [solved[y][0] for y in range(n)]
    if not last:
        return out
    # each node that no transition enters, with the loop nodes whose
    # moves it has folded in, the largest first and ties to the least id
    entered = set(dst)
    sources = [y for y in range(n) if y not in entered]
    if sources:
        moves = list(zip(act, dst))
        looping = sorted(last, key=lambda z: (first[z] - first[z + 1], z))
        for y in sources:
            left = set(moves[first[y] : first[y + 1]])
            chosen = []
            for z in looping:
                if left.issuperset(moves[first[z] : first[z + 1]]):
                    left.difference_update(moves[first[z] : first[z + 1]])
                    chosen.append(solved[z])
            if chosen:
                kept, rest = [], []
                for k in range(first[y], first[y + 1]):
                    if moves[k] in left:
                        if dst[k] is None:
                            rest.append((leaf[act[k]], 1))
                        else:
                            kept.append(k)
                e, size = total(kept, n, solved.__getitem__, rest + chosen)
                if size < solved[y][1]:
                    out[y] = e
    return out


def _star_of(p):
    """``u * t`` when the summand ``p`` reads ``u . (u * t)``: as it is, or
    as ``p1 * (q . K)`` with ``K = (p1 * q) * t``, which A9 reads as
    ``(p1 * q) . K``; otherwise ``None``."""
    cls = p.__class__
    if cls is Seq:
        k = p.right
        if k.__class__ is Star and (k.left is p.left or k.left == p.left):
            return k
    elif cls is Star:
        r = p.right
        if r.__class__ is Seq:
            k = r.right
            if k.__class__ is Star:
                u = k.left
                if (
                    u.__class__ is Star
                    and (u.left is p.left or u.left == p.left)
                    and (u.right is r.left or u.right == r.left)
                ):
                    return k
    return None


def _summands(e):
    """The operands of ``e`` under ``+``, left to right."""
    out, todo = [], [e]
    while todo:
        x = todo.pop()
        if x.__class__ is Plus:
            todo += (x.right, x.left)
        else:
            out.append(x)
    return out


def _fold(parts):
    """The summands ``parts``, each with its tree size, with each star
    folded back, by A8 right to left: a summand ``u . (u * t)`` and one
    copy of each summand of ``t`` become ``u * t``, in the first one's
    place.

    ``t = 0`` has the summand ``0``, which no extracted sum holds.
    Summands are looked up in a dictionary keyed by the expressions, so by
    their cached hashes, which lists the places where each one is left.
    The folded ``u * t`` is the summand's own star, so the sum shares it;
    it may read ``u . (u * t)`` again by A9 (:func:`_star_of`), and is
    tried again at once.  A place that cannot fold waits until another one
    folds.  The summands left are returned in their order, as new
    ``(expression, tree size)`` pairs where they folded.

    ``u . (u * t)`` has ``1 + |u|`` more syntax nodes than ``u * t``, which
    has ``1 + |u|`` more than ``t``, and so has its A9 reading, so ``u *
    t``'s size is the mean of the summand's and ``t``'s.
    """
    out = list(parts)
    places = {}
    for j, (p, _) in enumerate(out):
        places.setdefault(p, []).append(j)
    tries = [j for j in reversed(range(len(out))) if _star_of(out[j][0]) is not None]
    waiting = []
    while tries:
        i = tries.pop()
        k = None if out[i] is None else _star_of(out[i][0])
        if k is None:
            continue
        ts = _summands(k.right)
        # t's summands, each with its places in the sum, looked up once; no
        # summand of t is the summand at i, which holds t
        at = {}
        for x in ts:
            if x not in at:
                places_x = places.get(x)
                if not places_x:
                    waiting.append(i)
                    break
                at[x] = places_x
        else:
            p, p_size = out[i]
            t = sum([out[at[x][0]][1] for x in ts]) + len(ts) - 1
            for places_x in at.values():
                out[places_x.pop(0)] = None
            places[p].remove(i)
            out[i] = k, (p_size + t) // 2
            places.setdefault(k, []).append(i)
            tries += waiting
            tries.append(i)
            waiting = []
    return [q for q in out if q is not None]


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
    c = sol.chart
    x = _explore(
        [sol.assign[k] for k in c.names],
        cap,
        lambda root: "checking a solution of %d nodes" % len(c.names),
    )
    # the chart's nodes follow the exploration's states in its tables
    offset = _index_tables(c, x.out, x.term)
    block = _refine(x.out, x.term)
    return [c.names[i] for i, r in enumerate(x.roots) if block[r] != block[offset + i]]


# the steps of :func:`_provable_check`'s frames: what the form handed to a
# frame is.  A sequence waits for its right operand's form, then for its
# left operand's when that is not an action; an N star for its body's
# form, then its exit's; a U star for its own N form, then for U of its
# body and of its exit; and a sum for each operand's form in turn
_SEQ, _DONE, _BODY, _EXIT, _LOOP, _LEFT, _RIGHT, _SUM = range(8)


def _provable_check(sol, cap=None):
    """Check an extracted solution equation by equation, in BBP.

    ``N(e, k)`` is the canonical form of ``e . k``, where ``k`` is a
    canonical form or ✓ (``None``).  A canonical form is a frozenset of
    summands, interned, so equal forms are one object:

    * an action ``a`` gives the summand ``a`` when ``k`` is ✓, and
      ``(a, k)`` otherwise;
    * ``0`` gives no summand;
    * ``e1 + e2`` gives ``N(e1, k) ∪ N(e2, k)``;
    * ``e1 . e2`` gives ``N(e1, N(e2, k))``;
    * ``e1 * e2`` gives the one summand ``("*", N(e1, ✓), N(e2, k))``.

    Each rule is an instance of BBP's axioms: sums are sets by A1 - A3 and
    A6, ``0`` absorbs what follows it by A7, and ``.`` is pushed through
    ``+``, ``.`` and ``*`` by A4, A5 and A9.  So two expressions with one
    form are provably equal.  ``U(e, k)`` is the same walk, except that it
    unfolds every star at the head once by A8: ``e1 * e2`` gives
    ``U(e1, N(e1 * e2, k)) ∪ U(e2, k)``.  Its summands are all ``a`` or
    ``(a, f)``: a sum of one-step moves.

    Node ``X`` passes when ``U(s(X), ✓)`` is the set of ``a`` for its
    terminal transitions ``X -a-> √`` and ``(a, N(s(Y), ✓))`` for its
    transitions ``X -a-> Y``.

    *Soundness.*  A node that passes has its equation ``s(X) = Σ a . s(Y) +
    Σ b`` proved in BBP.  When every node passes, the relation ``{(s(X),
    X)}`` is a bisimulation up to bisimilarity, and every ``s(X)`` is
    bisimilar to ``X``.

    *Completeness on extracted solutions.*  :func:`extract_solution` builds
    ``s(X)`` as the unfolded equation of ``X`` and then factors it, reading
    A4, A5 and A9 right to left, and ``N`` undoes exactly those steps.  A
    factored ``f(Y, J) . f(J, S)`` has the form of the unfactored ``f(Y,
    S)``, as ``N`` pushes ``f(J, S)`` into every path of ``f(Y, J)`` that
    ends at ``J``.  And the part of a loop's body that returns to ``X``,
    followed by ``s(X)``, has the form of the same part ending in ✓, which
    is how a body node's own solution reads.  So ``U`` of ``ℓ(X) ⊛ T``
    gives, for an entry ``X -a-> Z``, the summand ``(a, N(s(Z), ✓))``, and
    for every other transition its own summand.

    Extraction also folds stars back, by A8 and A9 right to left
    (:func:`_solve`).  A9 is invisible to ``N``, which pushes ``.`` through
    ``*``.  An A8 fold turns the summands ``u . (u * t)`` and those of
    ``t`` into ``u * t``, and ``U`` unfolds ``u * t`` into exactly those
    summands, so ``U(s(X), ✓)`` keeps its transitions.  ``N`` does see an
    A8 fold, but it sees it the same way in ``s(X)`` and in every ``s(Y)``
    it continues into, because the fold is made on the shared objects as
    they are built.  Where a body path stops, at ``X`` or at a join ``J``,
    its last summand is a bare ``a``, where ``s(Y)`` reads ``a . s(J)``.
    That summand would fold only in ``s(Y)`` if ``s(J)`` were ``a * t``
    and the sum held ``t``'s summands.  But ``t = 0`` is never folded, as
    no extracted sum has a summand ``0``.  Any other ``t`` has summands
    that leave ``J``, and a node whose paths all meet at ``J`` has none of
    them.  At ``X``, ``s(X) = a * t`` needs ``X``'s loop to be the
    self-loop ``a``, which has no body node.

    Last, extraction may solve a node ``X`` that no transition enters as
    the sum of its transitions that no chosen loop node ``K`` covers and
    ``s(K)`` for each chosen ``K``, whose transitions are all ``X``'s
    (:func:`_solve`).  ``U`` reads a summand ``s(K)`` as ``U(s(K), ✓)``,
    which is exactly ``K``'s transition forms when ``K``'s own equation
    passes, and the other summands as before.  So the folded node passes
    exactly when each chosen ``K`` does: A8 read right to left, then A4
    and A5, with A1 - A3 to gather summands.  So the check accepts every
    solution that extraction gives.

    *Completeness on state expressions.*  :func:`equiv` may instead solve
    an expression's chart by the expressions its states stand for, ``head
    . x(k)`` for a state with head ``head`` and continuation ``k``
    (:func:`lleekit.chart._state_expressions`), and by the expression
    itself at the initial node.  ``U`` of a state expression reads exactly
    the rules of :meth:`lleekit.chart._States.steps`: ``N`` pushes ``.``
    through ``+``, ``.`` and ``*`` to the right, so a sequence's left spine
    becomes the continuation in front of ``k``; a sum gives both operands'
    moves; a star ``e1 * e2`` gives ``e1``'s moves followed by the star and
    ``e2``'s moves, whether or not ``e1`` is normed; ``0`` gives none, at
    the head as anywhere; and an action ``a`` followed by ``k`` gives the
    one summand ``(a, N(k, ✓))``, or ``a`` at the end.  The target of a
    step is a state whose expression has the form ``N`` of that rest: the
    step enters the next operand's left spine, or continues with ``k``,
    and both forms are ``N`` of the same right-nested sequence, as is the
    expression itself, which ``N`` re-associates as it parses.  So ``U(s(X),
    ✓)`` is the set of ``X``'s transitions, each target's form being the
    form of its solution.  Repeated steps, as in ``a + a``, are one
    transition of the chart and one summand of the set.  So every
    state-expression solution passes.

    Neither exploration nor refinement is involved.  ``N`` and ``U`` are
    memoised on the identities of their arguments.  The rules run from one
    explicit stack of frames, one frame per operator node whose form is
    not memoised yet: a frame records the node, its ``k`` and ``u``, the
    step its rule is at and the forms it has been given so far, and a sum's
    frame also holds the operands of ``+`` it has still to read.  One loop
    asks for the form the top frame needs next, answers it from the memo or
    a leaf at once or pushes its frame, and hands each finished form to
    the frame below.  So a deep or long solution neither recurses nor is
    scanned twice, and no rule is a call of its own.  Returns the failing
    nodes, in id order (empty means the solution passes).  Raises
    :class:`StateExplosion` when more than ``cap`` canonical forms appear
    (``cap`` defaults as in :func:`lleekit.chart.interpret`).
    """
    c = sol.chart
    names, act, dst, first = c.names, c.act, c.dst, c.first
    if cap is None:
        cap = _state_cap()
    forms = {}
    memo_n, memo_u = {}, {}  # keyed (id(e), id(k))

    def intern(summands):
        f = frozenset(summands)
        g = forms.setdefault(f, f)
        if g is f and len(forms) > cap:
            raise StateExplosion(
                "more than %d states while checking a solution of %d nodes" % (cap, len(names))
            )
        return g

    def walk(e, k, u):
        """``N(e, k)``, or ``U(e, k)`` with ``u``.  ``U`` is ``N`` on an
        expression without a star at its head, and is asked of ``N`` when
        a look at the top shows that.

        A frame is ``[e, k, u, key, step, form, todo]``: ``step`` says
        what the form handed to it next is (the constants above
        :func:`_provable_check`), and ``form`` holds the form it was
        handed before.  A sum's ``form`` is the set of its summands so
        far, and ``todo`` its stack of operands still to read, topped by
        the one whose form it waits for."""
        frames = []
        while True:
            # the form of (e, k, u) is asked for
            cls = e.__class__
            if u and cls is not Plus and cls is not Star and (cls is not Seq or e.left.__class__ is Action):
                u = False
            key = (id(e), id(k))
            ret = (memo_u if u else memo_n).get(key)
            if ret is None:
                if cls is Action:
                    ret = memo_n[key] = intern((e.name,) if k is None else ((e.name, k),))
                elif cls is Zero:
                    ret = memo_n[key] = intern(())
                elif cls is Seq:
                    # N(e2, k) first
                    frames.append([e, k, u, key, _SEQ, None, None])
                    e, u = e.right, False
                    continue
                elif cls is Star:
                    # N(e1, ✓) first for N, N(e1 * e2, k) first for U
                    frames.append([e, k, u, key, _LOOP if u else _BODY, None, None])
                    if u:
                        u = False
                    else:
                        e, k = e.left, None
                    continue
                else:
                    # a sum reads its operands below, from a stack
                    frames.append([e, k, u, key, _SUM, set(), [e]])
            # hand ret to the frames, until one asks for another form
            while frames:
                f = frames[-1]
                step = f[4]
                if step == _SEQ:
                    # ret is N(e2, k): N(e1, ret), or U(e1, ret)
                    x = f[0].left
                    if x.__class__ is not Action:
                        f[4] = _DONE
                        e, k, u = x, ret, f[2]
                        break
                    ret = intern(((x.name, ret),))
                elif step == _BODY:
                    # ret is N(e1, ✓); N(e2, k) next
                    f[4], f[5] = _EXIT, ret
                    e, k = f[0].right, f[1]
                    break
                elif step == _EXIT:
                    ret = intern((("*", f[5], ret),))
                elif step == _LOOP:
                    # ret is N(e1 * e2, k); U(e1, ret), then U(e2, k)
                    f[4] = _LEFT
                    e, k, u = f[0].left, ret, True
                    break
                elif step == _LEFT:
                    f[4], f[5] = _RIGHT, ret
                    e, k, u = f[0].right, f[1], True
                    break
                elif step == _RIGHT:
                    ret = f[5] | ret
                elif step == _SUM:
                    acc, todo = f[5], f[6]
                    if ret is not None:
                        # ret is the form of the operand on top of todo
                        x = todo.pop()
                        if x.__class__ is Seq and x.left.__class__ is Action:
                            acc.add((x.left.name, ret))
                        else:
                            acc |= ret
                    k = f[1]
                    while todo:
                        x = todo[-1]
                        cls = x.__class__
                        if cls is Plus:
                            todo[-1] = x.right
                            todo.append(x.left)
                        elif cls is Action:
                            todo.pop()
                            acc.add(x.name if k is None else (x.name, k))
                        elif cls is Seq and x.left.__class__ is Action:
                            e, u = x.right, False
                            break
                        else:
                            e, u = x, f[2]
                            break
                    else:
                        ret = acc if f[2] else intern(acc)
                        (memo_u if f[2] else memo_n)[f[3]] = ret
                        frames.pop()
                        continue
                    break
                # ret is the frame's own form
                (memo_u if f[2] else memo_n)[f[3]] = ret
                frames.pop()
            else:
                return ret

    assign = [sol.assign[x] for x in names]
    normal = [walk(e, None, False) for e in assign]
    bad = []
    for x, e in enumerate(assign):
        want = set()
        for j in range(first[x], first[x + 1]):
            d = dst[j]
            want.add(act[j] if d is None else (act[j], normal[d]))
        if walk(e, None, True) != want:
            bad.append(names[x])
    return bad


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


class Certificate:
    """Evidence that two expressions are bisimilar.

    ``collapse`` is the joint collapse of both interpretations; ``map1``
    and ``map2`` are the bisimulation functions from each interpretation
    onto it; ``witness`` is a layered witness for the collapse, checked to
    replay layered; ``solution`` solves the collapse, and ``expression`` is
    the solution's value at the collapse's initial node — an expression
    provably equal to both inputs.  A node of the collapse is a class of
    bisimilar states, named ``g:`` + the name of its first member in the
    first expression's exploration (breadth-first, in the order of each
    state's steps).

    When the first interpretation is its own collapse, ``map1`` renames
    each node ``x`` to ``g:x``; ``witness`` is then the witness read off
    the first expression (:func:`lleekit.lee.expression_witness`), renamed,
    and ``solution`` the expressions the first interpretation's states
    stand for, so ``expression`` is the first expression.  Otherwise
    ``witness`` reflects that witness through ``map1``, and ``solution`` is
    extracted from it (:func:`extract_solution`).

    :func:`equiv` derives and checks all of it on the collapse numbered in
    exploration order and unnamed (see :class:`~lleekit.chart.Chart`),
    and names nothing.  The first read of the collapse, the witness or the
    solution names the collapse's nodes, that is, its classes' first
    members, and renumbers it in name order (:meth:`Chart._renamed`); the
    witness's order numbers and the solution's keys follow that one
    renumbering, and the expressions are the ones :func:`equiv` checked.
    The named witness replays when it is first read.  The two maps name
    every state of their interpretation when read, and are cached,
    unchecked: :func:`equiv` checked their transfer conditions on every id
    before it returned (:func:`lleekit.bisim._quotient`).

    The last four arguments name them: ``x1`` and ``x2`` are the two
    explorations, state ``j`` of each being id ``base + j`` of the
    refiner's tables; ``theta`` maps every id of those tables to its
    collapse node, and ``reps[r]`` is collapse node ``r``'s first member,
    an id of ``x1``.
    """

    def __init__(self, collapse, witness, solution, x1, reps, x2, theta):
        # as equiv derived them, on the unnamed collapse
        self._collapse = collapse
        self._witness = witness
        self._solution = solution
        self.expression = solution.initial_expression()
        self._x1, self._reps, self._x2, self._theta = x1, reps, x2, theta

    @cached_property
    def _renaming(self):
        """:meth:`Chart._renamed` of the unnamed collapse, its nodes named
        after their first members."""
        x1 = self._x1
        names = _named(x1.space, [x1.states[i] for i in self._reps])
        return self._collapse._renamed(["g:" + x for x in names])

    @cached_property
    def collapse(self):
        return self._renaming[0]

    @cached_property
    def witness(self):
        chart, _, number = self._renaming
        labels = [0] * len(number)
        for k, n in zip(number, self._witness.labels):
            labels[k] = n
        return Witness._of(chart, labels)

    @cached_property
    def solution(self):
        chart, node, _ = self._renaming
        names = chart.names
        return Solution(chart, {names[node[i]]: e for i, e in self._solution.assign.items()})

    def _map(self, x):
        """The map onto the collapse from the chart of exploration ``x``."""
        source, order, _ = _explored_chart(x)
        names, node, theta = self.collapse.names, self._renaming[1], self._theta
        return BisimMap._of(
            source,
            self.collapse,
            {y: names[node[theta[x.base + i]]] for y, i in zip(source.names, order)},
        )

    @cached_property
    def map1(self):
        return self._map(self._x1)

    @cached_property
    def map2(self):
        return self._map(self._x2)


@record
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


@record
class EquivResult:
    """The verdict of :func:`equiv`, with its evidence.

    ``chart1`` and ``chart2`` are the interpretations of the two
    expressions, named and numbered in name order.  Neither verdict builds
    them: they are built on first access and cached.  An EQUAL's are the
    sources of its certificate's two maps, built when those are; a
    NOT_EQUAL interprets the expressions again when asked.
    """

    equal: bool
    certificate: object = None
    distinction: object = None
    # (e1, e2, cap): what a NOT_EQUAL's charts are built from on demand
    _inputs: tuple = ()

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


def _blocks(b1, b2, block, sides):
    """The members of blocks ``b1`` and ``b2`` of both explorations, named
    with their side, in one scan; ``sides`` pairs each prefix with its
    exploration."""
    members = {b1: [], b2: []}
    for prefix, x in sides:
        name = x.space.name_one
        for i, state in enumerate(x.states, start=x.base):
            found = members.get(block[i])
            if found is not None:
                found.append(prefix + name(state))
    return frozenset(members[b1]), frozenset(members[b2])


def _check_layered(w, what):
    rep = w._replayed
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
    names only their members; no chart is built.

    Otherwise the certificate is derived on ids as well, and no state is
    named.  The first chart ``g`` is numbered in exploration order, its
    node ``i`` being state ``i`` of the first exploration, and the
    collapse's nodes, one per class, are numbered by their first members
    in that order; both are unnamed (see :class:`~lleekit.chart.Chart`).
    The collapse is read off the refiner's tables and both maps onto it
    pass the transfer check there, so the collapse is not refined again.

    The expression's witness is replayed on ``g`` and checked to be
    layered.  When every class holds exactly one node of ``g``, the
    collapse is ``g`` itself (:func:`lleekit.bisim._quotient`), that witness
    is the collapse's, and the expressions ``g``'s states stand for solve
    it, the initial node's being ``e1`` itself
    (:func:`lleekit.chart._state_expressions`).  No image, reflection or
    extraction runs, and none of this is checked again.

    Otherwise the witness is reflected through the first map, the
    reflection's run being the reflected witness's replay, which is checked
    to be layered as well; a solution is extracted from the reflected
    witness.  Either solution is checked
    equation by equation (:func:`_provable_check`), with no second
    refinement, and no lemma report is computed.  A failed invariant on the
    way is an :class:`InternalError`; a failed solution check names the
    nodes it failed at.  The :class:`Certificate` holds the collapse, the
    witness and the solution, names them when they are read, and builds its
    two maps when they are read.  The cyclic garbage collector is paused
    throughout (:class:`lleekit.chart._collection_paused`).  A ``cap`` of
    ``None`` reads the ``LLEEKIT_STATE_CAP`` default once, here; a given
    one is passed on as it is.
    """
    if cap is None:
        cap = _state_cap()
    with _collection_paused():
        x1 = _explore([e1], cap, _interpreting, labelled=True)
        x2 = _explore([e2], cap, _interpreting, base=len(x1.states))
        outmap, term = x1.out + x2.out, x1.term + x2.term
        block = _refine(outmap, term)
        b1 = block[x1.roots[0]]
        b2 = block[x2.roots[0]]
        if b1 != b2:
            distinction = Distinction(*_blocks(b1, b2, block, (("g:", x1), ("h:", x2))))
            return EquivResult(False, distinction=distinction, _inputs=(e1, e2, cap))
        g, _, labels = _explored_chart(x1, named=False)
        try:
            collapse, theta, reps = _quotient(outmap, term, block, g)
            del outmap, term, block
            w_h = Witness._of(g, labels)
            _check_layered(w_h, "the expression's witness")
            if collapse is g:
                assign = _state_expressions(x1.states)
                assign[g.root] = e1
                sol = Solution(collapse, dict(enumerate(assign)))
                what = "the state expressions fail"
            else:
                # reflect is imported where a witness is reflected: a
                # NOT_EQUAL or a shortcut EQUAL needs none of it
                from .reflect import _images, _reflect_witness

                records = _images(theta[: len(g.names)], w_h._loops[2])
                w_h = _reflect_witness(collapse, records)
                _check_layered(w_h, "the reflected witness")
                sol = extract_solution(w_h)
                what = "extracted solution fails"
        except (InvalidWitness, LemmaViolated, NotABisimulation, NotLLEE) as exc:
            raise InternalError("building the certificate failed: %s" % exc) from exc
        bad = _provable_check(sol, cap)
        if bad:
            name, states = x1.space.name_one, x1.states
            shown = sorted("g:" + name(states[reps[x]]) for x in bad)
            raise InternalError("%s at %s" % (what, ", ".join(shown)))
        certificate = Certificate(collapse, w_h, sol, x1, reps, x2, theta)
        return EquivResult(True, certificate=certificate)
