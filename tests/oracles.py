"""Brute-force reference implementations used to cross-check the package.

Everything here favours obviousness over speed: explicit enumeration of
relations, subsets, paths, and elimination sequences.  Nothing imports the
algorithms under test beyond the basic data containers, but for the map
check that the record twins validate with, the CLI handlers that the
argparse twin at the end names, and the post-dominator and star-fold
helpers of the extraction kept as it was before its root fold.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from lleekit.chart import TERMINATION, Chart, Transition


# --- bisimilarity by greatest fixed point ----------------------------------


def _terminal_actions(chart, node):
    return frozenset(t.action for t in chart.out(node) if t.terminal)


def _moves(chart, node):
    return [(t.action, t.dst) for t in chart.out(node) if not t.terminal]


def relation_is_bisimulation(relation, g, h):
    """Transfer-condition check written directly from the definition."""
    for u, v in relation:
        if _terminal_actions(g, u) != _terminal_actions(h, v):
            return False
        for a, u2 in _moves(g, u):
            if not any(
                a == b and (u2, v2) in relation for b, v2 in _moves(h, v)
            ):
                return False
        for b, v2 in _moves(h, v):
            if not any(
                a == b and (u2, v2) in relation for a, u2 in _moves(g, u)
            ):
                return False
    return True


def naive_bisimilarity_pairs(g, h):
    """Greatest fixed point: start from everything, peel off failing pairs."""
    relation = {(u, v) for u in g.nodes for v in h.nodes}
    changed = True
    while changed:
        changed = False
        for u, v in sorted(relation):
            if _terminal_actions(g, u) != _terminal_actions(h, v):
                relation.discard((u, v))
                changed = True
                continue
            ok = all(
                any(a == b and (u2, v2) in relation for b, v2 in _moves(h, v))
                for a, u2 in _moves(g, u)
            ) and all(
                any(a == b and (u2, v2) in relation for a, u2 in _moves(g, u))
                for b, v2 in _moves(h, v)
            )
            if not ok:
                relation.discard((u, v))
                changed = True
    return frozenset(relation)


def naive_bisimilarity(chart):
    return naive_bisimilarity_pairs(chart, chart)


def exists_bisimulation_containing(pair, g, h):
    """Search the whole relation lattice for a bisimulation through ``pair``.

    Exponential in ``|g.nodes| * |h.nodes|``; keep the inputs tiny.
    """
    product = sorted((u, v) for u in g.nodes for v in h.nodes if (u, v) != pair)
    for k in range(len(product) + 1):
        for extra in itertools.combinations(product, k):
            relation = frozenset(extra) | {pair}
            if relation_is_bisimulation(relation, g, h):
                return True
    return False


# --- cycle enumeration -----------------------------------------------------


def brute_simple_cycles(transitions):
    """All node-simple cycles of a transition set, one per rotation class.

    Returns a set of transition tuples, each rotated so the least source
    node comes first.
    """
    by_src = {}
    for t in transitions:
        if not t.terminal:
            by_src.setdefault(t.src, []).append(t)
    found = set()

    def extend(path, visited):
        node = path[-1].dst
        for t in by_src.get(node, ()):
            if t.dst == path[0].src:
                cycle = tuple(path) + (t,)
                k = min(range(len(cycle)), key=lambda i: cycle[i].src)
                found.add(cycle[k:] + cycle[:k])
            elif t.dst not in visited:
                extend(path + [t], visited | {t.dst})

    for src in sorted(by_src):
        for t in by_src[src]:
            if t.dst == src:
                found.add((t,))
            elif t.dst not in (src,):
                extend([t], {src, t.dst})
    return found


def bfs_reachable(transitions, roots):
    """The nodes that non-terminal ``transitions`` lead to from ``roots``,
    the roots included, by a plain breadth-first search."""
    succ = {}
    for t in transitions:
        if not t.terminal:
            succ.setdefault(t.src, []).append(t.dst)
    seen = set(roots)
    queue = deque(seen)
    while queue:
        for d in succ.get(queue.popleft(), ()):
            if d not in seen:
                seen.add(d)
                queue.append(d)
    return seen


# --- loop charts and entry sets, from the definitions ----------------------


def brute_is_loop_chart(transitions, start):
    """(L1) a cycle through the start, (L2) no cycle avoiding it, (L3) no
    terminal transition, checked by explicit cycle enumeration."""
    if any(t.terminal for t in transitions):
        return False
    cycles = brute_simple_cycles(transitions)
    through = [c for c in cycles if any(t.src == start for t in c)]
    if not through:
        return False
    return len(through) == len(cycles)


def reference_closure(g, start, targets):
    """``(body, returns, closed)`` of ``g.closure(start, targets)`` on the
    working graph ``g`` of :mod:`lleekit.lee`, in four separate passes: one
    collects the body and records every body node's live successors
    (``None`` for √), and three read the record: an exit to √ (L3), a
    successor that is ``start`` (L1), and a cycle among the body nodes
    (L2), found by asking of each body node whether it reaches itself
    inside the body.
    """
    alive, dst, succ = g._alive, g._dst, g._succ
    adj = {start: list(targets)}
    body = set()
    stack = [y for y in targets if y != start]
    while stack:
        y = stack.pop()
        if y in body:
            continue
        body.add(y)
        adj[y] = [dst[k] for k in succ[y] if alive[k]]
        stack += [d for d in adj[y] if d is not None and d != start and d not in body]
    successors = [d for ds in adj.values() for d in ds]
    exits = None in successors
    returns = start in successors

    def inside(y):
        return [d for d in adj[y] if d in body]

    cyclic = False
    for y in body:
        seen = set()
        frontier = inside(y)
        while frontier:
            v = frontier.pop()
            if v not in seen:
                seen.add(v)
                frontier += inside(v)
        cyclic = cyclic or y in seen
    return body, returns, not exits and not cyclic


def _avoiding_reach(transitions, origin, avoid):
    """Nodes reachable from ``origin`` along non-terminal transitions whose
    intermediate nodes never equal ``avoid`` (``origin`` itself excluded when
    it equals ``avoid``)."""
    seen = set()
    frontier = [] if origin == avoid else [origin]
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        for t in transitions:
            if t.src == node and not t.terminal and t.dst != avoid:
                frontier.append(t.dst)
    return seen


def _generated_region(transitions, start, entries):
    """The continuation nodes of a generated chart: everything reachable from
    the entry targets while avoiding the start."""
    region = set()
    for e in entries:
        region |= _avoiding_reach(transitions, e.dst, start)
    return region


def brute_generated_transitions(transitions, start, entries):
    """Entry transitions plus everything reachable from their targets while
    avoiding the start — terminal transitions of continuation nodes included."""
    region = _generated_region(transitions, start, entries)
    picked = set(entries)
    for t in transitions:
        if t.src in region:
            picked.add(t)
    return picked


def brute_max_entry_set(chart, node):
    """Entry-by-entry validity, then the loop-closing requirement."""
    valid = []
    for t in chart.out(node):
        if t.terminal:
            continue
        if t.dst == node:
            valid.append(t)
            continue
        region = _avoiding_reach(chart.transitions, t.dst, node)
        if any(
            u.terminal and u.src in region for u in chart.transitions
        ):
            continue
        inner = [
            u
            for u in chart.transitions
            if not u.terminal and u.src in region and u.dst in region
        ]
        if brute_simple_cycles(inner):
            continue
        valid.append(t)
    closes = False
    for t in valid:
        if t.dst == node:
            closes = True
            break
        region = {t.dst} | _avoiding_reach(chart.transitions, t.dst, node)
        if any(
            u.src in region and not u.terminal and u.dst == node
            for u in chart.transitions
        ):
            closes = True
            break
    return frozenset(valid) if closes else frozenset()


# --- exhaustive elimination search -----------------------------------------


def _gc(transitions, nodes, roots):
    keep = set()
    frontier = [r for r in roots if r in nodes]
    while frontier:
        node = frontier.pop()
        if node in keep:
            continue
        keep.add(node)
        for t in transitions:
            if t.src == node and not t.terminal and t.dst not in keep:
                frontier.append(t.dst)
    return frozenset(t for t in transitions if t.src in keep), frozenset(keep)


def exhaustive_lee_search(chart):
    """Is there ANY sequence of loop eliminations ending in a cycle-free chart?

    Tries every node and every non-empty subset of its non-terminal
    transitions at every step.  Exponential; keep the inputs tiny.
    """
    roots = {chart.initial} if chart.initial is not None else set(chart.nodes)

    seen = set()

    def search(transitions, nodes):
        inner = [t for t in transitions if not t.terminal]
        if not brute_simple_cycles(inner):
            return True
        key = (transitions, nodes)
        if key in seen:
            return False
        seen.add(key)
        for x in sorted(nodes):
            outs = [t for t in inner if t.src == x]
            for k in range(1, len(outs) + 1):
                for entries in itertools.combinations(outs, k):
                    gen = brute_generated_transitions(transitions, x, entries)
                    if not brute_is_loop_chart(gen, x):
                        continue
                    rest = frozenset(transitions) - set(entries)
                    t2, n2 = _gc(rest, nodes, roots)
                    if search(t2, n2):
                        return True
        return False

    return search(frozenset(chart.transitions), frozenset(chart.nodes))


# --- witness replay, rebuilding the chart after every step -----------------


def brute_replay(chart, order):
    """Replay an order map the way :class:`lleekit.lee.Witness` documents it.

    For ``n = 1, 2, …`` the order-``n`` entries are grouped by start node;
    groups are tried in node order, the first one spanning a loop sub-chart
    is eliminated, and the chart is garbage-collected from scratch with
    ``_gc`` before the next try.  Returns ``(ok, reason, steps, final,
    llee, llee_reason)`` with steps as ``(order, start, entries, body)`` and
    ``final`` as ``(nodes, transitions)`` or ``None``.  A group whose start
    an earlier group of the same order has collected fails the replay.
    """
    roots = {chart.initial} if chart.initial is not None else set(chart.nodes)
    transitions, nodes = frozenset(chart.transitions), frozenset(chart.nodes)
    steps = []
    bodies = set()
    llee, llee_reason = True, None
    for n in range(1, max(order.values(), default=0) + 1):
        level = [t for t, k in order.items() if k == n]
        gone = [t for t in level if t not in transitions]
        if gone:
            reason = "order-%d transition %r was already garbage-collected" % (n, gone[0])
            return False, reason, tuple(steps), None, False, None
        pending = {}
        for t in level:
            pending.setdefault(t.src, []).append(t)
        while pending:
            for x in sorted(pending):
                if x not in nodes:
                    reason = (
                        "order-%d entries at %s were garbage-collected by an "
                        "earlier step" % (n, x)
                    )
                    return False, reason, tuple(steps), None, False, None
                entries = tuple(sorted(pending[x], key=Transition.sort_key))
                gen = brute_generated_transitions(transitions, x, entries)
                if brute_is_loop_chart(gen, x):
                    break
            else:
                reason = "order-%d entries at %s do not span a loop sub-chart" % (
                    n,
                    sorted(pending)[0],
                )
                return False, reason, tuple(steps), None, False, None
            body = frozenset(_generated_region(transitions, x, entries))
            if llee and x in bodies:
                llee = False
                llee_reason = (
                    "step %d starts at %s, which lies in the body of an "
                    "earlier eliminated loop sub-chart" % (n, x)
                )
            steps.append((n, x, entries, body))
            bodies |= body
            transitions, nodes = _gc(transitions - set(entries), nodes, roots)
            del pending[x]
    final = (nodes, transitions)
    if brute_simple_cycles(transitions):
        return False, "a cycle survives the recorded elimination", tuple(steps), final, False, None
    return True, None, tuple(steps), final, llee, llee_reason


# --- loops-back structure from the definitions -----------------------------


def _walk(roots, succ):
    """Every node reachable from ``roots`` along ``succ``, roots included."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for m in succ(stack.pop()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def reference_loops_back(w):
    """``(direct, below, lbcs)`` of ``w._loops`` from the definitions, on
    the chart's ids, walking the order labels instead of the replay.

    ``x ↘ y`` when ``y`` lies in the ``x``-avoiding closure of the targets
    of ``x``'s entries over body (order 0) transitions, ``x ↘⁺ y`` is its
    transitive closure, and a node with entries has a looping-back chart
    when the sub-chart induced by ``{x} ∪ ↘⁺(x)`` has a cycle, found by
    asking of each of its nodes whether it reaches itself inside it.
    """
    c, labels = w.chart, w.labels
    n = len(c.names)
    nexts = [[] for _ in range(n)]
    entries = [[] for _ in range(n)]
    succ = [[] for _ in range(n)]
    for k, (x, d) in enumerate(zip(c.src, c.dst)):
        if d is not None:
            (entries if labels[k] > 0 else nexts)[x].append(d)
            succ[x].append(d)
    direct = [
        _walk([y for y in entries[x] if y != x], lambda y, x=x: [d for d in nexts[y] if d != x])
        for x in range(n)
    ]
    below = [frozenset(_walk(direct[x], direct.__getitem__)) for x in range(n)]
    lbcs = {}
    for x in range(n):
        nodes = below[x] | {x}

        def inside(v, nodes=nodes):
            return [d for d in succ[v] if d in nodes]

        if entries[x] and any(v in _walk(inside(v), inside) for v in nodes):
            lbcs[x] = nodes
    return direct, below, lbcs


def reference_smaller_preimage(theta, start, lbcs, img_nodes):
    """The least body node of the looping-back chart at ``start`` whose own
    looping-back chart is a proper subset of it with image ``img_nodes``
    under ``theta``, scanning the chart's nodes in sorted order; ``None``
    when there is none."""
    nodes = lbcs[start]
    for y in sorted(nodes - {start}):
        sub = lbcs.get(y)
        if sub is not None and sub < nodes and frozenset(theta[v] for v in sub) == img_nodes:
            return y
    return None


# --- step function, written from the derivation rules ----------------------


def brute_step(e):
    """One-step behaviour as a set of (action, continuation-or-√) pairs."""
    from lleekit.expr import Action, Plus, Seq, Star, Zero

    if isinstance(e, Action):
        return {(e.name, TERMINATION)}
    if isinstance(e, Zero):
        return set()
    if isinstance(e, Plus):
        return brute_step(e.left) | brute_step(e.right)
    if isinstance(e, Seq):
        out = set()
        for a, t in brute_step(e.left):
            if t is TERMINATION:
                out.add((a, e.right))
            else:
                out.add((a, Seq(t, e.right)))
        return out
    if isinstance(e, Star):
        out = set()
        for a, t in brute_step(e.left):
            if t is TERMINATION:
                out.add((a, e))
            else:
                out.add((a, Seq(t, e)))
        out |= brute_step(e.right)
        return out
    raise TypeError("not an expression: %r" % (e,))


def brute_interpret(e, cap=10000):
    """Breadth-first unfolding with ``brute_step``; node ids are the printed
    expressions, exactly like the real interpretation."""
    from lleekit.expr import unparse

    init = unparse(e)
    table = {init: e}
    queue = [init]
    transitions = []
    while queue:
        name = queue.pop(0)
        node = table[name]
        for a, t in sorted(
            brute_step(node), key=lambda p: (p[0], "" if p[1] is TERMINATION else unparse(p[1]))
        ):
            if t is TERMINATION:
                transitions.append(Transition(name, a, TERMINATION))
                continue
            tname = unparse(t)
            if tname not in table:
                if len(table) >= cap:
                    raise RuntimeError("state cap exceeded")
                table[tname] = t
                queue.append(tname)
            transitions.append(Transition(name, a, tname))
    return Chart(transitions, nodes=set(table), initial=init)


# --- the witness an expression carries, from the labelling rule ------------


def _normed(e):
    from lleekit.expr import Action, Plus, Seq, Star

    if isinstance(e, Action):
        return True
    if isinstance(e, Plus):
        return _normed(e.left) or _normed(e.right)
    if isinstance(e, Seq):
        return _normed(e.left) and _normed(e.right)
    if isinstance(e, Star):
        return _normed(e.right)
    return False


def _star_height(e):
    from lleekit.expr import Action, Star, Zero

    if isinstance(e, (Action, Zero)):
        return 0
    if isinstance(e, Star):
        return max(_star_height(e.left) + 1, _star_height(e.right))
    return max(_star_height(e.left), _star_height(e.right))


def brute_labelled_step(e):
    """``brute_step`` with each step's loop label, as (action, target, height).

    The label passes through the left operand of ``.``; a step of the body
    of a star with a normed body is labelled with the star's height; every
    other step (under ``+``, of an action, a star's exit, or of a body that
    cannot terminate) is labelled 0.
    """
    from lleekit.expr import Seq, Star

    if isinstance(e, Seq):
        return {
            (a, e.right if t is TERMINATION else Seq(t, e.right), h)
            for a, t, h in brute_labelled_step(e.left)
        }
    if isinstance(e, Star) and _normed(e.left):
        height = _star_height(e)
        loops = {(a, e if t is TERMINATION else Seq(t, e), height) for a, t in brute_step(e.left)}
        return loops | {(a, t, 0) for a, t in brute_step(e.right)}
    return {(a, t, 0) for a, t in brute_step(e)}


def brute_expression_witness(e):
    """The order map of the witness read off ``e``: every non-terminal
    transition of ``brute_interpret(e)`` with the largest label of a step
    giving it, positive labels ranked to 1..m, the smallest height first."""
    from lleekit.expr import unparse

    seen = {unparse(e)}
    queue = [e]
    heights = {}
    while queue:
        x = queue.pop()
        for a, t, h in brute_labelled_step(x):
            if t is TERMINATION:
                continue
            key = Transition(unparse(x), a, unparse(t))
            heights[key] = max(heights.get(key, 0), h)
            if key.dst not in seen:
                seen.add(key.dst)
                queue.append(t)
    rank = {h: i for i, h in enumerate(sorted({h for h in heights.values() if h}), start=1)}
    return {t: rank.get(h, 0) for t, h in heights.items()}


# --- solution extraction without factoring ---------------------------------


def reference_solution(w):
    """The expression of every node of a layered witness's chart, by the
    unfactored extraction rule: ``f(Y, X)`` sums ``b`` for a body
    transition ``Y -b-> X`` and ``b . f(W, X)`` for any other body
    transition ``Y -b-> W``, plus ``Y``'s terminal actions when ``X`` is
    ``None`` (outside every loop); entries ``Y -a-> Z`` wrap the sum in
    ``ℓ(Y) * …``, where ``ℓ(Y)`` sums ``a`` (``Z = Y``) or ``a . f(Z, Y)``.
    Summands follow the chart's transition order.  Every path to a join
    gets its own copy of the join's expression, so the result can be
    exponentially larger than :func:`lleekit.solve.extract_solution`'s.
    Returns ``{node: f(node, None)}``.
    """
    from lleekit.expr import Action, Plus, Seq, Star, Zero

    chart, order = w.chart, w.order
    memo = {}

    def total(parts):
        if not parts:
            return Zero()
        acc = parts[0]
        for p in parts[1:]:
            acc = Plus(acc, p)
        return acc

    def step(t, stop):
        return Action(t.action) if t.dst == stop else Seq(Action(t.action), f(t.dst, stop))

    def f(y, x):
        if (y, x) not in memo:
            out = chart.out(y)
            parts = [step(t, x) for t in out if not t.terminal and order[t] == 0]
            if x is None:
                parts += [Action(t.action) for t in out if t.terminal]
            result = total(parts)
            entries = [t for t in out if not t.terminal and order[t] > 0]
            if entries:
                result = Star(total([step(t, y) for t in entries]), result)
            memo[y, x] = result
        return memo[y, x]

    return {x: f(x, None) for x in sorted(chart.nodes)}



# --- solution extraction before the root fold ------------------------------


def reference_unfolded_solution(w):
    """:func:`lleekit.solve.extract_solution` as it was before it folded a
    node that no transition enters over the loop nodes it covers: the
    same contexts, post-dominators, factoring and star folds, and every
    node, such a node included, solved as its own context gives it.
    Returns ``{node: expression}``.  The root fold changes nothing else,
    so the two agree at every other node, byte for byte.

    Its driver does not read the witness's run: a stack of contexts, each
    parked with the post-dominators it found until the loops at its nodes
    are solved.  Extraction solves the loops in the order the run took
    their last steps, so the two orders are checked against each other.
    """
    from functools import partial

    from lleekit.errors import InternalError
    from lleekit.expr import Plus, Seq, Star, Zero, _action, _node
    from lleekit.solve import _fold, _post_dominators

    c, labels = w.chart, w.labels
    act, dst, first, names = c.act, c.dst, c.first, c.names
    n = len(names)
    # one leaf per action name, and one 0; expressions are immutable
    leaf = {a: _action(a) for a in set(act)}
    zero = Zero()
    body, succ, entries, terminals = [], [], [], []
    for x in range(n):
        b, e, t = [], [], []
        for k in range(first[x], first[x + 1]):
            if dst[k] is None:
                # a node's terminal transitions come sorted by action
                t.append(leaf[act[k]])
            elif labels[k]:
                e.append(k)
            else:
                b.append(k)
        body.append(b)
        succ.append([dst[k] for k in b])
        entries.append(e)
        terminals.append(t)
    rank, idom = [0] * (n + 1), [n] * (n + 1)
    m = n + 1
    loops = [None] * n
    scanned = {}

    def total(ks, s, sub, rest=()):
        """The sum of ``b`` for a transition ``-b-> s`` and ``b . sub(W)``
        for any other ``-b-> W`` of ``ks``, then of ``rest``,
        left-associated, and folded (:func:`_fold`) when a summand reads
        ``b . (b * t)``; 0 if empty."""
        parts = []
        fold = False
        for k in ks:
            d = dst[k]
            a = leaf[act[k]]
            if d == s:
                parts.append(a)
            else:
                t = sub(d)
                if t.__class__ is Star and t.left is a:
                    fold = True
                parts.append(_node(Seq, a, t))
        parts += rest
        if not parts:
            return zero
        if fold:
            # the fold's size bookkeeping is not needed here
            parts = [p for p, _ in _fold([(p, 0) for p in parts])]
        acc = parts[0]
        for p in parts[1:]:
            acc = _node(Plus, acc, p)
        return acc

    def wrap(y, t):
        return _node(Star, loops[y], t) if entries[y] else t

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
                    acc = segments[u] if acc is None else _node(Seq, segments[u], acc)
                else:
                    a = leaf[act[body[u][0]]]
                    acc = wrap(u, a if acc is None else _node(Seq, a, acc))
                upto[u * m + j] = acc
            return acc

        for y in post:
            j = idom[y]
            if j != n and len(succ[y]) > 1:
                segment = segments[y] = wrap(y, total(body[y], j, partial(until, j)))
                solved[y] = _node(Seq, segment, solved[j])
            else:
                rest = terminals[y] if x == n else ()
                solved[y] = wrap(y, total(body[y], x, solved.__getitem__, rest))
        return solved

    todo = [n]
    while todo:
        x = todo[-1]
        if x != n and loops[x] is not None:
            todo.pop()
            continue
        if x in scanned:
            post, idoms = scanned[x]
        else:
            roots = range(n) if x == n else [dst[k] for k in entries[x] if dst[k] != x]
            post = _post_dominators(succ, terminals, roots, x, rank, idom, names)
            idoms = [idom[y] for y in post]
            scanned[x] = post, idoms
        pending = [y for y in post if entries[y] and loops[y] is None]
        if pending:
            for y in pending:
                if y in scanned:
                    raise InternalError("solution recursion revisits %s" % names[y])
            todo += pending
            continue
        todo.pop()
        for y, d in zip(post, idoms):
            idom[y] = d
        solved = solve(x, post)
        if x == n:
            return {names[y]: solved[y] for y in range(n)}
        del scanned[x]
        loops[x] = total(entries[x], x, solved.__getitem__)


# --- parsing by a token scan and a reduce helper ---------------------------

# the parser's tables, as the parser below was written against them
_TOKEN_RE = re.compile(r"([a-z][a-z0-9_]*)|\S")
_LEVEL_PLUS = 1


def reference_parse(text):
    """:func:`lleekit.expr.parse` as it was before its loop was flattened:
    one scan collects match objects and rejects stray characters, then an
    operator-precedence loop reduces through a helper.  The new parser must
    return ``==`` trees with equal hashes, and raise the same exception
    class, message and ``.position``.
    """
    from lleekit.errors import AssocError, ParseError
    from lleekit.expr import Action, Plus, Seq, Star, Zero

    _LEVEL = {None: 0, Plus: 1, Seq: 2, Star: 3}
    _OPERATOR = {"+": Plus, ".": Seq, "*": Star}

    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex is None and m.group() not in "0+.*()":
            raise ParseError("unexpected character %r" % m.group(), m.start())
        tokens.append(m)
    operands = []
    operators = []
    depth = 0  # the open parentheses on the operator stack
    actions = {}  # one immutable leaf per action name

    def reduce(level):
        while operators and _LEVEL[operators[-1]] >= level:
            right = operands.pop()
            operands[-1] = operators.pop()(operands[-1], right)

    want_operand = True
    for m in tokens:
        tok = m.group()
        if want_operand:
            if m.lastindex is not None:
                leaf = actions.get(tok)
                if leaf is None:
                    leaf = actions[tok] = Action(tok)
                operands.append(leaf)
            elif tok == "0":
                operands.append(Zero())
            elif tok == "(":
                operators.append(None)
                depth += 1
                continue
            else:
                raise ParseError("expected expression, got %r" % tok, m.start())
            want_operand = False
        elif tok in _OPERATOR:
            cls = _OPERATOR[tok]
            if cls is not Star:
                reduce(_LEVEL[cls])
            elif operators and operators[-1] is Star:
                raise AssocError("binary star is non-associative; parenthesize", m.start())
            operators.append(cls)
            want_operand = True
        elif tok == ")" and depth:
            reduce(_LEVEL_PLUS)
            operators.pop()
            depth -= 1
        elif depth:
            raise ParseError("expected ')', got %r" % tok, m.start())
        else:
            raise ParseError("trailing input %r" % tok, m.start())
    if want_operand:
        raise ParseError("expected expression, got 'end of input'", len(text))
    if depth:
        raise ParseError("expected ')', got 'end of input'", len(text))
    reduce(_LEVEL_PLUS)
    return operands[0]


# --- printing with a text per subterm ---------------------------------------

# the printer's tables, as the printer below was written against them:
# precedence levels from the weakest binding operator to atoms, and the
# least level of a left and a right operand that prints without parentheses
_PRINT_LEVEL_PLUS, _PRINT_LEVEL_SEQ, _PRINT_LEVEL_STAR, _PRINT_LEVEL_ATOM = 1, 2, 3, 4


def reference_unparse(e, printed=None):
    """:func:`lleekit.expr.unparse` as it was before printing became one
    token stream: children are printed before their parents from an
    explicit stack, and the text of every operator node is stored in
    ``printed`` (a fresh dictionary by default), read first, so a subterm
    shared by several parents is printed once.  ``printed`` may be any
    mapping with ``get`` and item assignment, such as one that keeps
    nothing, which bounds the memory on a long chain.
    """
    from lleekit.expr import Action, Plus, Seq, Star, Zero

    level = {Plus: _PRINT_LEVEL_PLUS, Seq: _PRINT_LEVEL_SEQ, Star: _PRINT_LEVEL_STAR}
    operands = {
        Plus: (_PRINT_LEVEL_PLUS, _PRINT_LEVEL_SEQ),
        Seq: (_PRINT_LEVEL_SEQ, _PRINT_LEVEL_STAR),
        Star: (_PRINT_LEVEL_ATOM, _PRINT_LEVEL_ATOM),
    }
    build = object()
    if printed is None:
        printed = {}
    texts = []
    stack = [e]
    while stack:
        x = stack.pop()
        if x is build:
            x = stack.pop()
            need_left, need_right = operands[x.__class__]
            right = texts.pop()
            left = texts.pop()
            if level.get(x.left.__class__, _PRINT_LEVEL_ATOM) < need_left:
                left = "(" + left + ")"
            if level.get(x.right.__class__, _PRINT_LEVEL_ATOM) < need_right:
                right = "(" + right + ")"
            text = printed[x] = left + x._op + right
            texts.append(text)
            continue
        cls = x.__class__
        if cls is Action:
            texts.append(x.name)
        elif cls is Zero:
            texts.append("0")
        elif cls not in operands:
            raise TypeError("not an expression: %r" % (x,))
        else:
            text = printed.get(x)
            if text is None:
                stack += (x, build, x.right, x.left)
            else:
                texts.append(text)
    return texts[0]


# --- the record classes as dataclasses --------------------------------------

# what the twins' validation calls
from lleekit.bisim import _index_tables, _transfers  # noqa: E402
from lleekit.chart import DEFAULT_STATE_CAP, _state_cap  # noqa: E402
from lleekit.errors import NotABisimulation, UnknownNode  # noqa: E402


class ParentRecords:
    """The record classes as they were declared with ``@dataclass``, and
    ``CollapseResult`` as a ``typing.NamedTuple``.

    The decorators, docstrings, fields and validation are copied verbatim,
    with the methods that define ``repr``, ``==``, ``hash`` and truth;
    other methods are left out.  :mod:`lleekit` now declares them with its
    own decorator, which must give the same constructor signature,
    ``repr``, equality, hashing, frozenness, copies and pickles.  A twin's
    ``__qualname__`` is prefixed with ``ParentRecords.``, and so is the
    class that ``BisimMap.__eq__`` tests for.
    """

    @dataclass(frozen=True)
    class Partition:
        """A partition of a chart's nodes into bisimilarity classes."""

        chart: Chart
        blocks: tuple

    @dataclass(frozen=True)
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

        def __hash__(self):
            return hash((self.source, self.target, frozenset(self.mapping.items())))

        def __eq__(self, other):
            if not isinstance(other, ParentRecords.BisimMap):
                return NotImplemented
            return (
                self.source == other.source
                and self.target == other.target
                and self.mapping == other.mapping
            )

    class CollapseResult(NamedTuple):
        chart: Chart
        theta: BisimMap

    @dataclass(frozen=True)
    class Transition:
        """A labelled transition.  ``dst`` is a node id or :data:`TERMINATION`."""

        src: str
        action: str
        dst: object

        @property
        def terminal(self):
            return self.dst is TERMINATION

        def __repr__(self):
            return "%s -%s-> %s" % (self.src, self.action, "√" if self.terminal else self.dst)

    @dataclass(frozen=True)
    class NodeSetChart:
        """A sub-chart of ``parent`` over ``nodes``.

        Without ``explicit`` transitions the sub-chart is *induced*: it has every
        parent transition with both endpoints in ``nodes`` and no terminal
        transitions.  With ``explicit`` it carries exactly the given transitions
        (which may include terminal ones).  ``start`` marks a distinguished node
        where that is meaningful (generated and looping-back charts).
        """

        parent: Chart
        nodes: frozenset
        start: str | None = None
        explicit: tuple | None = field(default=None)

        def __post_init__(self):
            missing = self.nodes - self.parent.nodes
            if missing:
                raise UnknownNode("not nodes of the parent: %s" % ", ".join(sorted(missing)))
            if self.start is not None and self.start not in self.nodes:
                raise UnknownNode("start %r is not in the node set" % (self.start,))

        @property
        def is_induced(self):
            return self.explicit is None

        def __repr__(self):
            kind = "induced" if self.is_induced else "explicit"
            start = ", start=%s" % self.start if self.start else ""
            return "NodeSetChart(%s, {%s}%s)" % (kind, ", ".join(sorted(self.nodes)), start)

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

    @dataclass(frozen=True)
    class LoopingBackChart:
        """The induced sub-chart over a node and everything it loops back through."""

        parent: Chart
        witness: Witness
        start: str
        nodes: frozenset

        def __repr__(self):
            return "LoopingBackChart(%s: {%s})" % (self.start, ", ".join(sorted(self.nodes)))

    @dataclass(frozen=True)
    class PropertyReport:
        ok: bool
        violations: tuple

        def __bool__(self):
            return self.ok

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

    @dataclass(frozen=True)
    class LemmaReport:
        ok: bool
        violations: tuple

        def __bool__(self):
            return self.ok

    @dataclass(frozen=True)
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

    @dataclass(frozen=True)
    class Solution:
        """An expression per node, each bisimilar to the chart from that node.

        ``chart`` is a :class:`Chart` and ``assign`` is keyed by its node ids.
        Inside :func:`equiv` a solution lives on the collapse's index chart,
        keyed by node number, and is converted when the certificate is read.
        """

        chart: Chart
        assign: dict

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
        expressions.  Neither verdict builds them: they are built on first
        access and cached.  An EQUAL's are the sources of its certificate's two
        maps, built when those are; a NOT_EQUAL interprets the expressions
        again when asked.
        """

        equal: bool
        certificate: object = None
        distinction: object = None
        # (e1, e2, cap): what a NOT_EQUAL's charts are built from on demand
        _inputs: tuple = field(default=(), repr=False, compare=False)

        def __bool__(self):
            return self.equal

    @dataclass
    class Config:
        """Resolved global options."""

        cap: int = DEFAULT_STATE_CAP
        format: str = "text"

        def __post_init__(self):
            _state_cap(self.cap)


# --- the command line as argparse read it -----------------------------------

import argparse  # noqa: E402

from lleekit import cli  # noqa: E402


def argparse_cli():
    """The parser that :mod:`lleekit.cli` built with ``argparse``, copied
    verbatim but for the handlers' module.  The CLI now reads its command
    table in one pass, which must accept and reject the same command lines
    and give the same attributes."""
    top = argparse.ArgumentParser(
        prog="lleekit",
        description="Process semantics and loop elimination for star expressions without 1.",
    )
    top.add_argument(
        "--format", choices=("text", "json", "dot"), default="text", help="output format"
    )
    top.add_argument(
        "--cap",
        type=int,
        default=None,
        help="state cap for interpretation (default %d, env LLEEKIT_STATE_CAP)"
        % DEFAULT_STATE_CAP,
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print it back")
    p.add_argument("expr")
    p.set_defaults(func=cli._cmd_parse)

    p = sub.add_parser("chart", help="interpret an expression as a chart")
    p.add_argument("expr")
    p.set_defaults(func=cli._cmd_chart)

    p = sub.add_parser("collapse", help="collapse a chart (file) or an expression")
    p.add_argument("target", metavar="FILE|EXPR")
    p.add_argument("--map", metavar="PATH", help="write the collapse map to PATH")
    p.set_defaults(func=cli._cmd_collapse)

    p = sub.add_parser("lee", help="search a chart file for an elimination witness")
    p.add_argument("chart")
    p.set_defaults(func=cli._cmd_lee)

    p = sub.add_parser("llee", help="check that a witness is layered")
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=cli._cmd_check_witness, llee=True)

    p = sub.add_parser("lee2llee", help="layer an elimination witness")
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=cli._cmd_lee2llee)

    p = sub.add_parser(
        "reflect", help="collapse a chart and reflect its witness onto the collapse"
    )
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=cli._cmd_reflect)

    p = sub.add_parser("solve", help="extract and check a solution from a layered witness")
    p.add_argument("chart")
    p.add_argument("witness")
    p.set_defaults(func=cli._cmd_solve)

    p = sub.add_parser("equiv", help="decide bisimilarity of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--certificate", metavar="DIR", help="write certificate files to DIR")
    p.set_defaults(func=cli._cmd_equiv)

    p = sub.add_parser("check-witness", help="replay-check a witness")
    p.add_argument("chart")
    p.add_argument("witness")
    p.add_argument("--llee", action="store_true", help="also require layering")
    p.set_defaults(func=cli._cmd_check_witness)

    return top
