"""Seeded query lists for the ``equiv`` benchmark.

Every query is a pair of expressions in lleekit's concrete syntax together
with the verdict it must get, known by construction:

* ``E1`` against a copy of ``E1`` rewritten by sound axioms is EQUAL;
* ``(e).x`` against ``(e).y`` for a normed ``e`` over other actions is
  NOT_EQUAL, because only the first can ever do ``x``.

Expressions are built and printed here, never through ``lleekit.expr``, so
the program under test only ever sees text.  A tree is a leaf (an action
name or ``"0"``) or a tuple ``(op, left, right)`` with ``op`` one of
``"+"``, ``"."`` and ``"*"`` (binary star).

Shapes and sizes are fixed, and the seed picks the action letters and the
rewrites.  With random shapes drawn per seed, the summed certificate size
and the 11th slowest of 400 queries moved by 10 % and 15 % between seeds
(both have heavy tails), more than a useful regression bound; with fixed
shapes they move by what the host's noise leaves.
"""

from __future__ import annotations

import random
from typing import NamedTuple

EQUAL, NOT_EQUAL = "EQUAL", "NOT_EQUAL"

# Sound equations of the process semantics, applied left to right.
# A3 is applied as ``e -> e + e``, the right-to-left reading of ``e + e = e``.
AXIOMS = ("A1", "A3", "A4", "A8", "A9")


class Query(NamedTuple):
    e1: str
    e2: str
    expected: str
    family: str
    rewrites: tuple  # (axiom, before, after) subtree triples


# --- trees -----------------------------------------------------------------

_LEVEL = {"+": 1, ".": 2, "*": 3}
_ATOM = 4


def _level(t):
    return _ATOM if isinstance(t, str) else _LEVEL[t[0]]


def show(t):
    """Print ``t`` with the minimal parentheses of lleekit's grammar."""
    if isinstance(t, str):
        return t
    op, left, right = t
    # '+' and '.' associate to the left; star operands must be atoms
    need_left, need_right = {"+": (1, 2), ".": (2, 3), "*": (_ATOM, _ATOM)}[op]
    return _wrap(left, need_left) + op + _wrap(right, need_right)


def _wrap(t, minimum):
    text = show(t)
    return "(" + text + ")" if _level(t) < minimum else text


def size(t):
    """Number of syntax-tree nodes of ``t``."""
    return 1 if isinstance(t, str) else 1 + size(t[1]) + size(t[2])


def normed(t):
    """Whether ``t`` can terminate: some run of it ends successfully."""
    if isinstance(t, str):
        return t != "0"
    op, left, right = t
    if op == "+":
        return normed(left) or normed(right)
    if op == ".":
        return normed(left) and normed(right)
    return normed(right)  # e1*e2 terminates only through its exit e2


# Nested stars and long loop bodies make charts, witness search and
# solution checks grow fast (the loops_equal families measure that); these
# limits keep interactive queries in the millisecond range.
MAX_STAR_HEIGHT = 2
MAX_STAR_BODY = 15


def _fold(op, parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = (op, acc, p)
    return acc


def star_height(t):
    """Deepest nesting of stars in ``t``."""
    if isinstance(t, str):
        return 0
    return max(star_height(t[1]), star_height(t[2])) + (t[0] == "*")


def random_tree(rng, n, stars=MAX_STAR_HEIGHT):
    """A random tree over ``a,b,c`` with exactly ``n`` nodes (``n`` odd) and star height at most ``stars``."""
    if n == 1:
        return "0" if rng.random() < 0.05 else rng.choice("abc")
    op = rng.choices("+.*", weights=(40, 45, 15 if stars else 0))[0]
    stars -= op == "*"
    most = (n - 3) // 2 if op != "*" else min((n - 3) // 2, MAX_STAR_BODY // 2)
    left = 2 * rng.randint(0, most) + 1
    return (op, random_tree(rng, left, stars), random_tree(rng, n - 1 - left, stars))


# --- axiom rewrites --------------------------------------------------------


def subterms(t, path=()):
    """Every ``(path, subtree)`` of ``t``, the root first."""
    yield path, t
    if not isinstance(t, str):
        yield from subterms(t[1], path + (1,))
        yield from subterms(t[2], path + (2,))


def _applies(axiom, t):
    if axiom == "A3":
        return True
    if isinstance(t, str):
        return False
    op, left = t[0], t[1]
    return {
        "A1": op == "+",
        "A4": op == "." and _level(left) == 1,
        "A8": op == "*",
        "A9": op == "." and _level(left) == 3,
    }[axiom]


def apply_axiom(axiom, t):
    """The right-hand side of ``axiom`` instantiated at ``t``."""
    if axiom == "A3":  # e = e + e
        return ("+", t, t)
    op, left, right = t
    if axiom == "A1":  # e1 + e2 = e2 + e1
        return ("+", right, left)
    if axiom == "A4":  # (e1 + e2) . e3 = e1 . e3 + e2 . e3
        return ("+", (".", left[1], right), (".", left[2], right))
    if axiom == "A8":  # e1 * e2 = e1 . (e1 * e2) + e2
        return ("+", (".", left, t), right)
    if axiom == "A9":  # (e1 * e2) . e3 = e1 * (e2 . e3)
        return ("*", left[1], (".", left[2], right))
    raise ValueError("unknown axiom %r" % (axiom,))


def _replace(t, path, new):
    if not path:
        return new
    op, left, right = t
    if path[0] == 1:
        return (op, _replace(left, path[1:], new), right)
    return (op, left, _replace(right, path[1:], new))


def rewrite(rng, t, count):
    """Apply ``count`` seeded axiom rewrites to ``t``.

    Each step picks an axiom that applies somewhere, then one of the
    subterms where it applies.  Returns the rewritten tree and the list of
    ``(axiom, before, after)`` subterm pairs.
    """
    steps = []
    for _ in range(count):
        sites = {a: [(p, s) for p, s in subterms(t) if _applies(a, s)] for a in AXIOMS}
        axiom = rng.choice([a for a in AXIOMS if sites[a]])
        path, sub = rng.choice(sites[axiom])
        new = apply_axiom(axiom, sub)
        steps.append((axiom, sub, new))
        t = _replace(t, path, new)
    return t, tuple(steps)


# --- workloads -------------------------------------------------------------

MIXED_QUERIES = 400
# Deep-syntax EQUAL pairs, one every 50 queries (2 %).  Depths stay within
# what the recursive parser and printer handle at Python's default
# recursion limit, so that no query of the workload fails.
DEEP_EVERY = 50
DEEP_SHAPES = (("sum", 150), ("parens", 60), ("sum", 300), ("parens", 150))


def _deep_pair(i):
    kind, n = DEEP_SHAPES[i % len(DEEP_SHAPES)]
    text = "+".join(["a"] * n) if kind == "sum" else "(" * n + "a" + ")" * n
    return Query(text, "a", EQUAL, "deep_" + kind, ())


def relabel(t, letters):
    """``t`` with ``a,b,c`` renamed to ``letters``."""
    if isinstance(t, str):
        return letters["abc".index(t)] if t in "abc" else t
    return (t[0], relabel(t[1], letters), relabel(t[2], letters))


def mixed_small(rng):
    queries = []
    sizes = list(range(31, 61, 2))
    shapes = random.Random("mixed_small shapes")  # the same for every seed
    for i in range(MIXED_QUERIES):
        if i % DEEP_EVERY == DEEP_EVERY - 2:  # an even slot: EQUAL and NOT_EQUAL stay even
            queries.append(_deep_pair(i // DEEP_EVERY))
            continue
        n = sizes[i % len(sizes)]
        letters = rng.sample("abc", 3)
        if i % 2 == 0:
            e1 = relabel(random_tree(shapes, n), letters)
            e2, steps = rewrite(rng, e1, rng.randint(1, 3))
            queries.append(Query(show(e1), show(e2), EQUAL, "random", steps))
        else:
            e = random_tree(shapes, n - 2)
            while not normed(e):
                e = random_tree(shapes, n - 2)
            e = relabel(e, letters)
            queries.append(
                Query(show((".", e, "x")), show((".", e, "y")), NOT_EQUAL, "random", ())
            )
    return queries


def family_w(n):
    """``(x0.(y0*z0)+...+x{n-1}.(y{n-1}*z{n-1}))*0``"""
    return ("*", _fold("+", [(".", "x%d" % i, ("*", "y%d" % i, "z%d" % i)) for i in range(n)]), "0")


def family_n(n):
    """Nested loops ``N(k) = (a_k.N(k-1)+b_k)*c_k`` with ``N(0) = c0``."""
    t = "c0"
    for k in range(1, n + 1):
        t = ("*", ("+", (".", "a%d" % k, t), "b%d" % k), "c%d" % k)
    return t


def family_p(k):
    """Parallel edges ``(x.(y0+z0).....(y{k-1}+z{k-1}))*0``"""
    return ("*", _fold(".", ["x"] + [("+", "y%d" % i, "z%d" % i) for i in range(k)]), "0")


LOOP_FAMILIES = (
    [("W%d" % n, family_w(n)) for n in range(4, 17)]
    + [("N%d" % n, family_n(n)) for n in range(3, 11)]
    + [("P%d" % k, family_p(k)) for k in range(3, 8)]
)


def loops_equal(rng):
    queries = []
    for name, e1 in LOOP_FAMILIES:
        e2, steps = rewrite(rng, e1, rng.randint(1, 3))
        queries.append(Query(show(e1), show(e2), EQUAL, name, steps))
    return queries


# Refinement on a pair of paths of n actions takes about n rounds over 2n
# nodes, so a query costs about n^2; 24 lengths keep one pass near 8 s.
CHAIN_LENGTHS = tuple(100 + 100 * i // 23 for i in range(24))


def chain_distinct(rng):
    queries = []
    for n in CHAIN_LENGTHS:
        c = ".".join(rng.choice("abc") for _ in range(n))
        queries.append(Query(c + ".x", c + ".y", NOT_EQUAL, "chain%d" % n, ()))
    return queries


_GENERATORS = {"mixed_small": mixed_small, "loops_equal": loops_equal, "chain_distinct": chain_distinct}
WORKLOADS = tuple(_GENERATORS)


def queries(workload, seed):
    """The fixed query list of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError("unknown workload %r" % (workload,))
    return _GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))
