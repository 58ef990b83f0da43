"""Fixed pure-Python work that measures how fast the host runs right now.

The module imports nothing, so a fresh interpreter can time :func:`task`
before and after importing lleekit without importing, ahead of the timed
import, any module that lleekit needs.
"""

STEPS = 800


def task():
    """Build, print and hash small expression trees, as lleekit does.

    The choices come from a fixed linear congruential sequence, so every
    call does the same work.  There is no recursion in Python, so timing the
    task in the middle of a deeply recursive query adds only a few frames
    to the stack.
    """
    x = 1
    pool = [("a", "a", 1), ("b", "b", 1), ("c", "c", 1)]  # (tree, text, size)
    index = {}
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        lt, ls, ln = pool[x % len(pool)]
        rt, rs, rn = pool[(x >> 10) % len(pool)]
        op = "+.*"[(x >> 20) % 3]
        tree, text = (op, lt, rt), "(" + ls + op + rs + ")"
        index[tree] = text
        pool.append((tree, text, ln + rn + 1) if ln + rn < 44 else pool[x % 3])
    return len(index)
