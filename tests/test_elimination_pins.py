"""Pinned witnesses of the elimination pipeline on the loop families.

For W(n), N(n) and P(k) (see ROADMAP.md) the test interprets the
expression and pins the ``to_text()`` of four witnesses by their SHA-256
prefix: the one :func:`find_lee_witness` finds, its layering by
:func:`lee_to_llee`, the witness :func:`collapse_lee_witness` reflects onto
the collapse, and the layering of that.  The digests were recorded with the
elimination code that rebuilt a whole chart after every step, so they hold
the rewritten loops to exactly the old witnesses, orders included.
"""

import hashlib

import pytest

from lleekit.bisim import collapse
from lleekit.chart import interpret
from lleekit.expr import parse
from lleekit.lee import find_lee_witness, lee_to_llee
from lleekit.reflect import collapse_lee_witness


def family_w(n):
    body = "+".join("x%d.y%d*z%d" % (i, i, i) for i in range(n))
    return "(%s)*0" % body


def family_n(n):
    e = "c0"
    for k in range(1, n + 1):
        e = "(a%d.%s+b%d)*c%d" % (k, e, k, k)
    return e


def family_p(k):
    return "(x.%s)*0" % ".".join("(y%d+z%d)" % (i, i) for i in range(k))


CASES = {
    "W3": family_w(3),
    "W4": family_w(4),
    "W5": family_w(5),
    "W6": family_w(6),
    "N3": family_n(3),
    "N4": family_n(4),
    "N5": family_n(5),
    "P3": family_p(3),
    "P4": family_p(4),
    "P5": family_p(5),
}

# (find_lee_witness, lee_to_llee, collapse_lee_witness, lee_to_llee of that)
PINS = {
    "W3": ("208888fea1f6c63a", "bc62eb9e579acb8f", "a2f744c6518a52ba", "083ad7740dd2cf32"),
    "W4": ("bb5e81f83a2c2e56", "1f3a29c152c55947", "556666b950c6aa51", "458277e113f1ef1e"),
    "W5": ("11e0555b34beb90f", "d82f76c000ea522a", "1c118b1b5f228f7a", "3f81af0d7259a41b"),
    "W6": ("c30c1bd8245c0cec", "c658efa794a07d44", "ba7985c48b2e4a43", "078600a05335bad1"),
    "N3": ("901cfedc23ff2f12", "d6bbcd317efe063c", "901cfedc23ff2f12", "d6bbcd317efe063c"),
    "N4": ("39c0ae7a1b335875", "ad39d08b9254cca5", "39c0ae7a1b335875", "ad39d08b9254cca5"),
    "N5": ("6036b8dafb0cc5d6", "058b3d32edf6312b", "6036b8dafb0cc5d6", "058b3d32edf6312b"),
    "P3": ("e8aca4fe52c183d1", "e8aca4fe52c183d1", "e8aca4fe52c183d1", "e8aca4fe52c183d1"),
    "P4": ("ecf55d0e3c783dd9", "ecf55d0e3c783dd9", "ecf55d0e3c783dd9", "ecf55d0e3c783dd9"),
    "P5": ("7372a9061290af64", "7372a9061290af64", "7372a9061290af64", "7372a9061290af64"),
}


def _digest(w):
    return hashlib.sha256(w.to_text().encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_witness_pipeline_pinned(name):
    g = interpret(parse(CASES[name]))
    lee = find_lee_witness(g)
    llee = lee_to_llee(lee)
    reflected = collapse_lee_witness(collapse(g).theta, llee)
    layered = lee_to_llee(reflected)
    assert tuple(_digest(w) for w in (lee, llee, reflected, layered)) == PINS[name]
