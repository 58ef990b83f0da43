"""Span recorder for the traced run of the ``equiv`` benchmark.

The traced run wraps lleekit's public stage functions from outside: each
wrapper is installed under every name a caller inside the package resolves
(``lleekit.solve.interpret`` as well as ``lleekit.chart.interpret``), and
``Chart.__init__`` is wrapped on the class.  Nothing under ``src/`` changes,
and :meth:`Recorder.uninstall` restores the originals.

A span is ``[name, parent, query, start, end, child]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``query`` the index of the
query it served, and ``child`` the time covered by its direct children.  A
span's self time is its duration minus ``child``.  Spans stay in memory
until :meth:`Recorder.write` puts them in a file.

``unparse`` is deliberately not wrapped: it is recursive and runs about a
million times per pass, so a wrapper would mostly measure itself.  Its cost
stays in the self time of its callers.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _count_interpret(rec, args, chart):
    rec.counts["chart.states"] += len(chart.nodes)
    rec.counts["chart.transitions"] += len(chart.transitions)


def _count_partition(rec, args, partition):
    rec.counts["bisim.partition_nodes"] += len(args[0].nodes)
    rec.counts["bisim.partition_blocks"] += len(partition.blocks)


def _keep_solution(rec, args, solution):
    # sized later by Recorder.settle, outside every span
    rec.solutions.append(solution)


# (span name, module, attribute, count hook); ``Class.method`` wraps a method.
TARGETS = (
    ("cli.run", "lleekit.cli", "run", None),
    ("expr.parse", "lleekit.expr", "parse", None),
    ("chart.interpret", "lleekit.chart", "interpret", _count_interpret),
    ("chart.build", "lleekit.chart", "Chart.__init__", None),
    ("bisim.partition", "lleekit.bisim", "bisimilarity_partition", _count_partition),
    ("lee.find_witness", "lleekit.lee", "find_lee_witness", None),
    ("lee.layer", "lleekit.lee", "lee_to_llee", None),
    ("reflect.transfer", "lleekit.reflect", "collapse_lee_witness", None),
    ("reflect.lemma", "lleekit.reflect", "check_lemma_conditions", None),
    ("reflect.images", "lleekit.reflect", "images", None),
    ("solve.equiv", "lleekit.solve", "equiv", None),
    ("solve.extract", "lleekit.solve", "extract_solution", _keep_solution),
    ("solve.check", "lleekit.solve", "solution_check", None),
)


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self.solutions = []  # extracted solutions, sized after each pass
        self.query = -1
        self._open = []
        self._patches = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, self.query, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec[4] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[3]
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target under each name that currently refers to it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "lleekit"]
        for span, module_name, attr, count in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self.wrap(span, original, count))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def settle(self):
        """Size the solutions extracted since the last call."""
        size = importlib.import_module("lleekit.expr").size
        for sol in self.solutions:
            self.counts["solve.solution_nodes"] += sum(size(e) for e in sol.assign.values())
        self.solutions.clear()

    def totals(self, first=0):
        """Per span name: (calls, self seconds, inclusive seconds) from span ``first`` on."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, _, _, start, end, child in self.spans[first:]:
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start - child
            agg[2] += end - start
        return out

    def write(self, path, origin):
        """Write every span as a tab-separated line, times in microseconds after ``origin``."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tquery\tname\tstart_us\tend_us\tself_us\n")
            for i, (name, parent, query, start, end, child) in enumerate(self.spans):
                f.write(
                    "%d\t%d\t%d\t%s\t%.1f\t%.1f\t%.1f\n"
                    % (i, parent, query, name, (start - origin) * 1e6,
                       (end - origin) * 1e6, (end - start - child) * 1e6)
                )
