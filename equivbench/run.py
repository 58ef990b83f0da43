"""The ``equiv`` benchmark: seeded query lists through ``lleekit equiv``.

Usage, from the root of a checkout::

    python3 equivbench/run.py --workload mixed_small --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each query is a call
of ``lleekit.cli.run(["equiv", E1, E2])`` made in-process, and the next one
starts when it returns.  The run repeats the workload's fixed query list
(see ``workloads.py``) in whole passes for about ``--seconds`` seconds and
judges every answer against the verdict known by construction.

Times are scaled to a reference host speed.  On a shared host the speed of
a core changes by up to half within seconds and drifts for minutes, which
no run length averages out, and process CPU time slows down with it.
Every ``REF_EVERY`` seconds an interval timer times a fixed pure-Python
task that does not touch lleekit (``reference.task``), also in the middle
of a query, whose time then excludes it.  Each measured time is multiplied
by ``REF_SECONDS`` over the median of the task's timings taken around it.
A query's latency is the median of its scaled times over the passes.  The
import timings of ``setup_s`` are scaled the same way, by timings of the
task in the importing interpreter itself.  The unscaled wall-time and
CPU-time figures are printed as notes.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times and counts
per pass over the query list, from the spans of ``spans.py``, plus the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import contextlib
import gc
import io
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

INF = float("inf")
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
SETUP_RUNS_PER_PASS = 8
SETUP_REFS = 5  # reference timings in the importing interpreter, before and after
REF_SECONDS = 0.00096  # reference.task on a quiet 2-core x86-64 VM, CPython 3.11
REF_EVERY = 0.05  # seconds between reference timings
REF_NEAR = 0.1  # reference timings this close to a query scale its time

# Runs in a fresh interpreter: times the import between timings of
# reference.task, which imports nothing that lleekit needs.
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from reference import task\n"
    "def refs():\n"
    "    out = []\n"
    "    for _ in range(%d):\n"
    "        t = time.perf_counter(); task(); out.append(time.perf_counter() - t)\n"
    "    return out\n"
    "before = refs()\n"
    "t = time.perf_counter()\n"
    "import lleekit, lleekit.cli\n"
    "seconds = time.perf_counter() - t\n"
    "print(repr(seconds), *map(repr, before + refs()))\n"
) % SETUP_REFS


def import_seconds(runs):
    """Scaled times to import ``lleekit`` and ``lleekit.cli`` in ``runs`` fresh interpreters.

    ``compileall`` has written the ``.pyc`` files beforehand, so this is
    what every CLI call pays.  Each time is scaled by the median of the
    reference timings taken in the same interpreter around the import.
    """
    cmd = [sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC), str(HERE)]
    times = []
    for _ in range(runs):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True).stdout
        seconds, *refs = map(float, out.split())
        times.append(seconds * REF_SECONDS / statistics.median(refs))
    return times


class HostSpeed:
    """Host speed, sampled by timing ``reference.task`` every ``REF_EVERY`` seconds.

    While ``sampling()`` is active an interval timer takes the samples, so
    they fall inside long queries too.  ``paused`` adds up the time spent
    in samples; ``ask`` subtracts it from the time it measures.
    """

    def __init__(self):
        self.starts = []
        self.seconds = []
        self.paused = 0.0

    def sample(self, *_signal):
        # no collection inside the sample: its cost depends on lleekit's heap
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference.task()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(end - start)
        self.paused += end - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start, end):
        """Factor from host speed during ``[start, end]`` to reference speed.

        Uses the samples taken within ``REF_NEAR`` seconds of the interval,
        and at least the last one before it and the first after.
        """
        i = bisect.bisect_left(self.starts, start - REF_NEAR)
        i = min(i, max(bisect.bisect_left(self.starts, start) - 1, 0))
        j = bisect.bisect_right(self.starts, end + REF_NEAR)
        j = max(j, bisect.bisect_right(self.starts, end) + 1)
        return REF_SECONDS / statistics.median(self.seconds[i:j])


# --- judging answers -------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([a-z][a-z0-9_]*|0)|([+.*])|([()]))")


def syntax_nodes(text):
    """Syntax nodes of an expression in lleekit's concrete syntax.

    Counts leaves and binary operators (parentheses are not nodes) and
    checks, without recursion, that the text is a well-formed expression.
    Returns ``(nodes, action names)``; raises ``ValueError`` otherwise.
    """
    pos, depth, nodes, expect_operand, names = 0, 0, 0, True, set()
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("bad character at %d" % pos)
        pos = m.end()
        leaf, op, paren = m.groups()
        if paren == "(" and expect_operand:
            depth += 1
        elif paren == ")" and not expect_operand and depth:
            depth -= 1
        elif leaf and expect_operand:
            nodes += 1
            expect_operand = False
            if leaf != "0":
                names.add(leaf)
        elif op and not expect_operand:
            nodes += 1
            expect_operand = True
        else:
            raise ValueError("malformed expression at %d" % pos)
    if expect_operand or depth:
        raise ValueError("incomplete expression")
    return nodes, names


def judge(query, code, out, err):
    """``(failure, wrong, certificate nodes)`` for one answer.

    ``failure`` is None for a good answer, else the reason; ``wrong`` marks
    an answer that printed a verdict or certificate that is not correct.
    The verdict is read from the first line of standard output, because
    exit code 1 means NOT_EQUAL and any ``LleekitError`` alike.  The
    certificate is the printed expression (EQUAL) or the node ids of the
    two printed blocks (NOT_EQUAL); node ids are expressions too.
    """
    lines = out.splitlines()
    verdict = lines[0] if lines else ""
    if code == 2 or any(line.startswith(("error:", "parse error:")) for line in err.splitlines()):
        return "error exit %s: %s" % (code, err.strip()[:200]), False, 0
    if verdict not in (workloads.EQUAL, workloads.NOT_EQUAL):
        return "no verdict (exit %s)" % code, False, 0
    if (code == 0) != (verdict == workloads.EQUAL):
        return "exit %s with verdict %s" % (code, verdict), True, 0
    if verdict != query.expected:
        return "verdict %s, expected %s" % (verdict, query.expected), True, 0
    try:
        if verdict == workloads.EQUAL:
            nodes, names = syntax_nodes(lines[1])
            if not names <= syntax_nodes(query.e1)[1]:
                raise ValueError("certificate uses actions not in E1")
        else:
            nodes = 0
            for line, side in zip(lines[1:3], ("block1: ", "block2: "), strict=True):
                if not line.startswith(side):
                    raise ValueError("expected %r" % side)
                for node in line[len(side):].split():
                    if node[:2] not in ("g:", "h:"):
                        raise ValueError("block node %r has no side prefix" % node)
                    nodes += syntax_nodes(node[2:])[0]
    except (IndexError, ValueError) as exc:
        return "bad certificate: %s" % exc, True, 0
    return None, False, nodes


# --- running queries -------------------------------------------------------


def ask(cli, query, host=None):
    """Run one query; return ``(seconds, CPU seconds, failure, wrong, certificate nodes)``.

    Time spent in ``host``'s speed samples during the call is not counted.
    """
    out, err = io.StringIO(), io.StringIO()
    paused = host.paused if host else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.run(["equiv", query.e1, query.e2])
            failure = None
        except Exception as exc:  # noqa: BLE001 - any escape from cli.run is a failed query
            failure = "raised %s" % type(exc).__name__
        paused = (host.paused - paused) if host else 0.0
        seconds = time.perf_counter() - start - paused
        cpu = time.process_time() - cpu - paused  # the samples are pure CPU work
    if failure:
        return seconds, cpu, failure, False, 0
    return (seconds, cpu) + judge(query, code, out.getvalue(), err.getvalue())


class Tally:
    """Times and verdicts of the passes of one kind (traced or not)."""

    def __init__(self, queries, host):
        self.queries = queries
        self.host = host
        self.seconds = [[] for _ in queries]  # per query, scaled, one per pass
        self.cpu = [[] for _ in queries]  # per query, unscaled CPU seconds, one per pass
        self.good = [[] for _ in queries]  # per query, whether each pass answered it well
        self.wall = []  # unscaled seconds inside cli.run, per pass
        self.scales = []  # median scale of each pass
        self.attempted = self.failed = self.wrong = 0
        self.cert_nodes = None  # per query, from the first pass
        self.failures = []

    def run_pass(self, cli, recorder=None):
        timed, cert = [], []
        with self.host.sampling():
            for i, query in enumerate(self.queries):
                if recorder:
                    recorder.query = i
                start = time.perf_counter()
                seconds, cpu, failure, wrong, nodes = ask(cli, query, self.host)
                self.attempted += 1
                self.cpu[i].append(cpu)
                self.good[i].append(failure is None)
                cert.append(nodes)
                if failure:
                    self.failed += 1
                    self.wrong += wrong
                    self.failures.append((i, query.family, failure))
                timed.append((start, seconds))
        self.host.sample()
        scales = []
        for i, (start, seconds) in enumerate(timed):
            scale = self.host.scale(start, start + seconds)
            scales.append(scale)
            self.seconds[i].append(seconds * scale)
        self.wall.append(sum(t for _, t in timed))
        self.scales.append(statistics.median(scales))
        if self.cert_nodes is None:
            self.cert_nodes = cert

    def costs(self, times=None):
        """Per query, the median of its times over the passes, failed ones included.

        ``times`` are per-query lists like ``self.seconds`` (the default).
        """
        return [statistics.median(per) for per in (times or self.seconds)]

    def figures(self, times=None):
        """``(verdicts per second, p50, tail, tail rank)`` of the query list.

        The rate divides the correct verdicts of a pass by the time of all
        its queries, failed ones included.  Latency is per query, the median
        over the passes, where a failed answer counts as +inf.
        """
        times = times or self.seconds
        verdicts = sum(map(sum, self.good)) / len(self.wall)
        lat = sorted(
            statistics.median(t if ok else INF for t, ok in zip(per, good))
            for per, good in zip(times, self.good)
        )
        tail_rank = max(len(lat) - TAIL_BEYOND - 1, 0)
        return verdicts / sum(self.costs(times)), statistics.median(lat), lat[tail_rank], tail_rank


def certificate_ratio(queries, cert_nodes):
    """``(verdict, ratio)``: certificate nodes over E1 nodes, summed over the EQUAL queries.

    A list without EQUAL queries sums over its NOT_EQUAL queries instead,
    whose certificate is the node ids of the two printed blocks.
    """
    kinds = {q.expected for q in queries}
    kind = workloads.EQUAL if workloads.EQUAL in kinds else workloads.NOT_EQUAL
    picked = [i for i, q in enumerate(queries) if q.expected == kind]
    e1_nodes = sum(syntax_nodes(queries[i].e1)[0] for i in picked)
    return kind, sum(cert_nodes[i] for i in picked) / e1_nodes


def end_to_end(queries, seconds, cli):
    host = HostSpeed()
    tally = Tally(queries, host)
    setup = []
    start = time.perf_counter()
    while True:
        # import timings are spread over the run like the passes
        setup += import_seconds(SETUP_RUNS_PER_PASS)
        tally.run_pass(cli)
        if time.perf_counter() - start + max(tally.wall) > seconds:
            break
    rate, p50, tail, tail_rank = tally.figures()
    cpu_rate, cpu_p50, cpu_tail, _ = tally.figures(tally.cpu)
    cert_kind, cert_ratio = certificate_ratio(queries, tally.cert_nodes)
    metrics = {
        "verdicts_per_s": (rate, "1/s"),
        "verdict_p50_ms": (p50 * 1e3, "ms"),
        "verdict_tail_ms": (tail * 1e3, "ms"),
        "cert_size_ratio": (cert_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    n = len(queries)
    notes = [
        "%d queries x %d passes; a query's latency is its median over the passes"
        % (n, len(tally.wall)),
        "verdict_tail_ms is p%.1f of n=%d queries" % (100 * (tail_rank + 1) / n, n),
        "failed_share %g (%d of %d attempted)"
        % (tally.failed / tally.attempted, tally.failed, tally.attempted),
        "cert_size_ratio sums over the %s queries" % cert_kind,
        "setup_s is the median of %d imports" % len(setup),
        "unscaled wall time: %.3f verdicts/s over all passes; median scale per pass %s; "
        "median reference %.6f s"
        % ((tally.attempted - tally.failed) / sum(tally.wall),
           " ".join("%.3f" % s for s in tally.scales), statistics.median(host.seconds)),
        "unscaled CPU time: verdicts_per_s %.4f, verdict_p50_ms %.4f, verdict_tail_ms %.4f"
        % (cpu_rate, cpu_p50 * 1e3, cpu_tail * 1e3),
    ]
    return (tally,), metrics, notes


# Per-layer time metrics: name -> (span name, "self" | "total" | "calls").
LAYER_SPANS = {
    "cli.run_self_s": ("cli.run", "self"),
    "expr.parse_s": ("expr.parse", "self"),
    "expr.parse_calls": ("expr.parse", "calls"),
    "chart.build_s": ("chart.build", "self"),
    "chart.build_calls": ("chart.build", "calls"),
    "chart.interpret_s": ("chart.interpret", "self"),
    "chart.interpret_calls": ("chart.interpret", "calls"),
    "bisim.partition_s": ("bisim.partition", "self"),
    "bisim.partition_calls": ("bisim.partition", "calls"),
    "lee.find_witness_s": ("lee.find_witness", "self"),
    "lee.find_witness_calls": ("lee.find_witness", "calls"),
    "lee.layer_s": ("lee.layer", "self"),
    "lee.layer_calls": ("lee.layer", "calls"),
    "reflect.transfer_s": ("reflect.transfer", "self"),
    "reflect.lemma_s": ("reflect.lemma", "self"),
    "reflect.images_s": ("reflect.images", "self"),
    "reflect.images_calls": ("reflect.images", "calls"),
    "solve.equiv_self_s": ("solve.equiv", "self"),
    "solve.extract_s": ("solve.extract", "self"),
    "solve.check_s": ("solve.check", "self"),
    "solve.check_total_s": ("solve.check", "total"),
}
LAYER_COUNTS = (
    "chart.states",
    "chart.transitions",
    "bisim.partition_nodes",
    "bisim.partition_blocks",
    "solve.solution_nodes",
)


def per_layer(queries, seconds, cli, workload):
    """Alternate untraced and traced passes; per-layer figures per traced pass."""
    host = HostSpeed()
    plain, traced = Tally(queries, host), Tally(queries, host)
    recorder = Recorder(clock=lambda: time.perf_counter() - host.paused)
    per_pass = []
    origin = recorder.clock()
    start = time.perf_counter()
    while True:
        plain.run_pass(cli)
        first = len(recorder.spans)
        recorder.install()
        try:
            traced.run_pass(cli, recorder)
        finally:
            recorder.uninstall()
        recorder.settle()
        totals = recorder.totals(first)
        scale = traced.scales[-1]
        figures = {}
        for metric, (span, kind) in LAYER_SPANS.items():
            calls, self_s, total_s = totals.get(span, (0, 0.0, 0.0))
            figures[metric] = {"calls": calls, "self": self_s * scale, "total": total_s * scale}[kind]
        for name in LAYER_COUNTS:
            figures[name] = recorder.counts.get(name, 0)
        recorder.counts.clear()
        per_pass.append(figures)
        if time.perf_counter() - start + max(plain.wall) + max(traced.wall) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / ("%s.spans.tsv" % workload), origin)
    metrics = {}
    for name in per_pass[0]:
        unit = "count" if name in LAYER_COUNTS or name.endswith("_calls") else "s"
        metrics[name] = (statistics.median(f[name] for f in per_pass), unit)
    metrics["trace_overhead"] = (sum(traced.costs()) / sum(plain.costs()), "ratio")
    notes = [
        "%d untraced and %d traced passes of %d queries; %d spans"
        % (len(plain.wall), len(traced.wall), len(queries), len(recorder.spans)),
        "times are per traced pass, scaled to reference speed",
    ]
    return (plain, traced), metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lleekit" / "cli.py").is_file():
        sys.stderr.write("error: no lleekit sources under %s\n" % SRC)
        return 2
    # Measure the program as shipped: default state cap, default recursion limit.
    os.environ.pop("LLEEKIT_STATE_CAP", None)
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.stderr.write("error: lleekit sources do not compile\n")
        return 2
    sys.path.insert(0, str(SRC))
    from lleekit import cli

    queries = workloads.queries(args.workload, args.seed)
    if args.trace:
        tallies, metrics, notes = per_layer(queries, args.seconds, cli, args.workload)
    else:
        tallies, metrics, notes = end_to_end(queries, args.seconds, cli)

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    for tally in tallies:
        for i, family, failure in tally.failures[:20]:
            print("  failed query %d (%s): %s" % (i, family, failure))
    for name, (value, unit) in metrics.items():
        print("  %-24s %14.6f %s" % (name, value, unit))
    print(json.dumps(result(tallies, metrics)))
    return 0


def result(tallies, metrics):
    """The JSON result.  A failed query makes it incorrect: no workload should fail."""
    failed = sum(t.failed for t in tallies)
    return {
        "correct": not failed and not any(t.wrong for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
