"""Pinned CLI output on every chart and witness under ``fixtures/``.

``collapse`` and ``lee`` run on each chart; ``llee``, ``check-witness``
(with and without ``--llee``), ``lee2llee``, ``reflect`` and ``solve`` run
on each witness together with its chart (``X_hat….witness`` belongs to
``X.chart``).  Every command runs in text, JSON and dot.  The expected exit
code, stdout and stderr are the program's own output, recorded once in
``golden/cli_fixtures.json``; a stdout longer than ``DIGEST_OVER``
characters (the JSON solution of ``cii``) is pinned by its SHA-256 digest.
To record them again, run this file::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import pytest

from lleekit.cli import run
from test_certificate_golden import assert_same_processes, solution_lines

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_fixtures.json"

CHART_COMMANDS = (["collapse"], ["lee"])
PAIR_COMMANDS = (
    ["llee"],
    ["check-witness"],
    ["check-witness", "--llee"],
    ["lee2llee"],
    ["reflect"],
    ["solve"],
)
FORMATS = ("text", "json", "dot")
DIGEST_OVER = 20000


def _cases():
    charts = sorted(p.name for p in FIXTURES.glob("*.chart"))
    witnesses = sorted(p.name for p in FIXTURES.glob("*.witness"))
    for fmt in FORMATS:
        for command in CHART_COMMANDS:
            for chart in charts:
                yield ["--format", fmt] + command[:1] + [chart] + command[1:]
        for command in PAIR_COMMANDS:
            for witness in witnesses:
                chart = witness.split("_hat")[0] + ".chart"
                yield ["--format", fmt] + command[:1] + [chart, witness] + command[1:]


CASES = [" ".join(argv) for argv in _cases()]


def _run(case):
    """``(exit code, stdout, stderr)`` of ``lleekit CASE`` run in ``fixtures/``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(case.split())
    finally:
        os.chdir(cwd)
    out = out.getvalue()
    if len(out) > DIGEST_OVER:
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    return [code, out, err.getvalue()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_golden(golden, case):
    assert _run(case) == golden[case]


def test_unfactored_cii_solution_bisimilar_to_new(golden):
    # ``solve cii.chart cii_hat.witness`` before extraction factored it at
    # join nodes; the JSON case prints the same expressions as trees
    old = (GOLDEN.parent / "unfactored" / "cii.solution").read_text(encoding="utf-8")
    new = golden["--format text solve cii.chart cii_hat.witness"][1]
    assert_same_processes(solution_lines(old), solution_lines(new))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: _run(c) for c in CASES}, indent=1, sort_keys=True) + "\n")
    sys.stdout.write("recorded %d cases in %s\n" % (len(CASES), GOLDEN))
