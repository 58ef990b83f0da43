"""Shared fixtures: the example charts, witnesses and maps under fixtures/."""

import gc
import os
import pathlib
import subprocess
import sys

import pytest

import lleekit
from lleekit.bisim import BisimMap
from lleekit.chart import Chart
from lleekit.lee import Witness

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name):
    return FIXTURES / name


def load_chart(name):
    return Chart.from_text(fixture_path(name).read_text())


def load_witness(name, chart):
    return Witness.from_text(fixture_path(name).read_text(), chart)


def load_map(name, source, target):
    return BisimMap.from_text(fixture_path(name).read_text(), source, target)


def run_python(args, hash_seed, **kwargs):
    """Run ``python args`` in a fresh interpreter with ``PYTHONHASHSEED=hash_seed``
    and this checkout's lleekit importable."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    src = str(pathlib.Path(lleekit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, timeout=60, **kwargs
    )


def in_both_collector_states(call):
    """``[call(), call()]``, the first made with the cyclic garbage
    collector enabled and the second with it disabled; each must leave the
    collector as it found it.  The collector's own state is restored."""
    was_enabled = gc.isenabled()
    results = []
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            results.append(call())
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    return results


@pytest.fixture(scope="session")
def chart_g():
    return load_chart("g.chart")


@pytest.fixture(scope="session")
def witness_g_hat(chart_g):
    return load_witness("g_hat.witness", chart_g)


@pytest.fixture(scope="session")
def chart_h():
    return load_chart("h.chart")


@pytest.fixture(scope="session")
def witness_h_hat(chart_h):
    return load_witness("h_hat.witness", chart_h)


@pytest.fixture(scope="session")
def map_g_to_h(chart_g, chart_h):
    return load_map("g_to_h.map", chart_g, chart_h)


@pytest.fixture(scope="session")
def chart_ci():
    return load_chart("ci.chart")


@pytest.fixture(scope="session")
def witness_ci_hat(chart_ci):
    return load_witness("ci_hat.witness", chart_ci)


@pytest.fixture(scope="session")
def witness_ci_hat_prime(chart_ci):
    return load_witness("ci_hat_prime.witness", chart_ci)


@pytest.fixture(scope="session")
def chart_cii():
    return load_chart("cii.chart")


@pytest.fixture(scope="session")
def witness_cii_hat(chart_cii):
    return load_witness("cii_hat.witness", chart_cii)


@pytest.fixture(scope="session")
def map_cii_to_ci(chart_cii, chart_ci):
    return load_map("cii_to_ci.map", chart_cii, chart_ci)
