"""Shared helpers for the figure/table regeneration benchmarks.

Every module here regenerates one table or figure of the paper: it runs the
simulated experiment under pytest-benchmark (so the harness also reports the
wall-clock cost of the simulation itself), prints the regenerated rows, and
asserts the *shape* claims — who wins, by what factor, where the crossovers
sit — against the paper (absolute tolerances in DESIGN.md §4).
"""

from __future__ import annotations

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Mark everything in this directory ``benchmark`` unless it is ``fast``.

    This is the tier split: ``pytest -m "not benchmark"`` runs only the quick
    tier-1 tests (including the ``fast``-marked smoke files collected from
    here), while a plain ``pytest benchmarks`` still regenerates every figure.
    The hook sees every collected item, so items outside this directory are
    left alone.
    """
    for item in items:
        if (HERE in item.path.parents
                and item.get_closest_marker("fast") is None):
            item.add_marker(pytest.mark.benchmark)


@pytest.fixture
def show(capsys):
    """Print a regenerated table to the real terminal, bypassing capture."""
    def emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)
    return emit


def run_once(benchmark, fn):
    """Run a simulation experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
