"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation (see DESIGN.md §4) has
one ``bench_*.py`` module here; run them with::

    pytest benchmarks/ --benchmark-only

Reproduced tables are printed to stdout *and* written under
``benchmarks/results/`` so a full run leaves a reviewable record.

Set ``REPRO_BENCH_QUICK=1`` to skip the large ``m`` benchmark (the full
Table 3 run takes several minutes on it).
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

RESULTS_DIR = Path(__file__).parent / "results"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def benchmarks_cache():
    """Loaded suite benchmarks, generated once per session."""
    from repro.bench import load_benchmark

    cache = {}

    def load(name):
        if name not in cache:
            cache[name] = load_benchmark(name)
        return cache[name]

    return load


def emit(results_dir: Path, table) -> None:
    """Print and persist a reproduced table (a bench TableArtifact).

    Writes two renderings of the *same* record: ``<name>.txt`` is
    ``table.render()`` and ``BENCH_<name>.json`` is ``table.to_dict()``
    with the git sha stamped in.  Nothing in the repository reads the
    JSON; it keeps the table's numbers machine-readable.
    """
    text = table.render()
    print(f"\n===== {table.name} =====\n" + text)
    (results_dir / f"{table.name}.txt").write_text(text + "\n")
    table.write(results_dir)
