"""Shared test configuration for the suite.

``REPRO_TEST_BACKEND`` (used by the CI process-pool pass) narrows the
backend-parametrized parallel suites to a single backend
(:data:`TEST_BACKENDS`).  When it names ``process``, an autouse
fixture additionally turns the executor's pool-startup fallback into a
hard test failure: the point of that CI pass is to exercise the *real*
process pool, so silently degrading to the serial path would make the
pass vacuous.
"""

import os

import pytest

from repro.parallel import BACKENDS

FORCED_BACKEND = os.environ.get("REPRO_TEST_BACKEND")

#: the backends the parallel suites parametrize over
TEST_BACKENDS = (FORCED_BACKEND,) if FORCED_BACKEND else BACKENDS


@pytest.fixture(autouse=True)
def _no_silent_pool_fallback(monkeypatch):
    if FORCED_BACKEND != "process":
        yield
        return
    from repro.parallel import executor

    real_start = executor._start_pool

    def strict_start(fn, shared, workers):
        try:
            return real_start(fn, shared, workers)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.fail(
                "process pool failed to start under "
                f"REPRO_TEST_BACKEND=process: {exc!r}"
            )

    monkeypatch.setattr(executor, "_start_pool", strict_start)
    yield


@pytest.fixture
def force_kernel(monkeypatch):
    """Pin the fill-region cutter ``analyze_layer`` picks when none is named.

    ``force_kernel("rect")`` (or ``"raster"``) replaces the analysis's
    choice for the rest of the test.  Process-pool workers fork from
    the patched parent, so sharded analyses run the forced cutter too.
    """
    from repro.density import analysis

    def force(kernel):
        monkeypatch.setattr(analysis, "_choose_kernel", lambda layer, grid, windows: kernel)

    return force
